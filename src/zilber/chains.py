"""Chain complexes of finitely generated free ℤ-modules, tensor products
with Koszul signs, chain maps and their mapping cones, and homology.

Homology values are reported as AbelianGroupInvariants: a free rank plus the
chain of invariant factors (each >= 2, each dividing the next), read off the
Smith diagonals of the differentials.  A chain map induces an isomorphism on
homology iff its mapping cone is acyclic, so no induced map is built.
"""

from __future__ import annotations

from collections import namedtuple

from . import intlinalg as la

CHAIN_FORMAT = "chain"
CHAIN_VERSION = 1


def check_version(payload, version):
    """Raise ValueError unless the payload's "version" is the int version."""
    found = payload.get("version")
    if type(found) is not int or found != version:
        raise ValueError(f"{payload['format']} payload version must be "
                         f"{version}, not {found!r}")


class AbelianGroupInvariants(namedtuple("AbelianGroupInvariants",
                                         ("free_rank", "torsion"))):
    """ℤ^free_rank ⊕ ⊕_t ℤ/t: a validated named tuple, equal to the tuple
    (free_rank, torsion)."""

    __slots__ = ()

    def __new__(cls, free_rank, torsion):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        return tuple.__new__(cls, (free_rank, torsion))

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """A nonnegatively graded chain complex of free ℤ-modules, zero above
    top_degree.  diffs[n] is the matrix of d_n : C_n -> C_{n-1} for
    1 <= n <= top_degree; a missing one is zero.  A differential may be
    given as a list of rows (payload input)."""

    def __init__(self, ranks, diffs):
        self.ranks = list(ranks)
        self.top_degree = len(self.ranks) - 1
        for n in diffs:
            if not 1 <= n <= self.top_degree:
                raise ValueError(f"differential d_{n} lies outside degrees "
                                 f"1..{self.top_degree}")
        self.diffs = {}
        for n in range(1, self.top_degree + 1):
            M = diffs.get(n)
            r, c = self.ranks[n - 1], self.ranks[n]
            self.diffs[n] = (la.zeros(r, c) if M is None else
                             la.as_sparse(M, r, c, f"differential d_{n}"))
        self._validate()

    def rank(self, n):
        if 0 <= n <= self.top_degree:
            return self.ranks[n]
        return 0

    def diff(self, n):
        """d_n : C_n -> C_{n-1}; zero matrix outside the stored range."""
        if 1 <= n <= self.top_degree:
            return self.diffs[n]
        return la.zeros(self.rank(n - 1), self.rank(n))

    def _validate(self):
        for n in range(2, self.top_degree + 1):
            if not la.product_is_zero(self.diffs[n - 1], self.diffs[n]):
                raise ValueError(f"d_{n-1} ∘ d_{n} != 0")

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.ranks == other.ranks
                and all(la.mat_eq(self.diff(n), other.diff(n))
                        for n in range(1, self.top_degree + 1)))

    def to_payload(self):
        return {
            "format": CHAIN_FORMAT,
            "version": CHAIN_VERSION,
            "ranks": self.ranks,
            "differentials": {str(n): la.rows(self.diffs[n])
                              for n in range(1, self.top_degree + 1)},
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != CHAIN_FORMAT:
            raise ValueError("not a chain payload")
        check_version(payload, CHAIN_VERSION)
        if any(type(n) is not int or n < 0 for n in payload["ranks"]):
            raise ValueError("ranks must be nonnegative integers")
        diffs = {int(n): M for n, M in payload["differentials"].items()}
        return cls(payload["ranks"], diffs)


def unit_complex():
    """ℤ concentrated in degree 0."""
    return ChainComplex([1], {})


class ChainMap:
    """A degreewise integer matrix commuting with the differentials; a
    missing component is zero."""

    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        self.mats = {}
        for n in range(max(source.top_degree, target.top_degree) + 1):
            M = mats.get(n)
            r, c = target.rank(n), source.rank(n)
            self.mats[n] = (la.zeros(r, c) if M is None else
                            la.as_sparse(M, r, c, f"chain map component {n}"))
        if check:
            self._validate()

    def mat(self, n):
        if n in self.mats:
            return self.mats[n]
        return la.zeros(self.target.rank(n), self.source.rank(n))

    def _validate(self):
        top = max(self.source.top_degree, self.target.top_degree)
        for n in range(1, top + 1):
            if not la.products_equal(self.mat(n - 1), self.source.diff(n),
                                     self.target.diff(n), self.mat(n)):
                raise ValueError(f"chain map does not commute with d at degree {n}")


def identity_chain_map(C):
    return ChainMap(C, C, {n: la.identity(C.rank(n))
                           for n in range(C.top_degree + 1)}, check=False)


# ---------------------------------------------------------------------------
# homology


def homology(C):
    """H_n(C) in invariant-factor form, for 0 <= n <= top_degree, from one
    transform-free Smith diagonal per differential.  ker d_n is a direct
    summand of C_n (C_n / ker d_n embeds in the free C_{n-1}), so H_n =
    ker d_n / im d_{n+1} has free rank c_n - rk d_n - rk d_{n+1}, and its
    torsion is the invariant factors of d_{n+1} above 1."""
    factors = {n: la.invariant_factors(M) for n, M in C.diffs.items()}
    return [AbelianGroupInvariants(
        C.rank(n) - len(factors.get(n, ())) - len(factors.get(n + 1, ())),
        tuple(d for d in factors.get(n + 1, ()) if d > 1))
        for n in range(C.top_degree + 1)]


def mapping_cone(f):
    """Cone(f) of a chain map f : C -> D: Cone_n = C_{n-1} ⊕ D_n, the basis
    of C_{n-1} first, with d(x, y) = (-dx, f x + dy).  Its d∘d is
    (0, d f - f d), so the validation of the complex is the test that f
    commutes with d."""
    C, D = f.source, f.target
    top = max(C.top_degree + 1, D.top_degree)
    diffs = {}
    for n in range(1, top + 1):
        c = C.rank(n - 2)
        cols = [tuple([(i, -a) for i, a in dx] + [(c + i, b) for i, b in fx])
                for dx, fx in zip(C.diff(n - 1), f.mat(n - 1))]
        cols += [tuple([(c + i, b) for i, b in dy]) for dy in D.diff(n)]
        diffs[n] = la.Sparse(cols, c + D.rank(n - 1))
    return ChainComplex([C.rank(n - 1) + D.rank(n) for n in range(top + 1)],
                        diffs)


def is_homology_isomorphism(f):
    """True if a chain map induces an isomorphism on every homology group,
    that is, if its mapping cone is acyclic (Weibel, An Introduction to
    Homological Algebra, 1.5.4)."""
    return not any(h.free_rank or h.torsion
                   for h in homology(mapping_cone(f)))


def hom_rank(C, D):
    """Free rank of the group of chain maps C -> D."""
    top = max(C.top_degree, D.top_degree)
    # equation n (1 <= n <= top) is f_{n-1} d^C_n - d^D_n f_n = 0, its
    # entry (i, j) in row eqs[n] + i * C.rank(n) + j; the unknown f_n[k][j]
    # is a column, in the order n, k, j, and meets equation n through
    # column k of d^D_n, then equation n + 1 through row j of d^C_{n+1}
    eqs = [0, 0]
    for n in range(1, top + 1):
        eqs.append(eqs[n] + D.rank(n - 1) * C.rank(n))
    cols = []
    for n in range(top + 1):
        c, c1 = C.rank(n), C.rank(n + 1)
        dC = la.transpose(C.diff(n + 1))
        for k, dDk in enumerate(D.diff(n)):
            lo = [(eqs[n] + i * c, -a) for i, a in dDk]
            hi = eqs[n + 1] + k * c1
            cols += [tuple([(i + j, a) for i, a in lo] +
                           [(hi + l, b) for l, b in dCj])
                     for j, dCj in enumerate(dC)]
    return len(cols) - la.rank(la.Sparse(cols, eqs[top + 1]))


# ---------------------------------------------------------------------------
# tensor products


class TensorBasis:
    """The basis layout of (C ⊗ D) up to top_degree.  In degree n the basis
    is the blocks C_p ⊗ D_{n-p}, p descending, and each block is in
    Kronecker order: x_i ⊗ y_j is entry i * rank D_{n-p} + j of its block,
    the row and column order of la.kron(matrix on C_p, matrix on D_{n-p}).
    Only the block offsets and the ranks are stored."""

    def __init__(self, C, D, top_degree=None):
        self.C = C
        self.D = D
        if top_degree is None:
            top_degree = C.top_degree + D.top_degree
        self.top_degree = top_degree
        self.ranks = []
        self._offsets = []  # per degree: p -> offset of block (p, n - p)
        for n in range(top_degree + 1):
            offsets = {}
            total = 0
            for p in range(min(n, C.top_degree), max(0, n - D.top_degree) - 1, -1):
                offsets[p] = total
                total += C.rank(p) * D.rank(n - p)
            self._offsets.append(offsets)
            self.ranks.append(total)

    def rank(self, n):
        return self.ranks[n] if 0 <= n <= self.top_degree else 0

    def blocks(self, n):
        """(p, q, offset) for each block C_p ⊗ D_q of degree n, p descending."""
        if not 0 <= n <= self.top_degree:
            return []
        return [(p, n - p, off) for p, off in self._offsets[n].items()]

    def offset(self, n, p):
        """The index of x_0 ⊗ y_0 in the block (p, n - p) of degree n."""
        return self._offsets[n][p]


def tensor(C, D, top_degree=None):
    """(C ⊗ D, basis): Koszul-signed tensor product, optionally truncated.

    d(x⊗y) = dx⊗y + (-1)^{|x|} x⊗dy.  Column x_i ⊗ y_j of block (p, q) of
    d_n is its (-1)^p x_i⊗dy_j part, in row block (p, q-1), then its
    dx_i⊗y_j part, in row block (p-1, q): the blocks of a degree are in p
    descending, so each column is written in row order, with nothing
    summed or sorted.  A block with no columns is skipped.
    """
    tb = TensorBasis(C, D, top_degree)
    # d_0 has no rows, so a part at p = 0 or q = 0 is empty
    dx = [C.diff(p) for p in range(C.top_degree + 1)]
    dy = [D.diff(q) for q in range(D.top_degree + 1)]
    dy_odd = {}
    diffs = {}
    for n in range(1, tb.top_degree + 1):
        below = tb._offsets[n - 1]  # a block it lacks has an empty part
        cols = []
        for p, q, _ in tb.blocks(n):
            Y = dy[q]
            if not (dx[p] and Y):  # C_p or D_q has rank 0
                continue
            w, rq = Y.nrows, len(Y)
            if p % 2:  # -d_q, built for the first odd p that reads it
                if q not in dy_odd:
                    dy_odd[q] = [[(l, -b) for l, b in col] for col in Y]
                Y = dy_odd[q]
            at_dy, at_dx = below.get(p, 0), below.get(p - 1, 0)
            for i, dXi in enumerate(dx[p]):
                at = at_dy + i * w
                if not dXi:  # dx_i = 0
                    cols += [tuple([(at + l, b) for l, b in dYj]) for dYj in Y]
                    continue
                dXi = [(at_dx + k * rq, a) for k, a in dXi]
                cols += [tuple([(at + l, b) for l, b in dYj] +
                               [(k + j, a) for k, a in dXi])
                         for j, dYj in enumerate(Y)]
        diffs[n] = la.Sparse(cols, tb.rank(n - 1))
    E = ChainComplex(tb.ranks, diffs)
    return E, tb


def tensor_map(f, g, tb_source, tb_target):
    """(f ⊗ g) between tensor complexes with the given bases: kron(f_p, g_q)
    from each block (p, q) to the block (p, q) of the target."""
    mats = {}
    for n in range(tb_source.top_degree + 1):
        r = tb_target.rank(n)
        cols = []
        for p, q, _ in tb_source.blocks(n):
            fm, gm = f.mat(p), g.mat(q)
            if r and fm.nrows and gm.nrows:
                cols += la.kron(fm, gm, tb_target.offset(n, p), r)
            else:  # into a zero group: no target block
                cols += [()] * (fm.ncols * gm.ncols)
        mats[n] = la.Sparse(cols, r)
    return mats
