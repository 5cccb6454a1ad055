"""Truncated simplicial sets, simplicial abelian groups, products and
skeleta.

Every object is truncated at a stored dim_bound D.  Constructors verify all
simplicial identities; invalid operator data raises SimplicialIdentityError.
Simplex identifiers are arbitrary hashables; serialization replaces them by
level indices.
"""

from __future__ import annotations

from . import intlinalg as la
from .delta import (MonotoneMap, enumerate_monotone, epi_mono_factorize,
                    factor_into_cofaces, factor_into_codegeneracies)


class SimplicialIdentityError(ValueError):
    """Raised when operator data violates a simplicial identity."""


def _reject_unknown_operators(faces, degens, D, what):
    """Raise for a face or degeneracy key (k, i) that no D-truncated object
    has: faces need 1 <= k <= D, degeneracies 0 <= k < D, and 0 <= i <= k."""
    for table, levels, kind in ((faces, range(1, D + 1), "face"),
                                (degens, range(D), "degeneracy")):
        keys = {(k, i) for k in levels for i in range(k + 1)}
        for key in table:
            if key not in keys:
                raise SimplicialIdentityError(
                    f"{kind} {key} is not an operator of a {D}-truncated "
                    f"{what}")


SSIMP_FORMAT = "ssimp"
SSIMP_VERSION = 1


class SimplicialSet:
    """A D-truncated simplicial set.

    levels[k] is the list of k-simplices; faces[(k, i)] and degens[(k, i)]
    are total dicts on levels[k] landing in levels k-1 and k+1.
    """

    def __init__(self, dim_bound, levels, faces, degens, check=True):
        self.dim_bound = dim_bound
        self.levels = [list(lv) for lv in levels]
        if len(self.levels) != dim_bound + 1:
            raise ValueError("levels must have dim_bound + 1 entries")
        self.faces = faces
        self.degens = degens
        self.index = [{x: i for i, x in enumerate(lv)} for lv in self.levels]
        self._degenerate = None
        if check:
            self._validate()

    # -- basic access -------------------------------------------------------

    def level_size(self, k):
        return len(self.levels[k])

    def degenerate_set(self, k):
        """The set of degenerate k-simplices (images of degeneracies)."""
        if self._degenerate is None:
            self._degenerate = [set() for _ in range(self.dim_bound + 1)]
            for k2 in range(1, self.dim_bound + 1):
                for i in range(k2):
                    self._degenerate[k2].update(self.degens[(k2 - 1, i)].values())
        return self._degenerate[k]

    def nondegenerate_counts(self):
        return tuple(len(self.levels[k]) - len(self.degenerate_set(k))
                     for k in range(self.dim_bound + 1))

    # -- validation ---------------------------------------------------------

    def _validate(self):
        D = self.dim_bound
        _reject_unknown_operators(self.faces, self.degens, D, "simplicial set")
        lv_sets = [set(lv) for lv in self.levels]
        for k in range(1, D + 1):
            for i in range(k + 1):
                f = self.faces.get((k, i))
                if f is None or set(f) != lv_sets[k]:
                    raise SimplicialIdentityError(f"face ({k},{i}) not total")
                if not set(f.values()) <= lv_sets[k - 1]:
                    raise SimplicialIdentityError(f"face ({k},{i}) lands outside level {k-1}")
        for k in range(D):
            for i in range(k + 1):
                s = self.degens.get((k, i))
                if s is None or set(s) != lv_sets[k]:
                    raise SimplicialIdentityError(f"degeneracy ({k},{i}) not total")
                if not set(s.values()) <= lv_sets[k + 1]:
                    raise SimplicialIdentityError(f"degeneracy ({k},{i}) lands outside level {k+1}")
        # d_i d_j = d_{j-1} d_i  (i < j)
        for k in range(2, D + 1):
            for j in range(1, k + 1):
                for i in range(j):
                    fa = self.faces[(k, j)]
                    fb = self.faces[(k - 1, i)]
                    fc = self.faces[(k, i)]
                    fd = self.faces[(k - 1, j - 1)]
                    for x in self.levels[k]:
                        if fb[fa[x]] != fd[fc[x]]:
                            raise SimplicialIdentityError(
                                f"d_{i} d_{j} != d_{j-1} d_{i} at level {k}")
        # s_i s_j = s_{j+1} s_i  (i <= j)
        for k in range(D - 1):
            for j in range(k + 1):
                for i in range(j + 1):
                    sa = self.degens[(k, j)]
                    sb = self.degens[(k + 1, i)]
                    sc = self.degens[(k, i)]
                    sd = self.degens[(k + 1, j + 1)]
                    for x in self.levels[k]:
                        if sb[sa[x]] != sd[sc[x]]:
                            raise SimplicialIdentityError(
                                f"s_{i} s_{j} != s_{j+1} s_{i} at level {k}")
        # mixed identities: d_i s_j
        for k in range(D):
            for j in range(k + 1):
                s = self.degens[(k, j)]
                for i in range(k + 2):
                    f = self.faces[(k + 1, i)]
                    if i == j or i == j + 1:
                        for x in self.levels[k]:
                            if f[s[x]] != x:
                                raise SimplicialIdentityError(
                                    f"d_{i} s_{j} != id at level {k}")
                    elif i < j:
                        if k == 0:
                            continue
                        sb = self.degens[(k - 1, j - 1)]
                        fb = self.faces[(k, i)]
                        for x in self.levels[k]:
                            if f[s[x]] != sb[fb[x]]:
                                raise SimplicialIdentityError(
                                    f"d_{i} s_{j} != s_{j-1} d_{i} at level {k}")
                    else:  # i > j + 1
                        if k == 0:
                            continue
                        sb = self.degens[(k - 1, j)]
                        fb = self.faces[(k, i - 1)]
                        for x in self.levels[k]:
                            if f[s[x]] != sb[fb[x]]:
                                raise SimplicialIdentityError(
                                    f"d_{i} s_{j} != s_{j} d_{i-1} at level {k}")

    # -- serialization ------------------------------------------------------

    def to_payload(self):
        payload = {
            "format": SSIMP_FORMAT,
            "version": SSIMP_VERSION,
            "dim_bound": self.dim_bound,
            "levels": [len(lv) for lv in self.levels],
            "faces": {},
            "degens": {},
        }
        for (k, i), table in sorted(self.faces.items()):
            payload["faces"][f"{k},{i}"] = [
                self.index[k - 1][table[x]] for x in self.levels[k]]
        for (k, i), table in sorted(self.degens.items()):
            payload["degens"][f"{k},{i}"] = [
                self.index[k + 1][table[x]] for x in self.levels[k]]
        return payload

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != SSIMP_FORMAT:
            raise ValueError("not an ssimp payload")
        D = payload["dim_bound"]
        levels = [list(range(n)) for n in payload["levels"]]

        def tables(entries):
            out = {}
            for key, arr in entries.items():
                k, i = (int(t) for t in key.split(","))
                if not 0 <= k < len(levels) or len(arr) != len(levels[k]):
                    raise ValueError(f"operator table {key} has wrong length")
                out[(k, i)] = dict(enumerate(arr))
            return out

        return cls(D, levels, tables(payload["faces"]), tables(payload["degens"]))

    def __eq__(self, other):
        return (isinstance(other, SimplicialSet)
                and self.dim_bound == other.dim_bound
                and self.levels == other.levels
                and self.faces == other.faces
                and self.degens == other.degens)


# ---------------------------------------------------------------------------
# constructions on simplicial sets


def standard_simplex(n, dim_bound):
    """The standard n-simplex truncated at dim_bound; k-simplices are the
    value tuples of monotone maps [k] -> [n]."""
    levels = [[f.values for f in enumerate_monotone(k, n)]
              for k in range(dim_bound + 1)]
    faces = {}
    degens = {}
    for k in range(1, dim_bound + 1):
        for i in range(k + 1):
            faces[(k, i)] = {v: v[:i] + v[i + 1:] for v in levels[k]}
    for k in range(dim_bound):
        for i in range(k + 1):
            degens[(k, i)] = {v: v[:i] + (v[i],) + v[i:] for v in levels[k]}
    return SimplicialSet(dim_bound, levels, faces, degens)


def circle(dim_bound):
    """The simplicial circle Δ¹ with its boundary collapsed: one vertex, one
    nondegenerate edge.  k-simplices are the nonconstant monotone maps
    [k] -> [1] plus the collapsed basepoint '*'."""
    full = [[f.values for f in enumerate_monotone(k, 1)]
            for k in range(dim_bound + 1)]

    def collapse(v):
        return "*" if len(set(v)) == 1 else v

    levels = [sorted({collapse(v) for v in full[k]}, key=str)
              for k in range(dim_bound + 1)]
    faces = {}
    degens = {}
    for k in range(1, dim_bound + 1):
        table = {}
        for i in range(k + 1):
            table = {}
            for x in levels[k]:
                v = x if x != "*" else tuple([0] * (k + 1))
                table[x] = collapse(v[:i] + v[i + 1:])
            faces[(k, i)] = table
    for k in range(dim_bound):
        for i in range(k + 1):
            table = {}
            for x in levels[k]:
                v = x if x != "*" else tuple([0] * (k + 1))
                table[x] = collapse(v[:i] + (v[i],) + v[i:])
            degens[(k, i)] = table
    return SimplicialSet(dim_bound, levels, faces, degens)


def product(X, Y):
    """Levelwise Cartesian product with diagonal operators."""
    if X.dim_bound != Y.dim_bound:
        raise ValueError("product requires equal dim_bound; truncate first")
    D = X.dim_bound
    levels = [[(x, y) for x in X.levels[k] for y in Y.levels[k]]
              for k in range(D + 1)]
    faces = {}
    degens = {}
    for k in range(1, D + 1):
        for i in range(k + 1):
            fx, fy = X.faces[(k, i)], Y.faces[(k, i)]
            faces[(k, i)] = {(x, y): (fx[x], fy[y]) for x, y in levels[k]}
    for k in range(D):
        for i in range(k + 1):
            sx, sy = X.degens[(k, i)], Y.degens[(k, i)]
            degens[(k, i)] = {(x, y): (sx[x], sy[y]) for x, y in levels[k]}
    return SimplicialSet(D, levels, faces, degens)


def skeleton(X, n):
    """The n-skeleton as a sub-simplicial-set (same simplex identifiers)."""
    if not 0 <= n <= X.dim_bound:
        raise ValueError("skeleton degree must lie in 0..dim_bound")
    D = X.dim_bound
    keep = [set(X.levels[k]) for k in range(min(n, D) + 1)]
    for k in range(n + 1, D + 1):
        prev = keep[k - 1]
        cur = set()
        for i in range(k):
            s = X.degens[(k - 1, i)]
            cur.update(s[x] for x in prev)
        keep.append(cur)
    levels = [[x for x in X.levels[k] if x in keep[k]] for k in range(D + 1)]
    faces = {}
    degens = {}
    for k in range(1, D + 1):
        for i in range(k + 1):
            f = X.faces[(k, i)]
            table = {x: f[x] for x in levels[k]}
            if any(v not in keep[k - 1] for v in table.values()):
                raise SimplicialIdentityError("skeleton not closed under faces")
            faces[(k, i)] = table
    for k in range(D):
        for i in range(k + 1):
            s = X.degens[(k, i)]
            degens[(k, i)] = {x: s[x] for x in levels[k]}
    return SimplicialSet(D, levels, faces, degens, check=False)


class CheckCertificate:
    """Outcome of a finite verification: pass flag plus a witness on failure."""

    def __init__(self, ok, witness=None, detail=""):
        self.ok = ok
        self.witness = witness
        self.detail = detail

    def __bool__(self):
        return self.ok

    def to_dict(self):
        return {"pass": self.ok, "witness": repr(self.witness) if self.witness is not None else None,
                "detail": self.detail}


def skeleton_product_check(X, Y, p, q, n):
    """Verify sk_p X × sk_q Y ⊆ sk_n(X×Y) and that sk_p X × sk_q Y is
    n-skeletal (its n-skeleton is itself).  Requires n <= D; for n < p + q
    the containment can fail, in which case the witness is returned in a
    failing certificate."""
    if not (0 <= n <= X.dim_bound):
        raise ValueError("requires 0 <= n <= dim_bound")
    P = product(X, Y)
    A = product(skeleton(X, p), skeleton(Y, q))
    skP = skeleton(P, n)
    sk_sets = [set(skP.levels[k]) for k in range(P.dim_bound + 1)]
    for k in range(P.dim_bound + 1):
        for z in A.levels[k]:
            if z not in sk_sets[k]:
                return CheckCertificate(False, (k, z),
                                        f"simplex at level {k} outside sk_{n}(X×Y)")
    skA = skeleton(A, n)
    for k in range(P.dim_bound + 1):
        if set(skA.levels[k]) != set(A.levels[k]):
            missing = set(A.levels[k]) - set(skA.levels[k])
            return CheckCertificate(False, (k, sorted(missing, key=repr)[0]),
                                    f"sk_p X × sk_q Y not {n}-skeletal at level {k}")
    return CheckCertificate(True)


# ---------------------------------------------------------------------------
# simplicial abelian groups


class SimplicialAbelianGroup:
    """A D-truncated simplicial abelian group: free ℤ-modules per level with
    integer matrices for faces and degeneracies, stored as la.Sparse (the
    constructor also takes dense matrices or row lists, and rejects an
    operator at an index the truncation does not have).  Not mutated after
    construction, so doldkan keeps C(A) in chains (None until asked for)
    and normalize's result per Moore convention in normalizations, and
    operator_matrix keeps X(f) per monotone map f in operators."""

    def __init__(self, dim_bound, ranks, face_mats, degen_mats, check=True):
        self.dim_bound = dim_bound
        self.chains = None
        self.normalizations = {}
        self.operators = {}
        self.ranks = r = list(ranks)
        if len(self.ranks) != dim_bound + 1:
            raise ValueError("ranks must have dim_bound + 1 entries")
        _reject_unknown_operators(face_mats, degen_mats, dim_bound,
                                  "simplicial abelian group")
        try:
            self.face_mats = {
                (k, i): la.as_sparse(face_mats[(k, i)], r[k - 1], r[k],
                                     f"face matrix ({k},{i})")
                for k in range(1, dim_bound + 1) for i in range(k + 1)}
            self.degen_mats = {
                (k, i): la.as_sparse(degen_mats[(k, i)], r[k + 1], r[k],
                                     f"degeneracy matrix ({k},{i})")
                for k in range(dim_bound) for i in range(k + 1)}
        except KeyError as exc:
            raise SimplicialIdentityError(f"operator matrix {exc} is missing")
        except ValueError as exc:
            raise SimplicialIdentityError(str(exc))
        if check:
            self._validate()

    def _validate(self):
        D = self.dim_bound
        F, S = self.face_mats, self.degen_mats
        for k in range(2, D + 1):
            for j in range(1, k + 1):
                for i in range(j):
                    lhs = la.mat_mul(F[(k - 1, i)], F[(k, j)])
                    rhs = la.mat_mul(F[(k - 1, j - 1)], F[(k, i)])
                    if not la.mat_eq(lhs, rhs):
                        raise SimplicialIdentityError(
                            f"d_{i} d_{j} != d_{j-1} d_{i} at level {k}")
        for k in range(D - 1):
            for j in range(k + 1):
                for i in range(j + 1):
                    lhs = la.mat_mul(S[(k + 1, i)], S[(k, j)])
                    rhs = la.mat_mul(S[(k + 1, j + 1)], S[(k, i)])
                    if not la.mat_eq(lhs, rhs):
                        raise SimplicialIdentityError(
                            f"s_{i} s_{j} != s_{j+1} s_{i} at level {k}")
        for k in range(D):
            for j in range(k + 1):
                for i in range(k + 2):
                    got = la.mat_mul(F[(k + 1, i)], S[(k, j)])
                    if i == j or i == j + 1:
                        want = la.identity(self.ranks[k], True)
                    elif i < j:
                        want = la.mat_mul(S[(k - 1, j - 1)], F[(k, i)])
                    else:
                        want = la.mat_mul(S[(k - 1, j)], F[(k, i - 1)])
                    if not la.mat_eq(got, want):
                        raise SimplicialIdentityError(
                            f"mixed identity d_{i} s_{j} fails at level {k}")

    def operator_matrix(self, f):
        """The matrix of X(f) : X_{f.codomain_top} -> X_{f.domain_top} for an
        arbitrary monotone map f.

        Computed once per f and kept in operators; every caller shares the
        matrix, which must not be mutated."""
        if f in self.operators:
            return self.operators[f]
        epi, mono = epi_mono_factorize(f)
        level = f.codomain_top
        M = la.identity(self.ranks[level], True)
        for i in factor_into_cofaces(mono):
            M = la.mat_mul(self.face_mats[(level, i)], M)
            level -= 1
        for j in reversed(factor_into_codegeneracies(epi)):
            M = la.mat_mul(self.degen_mats[(level, j)], M)
            level += 1
        self.operators[f] = M
        return M


def free_abelian(X):
    """ℤ[X]: rank |X_k| per level, each operator column the unit vector of
    the image simplex, in the order of X.levels."""
    D = X.dim_bound
    ranks = [len(X.levels[k]) for k in range(D + 1)]

    def unit_columns(table, k, image_level):
        index = X.index[image_level]
        return la.Sparse([((index[table[x]], 1),) for x in X.levels[k]],
                         ranks[image_level])

    face_mats = {(k, i): unit_columns(X.faces[(k, i)], k, k - 1)
                 for k in range(1, D + 1) for i in range(k + 1)}
    degen_mats = {(k, i): unit_columns(X.degens[(k, i)], k, k + 1)
                  for k in range(D) for i in range(k + 1)}
    return SimplicialAbelianGroup(D, ranks, face_mats, degen_mats, check=False)


def sab_tensor(A, B):
    """Levelwise tensor product of simplicial abelian groups (Kronecker
    operators); the basis at level k is ordered (a-index major).  On sparse
    operators with unit columns, as for ℤ[X], each column of a Kronecker
    product is the one pair (i * rank_B + k, 1): index arithmetic."""
    if A.dim_bound != B.dim_bound:
        raise ValueError("dim_bound mismatch")
    D = A.dim_bound
    ranks = [A.ranks[k] * B.ranks[k] for k in range(D + 1)]
    face_mats = {}
    degen_mats = {}
    for k in range(1, D + 1):
        for i in range(k + 1):
            face_mats[(k, i)] = la.kron(A.face_mats[(k, i)], B.face_mats[(k, i)])
    for k in range(D):
        for i in range(k + 1):
            degen_mats[(k, i)] = la.kron(A.degen_mats[(k, i)], B.degen_mats[(k, i)])
    return SimplicialAbelianGroup(D, ranks, face_mats, degen_mats, check=False)
