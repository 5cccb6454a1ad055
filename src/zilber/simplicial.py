"""Truncated simplicial sets, simplicial abelian groups, products and
skeleta.

Every object is truncated at a stored dim_bound D.  Constructors verify all
simplicial identities, through one checker that sets and groups share;
invalid operator data raises SimplicialIdentityError.  A simplicial set
names its k-simplices by index 0..|X_k|-1: its operator tables are tuples
of indices, and the identifiers in levels serve only payloads and
witnesses.
"""

from __future__ import annotations

from functools import cached_property

from . import intlinalg as la
from .chains import check_version
from .delta import (enumerate_monotone, epi_mono_factorize,
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


def _check_identities(D, F, S, equal, identity):
    """Raise SimplicialIdentityError at the first simplicial identity that
    the faces F[(k, i)] and degeneracies S[(k, i)] of a D-truncated object
    break: d∘d, then s∘s, then d∘s.  equal(g1, f1, g2, f2) tests g1∘f1 =
    g2∘f2 without keeping either composite, and identity(k) is the identity
    of level k."""
    for k in range(2, D + 1):
        for j in range(1, k + 1):
            for i in range(j):
                if not equal(F[(k - 1, i)], F[(k, j)],
                             F[(k - 1, j - 1)], F[(k, i)]):
                    raise SimplicialIdentityError(
                        f"d_{i} d_{j} != d_{j-1} d_{i} at level {k}")
    for k in range(D - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                if not equal(S[(k + 1, i)], S[(k, j)],
                             S[(k + 1, j + 1)], S[(k, i)]):
                    raise SimplicialIdentityError(
                        f"s_{i} s_{j} != s_{j+1} s_{i} at level {k}")
    for k in range(D):
        for j in range(k + 1):
            for i in range(k + 2):
                if i == j or i == j + 1:
                    want, name = (identity(k),) * 2, "id"
                elif i < j:
                    want = S[(k - 1, j - 1)], F[(k, i)]
                    name = f"s_{j-1} d_{i}"
                else:
                    want = S[(k - 1, j)], F[(k, i - 1)]
                    name = f"s_{j} d_{i-1}"
                if not equal(F[(k + 1, i)], S[(k, j)], *want):
                    raise SimplicialIdentityError(
                        f"d_{i} s_{j} != {name} at level {k}")


def _tables_agree(g1, f1, g2, f2):
    """g1∘f1 == g2∘f2 for index tables, compared as two lists: quicker
    than a walk that stops at the first difference."""
    return [g1[a] for a in f1] == [g2[a] for a in f2]


SSIMP_FORMAT = "ssimp"
SSIMP_VERSION = 1


class SimplicialSet:
    """A D-truncated simplicial set.

    levels[k] is the list of k-simplices, by identifier; the simplex at
    index a of levels[k] is a.  faces[(k, i)] and degens[(k, i)] are tuples
    (the constructor takes any sequences) of length |levels[k]| whose entry
    a is the index of the image of a in level k-1 or k+1.  Not mutated
    after construction, so ez keeps the nondegenerate basis of X and
    N(ℤ[X]) in nondegenerate (None until asked for).
    """

    def __init__(self, dim_bound, levels, faces, degens):
        if dim_bound < 0:
            raise SimplicialIdentityError("dim_bound must be nonnegative")
        self.dim_bound = dim_bound
        self.levels = [list(lv) for lv in levels]
        if len(self.levels) != dim_bound + 1:
            raise ValueError("levels must have dim_bound + 1 entries")
        self.faces = {key: tuple(t) for key, t in faces.items()}
        self.degens = {key: tuple(t) for key, t in degens.items()}
        self.nondegenerate = None
        self._validate()

    # -- basic access -------------------------------------------------------

    def level_size(self, k):
        return len(self.levels[k])

    def nondegenerate_counts(self):
        """Per level, the simplices in the image of no degeneracy."""
        return tuple(len(self.levels[k]) - len(
            {a for i in range(k) for a in self.degens[(k - 1, i)]})
            for k in range(self.dim_bound + 1))

    @cached_property
    def degeneracy_masks(self):
        """Per level k, per simplex a: the bit mask of the i < k with a in
        the image of s_i, so a is nondegenerate exactly when its mask is 0.
        A simplex z is in the image of s_i exactly when z = s_i d_i z, so
        (x, y) in X × Y is exactly when x and y both are: its mask is the
        AND of theirs."""
        masks = []
        for k in range(self.dim_bound + 1):
            m = [0] * len(self.levels[k])
            for i in range(k):
                for a in self.degens[(k - 1, i)]:
                    m[a] |= 1 << i
            masks.append(m)
        return masks

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Every table present, of the length of its level, with entries
        indices of the target level; then the simplicial identities."""
        D = self.dim_bound
        _reject_unknown_operators(self.faces, self.degens, D, "simplicial set")
        sizes = [len(lv) for lv in self.levels]
        for table, kind, levels, step in (
                (self.faces, "face", range(1, D + 1), -1),
                (self.degens, "degeneracy", range(D), 1)):
            for k in levels:
                for i in range(k + 1):
                    t = table.get((k, i))
                    if t is None or len(t) != sizes[k]:
                        raise SimplicialIdentityError(
                            f"{kind} ({k},{i}) not total")
                    if t and (set(map(type, t)) != {int} or min(t) < 0
                              or max(t) >= sizes[k + step]):
                        raise SimplicialIdentityError(
                            f"{kind} ({k},{i}) lands outside level {k+step}")
        _check_identities(D, self.faces, self.degens, _tables_agree,
                          lambda k: range(sizes[k]))

    # -- serialization ------------------------------------------------------

    def to_payload(self):
        return {
            "format": SSIMP_FORMAT,
            "version": SSIMP_VERSION,
            "dim_bound": self.dim_bound,
            "levels": [len(lv) for lv in self.levels],
            "faces": {f"{k},{i}": list(t)
                      for (k, i), t in sorted(self.faces.items())},
            "degens": {f"{k},{i}": list(t)
                       for (k, i), t in sorted(self.degens.items())},
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != SSIMP_FORMAT:
            raise ValueError("not an ssimp payload")
        check_version(payload, SSIMP_VERSION)
        if type(payload["dim_bound"]) is not int:
            raise SimplicialIdentityError("dim_bound must be an integer")
        sizes = payload["levels"]
        if any(type(n) is not int or n < 0 for n in sizes):
            raise SimplicialIdentityError(
                "level sizes must be nonnegative integers")

        def tables(entries):
            return {tuple(int(t) for t in key.split(",")): arr
                    for key, arr in entries.items()}

        return cls(payload["dim_bound"], [range(n) for n in sizes],
                   tables(payload["faces"]), tables(payload["degens"]))

    def __eq__(self, other):
        return (isinstance(other, SimplicialSet)
                and self.dim_bound == other.dim_bound
                and self.levels == other.levels
                and self.faces == other.faces
                and self.degens == other.degens)


# ---------------------------------------------------------------------------
# constructions on simplicial sets


def _from_functions(dim_bound, levels, face, degen):
    """The simplicial set on levels whose operators send the identifier x
    to face(x, i) and degen(x, i)."""
    index = [{x: a for a, x in enumerate(lv)} for lv in levels]
    faces = {(k, i): [index[k - 1][face(x, i)] for x in levels[k]]
             for k in range(1, dim_bound + 1) for i in range(k + 1)}
    degens = {(k, i): [index[k + 1][degen(x, i)] for x in levels[k]]
              for k in range(dim_bound) for i in range(k + 1)}
    return SimplicialSet(dim_bound, levels, faces, degens)


def _delete(v, i):
    return v[:i] + v[i + 1:]


def _repeat(v, i):
    return v[:i] + (v[i],) + v[i:]


def standard_simplex(n, dim_bound):
    """The standard n-simplex truncated at dim_bound; k-simplices are the
    value tuples of monotone maps [k] -> [n]."""
    levels = [[f.values for f in enumerate_monotone(k, n)]
              for k in range(dim_bound + 1)]
    return _from_functions(dim_bound, levels, _delete, _repeat)


def circle(dim_bound):
    """The simplicial circle Δ¹ with its boundary collapsed: one vertex, one
    nondegenerate edge.  k-simplices are the nonconstant monotone maps
    [k] -> [1] plus the collapsed basepoint '*'."""

    def collapse(v):
        return "*" if len(set(v)) == 1 else v

    levels = [sorted({collapse(f.values) for f in enumerate_monotone(k, 1)},
                     key=str) for k in range(dim_bound + 1)]
    return _from_functions(
        dim_bound, levels,
        lambda x, i: x if x == "*" else collapse(_delete(x, i)),
        lambda x, i: x if x == "*" else _repeat(x, i))


def product(X, Y):
    """Levelwise Cartesian product with diagonal operators; (x, y) has index
    x·|Y_k| + y, x-major."""
    if X.dim_bound != Y.dim_bound:
        raise ValueError("product requires equal dim_bound; truncate first")
    D = X.dim_bound
    levels = [[(x, y) for x in X.levels[k] for y in Y.levels[k]]
              for k in range(D + 1)]

    def pairs(fx, fy, level):
        n = len(Y.levels[level])
        return [a * n + b for a in fx for b in fy]

    faces = {(k, i): pairs(X.faces[(k, i)], Y.faces[(k, i)], k - 1)
             for k in range(1, D + 1) for i in range(k + 1)}
    degens = {(k, i): pairs(X.degens[(k, i)], Y.degens[(k, i)], k + 1)
              for k in range(D) for i in range(k + 1)}
    return SimplicialSet(D, levels, faces, degens)


def skeleton(X, n):
    """The n-skeleton as a sub-simplicial-set (same simplex identifiers, in
    the order of X.levels)."""
    if not 0 <= n <= X.dim_bound:
        raise ValueError("skeleton degree must lie in 0..dim_bound")
    D = X.dim_bound
    keep = [range(len(X.levels[k])) for k in range(n + 1)]
    for k in range(n + 1, D + 1):
        keep.append(sorted({X.degens[(k - 1, i)][a]
                            for i in range(k) for a in keep[k - 1]}))
    # the index in the skeleton of each kept simplex of X; a face landing
    # on a dropped one maps to None, which the constructor rejects
    new = [{a: b for b, a in enumerate(kept)} for kept in keep]

    def restrict(table, k, step):
        return [new[k + step].get(table[a]) for a in keep[k]]

    return SimplicialSet(
        D, [[X.levels[k][a] for a in keep[k]] for k in range(D + 1)],
        {(k, i): restrict(X.faces[(k, i)], k, -1)
         for k in range(1, D + 1) for i in range(k + 1)},
        {(k, i): restrict(X.degens[(k, i)], k, 1)
         for k in range(D) for i in range(k + 1)})


class CheckCertificate:
    """Outcome of a finite verification: pass flag plus a witness on failure."""

    def __init__(self, ok, witness=None, detail=""):
        self.ok = ok
        self.witness = witness
        self.detail = detail

    def __bool__(self):
        return self.ok


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
    integer matrices for faces and degeneracies (the constructor also takes
    row lists, and rejects an operator at an index the truncation does not
    have).  Not mutated after construction, so results are kept on it:
    doldkan keeps C(A) in chains and normalize's result in normalization
    (each None until asked for), operator_matrix keeps
    X(f) per monotone map f in operators, and ez.shuffle_product keeps the
    Eilenberg-Zilber pair of (A, B) per partner B in shuffle_products (None
    until asked for; keyed weakly, so A keeps no partner alive).
    simplicial_set is the simplicial set X when the group is ℤ[X]
    (free_abelian sets it) and None otherwise; ez and the skeletal
    filtration read such groups off X, and refuse any other group."""

    def __init__(self, dim_bound, ranks, face_mats, degen_mats, check=True):
        if dim_bound < 0:
            raise SimplicialIdentityError("dim_bound must be nonnegative")
        self.dim_bound = dim_bound
        self.simplicial_set = None
        self.chains = None
        self.shuffle_products = None
        self.normalization = None
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

    def __getstate__(self):
        # the kept pairs are keyed by weak references; a copy rebuilds them
        # on demand
        return {**vars(self), "shuffle_products": None}

    def _validate(self):
        _check_identities(self.dim_bound, self.face_mats, self.degen_mats,
                          la.products_equal,
                          lambda k: la.identity(self.ranks[k]))

    def operator_matrix(self, f):
        """The matrix of X(f) : X_{f.codomain_top} -> X_{f.domain_top} for an
        arbitrary monotone map f.

        Computed once per f and kept in operators; every caller shares the
        matrix, which must not be mutated."""
        if f in self.operators:
            return self.operators[f]
        epi, mono = epi_mono_factorize(f)
        level = f.codomain_top
        M = la.identity(self.ranks[level])
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
    the image simplex, in the order of X.levels.  X is kept on the group
    as simplicial_set."""
    D = X.dim_bound
    ranks = [len(X.levels[k]) for k in range(D + 1)]

    def unit_columns(table, image_level):
        u = la.units(ranks[image_level])
        return la.Sparse([u[a] for a in table], ranks[image_level])

    face_mats = {(k, i): unit_columns(X.faces[(k, i)], k - 1)
                 for k in range(1, D + 1) for i in range(k + 1)}
    degen_mats = {(k, i): unit_columns(X.degens[(k, i)], k + 1)
                  for k in range(D) for i in range(k + 1)}
    A = SimplicialAbelianGroup(D, ranks, face_mats, degen_mats, check=False)
    A.simplicial_set = X
    return A
