"""Dold-Kan machinery: unnormalized chains, the degenerate subcomplex,
normalization as a split quotient, the inverse functor built from sums over
surjections, disk complexes, and homotopy groups.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import intlinalg as la
from .chains import ChainComplex, ChainMap, homology
from .delta import (coface, codegeneracy, enumerate_surjections,
                    epi_mono_factorize)
from .simplicial import SimplicialAbelianGroup


def unnormalized_chains(A):
    """C(A): C_n = A_n with d = Σ (-1)^i d_i, computed once and kept on
    A."""
    if A.chains is None:
        A.chains = _unnormalized_chains(A)
    return A.chains


def _unnormalized_chains(A):
    return ChainComplex(A.ranks, {
        n: la.mat_sum([(-1 if i % 2 else 1, A.face_mats[(n, i)])
                       for i in range(n + 1)])
        for n in range(1, A.dim_bound + 1)})


class NormalizationResult(namedtuple("NormalizationResult",
                                     ("normalized", "projection", "section"))):
    """The normalized complex with its split projection: a named tuple,
    equal to the tuple (normalized, projection, section).

    projection : C(A) -> normalized (degreewise surjective, kernel the
    degenerate subcomplex); section : normalized -> C(A) is a chain map
    with projection ∘ section = id, landing in the Moore subcomplex.
    """

    __slots__ = ()


def _degenerate_coordinates(A, n):
    """The basis indices of A_n that the degeneracies s_i : A_{n-1} -> A_n
    hit, when every column of every s_i is a unit vector (so D_n is the
    span of those basis vectors); None when some column is not."""
    hit = set()
    for i in range(n):
        for col in A.degen_mats[(n - 1, i)]:
            if len(col) != 1 or col[0][1] != 1:
                return None
            hit.add(col[0][0])
    return hit


def _quotient_by_degenerates(A, n):
    """(proj, lifts): proj : A_n -> A_n / D_n in a chosen basis, and lifts,
    the columns of A_n that proj sends to that basis."""
    rn = A.ranks[n]
    hit = _degenerate_coordinates(A, n)
    if hit is not None:
        # D_n is a coordinate subspace: keep the other coordinates
        keep = [k for k in range(rn) if k not in hit]
        u = la.units(rn)
        pos = {k: u[j] for j, k in enumerate(keep)}
        proj = la.Sparse([pos.get(k, ()) for k in range(rn)], len(keep))
        return proj, la.Sparse([u[k] for k in keep], rn)
    span = la.hstack(la.zeros(rn, 0),
                     *[A.degen_mats[(n - 1, i)] for i in range(n)])
    sq = la.Subquotient(la.Span(la.identity(rn)), span)
    if sq.torsion:
        raise ValueError(
            "degenerate subgroup is not a direct summand; "
            "input is not a valid simplicial abelian group")
    return sq.coords(la.identity(rn)), sq.lifts


def _moore_section(A, n, lifts):
    """P_n applied to the lifts, where P_n = (1 - s_0 d_1)(1 - s_1 d_2)⋯
    (1 - s_{n-1} d_n) is the idempotent of A_n onto the Moore subgroup
    ∩_{i>=1} ker d_i with kernel D_n, applying the rightmost factor first.
    la.apply_factors applies them one column at a time.  Raises
    ValueError unless d_1..d_n kill every result."""
    ops = [(A.degen_mats[(n - 1, i)], A.face_mats[(n, i + 1)])
           for i in reversed(range(n))]
    V = la.apply_factors(ops, lifts)
    if not all(la.product_is_zero(d, V) for _, d in ops):
        raise ValueError("section leaves the Moore subcomplex; "
                         "input is not a valid simplicial abelian group")
    return V


def normalize(A):
    """Normalization of a simplicial abelian group as the quotient of the
    unnormalized chains by the degenerate subcomplex D.

    The section embeds the quotient as the Moore subcomplex ∩_{i>=1} ker
    d_i.  It is P_n applied to lifts of the normalized basis, where P_n
    is the idempotent built from faces and degeneracies that kills D_n
    and fixes the Moore subgroup (see _moore_section).  When every
    degeneracy matrix into level n has unit-vector columns, as for ℤ[X],
    tensor products of such groups and Γ(C), D_n is spanned by basis
    vectors: the normalized basis is the other basis vectors, in index
    order, and the projection restricts coordinates.  Otherwise D_n is
    split off as the subquotient ℤ^{r_n} / D_n, whose one Smith normal
    form gives the projection (the coordinates) and the lifts.

    The normalized differential is N_n = proj ∘ d_0 ∘ sec, one face and
    not the sum Σ (-1)^i d_i: the Moore check of _moore_section has shown
    that every other face kills the section, so the two are equal
    (Goerss-Jardine, Simplicial Homotopy Theory, III.2).  The projection
    and the section are still validated as chain maps to and from C(A).

    Computed once and kept on A, which is not mutated after construction;
    every caller shares the result, which must not be mutated.
    """
    if A.normalization is None:
        A.normalization = _normalize(A)
    return A.normalization


def _normalize(A):
    C = unnormalized_chains(A)
    D = A.dim_bound
    projs, secs = {}, {}
    for n in range(D + 1):
        projs[n], lifts = _quotient_by_degenerates(A, n)
        secs[n] = _moore_section(A, n, lifts)
    nranks = [secs[n].ncols for n in range(D + 1)]
    # the Moore check has shown that every face but d_0 kills the section
    diffs = {n: la.mat_mul(projs[n - 1],
                           la.mat_mul(A.face_mats[(n, 0)], secs[n]))
             for n in range(1, D + 1)}
    N = ChainComplex(nranks, diffs)
    projection = ChainMap(C, N, projs)
    section = ChainMap(N, C, secs)
    for n in range(D + 1):
        eye = la.identity(nranks[n])
        if not la.products_equal(projs[n], secs[n], eye, eye):
            raise AssertionError("projection ∘ section is not the identity")
    return NormalizationResult(N, projection, section)


def homotopy_groups(A):
    """π_*(A) = H_*(normalized chains)."""
    return homology(normalize(A).normalized)


# ---------------------------------------------------------------------------
# disk complexes and the inverse functor


def disk(n):
    """The disk complex: ℤ in degrees n and n-1 with identity differential
    (just ℤ in degree 0 when n = 0)."""
    if n == 0:
        return ChainComplex([1], {})
    ranks = [0] * (n + 1)
    ranks[n] = ranks[n - 1] = 1
    return ChainComplex(ranks, {n: [[1]]})


def gamma_offsets(C, n):
    """(offsets, rank) of Γ(C)_n: offsets maps each surjection eta : [n] ->>
    [k], k ascending, to the row of (eta, 0); the generators of C_k follow
    it in their order, so those of one summand are consecutive."""
    offsets, row = {}, 0
    for k in range(min(n, C.top_degree) + 1):
        for eta in enumerate_surjections(n, k):
            offsets[eta] = row
            row += C.rank(k)
    return offsets, row


@lru_cache(maxsize=None)
def _gamma_component(eta, alpha):
    """Structure constants of the action of alpha : [m] -> [n] on the
    summand of Γ(C) indexed by eta : [n] ->> [k], for every C.

    Returns (eta_prime, mode) where mode is "id", "d", or None: with
    eta ∘ alpha = mono ∘ eta_prime its epi-mono factorization, the
    component lands in the summand of eta_prime via the identity when mono
    is the identity of [k], via the differential C_k -> C_{k-1} when mono
    is the last coface δ_k, and is zero otherwise.  This is combinatorics
    of Δ alone, so it is computed once per (eta, alpha) and kept, the way
    ``delta.comp_row`` keeps compositions; Γ(C) for every C reads it.
    """
    eta_prime, mono = epi_mono_factorize(eta.compose(alpha))
    k = eta.codomain_top
    if mono.domain_top == k:
        return eta_prime, "id"
    if mono.domain_top == k - 1 and mono.values == tuple(range(k)):
        return eta_prime, "d"
    return eta_prime, None


def gamma_operator(C, alpha, levels):
    """The matrix of Γ(C)(alpha) : Γ(C)_n -> Γ(C)_m for alpha : [m] -> [n],
    levels[l] being gamma_offsets(C, l): one structure constant per
    source summand, whose columns are written as one run."""
    src, _ = levels[alpha.codomain_top]
    tgt, rows = levels[alpha.domain_top]
    u = la.units(rows)
    cols = []
    for eta in src:
        k = eta.codomain_top
        eta_prime, mode = _gamma_component(eta, alpha)
        if mode == "id":
            o = tgt[eta_prime]
            cols += u[o:o + C.rank(k)]
        elif mode == "d":
            o = tgt[eta_prime]
            cols += [tuple([(o + t, x) for t, x in col]) for col in C.diff(k)]
        else:
            cols += [()] * C.rank(k)
    return la.Sparse(cols, rows)


def gamma(C, dim_bound):
    """The inverse Dold-Kan functor, truncated at dim_bound: level n is the
    sum over surjections [n] ->> [k] of C_k, built one summand at a time."""
    levels = [gamma_offsets(C, n) for n in range(dim_bound + 1)]
    face_mats = {(n, i): gamma_operator(C, coface(n, i), levels)
                 for n in range(1, dim_bound + 1) for i in range(n + 1)}
    degen_mats = {(n, i): gamma_operator(C, codegeneracy(n, i), levels)
                  for n in range(dim_bound) for i in range(n + 1)}
    return SimplicialAbelianGroup(dim_bound, [rows for _, rows in levels],
                                  face_mats, degen_mats)


def gamma_normalize_comparison(A):
    """The canonical comparison Γ(𝒩(A)) -> A: per level, a square integer
    matrix; returns the list of matrices.  The comparison is an isomorphism
    iff every matrix is unimodular.  The columns of the summand of the
    surjection eta : [n] ->> [k] are those of A(eta) ∘ section_k, in the
    order of gamma_offsets."""
    nres = normalize(A)
    N = nres.normalized
    mats = []
    for n in range(A.dim_bound + 1):
        blocks = [la.mat_mul(A.operator_matrix(eta), nres.section.mat(k))
                  for k in range(min(n, N.top_degree) + 1)
                  for eta in enumerate_surjections(n, k)]
        mats.append(la.hstack(*blocks))
    return mats


def normalized_gamma_comparison(C, dim_bound):
    """The canonical chain map C -> 𝒩(Γ(C)): include C_n as the summand of
    Γ(C)_n indexed by the identity surjection, project to the normalized
    quotient, and twist by (-1)^(n(n+1)/2) so the result commutes with the
    differentials.  The dimension bound is required to reach the top degree
    of C, else ValueError (below it the map would not commute with d at
    degree bound + 1); the ChainMap returned is an isomorphism."""
    if dim_bound < C.top_degree:
        raise ValueError(f"dimension bound {dim_bound} is below the top "
                         f"degree {C.top_degree} of the complex")
    G = gamma(C, dim_bound)
    nres = normalize(G)
    N = nres.normalized
    mats = {}
    sign = 1
    for n in range(dim_bound + 1):
        # the identity surjection's summand is the last one, of rank C_n
        # (none above the top degree, where C_n = 0)
        _, rows = gamma_offsets(C, n)
        incl = la.Sparse(la.units(rows)[rows - C.rank(n):rows], rows)
        mats[n] = la.mat_scale(sign, la.mat_mul(nres.projection.mat(n), incl))
        sign = sign * (-1 if (n + 1) % 2 else 1)
    return ChainMap(C, N, mats)


def is_chain_iso(f):
    """True if a chain map has levelwise unimodular (square invertible over ℤ)
    components."""
    degrees = range(max(f.source.top_degree, f.target.top_degree) + 1)
    return is_levelwise_unimodular((f.mat(n) for n in degrees),
                                   [f.source.rank(n) for n in degrees])


def is_levelwise_unimodular(mats, ranks):
    for M, r in zip(mats, ranks):
        if la.dims(M) != (r, r):
            return False
        try:
            la.inverse_unimodular(M)
        except ValueError:
            return False
    return True
