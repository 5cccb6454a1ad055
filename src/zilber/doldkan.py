"""Dold-Kan machinery: unnormalized chains, the degenerate subcomplex,
normalization as a split quotient, the inverse functor built from sums over
surjections, disk complexes, and homotopy groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .chains import ChainComplex, ChainMap, homology
from .delta import (coface, codegeneracy, enumerate_surjections,
                    epi_mono_factorize)
from .simplicial import SimplicialAbelianGroup


def unnormalized_chains(A):
    """C(A): C_n = A_n with d = Σ (-1)^i d_i, computed once and kept on A."""
    if A.chains is None:
        A.chains = _unnormalized_chains(A)
    return A.chains


def _unnormalized_chains(A):
    diffs = {}
    for n in range(1, A.dim_bound + 1):
        M = la.zeros(A.ranks[n - 1], A.ranks[n])
        for i in range(n + 1):
            F = A.face_mats[(n, i)]
            sign = -1 if i % 2 else 1
            M = la.mat_add(M, la.mat_scale(sign, F))
        diffs[n] = M
    return ChainComplex(A.ranks, diffs)


@dataclass
class NormalizationResult:
    """The normalized complex with its split projection.

    projection : C(A) -> normalized (degreewise surjective, kernel the
    degenerate subcomplex); section : normalized -> C(A) is a chain map
    with projection ∘ section = id, landing in the Moore subcomplex.
    """

    normalized: ChainComplex
    projection: ChainMap
    section: ChainMap


def _degenerate_span(A, n):
    """Generator columns of D_n = Σ_i im(s_i) inside A_n."""
    return la.hstack(la.zeros(A.ranks[n], 0),
                     *[A.degen_mats[(n - 1, i)] for i in range(n)])


def normalize(A, moore="upper"):
    """Normalization of a simplicial abelian group as the quotient of the
    unnormalized chains by the degenerate subcomplex.

    The section embeds the quotient as the Moore subcomplex: with
    moore="upper" this is ∩_{i>=1} ker d_i, with moore="lower" it is
    ∩_{i<=n-1} ker d_i.  Both give the same complex and projection; the
    sections differ by degenerate chains, which the projection kills, so
    ∇, AW and the skeletal filtrations do not depend on the convention.

    Computed once per (A, moore) and kept on A, which is not mutated after
    construction; every caller shares the result, which must not be mutated.
    """
    if moore not in ("upper", "lower"):
        raise ValueError(f"unknown Moore convention {moore!r}")
    if moore not in A.normalizations:
        A.normalizations[moore] = _normalize(A, moore)
    return A.normalizations[moore]


def _normalize(A, moore):
    C = unnormalized_chains(A)
    D = A.dim_bound
    projs = {}
    secs = {}
    nranks = []
    for n in range(D + 1):
        rn = A.ranks[n]
        U, S, _, _, _ = la._smith_with_inverses(_degenerate_span(A, n))
        diag = [S[i][i] for i in range(min(la.dims(S)))]
        r = sum(1 for d in diag if d)
        if any(d not in (0, 1) for d in diag):
            raise ValueError(
                "degenerate subgroup is not a direct summand; "
                "input is not a valid simplicial abelian group")
        proj = la.Matrix(U[r:], rn)
        # section through the Moore subcomplex
        if n == 0:
            sec = la.identity(rn)
        else:
            faces = range(1, n + 1) if moore == "upper" else range(n)
            K = la.kernel_basis(la.vstack(*[A.face_mats[(n, i)] for i in faces]))
            if K.ncols != rn - r:
                raise ValueError("Moore subcomplex rank mismatch")
            sec = la.mat_mul(K, la.inverse_unimodular(la.mat_mul(proj, K)))
        projs[n] = proj
        secs[n] = sec
        nranks.append(rn - r)
    ndiffs = {}
    for n in range(1, D + 1):
        ndiffs[n] = la.mat_mul(projs[n - 1], la.mat_mul(C.diff(n), secs[n]))
    N = ChainComplex(nranks, ndiffs)
    projection = ChainMap(C, N, projs)
    section = ChainMap(N, C, secs)
    for n in range(D + 1):
        if not la.mat_eq(la.mat_mul(projs[n], secs[n]), la.identity(nranks[n])):
            raise AssertionError("projection ∘ section is not the identity")
    return NormalizationResult(N, projection, section)


def homotopy_groups(A):
    """π_*(A) = H_*(normalized chains)."""
    return homology(normalize(A).normalized)


# ---------------------------------------------------------------------------
# disk complexes and the inverse functor


@dataclass(frozen=True)
class DiskComplex:
    """ℤ in degrees n and n-1 with identity differential (just ℤ in degree 0
    when n = 0)."""

    n: int

    def to_chain_complex(self):
        if self.n == 0:
            return ChainComplex([1], {})
        ranks = [0] * (self.n + 1)
        ranks[self.n] = 1
        ranks[self.n - 1] = 1
        return ChainComplex(ranks, {self.n: [[1]]})


def disk(n):
    return DiskComplex(n)


def gamma_basis(C, n):
    """Basis of Γ(C)_n: pairs (surjection [n] ->> [k], generator of C_k)."""
    out = []
    for k in range(min(n, C.top_degree) + 1):
        for eta in enumerate_surjections(n, k):
            for t in range(C.rank(k)):
                out.append((eta, t))
    return out


def _gamma_component(C, eta, alpha):
    """Structure constants of the action of alpha : [m] -> [n] on the
    summand of Γ(C) indexed by eta : [n] ->> [k].

    Returns (eta_prime, mode, k) where mode is "id", "d", or None: the
    component lands in the summand of eta_prime via the identity, via the
    differential C_k -> C_{k-1}, or is zero.
    """
    comp = eta.compose(alpha)
    epi, mono = epi_mono_factorize(comp)
    k = eta.codomain_top
    if mono.domain_top == k:
        return epi, "id", k
    if mono.domain_top == k - 1 and mono.values == tuple(range(k)):
        return epi, "d", k
    return epi, None, k


def gamma_operator(C, alpha, basis_by_level):
    """Matrix of Γ(C)(alpha) : Γ(C)_n -> Γ(C)_m for alpha : [m] -> [n]."""
    m, n = alpha.domain_top, alpha.codomain_top
    src = basis_by_level[n]
    tgt = basis_by_level[m]
    pos = {b: i for i, b in enumerate(tgt)}
    M = la.zeros(len(tgt), len(src))
    for col, (eta, t) in enumerate(src):
        eta_prime, mode, k = _gamma_component(C, eta, alpha)
        if mode == "id":
            M[pos[(eta_prime, t)]][col] += 1
        elif mode == "d":
            d = C.diff(k)
            for t2 in range(C.rank(k - 1)):
                v = d[t2][t]
                if v:
                    M[pos[(eta_prime, t2)]][col] += v
    return M


def gamma(C, dim_bound):
    """The inverse Dold-Kan functor, truncated at dim_bound: level n is the
    sum over surjections [n] ->> [k] of C_k."""
    basis = [gamma_basis(C, n) for n in range(dim_bound + 1)]
    ranks = [len(b) for b in basis]
    face_mats = {}
    degen_mats = {}
    for n in range(1, dim_bound + 1):
        for i in range(n + 1):
            face_mats[(n, i)] = gamma_operator(C, coface(n, i), basis)
    for n in range(dim_bound):
        for i in range(n + 1):
            degen_mats[(n, i)] = gamma_operator(C, codegeneracy(n, i), basis)
    return SimplicialAbelianGroup(dim_bound, ranks, face_mats, degen_mats)


def interval_object(n, dim_bound):
    """Γ(Dⁿ), the representing object of 'level-n element with boundary'."""
    return gamma(disk(n).to_chain_complex(), dim_bound)


def gamma_normalize_comparison(A):
    """The canonical comparison Γ(𝒩(A)) -> A: per level, a square integer
    matrix; returns the list of matrices.  The comparison is an isomorphism
    iff every matrix is unimodular."""
    nres = normalize(A)
    N = nres.normalized
    mats = []
    for n in range(A.dim_bound + 1):
        cols = []
        for (eta, t) in gamma_basis(N, n):
            op = A.operator_matrix(eta)
            sec_col = [row[t] for row in nres.section.mat(eta.codomain_top)]
            cols.append(la.mat_vec(op, sec_col))
        mats.append(la.from_columns(cols, A.ranks[n]))
    return mats


def normalized_gamma_comparison(C, dim_bound):
    """The canonical chain map C -> 𝒩(Γ(C)): include C_n as the summand of
    Γ(C)_n indexed by the identity surjection, project to the normalized
    quotient, and twist by (-1)^(n(n+1)/2) so the result commutes with the
    differentials.  Returns the ChainMap; it is an isomorphism whenever the
    dimension bound is at least the top degree of C."""
    G = gamma(C, dim_bound)
    nres = normalize(G)
    N = nres.normalized
    mats = {}
    sign = 1
    for n in range(dim_bound + 1):
        basis = gamma_basis(C, n)
        incl = la.zeros(len(basis), C.rank(n))
        for row, (eta, t) in enumerate(basis):
            if eta.domain_top == eta.codomain_top == n and t < C.rank(n):
                incl[row][t] = 1
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
