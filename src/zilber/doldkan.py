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
            # M += (-1)^i d_i, in place: kron with the 1 x 1 identity is d_i
            la.add_kron(M, la.identity(1), A.face_mats[(n, i)],
                        scale=-1 if i % 2 else 1)
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


def _degenerate_coordinates(A, n):
    """The basis indices of A_n that the degeneracies s_i : A_{n-1} -> A_n
    hit, when every column of every s_i is a unit vector (so D_n is the
    span of those basis vectors); None when some column is not."""
    hit = set()
    for i in range(n):
        M = A.degen_mats[(n - 1, i)]
        cols = []
        for k, row in enumerate(M):
            nnz = len(row) - row.count(0)
            if not nnz:
                continue
            if row.count(1) != nnz:
                return None
            hit.add(k)
            j = -1
            for _ in range(nnz):
                j = row.index(1, j + 1)
                cols.append(j)
        if len(cols) != M.ncols or len(set(cols)) != M.ncols:
            return None
    return hit


def _quotient_by_degenerates(A, n):
    """(proj, lifts): proj : A_n -> A_n / D_n in a chosen basis, and lifts,
    sparse vectors {index: entry} of A_n that proj sends to that basis."""
    rn = A.ranks[n]
    hit = _degenerate_coordinates(A, n)
    if hit is not None:
        # D_n is a coordinate subspace: keep the other coordinates
        keep = [k for k in range(rn) if k not in hit]
        proj = la.zeros(len(keep), rn)
        for j, k in enumerate(keep):
            proj[j][k] = 1
        return proj, [{k: 1} for k in keep]
    U, S, _, Uinv, _ = la._smith_with_inverses(_degenerate_span(A, n),
                                               ("U", "Uinv"))
    diag = [S[i][i] for i in range(min(la.dims(S)))]
    if any(d not in (0, 1) for d in diag):
        raise ValueError(
            "degenerate subgroup is not a direct summand; "
            "input is not a valid simplicial abelian group")
    r = sum(1 for d in diag if d)
    lifts = [{i: row[j] for i, row in enumerate(Uinv) if row[j]}
             for j in range(r, rn)]
    return la.Matrix(U[r:], rn), lifts


def _sparse_action(M):
    """v -> M v on sparse vectors {index: entry}; each column of M is read
    the first time it is needed."""
    cols = {}

    def act(v):
        out = {}
        for c, x in v.items():
            col = cols.get(c)
            if col is None:
                col = cols[c] = [(i, row[c]) for i, row in enumerate(M)
                                 if row[c]]
            for i, a in col:
                out[i] = out.get(i, 0) + a * x
        return {i: x for i, x in out.items() if x}
    return act


def _moore_section(A, n, moore, lifts):
    """P_n applied to each lift, as sparse vectors, where P_n is the
    idempotent of A_n onto the Moore subgroup with kernel D_n, applying the
    rightmost factor first:
    upper P_n = (1 - s_0 d_1)(1 - s_1 d_2)⋯(1 - s_{n-1} d_n),
    lower P_n = (1 - s_{n-1} d_{n-1})⋯(1 - s_0 d_0).
    Raises ValueError unless the Moore faces (d_1..d_n, resp. d_0..d_{n-1})
    kill every result."""
    steps = ([(i, i + 1) for i in reversed(range(n))] if moore == "upper"
             else [(i, i) for i in range(n)])
    acts = [(_sparse_action(A.degen_mats[(n - 1, i)]),
             _sparse_action(A.face_mats[(n, j)])) for i, j in steps]
    out = []
    for v in lifts:
        for s, d in acts:
            v = dict(v)
            for i, x in s(d(v)).items():
                v[i] = v.get(i, 0) - x
        v = {i: x for i, x in v.items() if x}
        if any(d(v) for _, d in acts):
            raise ValueError("section leaves the Moore subcomplex; "
                             "input is not a valid simplicial abelian group")
        out.append(v)
    return out


def _sparse_matrix(cols, nrows):
    """The nrows-row Matrix whose columns are the sparse vectors cols."""
    M = la.zeros(nrows, len(cols))
    for j, v in enumerate(cols):
        for i, x in v.items():
            M[i][j] = x
    return M


def normalize(A, moore="upper"):
    """Normalization of a simplicial abelian group as the quotient of the
    unnormalized chains by the degenerate subcomplex D.

    The section embeds the quotient as the Moore subcomplex: with
    moore="upper" this is ∩_{i>=1} ker d_i, with moore="lower" it is
    ∩_{i<=n-1} ker d_i.  It is P_n applied to lifts of the normalized
    basis, where P_n is the idempotent built from faces and degeneracies
    that kills D_n and fixes the Moore subgroup (see _moore_section).
    When every degeneracy matrix into level n has unit-vector columns, as
    for ℤ[X], tensor products of such groups and Γ(C), D_n is spanned by
    basis vectors: the normalized basis is the other basis vectors, in
    index order, and the projection restricts coordinates.  Otherwise the
    Smith normal form of the degenerate span splits D_n off.  Both
    conventions give the same complex and projection; the sections differ
    by degenerate chains, which the projection kills, so ∇, AW and the
    skeletal filtrations do not depend on the convention.

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
    cols = {}  # the section's columns, as sparse vectors
    for n in range(D + 1):
        projs[n], lifts = _quotient_by_degenerates(A, n)
        cols[n] = _moore_section(A, n, moore, lifts)
    nranks = [len(cols[n]) for n in range(D + 1)]
    ndiffs = {}
    for n in range(1, D + 1):
        d, proj = _sparse_action(C.diff(n)), _sparse_action(projs[n - 1])
        ndiffs[n] = _sparse_matrix([proj(d(v)) for v in cols[n]], nranks[n - 1])
    N = ChainComplex(nranks, ndiffs)
    projection = ChainMap(C, N, projs)
    section = ChainMap(N, C, {n: _sparse_matrix(cols[n], A.ranks[n])
                              for n in range(D + 1)})
    for n in range(D + 1):
        proj = _sparse_action(projs[n])
        if any(proj(v) != {j: 1} for j, v in enumerate(cols[n])):
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
