"""Oracles the library does not carry: integer solving and span
coordinates by a solve on every span, the eager subquotient, which builds
its transforms at construction, the composite of chain maps, the
lower Moore convention of normalization, homology and its induced maps as subquotients with lifts,
the Kronecker block sums of the tensor layer, the
Eilenberg-Zilber matrix path, the simplicial-identity check on stored
composites, the skeletal filtration
from a normalization, page recursion by ambient generator matrices, the
filtration walks over every stage slot, the
levelwise tensor of simplicial abelian groups, the basis list of Γ(C),
enumerations of Δ that only the tests read, and a generator of non-free
simplicial groups.

The library reads ∇, AW, the symmetry swap and the skeletal filtration of
ℤ[X] off the nondegenerate simplices of X, and refuses any other group.
The matrix path here builds them on any simplicial abelian group from its
normalizations, and the tests hold the library to it entry for entry.

On the matrix path ∇, AW and the symmetry swap are the unnormalized
formulas composed with the sections and projections of the
normalizations, factor by factor (kron(X·S, Y·T) = kron(X, Y) ·
kron(S, T)), so C(A)⊗C(B) and the unnormalized ∇ and AW are never built.
The lifts of ∇ and of the swap into unnormalized chains and AW are
validated as chain maps; ∇ is the projection of A⊗B, which normalization
validates, after its validated lift, so it needs no test of its own.

Each pair (A, B) is built once and kept on A in oracle_pairs, keyed weakly
by B, so every certificate here on the pair shares one ∇.  The pair holds
B, so A keeps its partners alive.
"""

import weakref
from itertools import product as cartesian

import pytest

from zilber import ez, spectral
from zilber import intlinalg as la
from zilber.chains import (AbelianGroupInvariants, ChainComplex, ChainMap,
                           tensor)
from zilber.delta import (MonotoneMap, PosetPoint, StrictMonotoneIntoProduct,
                          codegeneracy, coface, enumerate_monotone,
                          monotone_position, shuffles, strict_chains)
from zilber.doldkan import (NormalizationResult, _quotient_by_degenerates,
                            gamma_offsets, normalize, unnormalized_chains)
from zilber.filtration import (FilteredChainComplex, FilteredPairing,
                               _kron_columns, _span_equals_stage)
from zilber.simplicial import (CheckCertificate, SimplicialAbelianGroup,
                               SimplicialIdentityError)

# ---------------------------------------------------------------------------
# Δ


def identity_map(n):
    return MonotoneMap(n, n, tuple(range(n + 1)))


def generating_maps(b):
    """The cofaces and then the codegeneracies among [0], ..., [b], each as
    the triple (a, c, i) of a map [a] -> [c] and its index i in
    enumerate_monotone(a, c); they generate every monotone map between
    these objects."""
    gens = [coface(n, i) for n in range(1, b + 1) for i in range(n + 1)]
    gens += [codegeneracy(n, i) for n in range(b) for i in range(n + 1)]
    return tuple((f.domain_top, f.codomain_top,
                  monotone_position(f.domain_top, f.codomain_top)[f.values])
                 for f in gens)


def enumerate_injections(m, n):
    """All monotone injections [m] -> [n], lexicographic."""
    return [f for f in enumerate_monotone(m, n) if f.is_injective]


def product_points(ns):
    """All points of ∏_i [n_i], lexicographic."""
    return [PosetPoint(p) for p in cartesian(*(range(n + 1) for n in ns))]


def product_nondegenerate(ns, k):
    """All strictly monotone chains [k] -> ∏_i [n_i]: the nondegenerate
    k-simplices of the product of standard simplices, in strict_chains'
    order."""
    ns = tuple(ns)
    chains = strict_chains(ns)
    return [StrictMonotoneIntoProduct(ns, tuple(map(PosetPoint, chain)))
            for chain in (chains[k] if k < len(chains) else ())]


# ---------------------------------------------------------------------------
# simplicial abelian groups


def check_identities_by_composites(D, F, S, compose, equal, identity):
    """The simplicial identities of a D-truncated object, each side built
    as a composite by compose(g, f) = g∘f and the two compared by equal:
    d∘d, then s∘s, then d∘s, raising SimplicialIdentityError at the first
    that fails, in the words of the library's checker."""
    for k in range(2, D + 1):
        for j in range(1, k + 1):
            for i in range(j):
                if not equal(compose(F[(k - 1, i)], F[(k, j)]),
                             compose(F[(k - 1, j - 1)], F[(k, i)])):
                    raise SimplicialIdentityError(
                        f"d_{i} d_{j} != d_{j-1} d_{i} at level {k}")
    for k in range(D - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                if not equal(compose(S[(k + 1, i)], S[(k, j)]),
                             compose(S[(k + 1, j + 1)], S[(k, i)])):
                    raise SimplicialIdentityError(
                        f"s_{i} s_{j} != s_{j+1} s_{i} at level {k}")
    for k in range(D):
        for j in range(k + 1):
            for i in range(k + 2):
                if i == j or i == j + 1:
                    want, name = identity(k), "id"
                elif i < j:
                    want = compose(S[(k - 1, j - 1)], F[(k, i)])
                    name = f"s_{j-1} d_{i}"
                else:
                    want = compose(S[(k - 1, j)], F[(k, i - 1)])
                    name = f"s_{j} d_{i-1}"
                if not equal(compose(F[(k + 1, i)], S[(k, j)]), want):
                    raise SimplicialIdentityError(
                        f"d_{i} s_{j} != {name} at level {k}")


def check_group_identities(A):
    """The identities of a simplicial abelian group by mat_mul and mat_eq."""
    check_identities_by_composites(
        A.dim_bound, A.face_mats, A.degen_mats, la.mat_mul, la.mat_eq,
        lambda k: la.identity(A.ranks[k]))


def check_set_identities(dim_bound, faces, degens, sizes):
    """The identities of the index tables of a simplicial set with sizes[k]
    k-simplices, by composed tables."""
    check_identities_by_composites(
        dim_bound, faces, degens, lambda g, f: [g[a] for a in f],
        list.__eq__, lambda k: list(range(sizes[k])))


def sab_tensor(A, B):
    """Levelwise tensor product of simplicial abelian groups (Kronecker
    operators); the basis at level k is ordered (a-index major)."""
    if A.dim_bound != B.dim_bound:
        raise ValueError("dim_bound mismatch")
    D = A.dim_bound
    return SimplicialAbelianGroup(
        D, [A.ranks[k] * B.ranks[k] for k in range(D + 1)],
        {key: la.kron(M, B.face_mats[key]) for key, M in A.face_mats.items()},
        {key: la.kron(M, B.degen_mats[key])
         for key, M in A.degen_mats.items()},
        check=False)


def _random_unimodular(rng, n):
    """A unimodular n x n matrix and its inverse, built from 2n elementary
    row operations, each drawn as zilber._random._random_unimodular draws
    its own (that function first draws how many it makes, n + 0..2)."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            U[i][t] += c * U[j][t]
        # inverse accumulates the inverse operations on the right
        for t in range(n):
            Uinv[t][j] -= c * Uinv[t][i]
    return la.as_sparse(U, n, n), la.as_sparse(Uinv, n, n)


def conjugate_simplicial(rng, A):
    """A with the basis of each level n changed by (-1)^n times a random
    unimodular matrix: isomorphic to A, but its degeneracies no longer have
    unit-vector columns (the sign alone flips those of rank-1 levels), so
    normalize takes the Smith-normal-form path."""
    g = []
    for n, r in enumerate(A.ranks):
        U, Uinv = _random_unimodular(rng, r)
        g.append((U, Uinv) if n % 2 == 0
                 else (la.mat_scale(-1, U), la.mat_scale(-1, Uinv)))
    faces = {(n, i): la.mat_mul(g[n - 1][0], la.mat_mul(M, g[n][1]))
             for (n, i), M in A.face_mats.items()}
    degens = {(n, i): la.mat_mul(g[n + 1][0], la.mat_mul(M, g[n][1]))
              for (n, i), M in A.degen_mats.items()}
    return SimplicialAbelianGroup(A.dim_bound, A.ranks, faces, degens)


# ---------------------------------------------------------------------------
# Solves, spans and chain maps


def solve_matrix(M, B):
    """Integer solution X of M X = B, or None if none exists."""
    if B.nrows != M.nrows:
        raise AssertionError("row count mismatch in solve_matrix")
    if not B.ncols:
        return la.zeros(M.ncols, 0)  # nothing to solve: skip the SNF
    U, diag, V, _ = la._smith_with_inverses(M, ("U", "V"))
    Y = la._diagonal_solve(diag, la.mat_mul(la._from_rows(U, M.nrows), B),
                           M.ncols)
    return None if Y is None else la.mat_mul(la._from_rows(V, M.ncols), Y)


def span_coords(A, B):
    """Span(A).coords(B) with no shortcut: B solved on the image basis of A
    by solve_matrix, one Smith form per call, whether the span is an
    identity, a lattice, 0 or none of these.  None if some column of B is
    not in the span."""
    return solve_matrix(la.image_basis(A), B)


class Subquotient:
    """Oracle for la.Subquotient: the eager form, which factors the
    coordinates R of the B generators on Z.basis once, with U and Uinv, at
    construction and builds its lifts there too."""

    def __init__(self, Z, b_gens):
        R = Z.coords(b_gens)
        if R is None:
            raise AssertionError("B is not contained in Z")
        U, diag, _, Uinv = la._smith_with_inverses(R, ("U", "Uinv"))
        r = Z.rank
        diag = diag + [0] * (r - len(diag))
        kept = [i for i in range(r) if diag[i] != 1]
        self.Z = Z
        self.orders = [diag[i] for i in kept]
        self.free_rank = sum(1 for o in self.orders if o == 0)
        self.torsion = [o for o in self.orders if o >= 2]
        self.U = la._from_rows([U[i] for i in kept], r)
        self.lifts = la.mat_mul(Z.basis, la.from_columns(
            [[row[i] for row in Uinv] for i in kept], r))

    def coords(self, B):
        """The generator coordinates of the columns of B, row i reduced mod
        orders[i]; AssertionError if some column is not in Z."""
        C = self.Z.coords(B)
        if C is None:
            raise AssertionError("a column is not in the subgroup Z")
        o = self.orders
        return la.Sparse([tuple([(i, x % o[i] if o[i] else x) for i, x in col
                                 if not o[i] or x % o[i]])
                          for col in la.mat_mul(self.U, C)], len(o))


def compose(f, g):
    """The chain map f ∘ g, not validated."""
    top = max(f.target.top_degree, g.source.top_degree)
    mats = {n: la.mat_mul(f.mat(n), g.mat(n)) for n in range(top + 1)}
    return ChainMap(g.source, f.target, mats, check=False)


# ---------------------------------------------------------------------------
# Normalization in the lower Moore convention


def lower_moore_section(A, n, lifts):
    """doldkan._moore_section in the lower convention ∩_{i<=n-1} ker d_i:
    P_n = (1 - s_{n-1} d_{n-1})⋯(1 - s_0 d_0) applied to the lifts, the
    rightmost factor first.  Raises ValueError unless d_0..d_{n-1} kill
    every result."""
    ops = [(A.degen_mats[(n - 1, i)], A.face_mats[(n, i)]) for i in range(n)]
    V = la.apply_factors(ops, lifts)
    if not all(la.product_is_zero(d, V) for _, d in ops):
        raise ValueError("section leaves the Moore subcomplex; "
                         "input is not a valid simplicial abelian group")
    return V


def normalize_lower(A):
    """The normalization of A with the lower Moore section, built afresh:
    the projection of normalize(A), the section lower_moore_section on the
    same lifts, and N_n = (-1)^n proj ∘ d_n ∘ sec, the one face that does
    not kill the section.  Both conventions give the same complex and
    projection; the sections differ by degenerate chains, which the
    projection kills, so ∇, AW and the skeletal filtrations do not depend
    on the convention."""
    C = unnormalized_chains(A)
    D = A.dim_bound
    projs, secs = {}, {}
    for n in range(D + 1):
        projs[n], lifts = _quotient_by_degenerates(A, n)
        secs[n] = lower_moore_section(A, n, lifts)
    nranks = [secs[n].ncols for n in range(D + 1)]
    diffs = {n: la.mat_scale((-1) ** n, la.mat_mul(
        projs[n - 1], la.mat_mul(A.face_mats[(n, n)], secs[n])))
        for n in range(1, D + 1)}
    N = ChainComplex(nranks, diffs)
    for n in range(D + 1):
        eye = la.identity(nranks[n])
        if not la.products_equal(projs[n], secs[n], eye, eye):
            raise AssertionError("projection ∘ section is not the identity")
    return NormalizationResult(N, ChainMap(C, N, projs),
                               ChainMap(N, C, secs))


# ---------------------------------------------------------------------------
# Homology as subquotients


def homology_subquotient(C, n):
    """H_n(C) = ker d_n / im d_{n+1} as a Subquotient of C_n, from a kernel
    basis (an SNF tracking V) and an image basis (an SNF tracking Uinv)."""
    return la.Subquotient(la.Span(la.kernel_basis(C.diff(n))),
                          la.image_basis(C.diff(n + 1)))


def homology(C):
    """chains.homology, read off the homology subquotients."""
    sqs = [homology_subquotient(C, n) for n in range(C.top_degree + 1)]
    return [AbelianGroupInvariants(sq.free_rank, tuple(sq.torsion))
            for sq in sqs]


def is_homology_isomorphism(f):
    """chains.is_homology_isomorphism from the induced maps: per degree,
    H_n(source) and H_n(target) have the same invariant factors and the
    matrix of H_n(f) on their cyclic generators is onto (a surjection
    between finitely generated abelian groups of one isomorphism type is
    a bijection), that is, [M | torsion relations] has every invariant
    factor 1 in every row."""
    for n in range(max(f.source.top_degree, f.target.top_degree) + 1):
        sq_s = homology_subquotient(f.source, n)
        sq_t = homology_subquotient(f.target, n)
        if sq_s.orders != sq_t.orders:
            return False
        M = sq_t.coords(la.mat_mul(f.mat(n), sq_s.lifts))
        rel = la.Sparse([((i, o),) for i, o in enumerate(sq_t.orders) if o],
                        sq_t.ngens)
        if la.invariant_factors(la.hstack(M, rel)) != [1] * sq_t.ngens:
            return False
    return True


# ---------------------------------------------------------------------------
# Kronecker blocks


def kron_sum(nrows, ncols, terms):
    """The nrows x ncols matrix Σ scale * kron(A, B), each product with its
    top left entry at (row, col), over (A, B, row, col, scale) in terms.
    Overlapping blocks add, so the tensor-layer matrices below are sums of
    placed products, and the library, which writes each of their columns
    in row order, is held to them entry for entry."""
    cols = [[] for _ in range(ncols)]
    for A, B, row, col, scale in terms:
        if not scale:
            continue
        rb, cb = la.dims(B)
        for j, Aj in enumerate(A):
            if not Aj:
                continue
            blocks = [(row + i * rb, scale * a) for i, a in Aj]
            for Bl, out in zip(B, cols[col + j * cb:col + (j + 1) * cb]):
                out.extend((r + k, s * b) for r, s in blocks for k, b in Bl)
    return la.Sparse(list(map(la._column, cols)), nrows)


def tensor_differentials(C, D, tb):
    """d_n of C ⊗ D on the basis tb, for 1 <= n <= tb.top_degree: column
    block (p, q) is kron(d_p, 1) in row block (p-1, q) plus
    (-1)^p kron(1, d_q) in row block (p, q-1)."""
    diffs = {}
    for n in range(1, tb.top_degree + 1):
        terms = []
        for p, q, col in tb.blocks(n):
            if p >= 1:
                terms.append((C.diff(p), la.identity(D.rank(q)),
                              tb.offset(n - 1, p - 1), col, 1))
            if q >= 1:
                terms.append((la.identity(C.rank(p)), D.diff(q),
                              tb.offset(n - 1, p), col, -1 if p % 2 else 1))
        diffs[n] = kron_sum(tb.rank(n - 1), tb.rank(n), terms)
    return diffs


def tensor_map(f, g, tb_source, tb_target):
    """f ⊗ g: kron(f_p, g_q) from each block (p, q) of tb_source to the
    block (p, q) of tb_target, none into a block the target lacks."""
    mats = {}
    for n in range(tb_source.top_degree + 1):
        terms = []
        if tb_target.rank(n):
            for p, q, col in tb_source.blocks(n):
                fm, gm = f.mat(p), g.mat(q)
                if fm.nrows and gm.nrows:
                    terms.append((fm, gm, tb_target.offset(n, p), col, 1))
        mats[n] = kron_sum(tb_target.rank(n), tb_source.rank(n), terms)
    return mats


def tensor_associator(tb_left, tb_ab, tb_right, tb_bc):
    """((C⊗D)⊗E)_n -> (C⊗(D⊗E))_n: block ((p, q), r) is kron(1, ι) into
    block (p, q + r), ι the inclusion of D_q ⊗ E_r into (D⊗E)_{q+r}."""
    mats = {}
    for n in range(tb_left.top_degree + 1):
        terms = []
        for m, r, col in tb_left.blocks(n):
            re = tb_left.D.rank(r)
            for p, q, inner in tb_ab.blocks(m):
                s = q + r
                at = tb_bc.offset(s, q)
                inclusion = la.Sparse(
                    [((at + t, 1),) for t in range(tb_ab.D.rank(q) * re)],
                    tb_bc.rank(s))
                terms.append((la.identity(tb_ab.C.rank(p)), inclusion,
                              tb_right.offset(n, p), col + inner * re, 1))
        mats[n] = kron_sum(tb_right.rank(n), tb_left.rank(n), terms)
    return mats


def hom_equations(C, D):
    """The equations of chain maps C -> D: for 1 <= n <= top the row block
    of f_{n-1} d^C_n - d^D_n f_n = 0, entry (i, j) at i * C.rank(n) + j,
    is kron(1, (d^C_n)^T) - kron(d^D_n, 1) on the unknowns f_{n-1} and
    f_n, f_n[k][j] in column k * C.rank(n) + j of its block."""
    top = max(C.top_degree, D.top_degree)
    offsets = [0]
    for n in range(top + 1):
        offsets.append(offsets[n] + D.rank(n) * C.rank(n))
    terms, eqs = [], 0
    for n in range(1, top + 1):
        terms += [(la.identity(D.rank(n - 1)), la.transpose(C.diff(n)),
                   eqs, offsets[n - 1], 1),
                  (D.diff(n), la.identity(C.rank(n)), eqs, offsets[n], -1)]
        eqs += D.rank(n - 1) * C.rank(n)
    return kron_sum(eqs, offsets[top + 1], terms)


# ---------------------------------------------------------------------------
# the Eilenberg-Zilber matrix path


def front_face(n, p):
    """The injection [p] -> [n] onto {0, ..., p}."""
    return MonotoneMap(p, n, tuple(range(p + 1)))


def back_face(n, q):
    """The injection [q] -> [n] onto {n-q, ..., n}."""
    return MonotoneMap(q, n, tuple(range(n - q, n + 1)))


class ShuffleProduct:
    """The Eilenberg-Zilber pair of A and B on the matrix path.

    ∇ : 𝒩(A)⊗𝒩(B) -> 𝒩(A⊗B) is built at construction on the section
    image: in degree n its lift to C_n(A⊗B) is the signed sum over the
    blocks (p, q) and the (p,q)-shuffles of kron(A(s_a) · sec_A, B(s_b) ·
    sec_B), and the projection of A⊗B takes it to 𝒩(A⊗B).  The lift is
    validated as a chain map 𝒩(A)⊗𝒩(B) -> C(A⊗B), and ∇'s degree-0
    component is checked to be the identity.  AW is built on demand by
    alexander_whitney(), also on the section image.  The normalizations
    of A, B and A⊗B are kept.  product, if given, is used as A⊗B instead
    of sab_tensor(A, B) and must equal it.
    """

    def __init__(self, A, B, product=None):
        self.A = A
        self.B = B
        self.product = AB = sab_tensor(A, B) if product is None else product
        self.norm_A = normalize(A)
        self.norm_B = normalize(B)
        self.norm_AB = normalize(AB)
        NT, ntb = tensor(self.norm_A.normalized, self.norm_B.normalized,
                         top_degree=A.dim_bound)
        self.source = NT
        self.source_basis = ntb
        self.target = self.norm_AB.normalized
        sec_a, sec_b = self.norm_A.section, self.norm_B.section
        lifted = ChainMap(NT, unnormalized_chains(AB), {
            n: kron_sum(AB.ranks[n], NT.rank(n), [
                # (s_a, s_b) = sh.components(), the shuffle's lattice path
                (la.mat_mul(A.operator_matrix(sh.components()[0]),
                            sec_a.mat(p)),
                 la.mat_mul(B.operator_matrix(sh.components()[1]),
                            sec_b.mat(q)), 0, col, sh.sign)
                for p, q, col in ntb.blocks(n) for sh in shuffles(p, q)])
            for n in range(A.dim_bound + 1)})
        self.map = compose(self.norm_AB.projection, lifted)
        if not la.mat_eq(self.map.mat(0), la.identity(NT.rank(0))):
            raise AssertionError("degree-0 component is not the canonical "
                                 "identification")

    def alexander_whitney(self):
        """AW : 𝒩(A⊗B) -> 𝒩(A)⊗𝒩(B), validated as a chain map: row block
        (p, q) in degree n is kron(proj_A · A(front), proj_B · B(back))
        times the section of A⊗B."""
        A, B, tb = self.A, self.B, self.source_basis
        proj_a, proj_b = self.norm_A.projection, self.norm_B.projection
        mats = {n: la.mat_mul(kron_sum(tb.rank(n), self.product.ranks[n], [
            (la.mat_mul(proj_a.mat(p), A.operator_matrix(front_face(n, p))),
             la.mat_mul(proj_b.mat(q), B.operator_matrix(back_face(n, q))),
             row, 0, 1)
            for p, q, row in tb.blocks(n)]), self.norm_AB.section.mat(n))
            for n in range(A.dim_bound + 1)}
        return ChainMap(self.target, self.source, mats)


def shuffle_product(A, B):
    """The matrix pair of (A, B), built once and kept on A in
    A.oracle_pairs, keyed weakly by B."""
    kept = vars(A).setdefault("oracle_pairs", weakref.WeakKeyDictionary())
    sp = kept.get(B)
    if sp is None:
        sp = kept[B] = ShuffleProduct(A, B)
    return sp


def aw_nabla_identity_check(A, B):
    """Certifies AW ∘ ∇ = id on 𝒩(A)⊗𝒩(B)."""
    sp = shuffle_product(A, B)
    aw = sp.alexander_whitney()
    for n in range(A.dim_bound + 1):
        eye = la.identity(sp.source.rank(n))
        if not la.products_equal(aw.mat(n), sp.map.mat(n), eye, eye):
            return CheckCertificate(False, witness=n,
                                    detail=f"AW∘∇ differs from id in degree {n}")
    return CheckCertificate(True, detail="AW∘∇ = id degreewise")


def simplicial_swap_chain(ab, ba):
    """𝒩 of the levelwise transposition A⊗B -> B⊗A, for the matrix pairs
    ab and ba: the transposition applied to the columns of the section of
    A⊗B, validated as a chain map 𝒩(A⊗B) -> C(B⊗A), then projected to
    𝒩(B⊗A)."""
    A, B = ab.A, ab.B
    mats = {}
    for n in range(A.dim_bound + 1):
        an, bn = A.ranks[n], B.ranks[n]
        swap = la.Sparse([((b * an + a, 1),) for a in range(an)
                          for b in range(bn)], bn * an)
        mats[n] = la.mat_mul(swap, ab.norm_AB.section.mat(n))
    lifted = ChainMap(ab.target, unnormalized_chains(ba.product), mats)
    return compose(ba.norm_AB.projection, lifted)


def symmetry_check(A, B):
    """Certifies ∇_{B,A} ∘ (Koszul swap) = 𝒩(swap) ∘ ∇_{A,B}."""
    ez_ab, ez_ba = shuffle_product(A, B), shuffle_product(B, A)
    n_swap = simplicial_swap_chain(ez_ab, ez_ba)
    swap = ez._koszul_swap(ez_ab.source_basis, ez_ba.source_basis)
    for n in range(A.dim_bound + 1):
        if not la.products_equal(ez_ba.map.mat(n), swap[n], n_swap.mat(n),
                                 ez_ab.map.mat(n)):
            return CheckCertificate(False, witness=n,
                                    detail=f"symmetry square fails in degree {n}")
    return CheckCertificate(True, detail="∇ commutes with the signed swap")


def triple_pairs(ez_ab, ez_bc, C):
    """The matrix pairs ((A⊗B), C) and (A, (B⊗C)) on one A⊗B⊗C.  The
    levelwise tensor is strictly associative (Kronecker products associate
    on the nose): (A⊗B)⊗C and A⊗(B⊗C) are both built and must have equal
    face and degeneracy matrices, and A⊗B⊗C is normalized once."""
    ABC = sab_tensor(ez_ab.product, C)
    A_BC = sab_tensor(ez_ab.A, ez_bc.product)
    if ABC.ranks != A_BC.ranks or ABC.face_mats != A_BC.face_mats or \
            ABC.degen_mats != A_BC.degen_mats:
        raise AssertionError("tensor of simplicial groups not strictly "
                             "associative")
    return (ShuffleProduct(ez_ab.product, C, product=ABC),
            ShuffleProduct(ez_ab.A, ez_bc.product, product=ABC))


def associativity_sides(A, B, C):
    """ez._associativity_sides on the matrix pairs."""
    ez_ab, ez_bc = shuffle_product(A, B), shuffle_product(B, C)
    return ez._associativity_sides(ez_ab, ez_bc,
                                   *triple_pairs(ez_ab, ez_bc, C))


def associativity_check(A, B, C):
    """Certifies ∇ ∘ (∇⊗id) = ∇ ∘ (id⊗∇) ∘ assoc on the matrix path."""
    for n, square in enumerate(associativity_sides(A, B, C)):
        if not la.products_equal(*square):
            return CheckCertificate(False, witness=n,
                                    detail=f"associativity fails in degree {n}")
    return CheckCertificate(True, detail="∇ is associative")


# the library's unitality_check reads shuffles only, on any group
unitality_check = ez.unitality_check


# ---------------------------------------------------------------------------
# the skeletal filtration from the normalization

def skeletal_filtration(A):
    """The skeletal filtration of any simplicial abelian group A on 𝒩(A).
    Stage p in degree k is spanned by the images under the normalization
    projection P_k of the operators of the surjections [k] ->> [j], j <= p.
    The non-identity ones factor through some s_i, which P_k kills, and P_k
    is onto N_k, so stage (p, k) is the identity for p >= k and 0 below.
    The premise P_k s_i = 0 (i < k) is checked on A; a failure raises
    AssertionError.  Computed once per A and kept on A in
    oracle_skeletal."""
    F = vars(A).get("oracle_skeletal")
    if F is None:
        nres = normalize(A)
        for k in range(A.dim_bound + 1):
            P = nres.projection.mat(k)
            for i in range(k):
                if not la.product_is_zero(P, A.degen_mats[(k - 1, i)]):
                    raise AssertionError(
                        f"projection P_{k} does not kill s_{i}")
        N = nres.normalized
        D = N.top_degree
        F = A.oracle_skeletal = FilteredChainComplex(N, [
            {k: la.identity(N.rank(k)) for k in range(p + 1)}
            for p in range(D + 1)], D)
    return F


def filtered_ez(A, B):
    """The matrix pair of (A, B) as a filtered pairing between the skeletal
    filtrations of A, B and A⊗B."""
    sp = shuffle_product(A, B)
    return FilteredPairing(skeletal_filtration(A), skeletal_filtration(B),
                           skeletal_filtration(sp.product), sp.map,
                           sp.source_basis)


def heart_check(A):
    """spectral.heart_check on the skeletal filtration here."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "skeletal_filtration", skeletal_filtration)
        return spectral.heart_check(A)


# ---------------------------------------------------------------------------
# spectral pages

def page_recursion_orders(S, r):
    """The orders of H(E_r, d_r) at each entry (p, q) of page r + 1 of S by
    the ambient formula (Z_{r+1} + B_r)/(d Z_r^{p+r} + B_r), on generator
    matrices of the degree-n chains, n = p + q, each entry a fresh Span
    and Subquotient."""
    st = S._store
    out = {}
    for p, q in S.pages[r + 1]:
        n = p + q
        b_r = st.b_of(st.b_key(r, p, n))
        num = la.hstack(st.z_of(st.z_key(r + 1, p, n)), b_r)
        den = la.hstack(b_r, st.dz_of(st.z_key(r, p + r, n + 1)))
        out[(p, q)] = la.Subquotient(la.Span(num), den).orders
    return out


# ---------------------------------------------------------------------------
# filtration walks over every stage slot, empty or not

def check_containment(P):
    """FilteredPairing._check_containment visiting every (p, q, n): each
    triple whose target stage is not a lattice builds its image, with
    columns or not."""
    tb = P.basis
    for p in range(P.F.p_max + 1):
        for q in range(P.G.p_max + 1):
            for n in range(tb.top_degree + 1):
                if P.H.span(p + q, n).is_lattice():
                    continue
                cols = _kron_columns(tb.rank(n), [
                    (off, P.F.stage(p, a), P.G.stage(q, b))
                    for a, b, off in reversed(tb.blocks(n))])
                if not P.H.span(p + q, n).contains(
                        la.mat_mul(P.m.mat(n), cols)):
                    return CheckCertificate(
                        False, witness=(p, q, n),
                        detail=f"m(F_{p} ⊗ G_{q}) escapes "
                               f"H_{p+q} in degree {n}")
    return CheckCertificate(True, detail="m(F_p ⊗ G_q) ⊆ H_{p+q} for all p, q")


def filtrations_stagewise_equal(F, G):
    """filtration.filtrations_stagewise_equal testing both containments in
    every slot."""
    if [F.ambient.rank(n) for n in range(F.ambient.top_degree + 1)] != \
            [G.ambient.rank(n) for n in range(G.ambient.top_degree + 1)]:
        return False
    return all(F.span(p, n).contains(G.stage(p, n))
               and G.span(p, n).contains(F.stage(p, n))
               for p in range(max(F.p_max, G.p_max) + 1)
               for n in range(F.ambient.top_degree + 1))


def carries_stages(mats, src, tgt, what, holds):
    """filtration._carries_stages comparing the image of every slot."""
    for p in range(src.p_max + 1):
        for n in range(src.ambient.top_degree + 1):
            img = la.mat_mul(mats[n], src.stage(p, n))
            if not _span_equals_stage(img, tgt, p, n):
                return CheckCertificate(False, witness=(p, n),
                                        detail=f"{what} image of stage {p} "
                                               f"differs in degree {n}")
    return CheckCertificate(True, detail=holds)


# ---------------------------------------------------------------------------
# Γ

def gamma_basis(C, n):
    """Basis of Γ(C)_n: pairs (surjection [n] ->> [k], generator of C_k),
    in the order of doldkan.gamma_offsets."""
    return [(eta, t) for eta in gamma_offsets(C, n)[0]
            for t in range(C.rank(eta.codomain_top))]
