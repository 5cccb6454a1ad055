"""The Eilenberg-Zilber shuffle product and the Alexander-Whitney map on
normalized chains, with certification helpers for the chain-map law,
unitality, AW∘∇ = id, symmetry, and associativity.

∇, AW and the symmetry swap are built on the section image: each is the
unnormalized formula composed with the sections and projections of the
normalizations, computed factor by factor (kron(X·S, Y·T) = kron(X, Y) ·
kron(S, T)), so that C(A)⊗C(B) is never built.  The lifts of ∇ and of
the swap into unnormalized chains and AW are validated as chain maps; the
unnormalized ∇ and AW themselves are never built.  ∇ is the projection of
A⊗B, a chain map that normalization validates, after its validated lift,
so ∇ is a chain map without a test of its own.

Each pair (A, B) is built and validated once: shuffle_product keeps it on
A, keyed weakly by B, so every certificate on the pair shares one ∇.
"""

from __future__ import annotations

import weakref

from . import intlinalg as la
from .chains import ChainMap, identity_chain_map, tensor, tensor_map
from .delta import MonotoneMap, shuffles
from .doldkan import normalize, unnormalized_chains
from .simplicial import CheckCertificate, sab_tensor


def front_face(n, p):
    """The injection [p] -> [n] onto {0, ..., p}."""
    return MonotoneMap(p, n, tuple(range(p + 1)))


def back_face(n, q):
    """The injection [q] -> [n] onto {n-q, ..., n}."""
    return MonotoneMap(q, n, tuple(range(n - q, n + 1)))


def _shuffle_terms(A, B, p, q, col, right_a, right_b):
    """The kron_sum terms of ∇ on the column block (p, q) at column col,
    each factor followed by right_a resp. right_b: sign · kron(A(s_a) ·
    right_a, B(s_b) · right_b) over the (p,q)-shuffles, with (s_a, s_b)
    the components of the shuffle's lattice path."""
    terms = []
    for sh in shuffles(p, q):
        s_a, s_b = sh.components()
        terms.append((la.mat_mul(A.operator_matrix(s_a), right_a),
                      la.mat_mul(B.operator_matrix(s_b), right_b), 0, col,
                      sh.sign))
    return terms


class _ShuffleProduct:
    """The Eilenberg-Zilber pair of A and B on normalized chains.

    The shuffle product ∇ : 𝒩(A)⊗𝒩(B) -> 𝒩(A⊗B) is built at construction
    on the section image: in degree n its lift to C_n(A⊗B) is the signed
    sum over the blocks (p, q) and the (p,q)-shuffles of kron(A(s_a) ·
    sec_A, B(s_b) · sec_B), that is ∇ on unnormalized chains composed with
    section ⊗ section, and the projection of A⊗B takes it to 𝒩(A⊗B).  The
    lift is validated as a chain map 𝒩(A)⊗𝒩(B) -> C(A⊗B), and ∇'s
    degree-0 component is checked to be the canonical basis
    identification (the identity matrix).  ∇ is not validated again: it
    is the composite of the lift and the projection C(A⊗B) -> 𝒩(A⊗B),
    which normalize validates as a chain map, and a composite of chain
    maps is one.  The Alexander-Whitney map is
    built on demand by alexander_whitney(), also on the section image.
    Neither builds C(A)⊗C(B).  The normalizations of A, B and A⊗B are kept
    for downstream use (filtered pairings, symmetry and associativity
    checks).  product, if given, is used as A⊗B instead of sab_tensor(A, B)
    and must equal it.
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
            n: la.kron_sum(AB.ranks[n], NT.rank(n), [
                term for p, q, col in ntb.blocks(n)
                for term in _shuffle_terms(A, B, p, q, col, sec_a.mat(p),
                                           sec_b.mat(q))])
            for n in range(A.dim_bound + 1)})
        self.map = self.norm_AB.projection.compose(lifted)
        if not la.mat_eq(self.map.mat(0), la.identity(NT.rank(0))):
            raise AssertionError("degree-0 component is not the canonical "
                                 "identification")

    def alexander_whitney(self):
        """AW : 𝒩(A⊗B) -> 𝒩(A)⊗𝒩(B), validated as a chain map: the
        front-face/back-face formula on the section image, row block (p, q)
        in degree n being kron(proj_A · A(front), proj_B · B(back)) times
        the section of A⊗B."""
        A, B, tb = self.A, self.B, self.source_basis
        proj_a, proj_b = self.norm_A.projection, self.norm_B.projection
        mats = {n: la.mat_mul(la.kron_sum(tb.rank(n), self.product.ranks[n], [
            (la.mat_mul(proj_a.mat(p), A.operator_matrix(front_face(n, p))),
             la.mat_mul(proj_b.mat(q), B.operator_matrix(back_face(n, q))),
             row, 0, 1)
            for p, q, row in tb.blocks(n)]), self.norm_AB.section.mat(n))
            for n in range(A.dim_bound + 1)}
        return ChainMap(self.target, self.source, mats)


def shuffle_product(A, B):
    """The Eilenberg-Zilber pair of A and B (see _ShuffleProduct): .map is
    the lax structure map 𝒩(A)⊗𝒩(B) -> 𝒩(A⊗B), .alexander_whitney()
    builds AW.

    Built and validated once per (A, B) and kept on A in
    A.shuffle_products, a WeakKeyDictionary keyed by B, so that
    shuffle_product(A, B) is shuffle_product(A, B).  The kept entry holds
    the pair's state without A and B and a weak reference to the pair last
    returned; a new pair over the same state is made only when that one is
    gone.  So A keeps no partner alive: once B is dropped, its entry goes.
    Every caller shares the pair, which must not be mutated."""
    if A.shuffle_products is None:
        A.shuffle_products = weakref.WeakKeyDictionary()
    kept = A.shuffle_products.get(B)
    if kept is None:
        sp = _ShuffleProduct(A, B)
        state = {k: v for k, v in vars(sp).items() if k not in ("A", "B")}
        A.shuffle_products[B] = [state, weakref.ref(sp)]
        return sp
    state, ref = kept
    sp = ref()
    if sp is None:
        sp = object.__new__(_ShuffleProduct)
        vars(sp).update(state, A=A, B=B)
        kept[1] = weakref.ref(sp)
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


def _koszul_swap(tb_src, tb_tgt):
    """The signed swap (C⊗D) -> (D⊗C), x⊗y -> (-1)^{|x||y|} y⊗x: block
    (p, q) goes to block (q, p), transposing the Kronecker order."""
    mats = {}
    for n in range(tb_src.top_degree + 1):
        cols = []  # column col + i * rq + j of block (p, q), in order
        for p, q, _ in tb_src.blocks(n):
            row = tb_tgt.offset(n, q)
            rp, rq = tb_src.C.rank(p), tb_src.D.rank(q)
            sign = -1 if (p * q) % 2 else 1
            cols += [((row + j * rp + i, sign),)
                     for i in range(rp) for j in range(rq)]
        mats[n] = la.Sparse(cols, tb_tgt.rank(n))
    return mats


def _simplicial_swap_chain(ab, ba):
    """𝒩 of the levelwise transposition A⊗B -> B⊗A, for the shuffle
    products ab and ba: the transposition applied to the columns of the
    section of A⊗B, validated as a chain map 𝒩(A⊗B) -> C(B⊗A), then
    projected to 𝒩(B⊗A)."""
    A, B = ab.A, ab.B
    mats = {}
    for n in range(A.dim_bound + 1):
        an, bn = A.ranks[n], B.ranks[n]
        swap = la.Sparse([((b * an + a, 1),) for a in range(an)
                          for b in range(bn)], bn * an)
        mats[n] = la.mat_mul(swap, ab.norm_AB.section.mat(n))
    lifted = ChainMap(ab.target, unnormalized_chains(ba.product), mats)
    return ba.norm_AB.projection.compose(lifted)


def symmetry_check(A, B):
    """Certifies ∇_{B,A} ∘ (Koszul swap) = 𝒩(swap) ∘ ∇_{A,B}."""
    ez_ab = shuffle_product(A, B)
    ez_ba = shuffle_product(B, A)
    n_swap = _simplicial_swap_chain(ez_ab, ez_ba)
    swap = _koszul_swap(ez_ab.source_basis, ez_ba.source_basis)
    for n in range(A.dim_bound + 1):
        if not la.products_equal(ez_ba.map.mat(n), swap[n], n_swap.mat(n),
                                 ez_ab.map.mat(n)):
            return CheckCertificate(False, witness=n,
                                    detail=f"symmetry square fails in degree {n}")
    return CheckCertificate(True, detail="∇ commutes with the signed swap")


def _tensor_associator(tb_left, tb_ab, tb_right, tb_bc):
    """The canonical (sign-free) matrices ((C⊗D)⊗E)_n -> (C⊗(D⊗E))_n.

    tb_left is the basis of (C⊗D)⊗E with inner basis tb_ab; tb_right is
    the basis of C⊗(D⊗E) with inner basis tb_bc.  The part of block
    ((p, q), r) is kron(1, ι) into block (p, q + r), with ι the inclusion
    of D_q ⊗ E_r into (D⊗E)_{q+r}."""
    mats = {}
    for n in range(tb_left.top_degree + 1):
        terms = []
        for m, r, col in tb_left.blocks(n):
            re = tb_left.D.rank(r)
            for p, q, inner in tb_ab.blocks(m):
                s = q + r
                if s > tb_bc.top_degree:
                    continue
                width = tb_ab.D.rank(q) * re
                at = tb_bc.offset(s, q)
                inclusion = la.Sparse([((at + t, 1),) for t in range(width)],
                                      tb_bc.rank(s))
                terms.append((la.identity(tb_ab.C.rank(p)), inclusion,
                              tb_right.offset(n, p), col + inner * re, 1))
        mats[n] = la.kron_sum(tb_right.rank(n), tb_left.rank(n), terms)
    return mats


def associativity_check(A, B, C):
    """Certifies ∇ ∘ (∇⊗id) = ∇ ∘ (id⊗∇) ∘ assoc on normalized chains.

    The levelwise tensor of simplicial abelian groups is strictly
    associative (Kronecker products associate on the nose): (A⊗B)⊗C and
    A⊗(B⊗C) are both built and must have equal face and degeneracy
    matrices, so both composites land in the one normalized complex of
    A⊗B⊗C, which is normalized once.  The two triple-level pairs are used
    once, so they are built directly and not kept."""
    D = A.dim_bound
    ez_ab = shuffle_product(A, B)
    ez_bc = shuffle_product(B, C)
    ABC = sab_tensor(ez_ab.product, C)
    A_BC = sab_tensor(A, ez_bc.product)
    if ABC.ranks != A_BC.ranks or ABC.face_mats != A_BC.face_mats or \
            ABC.degen_mats != A_BC.degen_mats:
        raise AssertionError("tensor of simplicial groups not strictly "
                             "associative")
    ez_ab_c = _ShuffleProduct(ez_ab.product, C, product=ABC)
    ez_a_bc = _ShuffleProduct(A, ez_bc.product, product=ABC)
    NA = ez_ab.norm_A.normalized
    NC = ez_ab_c.norm_B.normalized
    # only the bases of the two tensor complexes are read, but building
    # them checks d∘d on each
    # left: (N_A ⊗ N_B) ⊗ N_C -> N_{A⊗B} ⊗ N_C -> N_{(A⊗B)⊗C}
    _, tb_left = tensor(ez_ab.source, NC, top_degree=D)
    nabla_tensor_id = tensor_map(ez_ab.map, identity_chain_map(NC),
                                 tb_left, ez_ab_c.source_basis)
    # right: assoc, then N_A ⊗ (N_B ⊗ N_C) -> N_A ⊗ N_{B⊗C} -> N_{A⊗(B⊗C)}
    _, tb_right = tensor(NA, ez_bc.source, top_degree=D)
    assoc = _tensor_associator(tb_left, ez_ab.source_basis,
                               tb_right, ez_bc.source_basis)
    id_tensor_nabla = tensor_map(identity_chain_map(NA), ez_bc.map,
                                 tb_right, ez_a_bc.source_basis)
    for n in range(D + 1):
        if not la.products_equal(
                ez_ab_c.map.mat(n), nabla_tensor_id[n], ez_a_bc.map.mat(n),
                la.mat_mul(id_tensor_nabla[n], assoc[n])):
            return CheckCertificate(False, witness=n,
                                    detail=f"associativity fails in degree {n}")
    return CheckCertificate(True, detail="∇ is associative")


def _edge_map(n, k):
    """[n] -> [k] for k in (0, n): the constant map or the identity."""
    return MonotoneMap(n, k, tuple(range(n + 1)) if k else (0,) * (n + 1))


def unitality_check(A, B):
    """Certifies that the unnormalized ∇ on bidegrees (p, 0) and (0, q) is
    the canonical identification x⊗y -> x·(iterated degeneracy of y) (and
    symmetrically), i.e. the single trivial shuffle with sign +1.  Only
    those edge blocks of ∇ are built, each as the signed sum over its
    shuffles, and compared column by column."""
    for n in range(A.dim_bound + 1):
        rows = A.ranks[n] * B.ranks[n]
        for p, q in ((n, 0), (0, n)) if n else ((0, 0),):
            got = la.kron_sum(rows, A.ranks[p] * B.ranks[q],
                              _shuffle_terms(A, B, p, q, 0,
                                             la.identity(A.ranks[p]),
                                             la.identity(B.ranks[q])))
            want = la.kron(A.operator_matrix(_edge_map(n, p)),
                           B.operator_matrix(_edge_map(n, q)))
            for c, (x, y) in enumerate(zip(got, want)):
                if x != y:
                    i, j = divmod(c, B.ranks[q])
                    return CheckCertificate(
                        False, witness=(n, p, i, q, j),
                        detail="edge bidegree is not the canonical "
                               "identification")
    return CheckCertificate(True, detail="∇ is unital on edge bidegrees")
