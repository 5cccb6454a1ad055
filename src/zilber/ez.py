"""The Eilenberg-Zilber shuffle product and the Alexander-Whitney map on
the normalized chains of ℤ[X] and ℤ[Y], with certification helpers for the
chain-map law, unitality, AW∘∇ = id, symmetry, and associativity.

free_abelian keeps X on ℤ[X] as simplicial_set.  N(ℤ[X]), N(ℤ[Y]) and
N(ℤ[X×Y]) have the nondegenerate simplices as bases (Eilenberg-Zilber
lemma; Gabriel-Zisman, Calculus of Fractions and Homotopy Theory, 1967),
and ∇, AW and the symmetry swap are read off the face and degeneracy
tables of X and Y, degenerate terms dropped (_Nondegenerate,
_FreeShuffleProduct).  They are validated as chain maps between
normalized complexes.  C(ℤ[X×Y]) is not built, so its d∘d, the
projection and section checks and the lift of ∇ into it do not run: they
are facts about the degenerate subcomplex, and the tests hold these maps
entry for entry to a matrix path built from the normalizations of any
simplicial abelian group.  A group with no simplicial set raises
ValueError.

∇ is built on block (p, q) from shuffles(p, q) and the shuffles'
components, so unitality_check reads the edge blocks' shuffles alone,
builds no matrix and holds on any group.

Each pair (A, B) is built and validated once: shuffle_product keeps it on
A, keyed weakly by B, so every certificate on the pair shares one ∇.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

from . import intlinalg as la
from .chains import (ChainComplex, ChainMap, identity_chain_map, tensor,
                     tensor_map)
from .delta import MonotoneMap, factor_into_codegeneracies, shuffles
from .simplicial import CheckCertificate


class _Nondegenerate:
    """The nondegenerate simplices of X_1 × ⋯ × X_k and N(ℤ[X_1 × ⋯ × X_k]).

    A simplex is the tuple of its components' indices; the x-major order
    of simplicial.product is the lexicographic order of the tuples.  A
    tuple is nondegenerate exactly when the degeneracy masks of its
    components share no bit.  basis[n] lists the nondegenerate n-simplices in index
    order, the basis normalize picks for ℤ[X], and position[n] maps each
    to its index there.  chains is N with d = Σ (-1)^i d_i, degenerate
    faces dropped (proj ∘ d, the projection killing them), validated by
    ChainComplex.  Only the factors' levels are walked
    (_nondegenerate_tuples), so (X×Y)×Z and X×(Y×Z) are the one object of
    (X, Y, Z).  The object of one X is kept on X (of), and filtration
    keeps the skeletal filtration of chains in skeletal.  Every ∇ on this
    object shares the images of basis[p] kept by degenerate_basis."""

    def __init__(self, factors):
        D = factors[0].dim_bound
        if any(X.dim_bound != D for X in factors):
            raise ValueError("dim_bound mismatch")
        self.factors = tuple(factors)
        self.dim_bound = D
        self.skeletal = None
        self._images = {}  # surjection f -> degenerate_basis(f)
        self.basis = [_nondegenerate_tuples(
            [X.degeneracy_masks[n] for X in factors], n) for n in range(D + 1)]
        self.position = [{t: i for i, t in enumerate(b)} for b in self.basis]
        diffs = {}
        for n in range(1, D + 1):
            # the n + 1 faces of a simplex, one row per component
            rows = [list(zip(*[X.faces[(n, i)] for i in range(n + 1)]))
                    for X in factors]
            at = self.position[n - 1]
            cols = []
            for t in self.basis[n]:
                acc = {}
                sign = 1
                for face in zip(*[R[a] for R, a in zip(rows, t)]):
                    k = at.get(face)
                    if k is not None:
                        acc[k] = acc.get(k, 0) + sign
                    sign = -sign
                cols.append(la._dict_column(acc))
            diffs[n] = la.Sparse(cols, len(self.basis[n - 1]))
        self.chains = ChainComplex([len(b) for b in self.basis], diffs)

    @staticmethod
    def of(A):
        """The object of X for the group A = ℤ[X], built once and kept on X
        in X.nondegenerate; ValueError if A carries no simplicial set."""
        X = A.simplicial_set
        if X is None:
            raise ValueError("the group has no simplicial set: the "
                             "Eilenberg-Zilber and skeletal certificates "
                             "are read off the nondegenerate simplices of X "
                             "in ℤ[X] (free_abelian)")
        if X.nondegenerate is None:
            X.nondegenerate = _Nondegenerate((X,))
        return X.nondegenerate

    def face(self, t, n, i):
        """d_i t for t of level n."""
        return tuple([X.faces[(n, i)][a] for X, a in zip(self.factors, t)])

    def degenerate_basis(self, f):
        """X(f) of every simplex of basis[p], in basis order, for a monotone
        surjection f : [n] -> [p]: s_{j_r} ⋯ s_{j_1} over its steps, one
        level at a time.  Kept per f; callers must not mutate it."""
        out = self._images.get(f)
        if out is None:
            out, p = self.basis[f.codomain_top], f.codomain_top
            for j in _degeneracy_steps(f):
                s = [X.degens[(p, j)] for X in self.factors]
                out = [tuple([sx[a] for sx, a in zip(s, t)]) for t in out]
                p += 1
            self._images[f] = out
        return out

    def face_positions(self, t, n, front):
        """Per p <= n, the position in basis[p] of the front p-face
        d_{p+1}⋯d_n t (front) or of the back p-face d_0^{n-p} t, or None
        where it is degenerate."""
        out = [None] * (n + 1)
        for p in range(n, -1, -1):
            out[p] = self.position[p].get(t)
            if p:
                t = self.face(t, p, p if front else 0)
        return out


def _nondegenerate_tuples(masks, n):
    """The tuples (a_1, ..., a_k) of level-n simplex indices whose
    degeneracy masks (masks[i] for factor i) share no bit, in
    lexicographic order.  Indices are bucketed by mask, and the tuples of
    factors i.. whose masks' AND is disjoint from m are listed once per
    (i, m)."""
    buckets = []
    for level in masks:
        by_mask = {}
        for a, ma in enumerate(level):
            by_mask.setdefault(ma, []).append(a)
        buckets.append(by_mask)
    last = len(masks) - 1
    memo = {}

    def compatible(i, m):
        out = memo.get((i, m))
        if out is None:
            if i == last:
                out = sorted([(a,) for ma, idx in buckets[i].items()
                              if not ma & m for a in idx])
            else:
                kept = sorted([a for ma, idx in buckets[i].items()
                               if compatible(i + 1, m & ma) for a in idx])
                level = masks[i]
                out = [(a,) + rest for a in kept
                       for rest in compatible(i + 1, m & level[a])]
            memo[(i, m)] = out
        return out

    return compatible(0, (1 << n) - 1)


@lru_cache(maxsize=None)
def _degeneracy_steps(f):
    """The degeneracies (j_1, ..., j_r), s_{j_1} applied first, whose
    composite is X(f) for a monotone surjection f, as operator_matrix
    applies them."""
    return tuple(reversed(factor_into_codegeneracies(f)))


class _FreeShuffleProduct:
    """The Eilenberg-Zilber pair of ℤ[X] and ℤ[Y].

    left, right and simplices are the _Nondegenerate objects of X, Y and
    X×Y (simplices, if given, must have the factors of left, then those of
    right); source, source_basis and target are N(ℤ[X])⊗N(ℤ[Y]), its
    basis and N(ℤ[X×Y]).  ∇ is built at construction, the column of x⊗y
    in block (p, q) being Σ sign · (s_a x, s_b y) over the
    (p,q)-shuffles, (s_a, s_b) the components of the shuffle's lattice
    path; it is validated as a chain map, and ∇_0 = id is checked.  The
    pair holds no group, so a group that keeps it keeps no partner alive."""

    def __init__(self, left, right, simplices=None):
        if simplices is None:
            simplices = _Nondegenerate(left.factors + right.factors)
        self.left, self.right, self.simplices = left, right, simplices
        D = left.dim_bound
        NT, tb = tensor(left.chains, right.chains, top_degree=D)
        self.source = NT
        self.source_basis = tb
        self.target = simplices.chains
        at = simplices.position
        mats = {}
        for n in range(D + 1):
            cols = []
            for p, q, _ in tb.blocks(n):
                if not (left.basis[p] and right.basis[q]):
                    continue  # an empty block has no columns
                # per shuffle: its sign and the images s_a x, s_b y
                terms = []
                for sh in shuffles(p, q):
                    s_a, s_b = sh.components()
                    terms.append((sh.sign, left.degenerate_basis(s_a),
                                  right.degenerate_basis(s_b)))
                for i in range(len(left.basis[p])):
                    for j in range(len(right.basis[q])):
                        pairs = []
                        for sign, xs, ys in terms:
                            k = at[n].get(xs[i] + ys[j])
                            if k is not None:
                                pairs.append((k, sign))
                        cols.append(la._column(pairs))
            mats[n] = la.Sparse(cols, self.target.rank(n))
        self.map = ChainMap(NT, self.target, mats)
        if not la.mat_eq(self.map.mat(0), la.identity(NT.rank(0))):
            raise AssertionError("degree-0 component is not the canonical "
                                 "identification")

    def alexander_whitney(self):
        """AW : N(ℤ[X×Y]) -> N(ℤ[X])⊗N(ℤ[Y]), validated as a chain map:
        (x, y) goes to Σ_p (front p-face of x) ⊗ (back (n-p)-face of y),
        degenerate terms dropped."""
        left, right, tb = self.left, self.right, self.source_basis
        k = len(left.factors)
        mats = {}
        for n in range(left.dim_bound + 1):
            fronts, backs = {}, {}  # per component: its face positions
            rows = [(tb.offset(n, p), len(right.basis[n - p]))
                    for p in range(n + 1)]
            cols = []
            for t in self.simplices.basis[n]:
                x, y = t[:k], t[k:]
                f = fronts.get(x)
                if f is None:
                    f = fronts[x] = left.face_positions(x, n, True)
                b = backs.get(y)
                if b is None:
                    b = backs[y] = right.face_positions(y, n, False)
                # p descending: the blocks' offsets ascend
                cols.append(tuple([
                    (rows[p][0] + f[p] * rows[p][1] + b[n - p], 1)
                    for p in range(n, -1, -1)
                    if f[p] is not None and b[n - p] is not None]))
            mats[n] = la.Sparse(cols, tb.rank(n))
        return ChainMap(self.target, self.source, mats)


def shuffle_product(A, B):
    """The Eilenberg-Zilber pair of A = ℤ[X] and B = ℤ[Y]: .map is the lax
    structure map 𝒩(A)⊗𝒩(B) -> 𝒩(A⊗B), .alexander_whitney() builds AW,
    and .source, .source_basis and .target are the complexes of ∇.
    ValueError if A or B carries no simplicial set.

    Built and validated once per (A, B) and kept on A in
    A.shuffle_products, a WeakKeyDictionary keyed by B, so that
    shuffle_product(A, B) is shuffle_product(A, B).  The pair references
    the nondegenerate simplices of X and Y, not B, so A keeps no partner
    alive: once B is dropped, its entry goes.  Every caller shares the
    pair, which must not be mutated."""
    left, right = _Nondegenerate.of(A), _Nondegenerate.of(B)
    if A.shuffle_products is None:
        A.shuffle_products = weakref.WeakKeyDictionary()
    sp = A.shuffle_products.get(B)
    if sp is None:
        sp = A.shuffle_products[B] = _FreeShuffleProduct(left, right)
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


def _free_swap_chain(ab, ba):
    """𝒩 of the levelwise transposition X×Y -> Y×X, for the pairs ab and
    ba: the permutation (x, y) -> (y, x) of the nondegenerate bases,
    validated as a chain map 𝒩(ℤ[X×Y]) -> 𝒩(ℤ[Y×X])."""
    k = len(ab.left.factors)
    at = ba.simplices.position
    mats = {}
    for n, basis in enumerate(ab.simplices.basis):
        u = la.units(ba.target.rank(n))
        mats[n] = la.Sparse([u[at[n][t[k:] + t[:k]]] for t in basis],
                            ba.target.rank(n))
    return ChainMap(ab.target, ba.target, mats)


def symmetry_check(A, B):
    """Certifies ∇_{B,A} ∘ (Koszul swap) = 𝒩(swap) ∘ ∇_{A,B}."""
    ez_ab = shuffle_product(A, B)
    ez_ba = shuffle_product(B, A)
    n_swap = _free_swap_chain(ez_ab, ez_ba)
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
    of D_q ⊗ E_r into (D⊗E)_{q+r}: for each x_i of C_p, a run of unit
    columns."""
    mats = {}
    for n in range(tb_left.top_degree + 1):
        u = la.units(tb_right.rank(n))
        cols = []
        for m, r, _ in tb_left.blocks(n):
            re = tb_left.D.rank(r)
            for p, q, _ in tb_ab.blocks(m):
                s = q + r
                width = tb_ab.D.rank(q) * re
                w = tb_bc.rank(s)
                at = tb_right.offset(n, p) + tb_bc.offset(s, q)
                for i in range(tb_ab.C.rank(p)):
                    cols += u[at + i * w:at + i * w + width]
        mats[n] = la.Sparse(cols, tb_right.rank(n))
    return mats


def _triple_pairs(ez_ab, ez_bc):
    """The pairs ((X×Y), Z) and (X, (Y×Z)), for the pairs ez_ab of (X, Y)
    and ez_bc of (Y, Z), on one X×Y×Z.

    (X×Y)×Z and X×(Y×Z) are the simplices of the one factor tuple
    (X, Y, Z), so N((X×Y)×Z) equals N(X×(Y×Z)) when the two factor tuples
    agree; it is built once, and the product's levels are not."""
    xyz = ez_ab.simplices.factors + ez_bc.right.factors
    if xyz != ez_ab.left.factors + ez_bc.simplices.factors:
        raise AssertionError("product of simplicial sets not strictly "
                             "associative")
    XYZ = _Nondegenerate(xyz)
    return (_FreeShuffleProduct(ez_ab.simplices, ez_bc.right, XYZ),
            _FreeShuffleProduct(ez_ab.left, ez_bc.simplices, XYZ))


def _associativity_sides(ez_ab, ez_bc, ez_ab_c, ez_a_bc):
    """Per degree n, the factors (L, L', R, R') of the two sides of the
    associativity square for the pairs of (A, B), (B, C), (A⊗B, C) and
    (A, B⊗C): ∇ ∘ (∇⊗id) = L · L' and ∇ ∘ (id⊗∇) ∘ assoc = R · R'.  Both
    composites land in the one normalized complex of A⊗B⊗C that the last
    two pairs share."""
    D = ez_ab.source_basis.top_degree
    NA = ez_ab.source_basis.C
    NC = ez_ab_c.source_basis.D
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
        yield (ez_ab_c.map.mat(n), nabla_tensor_id[n], ez_a_bc.map.mat(n),
               la.mat_mul(id_tensor_nabla[n], assoc[n]))


def associativity_check(A, B, C):
    """Certifies ∇ ∘ (∇⊗id) = ∇ ∘ (id⊗∇) ∘ assoc on normalized chains,
    degree by degree (_associativity_sides), without storing either
    composite.  The two triple-level pairs (_triple_pairs) are used once,
    so they are built directly and not kept."""
    ez_ab, ez_bc = shuffle_product(A, B), shuffle_product(B, C)
    sides = _associativity_sides(ez_ab, ez_bc, *_triple_pairs(ez_ab, ez_bc))
    for n, square in enumerate(sides):
        if not la.products_equal(*square):
            return CheckCertificate(False, witness=n,
                                    detail=f"associativity fails in degree {n}")
    return CheckCertificate(True, detail="∇ is associative")


def _edge_map(n, k):
    """[n] -> [k] for k in (0, n): the constant map or the identity."""
    return MonotoneMap(n, k, tuple(range(n + 1)) if k else (0,) * (n + 1))


def unitality_check(A, B):
    """Certifies that ∇ on the edge bidegrees (p, 0) and (0, q) is the
    canonical identification x⊗y -> x·(iterated degeneracy of y) (and
    symmetrically).  ∇ is built on block (p, q) from shuffles(p, q) and
    the components of each shuffle, so this holds on every group exactly
    when each edge block has the single shuffle with sign +1 whose
    components are the identity of [n] and the constant map [n] -> [0]."""
    for n in range(A.dim_bound + 1):
        for p, q in ((n, 0), (0, n)) if n else ((0, 0),):
            if [(sh.sign, sh.components()) for sh in shuffles(p, q)] != \
                    [(1, (_edge_map(n, p), _edge_map(n, q)))]:
                return CheckCertificate(
                    False, witness=(n, p, q),
                    detail="edge bidegree is not the canonical "
                           "identification")
    return CheckCertificate(True, detail="∇ is unital on edge bidegrees")
