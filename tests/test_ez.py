"""Shuffle product and Alexander-Whitney map on normalized complexes."""

import copy
import gc
import itertools
import pickle
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import _random as zrandom
from zilber import ez
from zilber import intlinalg as la
from zilber.chains import (ChainMap, homology, is_homology_isomorphism,
                           tensor, tensor_map)
from zilber.delta import Shuffle, shuffles
from zilber.doldkan import NormalizationResult, normalize, unnormalized_chains
from zilber.ez import (associativity_check, aw_nabla_identity_check,
                       shuffle_product, symmetry_check, unitality_check)
from zilber.filtration import filtered_ez, skeletal_filtration
from zilber.simplicial import (SimplicialAbelianGroup, circle, free_abelian,
                               product, standard_simplex)
from zilber.spectral import heart_check

import oracles
from oracles import back_face, front_face, sab_tensor

SPACES = {
    "pt": lambda D: standard_simplex(0, D),
    "d1": lambda D: standard_simplex(1, D),
    "s1": lambda D: circle(D),
}
# the benchmark's corpus {Δ⁰, Δ¹, Δ², S¹}
CORPUS = {**SPACES, "d2": lambda D: standard_simplex(2, D)}


def sab(name, D=2):
    return free_abelian(CORPUS[name](D))


def matrix_sab(name, D=2):
    """ℤ[X] without its simplicial set: the library refuses it, and the
    oracle takes it on the matrix path."""
    A = sab(name, D)
    A.simplicial_set = None
    return A


def test_shuffle_map_is_a_chain_map():
    # construction validates commutation with d; a failure raises
    for a, b in itertools.product(SPACES, repeat=2):
        shuffle_product(sab(a), sab(b))


def test_aw_composed_with_shuffle_is_identity():
    for a, b in itertools.product(SPACES, repeat=2):
        assert aw_nabla_identity_check(sab(a), sab(b)).ok


def test_unitality_on_edge_bidegrees():
    for a, b in itertools.product(SPACES, repeat=2):
        assert unitality_check(sab(a), sab(b)).ok


@pytest.mark.parametrize("edge, witness", [((0, 0), (0, 0, 0)),
                                           ((2, 0), (2, 2, 0)),
                                           ((0, 3), (3, 0, 3))],
                         ids=["0,0", "2,0", "0,3"])
@pytest.mark.parametrize("group", [sab, matrix_sab])
def test_unitality_catches_a_wrong_edge_shuffle_sign(monkeypatch, group, edge,
                                                     witness):
    A, B = group("d1", 3), group("s1", 3)
    assert unitality_check(A, B)
    flipped = {edge: one_sign_flipped(*edge)}
    monkeypatch.setattr(ez, "shuffles",
                        lambda a, b: flipped.get((a, b)) or shuffles(a, b))
    cert = unitality_check(A, B)
    assert not cert.ok and cert.witness == witness
    assert cert.detail == "edge bidegree is not the canonical identification"


def test_symmetry_up_to_koszul_sign():
    for a, b in itertools.product(SPACES, repeat=2):
        assert symmetry_check(sab(a), sab(b)).ok


def test_associativity_on_small_triples():
    for a, b, c in [("d1", "d1", "d1"), ("d1", "s1", "d1"),
                    ("s1", "s1", "pt")]:
        assert associativity_check(sab(a), sab(b), sab(c)).ok


def test_associativity_requires_equal_triple_products(monkeypatch):
    # one operator of A⊗(B⊗C) negated: the ranks still agree, but the two
    # triple products are no longer one simplicial group
    A, B, C = matrix_sab("d1"), matrix_sab("s1"), matrix_sab("d1")
    bc = oracles.shuffle_product(B, C).product
    worker = oracles.sab_tensor

    def skewed(X, Y, kind):
        T = worker(X, Y)
        if Y is not bc:
            return T
        faces, degens = dict(T.face_mats), dict(T.degen_mats)
        mats = faces if kind == "face" else degens
        key = min(mats)
        mats[key] = la.mat_scale(-1, mats[key])
        return SimplicialAbelianGroup(T.dim_bound, T.ranks, faces, degens,
                                      check=False)

    for kind in ("face", "degeneracy"):
        with monkeypatch.context() as m:
            m.setattr(oracles, "sab_tensor", lambda X, Y: skewed(X, Y, kind))
            with pytest.raises(AssertionError,
                               match="not strictly associative"):
                oracles.associativity_check(A, B, C)
    assert oracles.associativity_check(A, B, C).ok


def test_associativity_with_free_and_matrix_pairs():
    # the library refuses a triple with a group that is not ℤ[X]; the
    # oracle builds it on the matrix path
    A, B, G = sab("d1"), sab("s1"), NON_FREE["conj-d1"]
    for triple in ((A, B, G), (G, A, B), (A, G, B)):
        assert oracles.associativity_check(*triple).ok
        with pytest.raises(ValueError, match="no simplicial set"):
            associativity_check(*triple)


def test_free_associativity_requires_one_triple_product(monkeypatch):
    # the pair of (B, C) handed out over Z×Y: (X×Y)×Z and X×(Z×Y) are not
    # one simplicial set, and the check refuses to compare their chains
    A, B, C = sab("d1"), sab("s1"), sab("d1")
    bc = shuffle_product(B, C)
    skewed = copy.copy(bc)
    skewed.simplices = ez._Nondegenerate(bc.simplices.factors[::-1])
    worker = ez.shuffle_product
    with monkeypatch.context() as m:
        m.setattr(ez, "shuffle_product", lambda X, Y: (
            skewed if (X, Y) == (B, C) else worker(X, Y)))
        with pytest.raises(AssertionError,
                           match="not strictly associative"):
            associativity_check(A, B, C)
    assert associativity_check(A, B, C).ok


def test_shuffle_against_point_is_rank_preserving():
    from zilber.doldkan import is_levelwise_unimodular
    A = sab("s1")
    sp = shuffle_product(A, sab("pt"))
    assert sp.source.ranks == sp.target.ranks
    mats = [sp.map.mat(n) for n in range(3)]
    assert is_levelwise_unimodular(mats, sp.source.ranks)


def test_torus_kunneth_isomorphism():
    A = free_abelian(circle(2))
    sp = shuffle_product(A, A)
    left = homology(sp.source)
    right = homology(sp.target)
    assert [str(x) for x in left] == ["Z", "Z^2", "Z"]
    assert [str(x) for x in right] == ["Z", "Z^2", "Z"]
    assert is_homology_isomorphism(sp.map)


def test_homology_factors_each_differential_once_with_no_transform(
        monkeypatch):
    from zilber import chains
    A = free_abelian(circle(2))
    sp = shuffle_product(A, A)
    tracked = []
    worker = la._smith_with_inverses

    def counting(M, track):
        tracked.append(track)
        return worker(M, track)

    def refused(*args):
        raise AssertionError("homology built a span or a subquotient")

    monkeypatch.setattr(la, "_smith_with_inverses", counting)
    monkeypatch.setattr(la, "Span", refused)
    monkeypatch.setattr(la, "Subquotient", refused)
    for C in (sp.source, sp.target, chains.mapping_cone(sp.map)):
        tracked.clear()
        homology(C)
        assert tracked == [()] * C.top_degree
    assert is_homology_isomorphism(sp.map)


@pytest.mark.parametrize("a, b, iso", [
    ("s1", "s1", True), ("pt", "s1", True), ("d1", "s1", True),
    ("s1", "d2", False), ("d2", "d2", False)])
def test_shuffle_map_quasi_isomorphism_matches_the_induced_map_oracle(a, b,
                                                                      iso):
    # at bound 2, S¹×Δ² and Δ²×Δ² have nondegenerate simplices above the
    # bound, so the truncated top homology differs and ∇ is no
    # quasi-isomorphism
    f = shuffle_product(sab(a), sab(b)).map
    f2 = ChainMap(f.source, f.target,
                  {n: la.mat_scale(2, M) for n, M in f.mats.items()})
    for g in (f, f2):
        assert is_homology_isomorphism(g) is \
            oracles.is_homology_isomorphism(g)
    assert is_homology_isomorphism(f) is iso
    assert not is_homology_isomorphism(f2)


# ---------------------------------------------------------------------------
# one pair per (A, B), kept on A and keyed weakly by B


def test_each_pair_is_built_once_and_kept(shuffle_constructions):
    # the oracle's matrix pairs, kept as the library keeps its pairs
    A, B = matrix_sab("d1"), matrix_sab("s1")
    sp = oracles.shuffle_product(A, B)
    assert oracles.shuffle_product(A, B) is sp
    assert oracles.shuffle_product(B, A) is not sp
    assert oracles.aw_nabla_identity_check(A, B).ok
    assert oracles.symmetry_check(A, B).ok
    oracles.filtered_ez(A, B)
    assert shuffle_constructions == [(A, B), (B, A)]
    # the pair outlives its callers
    first = weakref.ref(sp)
    del sp
    gc.collect()
    assert first() is not None and oracles.shuffle_product(A, B) is first()
    assert len(shuffle_constructions) == 2


def test_each_free_pair_is_built_once_and_kept(shuffle_constructions,
                                               free_shuffle_constructions):
    A, B = sab("d1"), sab("s1")
    X, Y = A.simplicial_set, B.simplicial_set
    sp = shuffle_product(A, B)
    assert shuffle_product(A, B) is sp
    assert shuffle_product(B, A) is not sp
    assert aw_nabla_identity_check(A, B).ok and symmetry_check(A, B).ok
    filtered_ez(A, B)
    # the simplices of X and of Y are built once and kept on them
    assert free_shuffle_constructions == [
        (X.nondegenerate, Y.nondegenerate), (Y.nondegenerate, X.nondegenerate)]
    assert shuffle_constructions == []  # no pair on the matrix path
    # the pair outlives its callers
    first = weakref.ref(sp)
    del sp
    gc.collect()
    assert first() is not None and shuffle_product(A, B) is first()
    assert type(first()) is ez._FreeShuffleProduct
    assert len(free_shuffle_constructions) == 2


def test_a_kept_pair_does_not_keep_its_partner_alive():
    A, B = sab("d1"), sab("s1")
    sp = shuffle_product(A, B)
    assert symmetry_check(A, B).ok  # B now keeps the pair (B, A) too
    partner = weakref.ref(B)
    del B, sp
    gc.collect()
    assert partner() is None
    assert len(A.shuffle_products) == 0


def test_a_group_with_kept_pairs_pickles_without_them():
    A, B = sab("d1"), sab("s1")
    shuffle_product(A, B)
    copied = pickle.loads(pickle.dumps(A))
    assert copied.shuffle_products is None
    assert aw_nabla_identity_check(copied, B).ok
    assert len(A.shuffle_products) == 1


def _same_maps(f, g):
    top = max(f.source.top_degree, f.target.top_degree)
    return all(la.mat_eq(f.mat(n), g.mat(n)) for n in range(top + 1))


# ---------------------------------------------------------------------------
# the unnormalized maps, as oracles: the library builds ∇, AW and the swap on
# the section image only


def unnormalized_shuffle(A, B):
    """∇ : C(A) ⊗ C(B) -> C(A⊗B), validated as a chain map.

    On bidegree (p, q) the column of x ⊗ y is the signed sum over all
    (p,q)-shuffles of (degenerate image of x) ⊗ (degenerate image of y),
    the two degeneracy composites being induced by the components of the
    shuffle's lattice path: the column block (p, q) is the signed sum of
    kron(A(s_a), B(s_b)).  Returns (chain map, source TensorBasis, A⊗B).
    """
    D = A.dim_bound
    AB = sab_tensor(A, B)
    T, tb = tensor(unnormalized_chains(A), unnormalized_chains(B),
                   top_degree=D)
    mats = {}
    for n in range(D + 1):
        terms = []
        for p, q, col in tb.blocks(n):
            for sh in shuffles(p, q):
                s_a, s_b = sh.components()
                terms.append((A.operator_matrix(s_a), B.operator_matrix(s_b),
                              0, col, sh.sign))
        mats[n] = oracles.kron_sum(AB.ranks[n], T.rank(n), terms)
    return ChainMap(T, unnormalized_chains(AB), mats), tb, AB


def unnormalized_aw(nabla, tb, A, B):
    """AW : C(A⊗B) -> C(A) ⊗ C(B) between the target and the source of the
    oracle ∇ (source basis tb), validated as a chain map: row block (p, q)
    is kron(front face, back face)."""
    T, CAB = nabla.source, nabla.target
    return ChainMap(CAB, T, {n: oracles.kron_sum(T.rank(n), CAB.rank(n), [
        (A.operator_matrix(front_face(n, p)),
         B.operator_matrix(back_face(n, q)), row, 0, 1)
        for p, q, row in tb.blocks(n)]) for n in range(A.dim_bound + 1)})


def unnormalized_swap(A, B):
    """The levelwise transposition C(A⊗B) -> C(B⊗A), validated as a chain
    map."""
    mats = {n: la.Sparse([((b * an + a, 1),) for a in range(an)
                          for b in range(bn)], an * bn)
            for n, (an, bn) in enumerate(zip(A.ranks, B.ranks))}
    return ChainMap(unnormalized_chains(sab_tensor(A, B)),
                    unnormalized_chains(sab_tensor(B, A)), mats)


def oracle_maps(sp):
    """(∇, AW) of sp rebuilt from the oracles and the normalizations that
    sp holds: proj ∘ ∇_un ∘ (sec ⊗ sec) and (proj ⊗ proj) ∘ AW_un ∘ sec."""
    nabla_un, tb_un, _ = unnormalized_shuffle(sp.A, sp.B)
    aw_un = unnormalized_aw(nabla_un, tb_un, sp.A, sp.B)
    secsec = ChainMap(sp.source, nabla_un.source,
                      tensor_map(sp.norm_A.section, sp.norm_B.section,
                                 sp.source_basis, tb_un),
                      check=False)
    projproj = ChainMap(nabla_un.source, sp.source,
                        tensor_map(sp.norm_A.projection,
                                   sp.norm_B.projection,
                                   tb_un, sp.source_basis),
                        check=False)
    return (oracles.compose(sp.norm_AB.projection,
                            oracles.compose(nabla_un, secsec)),
            oracles.compose(projproj,
                            oracles.compose(aw_un, sp.norm_AB.section)))


# the library's normalization (upper Moore convention) and the oracle's
# lower one
NORMALIZE = {"upper": normalize, "lower": oracles.normalize_lower}


def with_convention(sp, moore):
    """A copy of sp holding the normalizations of the given convention."""
    out = copy.copy(sp)
    out.norm_A = NORMALIZE[moore](sp.A)
    out.norm_B = NORMALIZE[moore](sp.B)
    out.norm_AB = NORMALIZE[moore](sp.product)
    return out


def test_moore_convention_changes_only_the_section():
    # The lower convention has the upper one's complex and projection, and
    # ∇ and AW rebuilt from its sections are those of shuffle_product.
    sections_differ = False
    for a, b in itertools.product(CORPUS, repeat=2):
        sp = oracles.shuffle_product(matrix_sab(a), matrix_sab(b))
        lo = with_convention(sp, "lower")
        for attr in ("norm_A", "norm_B", "norm_AB"):
            upper, lower = getattr(sp, attr), getattr(lo, attr)
            N, M = upper.normalized, lower.normalized
            assert N.ranks == M.ranks and all(
                la.mat_eq(N.diff(n), M.diff(n)) for n in range(len(N.ranks)))
            assert _same_maps(upper.projection, lower.projection)
            sections_differ |= not _same_maps(upper.section, lower.section)
        nabla, _ = oracle_maps(lo)
        assert _same_maps(nabla, sp.map)
        assert _same_maps(lo.alexander_whitney(), sp.alexander_whitney())
        # the copy changed, the kept pair did not
        assert oracles.shuffle_product(sp.A, sp.B) is sp
        assert sp.norm_AB is normalize(sp.product)
        assert oracles.aw_nabla_identity_check(sp.A, sp.B).ok
    assert sections_differ


def _non_free_groups():
    """Simplicial groups whose degenerate subgroups are not coordinate (the
    normalization takes its Smith-normal-form path) or whose sections are
    not: ℤ[Δ¹] and ℤ[S¹] in a random basis, and a random Γ(C)."""
    rng = random.Random(16)
    return {
        "conj-d1": oracles.conjugate_simplicial(
            rng, free_abelian(standard_simplex(1, 2))),
        "conj-s1": oracles.conjugate_simplicial(rng, free_abelian(circle(2))),
        "gamma": zrandom.rand_simplicial(rng, dim_bound=2, max_total_rank=4),
    }


NON_FREE = _non_free_groups()


def _is_coordinate(M):
    return all(len(col) == 1 and col[0][1] == 1 for col in M)


@pytest.mark.parametrize("a, b", itertools.product(NON_FREE, repeat=2),
                         ids=lambda name: name)
def test_maps_on_the_section_image_match_the_oracles_on_non_free_groups(a, b):
    A, B = NON_FREE[a], NON_FREE[b]
    ab, ba = oracles.shuffle_product(A, B), oracles.shuffle_product(B, A)
    for moore in ("upper", "lower"):
        lo_ab, lo_ba = with_convention(ab, moore), with_convention(ba, moore)
        assert not all(_is_coordinate(lo_ab.norm_AB.section.mat(n))
                       for n in range(A.dim_bound + 1))
        nabla, aw = oracle_maps(lo_ab)
        assert _same_maps(ab.map, nabla)
        assert _same_maps(lo_ab.alexander_whitney(), aw)
        swap = oracles.compose(lo_ba.norm_AB.projection, oracles.compose(
            unnormalized_swap(A, B), lo_ab.norm_AB.section))
        assert _same_maps(oracles.simplicial_swap_chain(lo_ab, lo_ba), swap)
    assert oracles.aw_nabla_identity_check(A, B).ok
    assert oracles.symmetry_check(A, B).ok


def _corrupt_section(res, n, degenerate):
    """res with 1 added to entry (k, 0) of its degree-n section.  With
    degenerate, k is the first row that the projection kills and d_n does
    not: the projected maps stay chain maps and only a check on the
    unnormalized side sees the change.  Otherwise k is the first row that
    the projection keeps."""
    S, proj = res.section.mats[n], res.projection.mats[n]
    d = res.projection.source.diff(n)
    k = next(k for k, col in enumerate(proj)
             if (not col and d[k] if degenerate else col))
    unit = la.Sparse((((k, 1),),) + ((),) * (S.ncols - 1), S.nrows)
    section = ChainMap(res.normalized, res.section.target,
                       {**res.section.mats, n: la.mat_sum([(1, S),
                                                           (1, unit)])},
                       check=False)
    return NormalizationResult(res.normalized, res.projection, section)


def one_sign_flipped(p, q):
    """shuffles(p, q) with the sign of the first shuffle flipped."""
    first, *rest = shuffles(p, q)
    return (Shuffle(first.p, first.q, first.interleaving, -first.sign), *rest)


def test_lifted_checks_catch_a_wrong_shuffle_sign_or_section_entry(
        monkeypatch):
    A, B = matrix_sab("d2"), matrix_sab("d1")

    with monkeypatch.context() as m:
        m.setattr(oracles, "shuffles", one_sign_flipped)
        with pytest.raises(ValueError, match="does not commute"):
            oracles.shuffle_product(A, B)

    # a degenerate chain added to a section of A: ∇ itself is unchanged, but
    # its lift to C(A⊗B) is no chain map
    def section_corrupted(X):
        return (_corrupt_section(normalize(X), 2, degenerate=True) if X is A
                else normalize(X))

    with monkeypatch.context() as m:
        m.setattr(oracles, "normalize", section_corrupted)
        with pytest.raises(ValueError, match="does not commute"):
            oracles.shuffle_product(A, B)
    # the same change to the section of A⊗B, under the swap
    ab, ba = oracles.shuffle_product(A, B), oracles.shuffle_product(B, A)
    broken = copy.copy(ab)
    broken.norm_AB = _corrupt_section(ab.norm_AB, 2, degenerate=True)
    with pytest.raises(ValueError, match="does not commute"):
        oracles.simplicial_swap_chain(broken, ba)
    oracles.simplicial_swap_chain(ab, ba)  # the unpatched maps pass
    # only the copy was corrupted: the kept pairs still certify
    assert oracles.shuffle_product(A, B) is ab
    assert ab.norm_AB is normalize(ab.product)
    assert oracles.aw_nabla_identity_check(A, B).ok
    assert oracles.symmetry_check(A, B).ok


def test_free_checks_catch_a_wrong_shuffle_sign(monkeypatch):
    # ∇ is validated as a chain map between the normalized complexes
    A, B = sab("d2"), sab("d1")
    with monkeypatch.context() as m:
        m.setattr(ez, "shuffles", one_sign_flipped)
        with pytest.raises(ValueError, match="does not commute"):
            shuffle_product(A, B)
    assert aw_nabla_identity_check(A, B).ok and symmetry_check(A, B).ok


def test_a_wrong_face_or_section_entry_is_caught_by_alexander_whitney(
        monkeypatch):
    A, B = matrix_sab("d1"), matrix_sab("d1")
    sp = oracles.shuffle_product(A, B)
    with monkeypatch.context() as m:
        m.setattr(oracles, "back_face", lambda n, q: front_face(n, q))
        with pytest.raises(ValueError, match="does not commute"):
            sp.alexander_whitney()
    broken = copy.copy(sp)
    broken.norm_AB = _corrupt_section(sp.norm_AB, 1, degenerate=False)
    with pytest.raises(ValueError, match="does not commute"):
        broken.alexander_whitney()
    sp.alexander_whitney()  # the unpatched map passes
    assert oracles.shuffle_product(A, B) is sp
    assert oracles.aw_nabla_identity_check(A, B).ok


def test_a_wrong_face_is_caught_by_the_free_alexander_whitney(monkeypatch):
    A, B = sab("d1"), sab("d1")
    sp = shuffle_product(A, B)
    worker = ez._Nondegenerate.face_positions
    with monkeypatch.context() as m:
        m.setattr(ez._Nondegenerate, "face_positions",
                  lambda self, t, n, front: worker(self, t, n, True))
        with pytest.raises(ValueError, match="does not commute"):
            sp.alexander_whitney()
    sp.alexander_whitney()  # the unpatched map passes
    assert shuffle_product(A, B) is sp and aw_nabla_identity_check(A, B).ok


@pytest.mark.parametrize("matrix", [False, True], ids=["free", "matrix"])
def test_a_negated_entry_of_nabla_fails_chain_map_validation(matrix):
    # the copy's ∇ with one entry negated, as the negative controls below
    # use it, is no chain map either
    pair, make = ((oracles.shuffle_product, matrix_sab) if matrix
                  else (shuffle_product, sab))
    sp = pair(make("d1"), make("s1"))
    for n in (1, 2):
        mats = _first_entry_negated(sp.map.mats, (n,))
        with pytest.raises(ValueError, match="does not commute"):
            ChainMap(sp.source, sp.target, mats)


# negative controls: each certificate sees one changed entry, in the first
# changed degree, and says so with its usual detail


def _first_entry_negated(mats, degrees):
    """mats with the first entry of the first nonempty column negated in
    each of the given degrees."""
    out = dict(mats)
    for n in degrees:
        M = mats[n]
        j = next(j for j, col in enumerate(M) if col)
        (i, v), *rest = M[j]
        out[n] = la.Sparse(M[:j] + (((i, -v), *rest),) + M[j + 1:], M.nrows)
    return out


WRONG_DEGREES = [((2,), 2), ((1, 2), 1)]


@pytest.mark.parametrize("degrees, first", WRONG_DEGREES)
def test_aw_nabla_check_fails_at_the_first_wrong_degree(monkeypatch, degrees,
                                                        first):
    A, B = sab("d1"), sab("s1")
    sp = shuffle_product(A, B)
    assert type(sp) is ez._FreeShuffleProduct  # a free pair's copy below
    aw = sp.alexander_whitney()
    mats = dict(sp.map.mats)
    for n in degrees:
        # negate an entry of column 0 of ∇ whose row AW does not kill:
        # column 0 of AW∘∇ moves by -2v times that column of AW
        M = mats[n]
        i, v = next((i, v) for i, v in M[0] if aw.mat(n)[i])
        col = tuple((r, -x if r == i else x) for r, x in M[0])
        mats[n] = la.Sparse((col,) + M[1:], M.nrows)
    broken = copy.copy(sp)
    broken.map = ChainMap(sp.source, sp.target, mats, check=False)
    with monkeypatch.context() as m:
        m.setattr(ez, "shuffle_product", lambda X, Y: broken)
        cert = aw_nabla_identity_check(A, B)
    assert not cert.ok and cert.witness == first
    assert cert.detail == f"AW∘∇ differs from id in degree {first}"
    assert shuffle_product(A, B) is sp and aw_nabla_identity_check(A, B).ok


@pytest.mark.parametrize("degrees, first", WRONG_DEGREES)
def test_symmetry_check_fails_at_the_first_wrong_degree(monkeypatch, degrees,
                                                        first):
    A, B = sab("d1"), sab("s1")
    worker = ez._koszul_swap
    with monkeypatch.context() as m:
        m.setattr(ez, "_koszul_swap", lambda *bases: _first_entry_negated(
            worker(*bases), degrees))
        cert = symmetry_check(A, B)
    assert not cert.ok and cert.witness == first
    assert cert.detail == f"symmetry square fails in degree {first}"
    assert symmetry_check(A, B).ok


@pytest.mark.parametrize("degrees, first", WRONG_DEGREES)
def test_associativity_check_fails_at_the_first_wrong_degree(monkeypatch,
                                                             degrees, first):
    A, B, C = sab("d1"), sab("s1"), sab("d1")
    worker = ez._tensor_associator
    with monkeypatch.context() as m:
        m.setattr(ez, "_tensor_associator", lambda *bases: (
            _first_entry_negated(worker(*bases), degrees)))
        cert = associativity_check(A, B, C)
    assert not cert.ok and cert.witness == first
    assert cert.detail == f"associativity fails in degree {first}"
    assert associativity_check(A, B, C).ok


@pytest.fixture
def normalizations(monkeypatch):
    """The objects actually normalized, cache hits excluded."""
    from zilber import doldkan
    calls = []
    worker = doldkan._normalize

    def counting(A):
        calls.append(A)
        return worker(A)

    monkeypatch.setattr(doldkan, "_normalize", counting)
    return calls


# the oracle's certificates on the matrix path
MATRIX_CERTIFICATES = [
    (oracles.aw_nabla_identity_check, 2, 3),  # A, B, A⊗B
    (oracles.symmetry_check, 2, 4),  # A, B, A⊗B, B⊗A
    (oracles.associativity_check, 3, 6),  # A, B, C, A⊗B, B⊗C, A⊗B⊗C
    (oracles.filtered_ez, 2, 3),  # A, B, A⊗B
    (oracles.heart_check, 1, 1),
    (oracles.unitality_check, 2, 0),  # only the edge blocks' shuffles
]


@pytest.mark.parametrize("check, arity, expected", MATRIX_CERTIFICATES,
                         ids=lambda x: getattr(x, "__name__", None))
def test_each_certificate_normalizes_each_object_once(normalizations, check,
                                                      arity, expected):
    # distinct objects, so that no count is lowered by A being B
    check(*[matrix_sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert len(normalizations) == expected


FREE_CERTIFICATES = [
    (shuffle_product, 2, 0),
    (aw_nabla_identity_check, 2, 0),
    (symmetry_check, 2, 0),
    (associativity_check, 3, 0),
    (filtered_ez, 2, 0),
    (heart_check, 1, 0),
    (unitality_check, 2, 0),
]


@pytest.mark.parametrize("check, arity, expected", FREE_CERTIFICATES,
                         ids=lambda x: getattr(x, "__name__", None))
def test_free_certificates_normalize_no_group_and_no_product(
        normalizations, chain_builds, operator_matrices, check, arity,
        expected):
    # on ℤ[X] every certificate reads the nondegenerate basis alone: no
    # normalization, no unnormalized chains and no operator matrix
    assert check(*[sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert len(normalizations) == len(chain_builds) == expected
    assert len(operator_matrices) == expected


def test_the_matrix_path_is_seen_by_the_counters(
        normalizations, chain_builds, operator_matrices):
    # the control: the same counters see a matrix-path certificate's work
    assert oracles.aw_nabla_identity_check(matrix_sab("d1"), matrix_sab("s1"))
    assert len(normalizations) == len(chain_builds) == 3
    assert operator_matrices


@pytest.fixture
def chain_builds(monkeypatch):
    """The objects whose unnormalized chains are actually built."""
    from zilber import doldkan
    calls = []
    worker = doldkan._unnormalized_chains

    def counting(A):
        calls.append(A)
        return worker(A)

    monkeypatch.setattr(doldkan, "_unnormalized_chains", counting)
    return calls


@pytest.mark.parametrize("check, arity, expected", MATRIX_CERTIFICATES,
                         ids=lambda x: getattr(x, "__name__", None))
def test_each_certificate_builds_each_objects_chains_once(chain_builds, check,
                                                         arity, expected):
    check(*[matrix_sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert len(chain_builds) == expected
    assert len(set(map(id, chain_builds))) == expected


@pytest.fixture
def operator_matrices(monkeypatch):
    """The (group, monotone map) of every operator_matrix call, kept
    matrices included."""
    calls = []
    worker = SimplicialAbelianGroup.operator_matrix

    def counting(A, f):
        calls.append((A, f))
        return worker(A, f)

    monkeypatch.setattr(SimplicialAbelianGroup, "operator_matrix", counting)
    return calls


@pytest.fixture
def unnormalized_tensors(monkeypatch):
    """The calls of chains.tensor, in every zilber module that holds it,
    with a factor that is the unnormalized chains of some object."""
    from zilber import chains, doldkan
    built, calls = set(), []
    worker, tensor_worker = doldkan._unnormalized_chains, chains.tensor

    def building(A):
        C = worker(A)
        built.add(id(C))
        return C

    def tensoring(C, D, top_degree=None):
        if {id(C), id(D)} & built:
            calls.append((C, D))
        return tensor_worker(C, D, top_degree)

    monkeypatch.setattr(doldkan, "_unnormalized_chains", building)
    for name, module in list(sys.modules.items()):
        if (name.startswith("zilber") or name == "oracles") and \
                getattr(module, "tensor", None) is tensor_worker:
            monkeypatch.setattr(module, "tensor", tensoring)
    # unnormalized_shuffle is the one caller that tensors unnormalized
    # chains
    monkeypatch.setitem(globals(), "tensor", tensoring)
    return calls


@pytest.mark.parametrize("check, arity", [
    (oracles.shuffle_product, 2),
    (oracles.aw_nabla_identity_check, 2),
    (oracles.symmetry_check, 2),
    (oracles.associativity_check, 3),
    (oracles.filtered_ez, 2),
    (oracles.heart_check, 1),
    (oracles.unitality_check, 2),
], ids=lambda x: getattr(x, "__name__", None))
def test_no_certificate_tensors_unnormalized_chains(unnormalized_tensors,
                                                    check, arity):
    # on the oracle's matrix path; the free path builds no unnormalized
    # chains at all
    # (test_free_certificates_normalize_no_group_and_no_product)
    check(*[matrix_sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert unnormalized_tensors == []


def test_the_oracle_tensors_unnormalized_chains(unnormalized_tensors):
    # the control: the fixture sees the tensor the library no longer builds
    unnormalized_shuffle(sab("d1"), sab("s1"))
    assert len(unnormalized_tensors) == 1


# ---------------------------------------------------------------------------
# the closed formulas of Eilenberg and Mac Lane on nondegenerate simplices


def _nondegenerate(X, n):
    """The indices of the nondegenerate n-simplices of X, those in the
    image of no s_i, ascending."""
    degenerate = {x for i in range(n) for x in X.degens[(n - 1, i)]}
    return [x for x in range(X.level_size(n)) if x not in degenerate]


def _product_basis(X, Y, n):
    """The nondegenerate n-simplices (x, y) of X × Y, by the indices of x
    and y, those in the image of no s_i, x-major."""
    degenerate = {(X.degens[(n - 1, i)][x], Y.degens[(n - 1, i)][y])
                  for i in range(n)
                  for x in range(X.level_size(n - 1))
                  for y in range(Y.level_size(n - 1))}
    return [(x, y) for x in range(X.level_size(n))
            for y in range(Y.level_size(n)) if (x, y) not in degenerate]


def _tensor_basis(X, Y, n):
    """The basis (p, x, y) of (𝒩ℤ[X] ⊗ 𝒩ℤ[Y])_n: blocks p descending, then
    x, then y."""
    return [(p, x, y) for p in range(n, -1, -1)
            for x in _nondegenerate(X, p) for y in _nondegenerate(Y, n - p)]


def _degenerate(X, x, k, steps):
    """s_{j_r} ⋯ s_{j_1} x for steps j_1 < ⋯ < j_r, x the index of a
    simplex of degree k."""
    for j in steps:
        x = X.degens[(k, j)][x]
        k += 1
    return x


def nabla_by_formula(X, Y, n):
    """∇(x ⊗ y) = Σ sign(μ, ν) (s_ν x, s_μ y) over the (p, q)-shuffles (μ, ν)
    of {0, ..., n - 1}, degenerate terms dropped; rows are the nondegenerate
    n-simplices of X × Y."""
    rows = {z: i for i, z in enumerate(_product_basis(X, Y, n))}
    cols = _tensor_basis(X, Y, n)
    M = [[0] * len(cols) for _ in rows]
    for c, (p, x, y) in enumerate(cols):
        for mu in itertools.combinations(range(n), p):
            nu = [t for t in range(n) if t not in mu]
            z = (_degenerate(X, x, p, nu), _degenerate(Y, y, n - p, mu))
            if z in rows:
                M[rows[z]][c] += (-1) ** sum(m - i for i, m in enumerate(mu))
    return M


def aw_by_formula(X, Y, n):
    """AW(x, y) = Σ_p (front p-face of x) ⊗ (back (n-p)-face of y),
    degenerate terms dropped."""
    cols = _product_basis(X, Y, n)
    rows = {z: i for i, z in enumerate(_tensor_basis(X, Y, n))}
    M = [[0] * len(cols) for _ in rows]
    for c, (x, y) in enumerate(cols):
        for p in range(n + 1):
            front, back = x, y
            for k in range(n, p, -1):
                front = X.faces[(k, k)][front]
            for k in range(n, n - p, -1):
                back = Y.faces[(k, 0)][back]
            if (p, front, back) in rows:
                M[rows[(p, front, back)]][c] += 1
    return M


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.sampled_from(sorted(CORPUS)),
       st.integers(0, 3))
def test_nabla_and_aw_are_the_closed_formulas(a, b, n):
    X, Y = CORPUS[a](3), CORPUS[b](3)
    A, B = free_abelian(X), free_abelian(Y)
    # the free pair, and the matrix path on the same groups
    for sp in (shuffle_product(A, B), oracles.ShuffleProduct(A, B)):
        assert la.rows(sp.map.mat(n)) == nabla_by_formula(X, Y, n)
        assert la.rows(sp.alexander_whitney().mat(n)) == \
            aw_by_formula(X, Y, n)


# ---------------------------------------------------------------------------
# the library against the oracle's matrix path


# the benchmark's corpus and the torus
SETS = {**CORPUS, "torus": lambda D: product(circle(D), circle(D))}


def _both_paths(*names, D):
    """The groups ℤ[X] of names, and fresh copies of them without their
    simplicial sets, for the oracle's matrix path."""
    free = [free_abelian(SETS[name](D)) for name in names]
    matrix = [free_abelian(SETS[name](D)) for name in names]
    for A in matrix:
        A.simplicial_set = None
    return free, matrix


@pytest.mark.parametrize("D", [2, 5])
@pytest.mark.parametrize("a, b", itertools.product(SETS, repeat=2),
                         ids=lambda name: name)
def test_the_free_pair_is_the_matrix_pair(a, b, D):
    (A, B), _ = _both_paths(a, b, D=D)
    sp = shuffle_product(A, B)
    assert type(sp) is ez._FreeShuffleProduct
    # the matrix path on the same groups
    sm, sm_ba = oracles.ShuffleProduct(A, B), oracles.ShuffleProduct(B, A)
    # N(ℤ[X]), N(ℤ[Y]), N(ℤ[X×Y]) and the source tensor
    assert sp.source_basis.C == sm.norm_A.normalized
    assert sp.source_basis.D == sm.norm_B.normalized
    assert sp.target == sm.target and sp.source == sm.source
    assert sp.target.ranks == list(
        product(SETS[a](D), SETS[b](D)).nondegenerate_counts())
    assert _same_maps(sp.map, sm.map)
    assert _same_maps(sp.alexander_whitney(), sm.alexander_whitney())
    assert _same_maps(ez._free_swap_chain(sp, shuffle_product(B, A)),
                      oracles.simplicial_swap_chain(sm, sm_ba))


TRIPLES = sorted(set(itertools.product(CORPUS, repeat=3)) | {
    ("torus", "d1", "s1"), ("s1", "torus", "pt"), ("d2", "d1", "torus")})


@pytest.mark.parametrize("names", TRIPLES, ids="-".join)
def test_the_free_associativity_sides_are_the_matrix_ones(names):
    free, matrix = _both_paths(*names, D=3 if "torus" in names else 2)
    A, B, C = free
    ez_ab, ez_bc = shuffle_product(A, B), shuffle_product(B, C)
    sides = list(ez._associativity_sides(ez_ab, ez_bc,
                                         *ez._triple_pairs(ez_ab, ez_bc)))
    assert len(sides) == A.dim_bound + 1
    for got, want in zip(sides, oracles.associativity_sides(*matrix)):
        # both composites, each the product of its two factors
        for i in (0, 2):
            assert la.mat_eq(la.mat_mul(*got[i:i + 2]),
                             la.mat_mul(*want[i:i + 2]))
        assert la.mat_eq(la.mat_mul(*got[:2]), la.mat_mul(*got[2:]))



# ---------------------------------------------------------------------------
# the library takes ℤ[X] only


@pytest.mark.parametrize("check, arity", [
    (shuffle_product, 2),
    (aw_nabla_identity_check, 2),
    (symmetry_check, 2),
    (associativity_check, 3),
    (filtered_ez, 2),
    (skeletal_filtration, 1),
    (heart_check, 1),
], ids=lambda x: getattr(x, "__name__", None))
def test_a_group_without_a_simplicial_set_is_refused(check, arity):
    # a random Γ(C), and a Γ(C) beside ℤ[X] in each place
    G = zrandom.rand_simplicial(random.Random(7), dim_bound=2,
                                max_total_rank=4)
    A = sab("d1")
    for groups in {(G,) * arity} | {tuple(G if i == j else A
                                          for i in range(arity))
                                    for j in range(arity)}:
        with pytest.raises(ValueError, match="has no simplicial set"):
            check(*groups)
    assert G.shuffle_products is None and G.normalization is None
    # unitality reads the shuffles alone, on any group
    assert unitality_check(G, G).ok


IMAGE_SPACES = {
    "d2": lambda D: (standard_simplex(2, D),),
    "s1": lambda D: (circle(D),),
    "d1xs1": lambda D: (product(standard_simplex(1, D), circle(D)),),
    "d1,s1": lambda D: (standard_simplex(1, D), circle(D)),  # two factors
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(IMAGE_SPACES)), st.integers(0, 4))
def test_kept_degenerate_images_are_the_per_simplex_ones(name, D):
    # per simplex, from the operator matrices of ℤ[X], whose columns are
    # the unit vectors of the image simplices
    S = ez._Nondegenerate(IMAGE_SPACES[name](D))
    groups = [free_abelian(X) for X in S.factors]
    for n in range(D + 1):
        for p in range(n + 1):
            for sh in shuffles(p, n - p):
                for f in sh.components():
                    kept = S.degenerate_basis(f)
                    ops = [A.operator_matrix(f) for A in groups]
                    assert kept == [tuple([M[a][0][0] for M, a in zip(ops, t)])
                                    for t in S.basis[f.codomain_top]]
                    assert S.degenerate_basis(f) is kept  # kept, not rebuilt


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.sampled_from(sorted(CORPUS)),
       st.integers(0, 4))
def test_a_nabla_on_shared_factors_is_the_one_built_fresh(a, b, D):
    A, B = sab(a, D), sab(b, D)
    shuffle_product(B, A)  # fills the images kept on both shared objects
    shared = shuffle_product(A, B)
    assert shared.left is ez._Nondegenerate.of(A)
    fresh = ez._FreeShuffleProduct(ez._Nondegenerate((A.simplicial_set,)),
                                   ez._Nondegenerate((B.simplicial_set,)))
    for n in range(D + 1):
        assert la.mat_eq(shared.map.mat(n), fresh.map.mat(n))
