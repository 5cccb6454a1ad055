"""Shuffle product and Alexander-Whitney map on normalized complexes."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import intlinalg as la
from zilber.chains import (ChainMap, homology, is_homology_isomorphism,
                           tensor_map)
from zilber.doldkan import normalize
from zilber.ez import (associativity_check, aw_nabla_identity_check,
                       shuffle_product, symmetry_check, unitality_check)
from zilber.filtration import filtered_ez
from zilber.simplicial import circle, free_abelian, product, standard_simplex
from zilber.spectral import heart_check

SPACES = {
    "pt": lambda D: standard_simplex(0, D),
    "d1": lambda D: standard_simplex(1, D),
    "s1": lambda D: circle(D),
}
# the benchmark's corpus {Δ⁰, Δ¹, Δ², S¹}
CORPUS = {**SPACES, "d2": lambda D: standard_simplex(2, D)}


def sab(name, D=2):
    return free_abelian(CORPUS[name](D))


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


def test_symmetry_up_to_koszul_sign():
    for a, b in itertools.product(SPACES, repeat=2):
        assert symmetry_check(sab(a), sab(b)).ok


def test_associativity_on_small_triples():
    for a, b, c in [("d1", "d1", "d1"), ("d1", "s1", "d1"),
                    ("s1", "s1", "pt")]:
        assert associativity_check(sab(a), sab(b), sab(c)).ok


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


def test_homology_isomorphism_builds_each_subquotient_once(monkeypatch):
    from zilber import chains
    A = free_abelian(circle(2))
    f = shuffle_product(A, A).map
    built = []
    worker = chains._homology_subquotient

    def counting(C, n):
        built.append((C, n))
        return worker(C, n)

    monkeypatch.setattr(chains, "_homology_subquotient", counting)
    assert is_homology_isomorphism(f)
    # H_0, H_1, H_2 of the source and of the target
    assert len(built) == 6


def _same_maps(f, g):
    top = max(f.source.top_degree, f.target.top_degree)
    return all(la.mat_eq(f.mat(n), g.mat(n)) for n in range(top + 1))


def test_moore_convention_changes_only_the_section():
    # The lower convention has the upper one's complex and projection, and
    # ∇ and AW rebuilt from its sections are those of shuffle_product.
    sections_differ = False
    for a, b in itertools.product(CORPUS, repeat=2):
        sp = shuffle_product(sab(a), sab(b))
        lo = copy.copy(sp)
        for attr, X in (("norm_A", sp.A), ("norm_B", sp.B),
                        ("norm_AB", sp.product)):
            upper, lower = getattr(sp, attr), normalize(X, "lower")
            N, M = upper.normalized, lower.normalized
            assert N.ranks == M.ranks and all(
                la.mat_eq(N.diff(n), M.diff(n)) for n in range(len(N.ranks)))
            assert _same_maps(upper.projection, lower.projection)
            sections_differ |= not _same_maps(upper.section, lower.section)
            setattr(lo, attr, lower)
        secsec = ChainMap(sp.source, sp.unnormalized.source,
                          tensor_map(lo.norm_A.section, lo.norm_B.section,
                                     sp.source_basis, sp.unnormalized_basis),
                          check=False)
        nabla = lo.norm_AB.projection.compose(sp.unnormalized.compose(secsec))
        assert _same_maps(nabla, sp.map)
        assert _same_maps(lo.alexander_whitney(), sp.alexander_whitney())
    assert sections_differ


@pytest.fixture
def normalizations(monkeypatch):
    """The (object, moore) pairs actually normalized, cache hits excluded."""
    from zilber import doldkan
    calls = []
    worker = doldkan._normalize

    def counting(A, moore):
        calls.append((A, moore))
        return worker(A, moore)

    monkeypatch.setattr(doldkan, "_normalize", counting)
    return calls


@pytest.mark.parametrize("check, arity, expected", [
    (aw_nabla_identity_check, 2, 3),  # A, B, A⊗B
    (symmetry_check, 2, 4),  # A, B, A⊗B, B⊗A
    (associativity_check, 3, 7),  # A, B, C, A⊗B, B⊗C, (A⊗B)⊗C, A⊗(B⊗C)
    (filtered_ez, 2, 3),  # A, B, A⊗B
    (heart_check, 1, 1),
    (unitality_check, 2, 0),
], ids=lambda x: getattr(x, "__name__", None))
def test_each_certificate_normalizes_each_object_once(normalizations, check,
                                                      arity, expected):
    # distinct objects, so that no count is lowered by A being B
    check(*[sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert len(normalizations) == expected


def test_normalization_is_kept_per_moore_convention(normalizations):
    A = sab("s1")
    upper = normalize(A, "upper")
    assert normalize(A) is upper and normalize(A, moore="upper") is upper
    lower = normalize(A, "lower")
    assert lower is not upper and normalize(A, "lower") is lower
    assert normalizations == [(A, "upper"), (A, "lower")]


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


@pytest.mark.parametrize("check, arity, expected", [
    (aw_nabla_identity_check, 2, 3),  # A, B, A⊗B
    (symmetry_check, 2, 4),  # A, B, A⊗B, B⊗A
    (associativity_check, 3, 7),  # A, B, C, A⊗B, B⊗C, (A⊗B)⊗C, A⊗(B⊗C)
    (filtered_ez, 2, 3),  # A, B, A⊗B
    (heart_check, 1, 1),
    (unitality_check, 2, 0),  # only the edge blocks of ∇, from operators
], ids=lambda x: getattr(x, "__name__", None))
def test_each_certificate_builds_each_objects_chains_once(chain_builds, check,
                                                         arity, expected):
    check(*[sab(name) for name in ("d1", "s1", "d1")[:arity]])
    assert len(chain_builds) == expected
    assert len(set(map(id, chain_builds))) == expected


def test_unknown_moore_convention_is_rejected(normalizations):
    X = free_abelian(product(circle(3), standard_simplex(1, 3)))
    with pytest.raises(ValueError, match="Moore convention"):
        normalize(X, "Upper")
    assert X.normalizations == {} and normalizations == []


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
    sp = shuffle_product(free_abelian(X), free_abelian(Y))
    assert la.rows(sp.map.mat(n)) == nabla_by_formula(X, Y, n)
    assert la.rows(sp.alexander_whitney().mat(n)) == aw_by_formula(X, Y, n)
