"""Chain complexes over ℤ: homology, hom ranks, tensor products."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import invariant_factors

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber.chains import (AbelianGroupInvariants, ChainComplex, ChainMap,
                           hom_rank, homology,
                           identity_chain_map, is_homology_isomorphism,
                           mapping_cone, tensor, unit_complex)

import oracles


def sphere_complex(n):
    ranks = [0] * (n + 1)
    ranks[n] = 1
    return ChainComplex(ranks, {})


def test_homology_of_two_term_multiplication():
    # 0 -> Z --n--> Z -> 0 has H_0 = Z/n, H_1 = 0
    C = ChainComplex([1, 1], {1: [[3]]})
    h = homology(C)
    assert (h[0].free_rank, h[0].torsion) == (0, (3,))
    assert h[1] == AbelianGroupInvariants(0, ())


def test_homology_of_spheres_and_sums():
    C = ChainComplex([1, 0, 1], {})  # the sum of S^0 and S^2
    h = homology(C)
    assert [x.free_rank for x in h] == [1, 0, 1]
    assert all(not x.torsion for x in h)


def test_homology_invariant_under_unimodular_conjugation():
    # a change of basis u_n of each C_n gives the isomorphic complex with
    # differentials u_{n-1} d_n u_n⁻¹, whose invariants are those of C
    rng = random.Random(11)
    moved = False
    for _ in range(20):
        C = zrandom.rand_complex(rng)
        us = [zrandom._random_unimodular(rng, C.rank(n))
              for n in range(C.top_degree + 1)]
        D = ChainComplex(C.ranks, {
            n: la.mat_mul(us[n - 1][0], la.mat_mul(C.diff(n), us[n][1]))
            for n in range(1, C.top_degree + 1)})
        assert homology(D) == homology(C)
        moved |= D.diffs != C.diffs
    assert moved


def test_chain_map_validation_rejects_noncommuting_squares():
    C = ChainComplex([1, 1], {1: [[2]]})
    with pytest.raises(ValueError):
        ChainMap(C, C, {0: [[1]], 1: [[0]]})
    f = ChainMap(C, C, {0: [[3]], 1: [[3]]})
    assert la.rows(f.mat(1)) == [[3]]


def test_hom_rank_of_two_term_complexes():
    # Hom(D^m, D^n) has rank 1 exactly when n = m or n = m + 1
    from zilber.doldkan import disk
    for m in range(4):
        for n in range(4):
            r = hom_rank(disk(m), disk(n))
            assert r == (1 if n in (m, m + 1) else 0)


def test_tensor_differential_squares_to_zero():
    rng = random.Random(3)
    for _ in range(10):
        C = zrandom.rand_complex(rng, top_degree=2, max_total_rank=5)
        D = zrandom.rand_complex(rng, top_degree=2, max_total_rank=5)
        T, tb = tensor(C, D)
        for n in range(2, T.top_degree + 1):
            M = la.mat_mul(T.diff(n - 1), T.diff(n))
            assert la.is_zero(M)


def test_tensor_with_unit_is_identity_on_ranks():
    rng = random.Random(4)
    C = zrandom.rand_complex(rng)
    T, tb = tensor(C, unit_complex())
    assert T.ranks == C.ranks


def test_kunneth_torsion_in_tensor():
    # (Z --2--> Z) ⊗ (Z --2--> Z): H_0 = Z/2, H_1 = Z/2, H_2 = 0
    C = ChainComplex([1, 1], {1: [[2]]})
    T, _ = tensor(C, C)
    h = homology(T)
    assert (h[0].free_rank, h[0].torsion) == (0, (2,))
    assert (h[1].free_rank, h[1].torsion) == (0, (2,))
    assert h[2] == AbelianGroupInvariants(0, ())


def test_identity_is_homology_isomorphism():
    rng = random.Random(9)
    for _ in range(10):
        C = zrandom.rand_complex(rng)
        assert is_homology_isomorphism(identity_chain_map(C))


def test_zero_map_is_not_homology_isomorphism():
    C = sphere_complex(1)
    f = ChainMap(C, C, {1: [[0]]})
    assert not is_homology_isomorphism(f)


def test_multiplication_on_a_sphere_is_a_quasi_isomorphism_for_units_only():
    # ×k on ℤ in degree 1 induces ×k on H_1 = ℤ
    C = sphere_complex(1)
    for k, iso in ((3, False), (0, False), (-1, True), (1, True)):
        assert is_homology_isomorphism(ChainMap(C, C, {1: [[k]]})) is iso


def test_mapping_cone_of_multiplication_is_its_cokernel():
    # Cone(×3 on ℤ in degree 0) is ℤ --3--> ℤ, with H_0 = Z/3
    C = ChainComplex([1], {})
    cone = mapping_cone(ChainMap(C, C, {0: [[3]]}))
    assert cone.ranks == [1, 1] and la.rows(cone.diff(1)) == [[3]]
    assert [str(h) for h in homology(cone)] == ["Z/3", "0"]


def test_mapping_cone_refuses_a_map_that_does_not_commute_with_d():
    C = ChainComplex([1, 1], {1: [[2]]})
    f = ChainMap(C, C, {0: [[1]], 1: [[0]]}, check=False)
    with pytest.raises(ValueError):
        mapping_cone(f)


def sympy_homology(C):
    """H_n(C) from sympy's invariant factors of each differential."""
    factors = {}
    for n in range(1, C.top_degree + 1):
        r, c = la.dims(C.diff(n))
        M = SympyMatrix(r, c, [x for row in la.rows(C.diff(n)) for x in row])
        factors[n] = [abs(int(d)) for d in invariant_factors(M, domain=ZZ)
                      if d]
    return [AbelianGroupInvariants(
        C.rank(n) - len(factors.get(n, [])) - len(factors.get(n + 1, [])),
        tuple(d for d in factors.get(n + 1, []) if d > 1))
        for n in range(C.top_degree + 1)]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_homology_matches_the_subquotient_oracle_and_sympy(rng):
    # two-term summands ℤ --k--> ℤ with k in {±1, 2, 3} give torsion
    C = zrandom.rand_complex(rng, top_degree=rng.randint(0, 3),
                             max_total_rank=rng.randint(0, 10))
    h = homology(C)
    assert h == oracles.homology(C)
    assert h == sympy_homology(C)


def random_chain_map(rng, C):
    """A chain map out of C, often not a quasi-isomorphism: k·u for u the
    change of basis from C to its conjugate by levelwise unimodular
    matrices and k in {0, ±1, 2, 3}, or the map to or from the zero
    complex."""
    top = C.top_degree
    kind = rng.choice(["scaled", "scaled", "to zero", "from zero"])
    if kind != "scaled":
        Z = ChainComplex([0] * (top + 1), {})
        return ChainMap(C, Z, {}) if kind == "to zero" else ChainMap(Z, C, {})
    us = [zrandom._random_unimodular(rng, C.rank(n)) for n in range(top + 1)]
    conj = ChainComplex(C.ranks, {
        n: la.mat_mul(la.mat_mul(us[n - 1][0], C.diff(n)), us[n][1])
        for n in range(1, top + 1)})
    k = rng.choice([0, 1, -1, 2, 3])
    return ChainMap(C, conj, {n: la.mat_scale(k, U)
                              for n, (U, _) in enumerate(us)})


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_quasi_isomorphism_matches_the_induced_map_oracle(rng):
    C = zrandom.rand_complex(rng, top_degree=rng.randint(0, 3),
                             max_total_rank=rng.randint(0, 8))
    f = random_chain_map(rng, C)
    assert is_homology_isomorphism(f) is oracles.is_homology_isomorphism(f)


def test_chain_payload_roundtrip():
    rng = random.Random(1)
    C = zrandom.rand_complex(rng)
    payload = json.loads(json.dumps(C.to_payload()))
    D = ChainComplex.from_payload(payload)
    assert D.ranks == C.ranks
    for n in range(1, C.top_degree + 1):
        assert D.diff(n) == C.diff(n)


def test_zero_complex_has_trivial_homology():
    for inv in homology(ChainComplex([0, 0, 0], {})):
        assert inv == AbelianGroupInvariants(0, ())
