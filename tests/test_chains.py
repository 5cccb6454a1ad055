"""Chain complexes over ℤ: homology, hom ranks, tensor products."""

import json
import random

import pytest

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber.chains import (AbelianGroupInvariants, ChainComplex, ChainMap,
                           hom_rank, homology,
                           identity_chain_map, is_homology_isomorphism,
                           induced_homology_matrices, tensor,
                           unit_complex)


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
    rng = random.Random(11)
    for _ in range(20):
        C = zrandom.rand_complex(rng)
        h = homology(C)
        # conjugating again must not change the invariants
        D = zrandom.rand_complex(rng)
        assert all(isinstance(x, AbelianGroupInvariants) for x in h)
        for n in range(2, C.top_degree + 1):
            M = la.mat_mul(C.diff(n - 1), C.diff(n))
            assert la.is_zero(M)


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
            r = hom_rank(disk(m).to_chain_complex(),
                         disk(n).to_chain_complex())
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


def test_induced_matrices_multiplication_degree():
    # multiplication by 3 on a sphere induces multiplication by 3
    C = sphere_complex(1)
    f = ChainMap(C, C, {1: [[3]]})
    mats = induced_homology_matrices(f)
    assert la.rows(mats[1]) == [[3]]


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
