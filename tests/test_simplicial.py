"""Simplicial sets and abelian groups: validators, products, skeleta."""

import json
import random

import pytest

from zilber import _random as zrandom
from zilber.simplicial import (CheckCertificate, SimplicialIdentityError,
                               SimplicialSet, circle, free_abelian, point,
                               product, skeleton, skeleton_product_check,
                               standard_simplex)


def test_standard_simplex_level_sizes():
    # |Δ^n_k| = number of monotone maps [k] -> [n]
    from zilber.delta import monotone_count
    X = standard_simplex(2, 4)
    for k in range(5):
        assert X.level_size(k) == monotone_count(k, 2)


def test_standard_simplex_nondegenerate_counts():
    X = standard_simplex(2, 4)
    assert X.nondegenerate_counts() == (3, 3, 1, 0, 0)


def test_circle_levels_and_nondegenerates():
    S = circle(3)
    assert [S.level_size(k) for k in range(4)] == [1, 2, 3, 4]
    assert S.nondegenerate_counts() == (1, 1, 0, 0)


def test_product_levels_multiply():
    X = standard_simplex(1, 2)
    Y = circle(2)
    P = product(X, Y)
    for k in range(3):
        assert P.level_size(k) == X.level_size(k) * Y.level_size(k)


def test_torus_nondegenerate_counts():
    T = product(circle(2), circle(2))
    assert T.nondegenerate_counts() == (1, 3, 2)


def test_skeleton_of_triangle_is_boundary():
    X = standard_simplex(2, 3)
    assert skeleton(X, 1).nondegenerate_counts() == (3, 3, 0, 0)
    assert skeleton(X, 0).nondegenerate_counts() == (3, 0, 0, 0)


def test_skeleton_idempotent_at_presentation_dimension():
    X = product(standard_simplex(1, 3), standard_simplex(1, 3))
    S = skeleton(X, 3)
    for k in range(4):
        assert set(S.levels[k]) == set(X.levels[k])


def test_skeleton_product_check_positive_cases():
    X = standard_simplex(2, 3)
    Y = standard_simplex(1, 3)
    assert skeleton_product_check(X, Y, 2, 1, 3).ok


def test_skeleton_product_check_negative_witness():
    X = standard_simplex(2, 2)
    cert = skeleton_product_check(X, X, 1, 1, 1)
    assert not cert.ok
    assert cert.witness is not None
    # the witness lives at level 2: a product of two nondegenerate edges
    assert cert.witness[0] == 2


def test_simplicial_set_payload_roundtrip():
    X = product(circle(2), standard_simplex(1, 2))
    payload = json.loads(json.dumps(X.to_payload()))
    Y = SimplicialSet.from_payload(payload)
    for k in range(3):
        assert Y.level_size(k) == X.level_size(k)
    assert Y.nondegenerate_counts() == X.nondegenerate_counts()


def test_free_abelian_ranks_and_validation():
    A = free_abelian(standard_simplex(1, 2))
    assert A.ranks == [2, 3, 4]
    A._validate()  # permutation-like matrices satisfy all identities


def test_free_abelian_of_product_has_multiplied_ranks():
    X, Y = circle(2), standard_simplex(1, 2)
    A = free_abelian(product(X, Y))
    for k in range(3):
        assert A.ranks[k] == X.level_size(k) * Y.level_size(k)


def test_validator_rejects_corrupted_matrices():
    rng = random.Random(5)
    for _ in range(25):
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        B = zrandom.corrupt_simplicial(rng, A)
        if B is None:
            continue
        with pytest.raises(SimplicialIdentityError):
            B._validate()


def test_certificate_dict_shape():
    c = CheckCertificate(False, witness=(1, "x"), detail="why")
    d = c.to_dict()
    assert d["pass"] is False and "witness" in d and d["detail"] == "why"
