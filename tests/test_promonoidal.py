"""Finite categories, profunctors, coends, the promonoidal structure on
the opposite simplex category, and the associated category of operators."""

import itertools
import json
import random

import pytest

from zilber.delta import MonotoneMap
from zilber.promonoidal import (FiniteCategory, arrow_fiber_nn, coend_set,
                                coyoneda_check, delta_leq,
                                delta_mu_associativity_check,
                                delta_mu_unit_check, delta_op_multicategory,
                                delta_op_promonoidal, discrete_category,
                                hom_profunctor, left_kan_check, mul_delta,
                                mul_nn_delta, operator_category_fragment,
                                opposite, poset_category,
                                product_simplices_colimit_check,
                                profunctor_to_payload, trivial_multicategory)


def test_simplex_category_truncation_sizes():
    from zilber.delta import monotone_count
    C = delta_leq(2)
    C._validate()
    expected = sum(monotone_count(a, b) for a in range(3) for b in range(3))
    assert len(C.morphisms) == expected


def test_opposite_category_is_valid_and_involutive():
    C = delta_leq(2)
    D = opposite(C, check=True)
    assert len(D.morphisms) == len(C.morphisms)
    E = opposite(D)
    for m in C.morphisms:
        assert E.src[m] == C.src[m] and E.tgt[m] == C.tgt[m]


def test_poset_category_generators_are_covers():
    P = poset_category([0, 1, 2, 3], lambda a, b: a <= b)
    P._validate()
    gens = P.generating_morphisms()
    assert len(gens) == 3  # the three covers i -> i+1


def test_coyoneda_for_hom_profunctor():
    for C in (discrete_category(["a", "b"]), delta_leq(2)):
        assert coyoneda_check(hom_profunctor(C)).ok


def test_coend_of_hom_profunctor_has_one_class_per_component():
    # ∫^c Hom(c, c) of a connected category has conjugacy-like classes;
    # for a poset it is one class per connected component
    P = poset_category([0, 1, 2], lambda a, b: a <= b)
    ce = coend_set(hom_profunctor(P))
    assert len(ce.classes) == 3  # identities are never identified in a poset


def test_unit_law_for_convolution_on_simplex_opposite():
    for b in (1, 2):
        assert delta_mu_unit_check(b).ok


def test_associativity_of_the_multiplication_profunctor():
    for p, q, r in [(0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)]:
        assert delta_mu_associativity_check(p, q, r, 2).ok


def test_multimorphism_spaces_count_monotone_tuples():
    from zilber.delta import monotone_count
    assert len(mul_delta([1, 1], 2)) == monotone_count(2, 1) ** 2
    assert len(mul_delta([], 0)) == 1  # the empty tuple


def test_bounded_multimorphisms_dichotomy_and_errors():
    # nonempty exactly when the bound accommodates the total
    assert mul_nn_delta([1, 1], [1, 1], 2, 1)
    assert mul_nn_delta([2, 2], [1, 1], 3, 1) == []
    with pytest.raises(ValueError):
        mul_nn_delta([1], [2], 3, 1)  # entry exceeds its arity bound
    with pytest.raises(ValueError):
        mul_nn_delta([1], [1], 2, 3)  # output exceeds the bound


def test_left_kan_comparison_dichotomy():
    # the canonical comparison map is a bijection exactly when the
    # total arity fits under the truncation bound
    for ns, b in [([1, 1], 2), ([1, 1], 3), ([2], 2)]:
        assert left_kan_check(ns, b, range(3)).ok
    cert = left_kan_check([1, 1], 1, range(3))
    assert not cert.ok and cert.witness is not None


@pytest.mark.parametrize("ns,b", [([1, 1], 1), ([2, 1], 2), ([2, 2], 3),
                                  ([1], 0), ([2, 2], 0)])
def test_left_kan_witnesses_are_monotone_maps(ns, b):
    # above the bound the comparison misses a family [m] -> [n_i]
    cert = left_kan_check(ns, b, [b + 1])
    assert not cert.ok
    m, family = cert.witness
    assert m == b + 1
    assert all(isinstance(f, MonotoneMap) for f in family)
    assert [(f.domain_top, f.codomain_top) for f in family] == \
        [(m, n) for n in ns]


@pytest.mark.parametrize("call", [
    lambda: delta_mu_unit_check(-1),
    lambda: delta_mu_associativity_check(1, 1, 1, -1),
    lambda: delta_mu_associativity_check(1, -1, 1, 2),
    lambda: left_kan_check([1, 1], -1, range(3)),
    lambda: left_kan_check([1, -1], 2, range(3)),
    lambda: left_kan_check([1, 1], 2, range(0)),
    lambda: left_kan_check([1, 1], 2, [1, -1]),
    lambda: product_simplices_colimit_check([1, -1], range(3)),
    lambda: product_simplices_colimit_check([1, 1], []),
    lambda: product_simplices_colimit_check([1, 1], [-1]),
    lambda: delta_op_promonoidal(-1),
])
def test_vacuous_or_negative_inputs_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_product_of_simplices_is_colimit_of_its_nondegenerates():
    assert product_simplices_colimit_check([1, 1], range(4)).ok
    assert product_simplices_colimit_check([2, 1], range(4)).ok


def test_operator_fragment_composition_is_associative():
    rng = random.Random(41)
    frag = operator_category_fragment(delta_op_multicategory(2), 2)
    for _ in range(30):
        obs = frag.objects
        a, b, c, d = (rng.choice(obs) for _ in range(4))
        fs = frag.morphisms_between(a, b)
        gs = frag.morphisms_between(b, c)
        hs = frag.morphisms_between(c, d)
        if not (fs and gs and hs):
            continue
        f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
        assert frag.compose(h, frag.compose(g, f)) \
            == frag.compose(frag.compose(h, g), f)
        assert frag.compose(f, frag.identity(a)) == f
        assert frag.compose(frag.identity(b), f) == f


def test_trivial_operator_fragment_counts_pointed_maps():
    frag = operator_category_fragment(trivial_multicategory(), 2)
    # morphisms <2> -> <1> are the pointed maps {0,1,2} -> {0,1}
    assert len(frag.morphisms_between(("*", "*"), ("*",))) == 4


def test_arrow_fiber_poset_sizes():
    from math import comb
    for b in range(4):
        P = arrow_fiber_nn([0, 0], b)
        assert len(P.objects) == comb(b + 2, 2)


def test_category_payload_roundtrip():
    C = delta_leq(2)
    payload = json.loads(json.dumps(C.to_payload()))
    D = FiniteCategory.from_payload(payload)
    D._validate()
    assert len(D.morphisms) == len(C.morphisms)
    assert len(D.objects) == len(C.objects)


def test_profunctor_payload_is_serializable():
    P = hom_profunctor(poset_category([0, 1], lambda a, b: a <= b))
    payload = json.loads(json.dumps(profunctor_to_payload(P)))
    assert payload["format"] == "prof" and payload["version"] == 1


def test_nary_multiplication_size_matches_iterated_coend_formula():
    from zilber.delta import monotone_count
    from zilber.promonoidal import NaryMu
    data = delta_op_promonoidal(2)
    nm = NaryMu(data)
    for n in range(3):
        got = len(nm.space((1, 1, 1), n))
        want = monotone_count(n, 1) ** 3
        assert got == want
