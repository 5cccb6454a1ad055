"""Finite categories, profunctors, coends, the promonoidal structure on
the opposite simplex category, and the associated category of operators."""

import itertools
import random

import pytest

from zilber.delta import (MonotoneMap, codegeneracy, coface,
                          enumerate_monotone, generating_maps, identity_map)
from zilber.promonoidal import (MulticategoryModel, OperatorMorphism,
                                coend_set, compose_profunctors, coyoneda_check,
                                delta_leq, delta_mu_associativity_check,
                                delta_mu_unit_check, delta_op_multicategory,
                                delta_op_promonoidal, discrete_category,
                                hom_profunctor, left_kan_check, mul_delta,
                                operator_category_fragment, opposite,
                                poset_category,
                                product_simplices_colimit_check)


def test_simplex_category_truncation_sizes():
    from zilber.delta import monotone_count
    C = delta_leq(2)
    C._validate()
    expected = sum(monotone_count(a, b) for a in range(3) for b in range(3))
    assert len(C.morphisms) == expected


def test_opposite_category_is_valid_and_involutive():
    C = delta_leq(2)
    D = opposite(C)
    D._validate()
    assert len(D.morphisms) == len(C.morphisms)
    E = opposite(D)
    for m in C.morphisms:
        assert E.src[m] == C.src[m] and E.tgt[m] == C.tgt[m]
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src[g] == C.tgt[f]:
                assert E.compose(g, f) == C.compose(g, f)


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
    classes, _ = coend_set(hom_profunctor(P))
    assert len(classes) == 3  # identities are never identified in a poset


def test_unit_law_for_convolution_on_simplex_opposite():
    for b in (1, 2):
        assert delta_mu_unit_check(b).ok


def test_unit_law_at_b_7_is_within_the_cap():
    # its coends leave out the Hom factor Δ([c'], [c]): the largest has
    # 11,440 elements, where with the factor it had 73.6 M
    assert delta_mu_unit_check(7).ok


def test_associativity_of_the_multiplication_profunctor():
    for p, q, r in [(0, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 0)]:
        assert delta_mu_associativity_check(p, q, r, 2).ok


def test_multimorphism_spaces_count_monotone_tuples():
    from zilber.delta import monotone_count
    assert len(mul_delta([1, 1], 2)) == monotone_count(2, 1) ** 2
    assert len(mul_delta([], 0)) == 1  # the empty tuple


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


def listed_hom(source, target, mul=mul_delta):
    """Every morphism source -> target, listed: each pointed map α times the
    product of mul over its fibers.  The fragment draws these and never
    lists them; this is the oracle its draws are checked against."""
    out = []
    for alpha in itertools.product(range(len(target) + 1), repeat=len(source)):
        fibers = [mul([c for c, a in zip(source, alpha) if a == j], d)
                  for j, d in enumerate(target, 1)]
        out.extend(OperatorMorphism(source, target, alpha, mults)
                   for mults in itertools.product(*fibers))
    return out


def sequences(objects, N):
    return [s for n in range(N + 1)
            for s in itertools.product(objects, repeat=n)]


def test_operator_fragment_draws_lie_in_their_listed_hom_sets():
    rng = random.Random(43)
    for b in range(3):
        frag = operator_category_fragment(delta_op_multicategory(b), 2)
        obs = sequences(range(b + 1), 2)
        for source in obs:
            for target in obs:
                hom = set(listed_hom(source, target))
                # Δᵒᵖ has a multimorphism of every arity, so no draw fails
                assert hom
                for _ in range(3):
                    assert frag.draw(source, target, rng) in hom


@pytest.mark.parametrize("source,target", [
    ((0, 1), (1,)), ((1,), (0, 1)), ((1, 1), (2,)), ((2,), ()), ((), (1,)),
])
def test_operator_fragment_draws_reach_every_morphism(source, target):
    rng = random.Random(47)
    frag = operator_category_fragment(delta_op_multicategory(2), 2)
    drawn = {frag.draw(source, target, rng) for _ in range(3000)}
    assert drawn == set(listed_hom(source, target))


def test_operator_fragment_draws_objects_of_every_length():
    rng = random.Random(53)
    frag = operator_category_fragment(delta_op_multicategory(1), 2)
    drawn = {frag.draw_object(rng) for _ in range(500)}
    assert drawn == set(sequences(range(2), 2))


def test_operator_fragment_composition_is_associative():
    rng = random.Random(41)
    frag = operator_category_fragment(delta_op_multicategory(2), 2)
    for _ in range(30):
        a, b, c, d = (frag.draw_object(rng) for _ in range(4))
        f, g, h = (frag.draw(a, b, rng), frag.draw(b, c, rng),
                   frag.draw(c, d, rng))
        assert frag.compose(h, frag.compose(g, f)) \
            == frag.compose(frag.compose(h, g), f)
        assert frag.compose(f, frag.identity(a)) == f
        assert frag.compose(frag.identity(b), f) == f


def test_trivial_operator_fragment_counts_pointed_maps():
    # one object and one multimorphism of every arity
    trivial = MulticategoryModel(["*"], lambda cs, c, rng: "*",
                                 lambda c: "*", lambda y, xs: "*",
                                 lambda y, idxs: "*")
    frag = operator_category_fragment(trivial, 2)
    # morphisms <2> -> <1> are the pointed maps {0,1,2} -> {0,1}
    hom = listed_hom(("*", "*"), ("*",), lambda cs, c: ["*"])
    assert len(hom) == 4
    rng = random.Random(59)
    assert {frag.draw(("*", "*"), ("*",), rng) for _ in range(200)} == set(hom)


def test_operator_fragment_draw_is_none_when_a_fiber_has_no_multimorphism():
    # a category seen as a multicategory: unary multimorphisms only
    def mul(cs, c):
        return ["*"] if len(cs) == 1 else []

    def draw(cs, c, rng):
        return "*" if len(cs) == 1 else None

    unary = MulticategoryModel(["*"], draw, lambda c: "*", lambda y, xs: "*",
                               lambda y, idxs: "*")
    frag = operator_category_fragment(unary, 2)
    rng = random.Random(61)
    source, target = ("*", "*"), ("*",)
    hom = set(listed_hom(source, target, mul))
    # only α = (1, 0) and (0, 1) leave the fiber over 1 with one input
    assert {m.alpha for m in hom} == {(1, 0), (0, 1)}
    drawn = [frag.draw(source, target, rng) for _ in range(200)]
    assert None in drawn
    assert {m for m in drawn if m is not None} == hom


def test_nary_multiplication_size_matches_iterated_coend_formula():
    from zilber.delta import monotone_count
    from zilber.promonoidal import NaryMu
    data = delta_op_promonoidal(2)
    nm = NaryMu(data)
    for n in range(3):
        got = len(nm.space((1, 1, 1), n))
        want = monotone_count(n, 1) ** 3
        assert got == want


# ---------------------------------------------------------------------------
# maps of Δ as triples (a, c, i), against MonotoneMap


def _decode(f):
    a, c, i = f
    return enumerate_monotone(a, c)[i]


@pytest.mark.parametrize("b", range(4))
def test_triple_composition_and_identities_match_monotone_maps(b):
    C = delta_leq(b)
    for n in C.objects:
        assert _decode(C.ident[n]) == identity_map(n)
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src[g] == C.tgt[f]:
                h = C.compose(g, f)
                assert (C.src[h], C.tgt[h]) == (C.src[f], C.tgt[g])
                assert _decode(h) == _decode(g).compose(_decode(f))


def test_delta_leq_composes_nothing_until_asked(monkeypatch):
    # the category holds no composition table: building Δ≤4 composes no
    # pair, and the one composite asked for is the one computed
    import zilber.promonoidal as pm
    compose = pm._compose
    calls = []

    def counted(g, f):
        calls.append((g, f))
        return compose(g, f)

    monkeypatch.setattr(pm, "_compose", counted)
    C = delta_leq(4)
    assert calls == []
    g, f = C.ident[2], (1, 2, 0)
    assert C.compose(g, f) == f and calls == [(g, f)]


@pytest.mark.parametrize("b", range(4))
def test_generating_maps_are_the_cofaces_then_the_codegeneracies(b):
    want = [coface(n, i) for n in range(1, b + 1) for i in range(n + 1)]
    want += [codegeneracy(n, i) for n in range(b) for i in range(n + 1)]
    assert [_decode(g) for g in generating_maps(b)] == want


@pytest.mark.parametrize("b", range(4))
def test_mu_action_is_precomposition_of_monotone_maps(b):
    # base morphisms a -> c are Δ-maps [c] -> [a]; the action sends (f, h)
    # in μ(p, q; n) to (f1∘f∘g, f2∘h∘g)
    data = delta_op_promonoidal(b)
    base = data.base
    rng = random.Random(b)
    for _ in range(400):
        p, q, n = (rng.randrange(b + 1) for _ in range(3))
        f, h = x = rng.choice(data.mu_value(p, q, n))
        f1 = rng.choice([u for u in base.morphisms if base.tgt[u] == p])
        f2 = rng.choice([u for u in base.morphisms if base.tgt[u] == q])
        g = rng.choice([u for u in base.morphisms if base.src[u] == n])
        got = data.mu_act(f1, f2, x, g)
        assert got in data.mu_value(base.src[f1], base.src[f2], base.tgt[g])
        assert [_decode(u) for u in got] == \
            [_decode(f1).compose(_decode(f)).compose(_decode(g)),
             _decode(f2).compose(_decode(h)).compose(_decode(g))]


def test_composite_profunctor_action_is_natural():
    # R = Hom ∘ Hom over Δ≤2: its action keeps elements in the value sets,
    # fixes them under identities, and the canonical map (d, x, y) ↦ y∘x
    # commutes with it
    C = delta_leq(2)
    P = hom_profunctor(C)
    R = compose_profunctors(P, hom_profunctor(C))
    for f in C.morphisms:
        for g in C.morphisms:
            c, e = C.tgt[f], C.src[g]
            for elem in R.value(c, e):
                moved = R.action(f, elem, g)
                assert moved in R.value(C.src[f], C.tgt[g])
                (_, x, y), (_, x2, y2) = elem, moved
                assert P.action(C.ident[C.src[f]], x2, y2) == \
                    P.action(f, P.action(C.ident[c], x, y), g)
    for c in C.objects:
        for e in C.objects:
            for elem in R.value(c, e):
                assert R.action(C.ident[c], elem, C.ident[e]) == elem


def test_nary_mu_at_arities_zero_one_and_four():
    from zilber.delta import monotone_count
    from zilber.promonoidal import NaryMu
    b = 2
    data = delta_op_promonoidal(b)
    base = data.base
    nm = NaryMu(data)
    for n in range(b + 1):
        assert nm.space((), n) == ["*"]
        assert nm.space((1,), n) == base.hom(1, n)
    # partial sums 1, 1, 2, 2 stay <= b, so μ⁴ is Map([n], ∏[c_i])
    entries = (1, 0, 1, 0)
    for n in range(b + 1):
        want = 1
        for c in entries:
            want *= monotone_count(n, c)
        assert len(nm.space(entries, n)) == want
    for inputs in ((), (1,), entries):
        for g in base.morphisms:
            n, n2 = base.src[g], base.tgt[g]
            for elem in nm.space(inputs, n):
                moved = nm.act_out(inputs, n, elem, g)
                assert moved in nm.space(inputs, n2)
                assert nm.act_out(inputs, n, elem, base.ident[n]) == elem
                for g2 in base.morphisms:
                    if base.src[g2] == n2:
                        assert nm.act_out(inputs, n2, moved, g2) == \
                            nm.act_out(inputs, n, elem, base.compose(g2, g))
