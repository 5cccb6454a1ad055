"""Coyoneda and the promonoidal structure on the opposite simplex category,
left Kan extensions, products of simplices as colimits, and the associated
category of operators."""

import itertools
import math
import random

import pytest

from zilber import promonoidal
from zilber.delta import (MonotoneMap, PosetPoint, StrictMonotoneIntoProduct,
                          codegeneracy, coface, enumerate_monotone,
                          monotone_count)
from zilber.promonoidal import (MulticategoryModel, OperatorCategoryFragment,
                                OperatorMorphism, _compose, _hom_coend,
                                _identity, coyoneda_check,
                                delta_mu_associativity_check,
                                delta_mu_unit_check, delta_op_multicategory,
                                left_kan_check,
                                product_simplices_colimit_check)

from oracles import generating_maps, identity_map


def triples(b):
    """Every map of Δ≤b as a triple (a, c, i)."""
    return [(a, c, i) for a in range(b + 1) for c in range(b + 1)
            for i in range(monotone_count(a, c))]


def test_simplex_category_truncation_sizes():
    # Δ≤2 as triples: C(a+c+1, a+1) distinct maps [a] -> [c], with the unit
    # and associativity laws of _compose and _identity
    maps = triples(2)
    assert len({_decode(f) for f in maps}) == len(maps) == \
        sum(math.comb(a + c + 1, a + 1) for a in range(3) for c in range(3))
    for f in maps:
        a, c, _ = f
        assert _compose(_identity(c), f) == f == _compose(f, _identity(a))
    for h, g, f in itertools.product(maps, repeat=3):
        if g[0] == f[1] and h[0] == g[1]:
            assert _compose(_compose(h, g), f) == _compose(h, _compose(g, f))


def test_coyoneda_for_the_hom_functor():
    for b in range(4):
        cert = coyoneda_check(b)
        assert cert.ok and cert.detail == "P ∘ Hom ≅ P"


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
    # the draws of Δᵒᵖ's multicategory reach exactly the monotone tuples
    # [m] -> ∏_i [n_i], C(m+n_i+1, m+1) choices each; arity 0 draws the
    # empty tuple
    rng = random.Random(67)
    model = delta_op_multicategory(2)
    for ns, m in [((1, 1), 2), ((), 0), ((2, 0, 1), 1)]:
        space = mul_delta(ns, m)
        assert len(space) == math.prod(math.comb(m + n + 1, m + 1)
                                       for n in ns)
        assert {model.draw(ns, m, rng) for _ in range(300)} == set(space)


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
    lambda: coyoneda_check(-1),
])
def test_vacuous_or_negative_inputs_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_product_of_simplices_is_colimit_of_its_nondegenerates():
    assert product_simplices_colimit_check([1, 1], range(4)).ok
    assert product_simplices_colimit_check([2, 1], range(4)).ok


def mul_delta(ns, m):
    """Mul({[n_i]}; [m]) of Δᵒᵖ: the monotone maps [m] -> ∏_i [n_i], as
    tuples of triples."""
    return list(itertools.product(
        *([(m, n, i) for i in range(monotone_count(m, n))] for n in ns)))


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
        frag = OperatorCategoryFragment(delta_op_multicategory(b), 2)
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
    frag = OperatorCategoryFragment(delta_op_multicategory(2), 2)
    drawn = {frag.draw(source, target, rng) for _ in range(3000)}
    assert drawn == set(listed_hom(source, target))


def test_operator_fragment_draws_objects_of_every_length():
    rng = random.Random(53)
    frag = OperatorCategoryFragment(delta_op_multicategory(1), 2)
    drawn = {frag.draw_object(rng) for _ in range(500)}
    assert drawn == set(sequences(range(2), 2))


def test_operator_fragment_composition_is_associative():
    rng = random.Random(41)
    frag = OperatorCategoryFragment(delta_op_multicategory(2), 2)
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
    frag = OperatorCategoryFragment(trivial, 2)
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
    frag = OperatorCategoryFragment(unary, 2)
    rng = random.Random(61)
    source, target = ("*", "*"), ("*",)
    hom = set(listed_hom(source, target, mul))
    # only α = (1, 0) and (0, 1) leave the fiber over 1 with one input
    assert {m.alpha for m in hom} == {(1, 0), (0, 1)}
    drawn = [frag.draw(source, target, rng) for _ in range(200)]
    assert None in drawn
    assert {m for m in drawn if m is not None} == hom


def test_nary_multiplication_size_matches_iterated_coend_formula():
    # μ³((1, 1, 1); n) = ∫^d μ(1, 1; d) × μ(d, 1; n) is the Kan coend of
    # (1, 1) at [n] times Δ([n], [1]), which no relation moves
    for n in range(3):
        classes, _ = _hom_coend(n, (1, 1), 2)
        assert len(classes) * monotone_count(n, 1) == monotone_count(n, 1) ** 3


# ---------------------------------------------------------------------------
# maps of Δ as triples (a, c, i), against MonotoneMap


def _decode(f):
    a, c, i = f
    return enumerate_monotone(a, c)[i]


@pytest.mark.parametrize("b", range(4))
def test_triple_composition_and_identities_match_monotone_maps(b):
    maps = triples(b)
    for n in range(b + 1):
        assert _decode(_identity(n)) == identity_map(n)
    for g in maps:
        for f in maps:
            if g[0] == f[1]:
                h = _compose(g, f)
                assert (h[0], h[1]) == (f[0], g[1])
                assert _decode(h) == _decode(g).compose(_decode(f))


@pytest.mark.parametrize("b", range(4))
def test_generating_maps_are_the_cofaces_then_the_codegeneracies(b):
    want = [coface(n, i) for n in range(1, b + 1) for i in range(n + 1)]
    want += [codegeneracy(n, i) for n in range(b) for i in range(n + 1)]
    assert [_decode(g) for g in generating_maps(b)] == want


@pytest.mark.parametrize("b", range(4))
def test_mu_action_is_precomposition_of_monotone_maps(b):
    # μ(p, q; n) is the binary multimorphisms x = (f, h), f : [n] -> [p] and
    # h : [n] -> [q], of delta_op_multicategory; substituting unary ones
    # acts on them: (f1, f2) into x and x into (g,) give (f1∘f∘g, f2∘h∘g),
    # in either order
    model = delta_op_multicategory(b)
    maps = triples(b)
    rng = random.Random(b)
    for _ in range(400):
        p, q, n = (rng.randrange(b + 1) for _ in range(3))
        f, h = x = model.draw((p, q), n, rng)
        f1 = rng.choice([u for u in maps if u[0] == p])
        f2 = rng.choice([u for u in maps if u[0] == q])
        g = rng.choice([u for u in maps if u[1] == n])
        got = model.subst((g,), [model.subst(x, [(f1,), (f2,)])])
        assert got == model.subst(model.subst((g,), [x]), [(f1,), (f2,)])
        assert got in mul_delta((f1[1], f2[1]), g[0])
        assert [_decode(u) for u in got] == \
            [_decode(f1).compose(_decode(f)).compose(_decode(g)),
             _decode(f2).compose(_decode(h)).compose(_decode(g))]


# ---------------------------------------------------------------------------
# the failures the product-colimit check reports, each reached by editing
# the one table its branch reads

TRIANGLES = (((0, 0), (0, 1), (1, 1)),  # the two top chains of [1] x [1]
             ((0, 0), (1, 0), (1, 1)))


def edit_table(monkeypatch, name, edit):
    """promonoidal.<name> with edit(its output, *its arguments) applied."""
    real = getattr(promonoidal, name)
    monkeypatch.setattr(promonoidal, name,
                        lambda *args: edit(real(*args), *args))


def square_chain(chain):
    return StrictMonotoneIntoProduct((1, 1), tuple(map(PosetPoint, chain)))


def points(chain):
    return tuple(map(PosetPoint, chain))


def test_a_repeated_top_chain_makes_the_colimit_map_not_injective(
        monkeypatch):
    edit_table(monkeypatch, "strict_chains",
               lambda out, ns: out[:2] + [out[2] + [TRIANGLES[0]]])
    cert = product_simplices_colimit_check([1, 1], range(4))
    assert not cert.ok
    assert cert.detail == "colimit map not injective at level 2"
    assert cert.witness == (2, (square_chain(TRIANGLES[0]),
                                identity_map(2)))


def test_a_missing_top_chain_makes_the_colimit_map_not_surjective(
        monkeypatch):
    edit_table(monkeypatch, "strict_chains",
               lambda out, ns: out[:2] + [out[2][:1]])
    cert = product_simplices_colimit_check([1, 1], range(4))
    assert not cert.ok
    assert cert.detail == "colimit map not surjective at level 2"
    assert cert.witness == (2, points(TRIANGLES[1]))


def test_an_image_that_is_not_monotone_is_named(monkeypatch):
    # a decreasing chain at degree 1: its image at level 1 is no monotone
    # map into the product, so the images are not the monotone maps though
    # none of those is missed
    bad = ((1, 1), (0, 0))
    edit_table(monkeypatch, "strict_chains",
               lambda out, ns: out[:1] + [out[1] + [bad]] + out[2:])
    cert = product_simplices_colimit_check([1, 1], range(3))
    assert not cert.ok
    assert cert.detail == "colimit map image is not monotone at level 1"
    assert cert.witness == (1, points(bad))


def test_an_image_chain_outside_the_simplices_is_named(monkeypatch):
    # the top chain is a face of no chain, so the coend never looks it up
    edit_table(monkeypatch, "_positions",
               lambda index, chains: [{c: s for c, s in at.items()
                                       if c != TRIANGLES[1]}
                                      for at in index])
    cert = product_simplices_colimit_check([1, 1], range(4))
    assert not cert.ok
    assert cert.detail == "image chain is not a nondegenerate simplex"
    assert cert.witness == (2, points(TRIANGLES[1]))


@pytest.mark.parametrize("point", [(0, 0), (1, 1)], ids=["two", "two-last"])
def test_a_presentation_without_one_factorization_is_named(monkeypatch,
                                                           point):
    # an edge that repeats a point has two ι onto that point, so the
    # point's class at level 0 has a presentation through the edge that
    # the image factorization does not map to in exactly one way
    loop = (point, point)
    edit_table(monkeypatch, "strict_chains",
               lambda out, ns: out[:1] + [out[1] + [loop]] + out[2:])
    cert = product_simplices_colimit_check([1, 1], range(4))
    assert not cert.ok
    assert cert.detail == "image factorization is not initial"
    assert cert.witness == (0, points((point,)),
                            (points(loop), MonotoneMap(0, 1, (0,))))


def test_a_class_of_two_images_is_named(monkeypatch):
    # at level 1, elements 4 and 7 of the coend, (1, (0, 0), σ) for the
    # edges σ from (0, 0) and from (0, 1), swap their classes: the classes
    # keep their first elements, so only the images within one differ
    def swap(out, k, chains):
        classes, rep = out
        if k == 1:
            rep = list(rep)
            rep[4], rep[7] = rep[7], rep[4]
        return classes, rep

    edit_table(monkeypatch, "_colimit_coend", swap)
    cert = product_simplices_colimit_check([1, 1], range(4))
    assert not cert.ok
    assert cert.detail == "colimit map not well defined at level 1"
    assert cert.witness == (1, (square_chain(((0, 0), (0, 1))),
                                MonotoneMap(1, 1, (0, 0))))
