"""Combinatorial layer: monotone maps, factorizations, shuffles, products."""

import itertools
from math import comb

import pytest

from zilber.delta import (PosetPoint, Shuffle, StrictMonotoneIntoProduct,
                          coface, codegeneracy, comp_row, enumerate_monotone,
                          enumerate_surjections, epi_mono_factorize,
                          factor_into_cofaces, factor_into_codegeneracies,
                          monotone_count, shuffles, strict_chain_count,
                          strict_chains)

from oracles import (enumerate_injections, identity_map,
                     product_nondegenerate, product_points)


def shuffle_sign_by_products(p, q, interleaving):
    """Independent sign oracle: the product over (i, j), with i a
    first-coordinate step and j a second-coordinate step, of +1 if i < j and
    -1 if i > j."""
    first = sorted(interleaving)
    rest = [i for i in range(1, p + q + 1) if i not in set(first)]
    sign = 1
    for i in first:
        for j in rest:
            if i > j:
                sign = -sign
    return sign


def test_monotone_enumeration_counts():
    for m in range(4):
        for n in range(4):
            maps = enumerate_monotone(m, n)
            assert len(maps) == comb(m + n + 1, m + 1) == monotone_count(m, n)
            assert len(set(f.values for f in maps)) == len(maps)


def test_monotone_enumeration_is_strictly_lexicographic():
    # a triple (a, c, i) names the i-th map in this order
    for m in range(5):
        for n in range(5):
            values = [f.values for f in enumerate_monotone(m, n)]
            assert all(u < v for u, v in zip(values, values[1:]))
            assert all(list(v) == sorted(v) and v[-1] <= n for v in values)


def test_monotone_composition_matches_pointwise():
    for f in enumerate_monotone(2, 1):
        for g in enumerate_monotone(1, 3):
            h = g.compose(f)
            assert all(h(i) == g(f(i)) for i in range(3))


def test_simplicial_cofaces_satisfy_cosimplicial_identity():
    # δ_j δ_i = δ_i δ_{j-1} for i < j
    n = 3
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            lhs = coface(n + 1, j).compose(coface(n, i))
            rhs = coface(n + 1, i).compose(coface(n, j - 1))
            assert lhs == rhs


def test_epi_mono_factorization_unique_and_correct():
    for f in enumerate_monotone(3, 2):
        epi, mono = epi_mono_factorize(f)
        assert epi.is_surjective and mono.is_injective
        assert mono.compose(epi) == f


def test_factor_words_recompose():
    for f in enumerate_surjections(4, 2):
        word = factor_into_codegeneracies(f)
        cur = identity_map(2)
        for j in reversed(word):
            cur = cur.compose(codegeneracy(cur.domain_top, j))
        assert cur == f
    for f in enumerate_injections(1, 4):
        word = factor_into_cofaces(f)
        cur = identity_map(1)
        for i in reversed(word):
            cur = coface(cur.codomain_top + 1, i).compose(cur)
        assert cur == f


def test_composition_rows_match_composed_maps():
    for x, a, c in itertools.product(range(4), repeat=3):
        fs = enumerate_monotone(x, a)
        target = enumerate_monotone(x, c)
        for g, gmap in enumerate(enumerate_monotone(a, c)):
            assert [target[i] for i in comp_row(x, a, c, g)] == \
                [gmap.compose(f) for f in fs]


def test_surjection_and_injection_counts():
    # surjections [m] ->> [n] count C(m, n); injections C(n+1, m+1)
    for m in range(5):
        for n in range(m + 1):
            assert len(enumerate_surjections(m, n)) == comb(m, n)
    for m in range(4):
        for n in range(m, 5):
            assert len(enumerate_injections(m, n)) == comb(n + 1, m + 1)


def test_shuffle_count_and_signs_agree():
    for p in range(4):
        for q in range(4):
            shs = shuffles(p, q)
            assert len(shs) == comb(p + q, p)
            for s in shs:
                assert s.sign == shuffle_sign_by_products(p, q, s.interleaving)


@pytest.mark.parametrize("interleaving", [(1, 1), (3, 1)])
def test_a_shuffle_rejects_an_interleaving_that_is_not_strictly_increasing(
        interleaving):
    # (1, 1) repeats a step, and (3, 1) lists the steps {1, 3} out of order
    with pytest.raises(ValueError,
                       match="interleaving must be strictly increasing"):
        Shuffle(2, 1, interleaving, 1)
    # the sign is not checked against the interleaving, so a negative
    # control can flip it
    first = shuffles(2, 1)[0]
    flipped = Shuffle(first.p, first.q, first.interleaving, -first.sign)
    assert flipped != first and flipped.components() == first.components()


def test_shuffle_components_are_jointly_strict_chains():
    for s in shuffles(2, 2):
        a, b = s.components()
        # the validating constructor rejects a chain that is not strict
        chain = StrictMonotoneIntoProduct(
            (2, 2), tuple(PosetPoint((a(i), b(i))) for i in range(5)))
        assert chain.degree == 4
        assert a.is_surjective and b.is_surjective


def test_product_nondegenerate_counts_square():
    # nondegenerate simplices of the square: 4 vertices, 5 edges, 2 triangles
    assert [len(product_nondegenerate([1, 1], k)) for k in range(4)] \
        == [4, 5, 2, 0]
    assert len(product_points([2, 1])) == 6


def recursive_nondegenerate(ns, k):
    """The strictly monotone chains [k] -> ∏_i [n_i], each extended point by
    point in lexicographic order."""
    pts = product_points(ns)
    out = []

    def extend(chain):
        if len(chain) == k + 1:
            out.append(StrictMonotoneIntoProduct(tuple(ns), tuple(chain)))
            return
        last = chain[-1]
        for p in pts:
            if p.factors != last.factors and last.leq(p):
                extend(chain + [p])

    for p in pts:
        extend([p])
    return out


@pytest.mark.parametrize("ns", [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 2),
                                (3, 1, 1)], ids=str)
def test_product_nondegenerate_matches_the_recursive_enumeration(ns):
    for k in range(sum(ns) + 2):
        assert product_nondegenerate(ns, k) == recursive_nondegenerate(ns, k)
    assert product_nondegenerate(ns, sum(ns) + 1) == []


def test_top_nondegenerate_count_is_shuffle_count():
    for a, b in [(1, 1), (2, 1), (2, 2)]:
        assert len(product_nondegenerate([a, b], a + b)) == comb(a + b, a)


def test_the_chain_counts_are_the_lengths_of_the_chain_lists():
    # the closed form, by binomial inversion, for every ns in {0..3}^k,
    # k <= 3, and 0 above the dimension Σ n_i
    for k in range(4):
        for ns in itertools.product(range(4), repeat=k):
            chains = strict_chains(ns)
            assert [strict_chain_count(ns, j)
                    for j in range(sum(ns) + 3)] == \
                [len(cs) for cs in chains] + [0, 0], ns
