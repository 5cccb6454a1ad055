"""The union-find oracle against a breadth-first search over the relation
graph, the index arithmetic of the coends over Δ≤b against their relations
written out with MonotoneMaps, the descent to the image-factorization
normal form against the union-find over every relation, the work cap, the
element and class counts of every coend that the coend benchmark family
builds, and the failures the Δᵒᵖ unit, μ-associativity and Coyoneda
checks report.

The counts below were recorded from the dictionary union-find over
MonotoneMap keys that the index-based engine replaced.  The oracle tests
pin the class representatives too: every element's representative is the
least index of its class in enumeration order."""

import itertools
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import promonoidal
from zilber.cli import main
from zilber.delta import (MonotoneMap, codegeneracy, coface, comp_row,
                          enumerate_monotone, monotone_count, strict_chains)
from zilber.promonoidal import (CoendFault, CoendTooLarge, _colimit_coend,
                                _hom_coend, coyoneda_check,
                                delta_mu_associativity_check,
                                delta_mu_unit_check)
from zilber.simplicial import CheckCertificate

from oracles import generating_maps, product_nondegenerate


# ---------------------------------------------------------------------------
# the union-find oracle on random presentations


def least_representatives(n, relations):
    """rep, rep[i] the least element of the class of i in 0..n-1 under
    ``relations``, index sequences (push, pull) identifying push[i] with
    pull[i].  A union points the larger root at the smaller, so
    parent[i] <= i and one ascending pass resolves every root."""
    parent = list(range(n))
    for push, pull in relations:
        for u, v in zip(push, pull):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent


def union_find_coend(x, sizes, moved, gens):
    """∫^{[d]} Δ([x], [d]) × F(d), |F(d)| = sizes[d], presented by the
    Δ-maps γ = (a, c, g) of gens: γ identifies (c, γ∘φ, u) with (a, φ, u·γ)
    for φ : [x] -> [a], u·γ = moved(γ)[u].  Returns the classes (d, φ, u)
    and the least-index representatives rep, as _descend does."""
    off = promonoidal._offsets(x, tuple(sizes))
    relations = []
    for a, c, g in gens:
        na, nc = sizes[a], sizes[c]
        pulled = [off[a] + v for v in moved((a, c, g))]
        relations.append((
            [off[c] + gphi * nc + u for gphi in comp_row(x, a, c, g)
             for u in range(nc)],
            [phi * na + v for phi in range(monotone_count(x, a))
             for v in pulled]))
    rep = least_representatives(off[-1], relations)
    roots = [i for i, r in enumerate(rep) if i == r]
    return promonoidal._classes(off, sizes, roots), rep


@st.composite
def presentations(draw):
    """A random poset on a few objects, a few elements at each object, a
    random list of its morphisms as generators, and for each generator
    a → b random relations between elements at b and elements at a."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    objects = list(range(len(sizes)))
    below = {(a, b) for a in objects for b in objects
             if a < b and draw(st.booleans())}
    for c in objects:  # transitive closure, objects in increasing order
        below |= {(a, b) for (a, c1) in below for (c2, b) in below
                  if c1 == c == c2}
    morphisms = sorted(below | {(d, d) for d in objects})
    gens = draw(st.lists(st.sampled_from(morphisms), max_size=8))
    elements = {d: [(d, i) for i in range(n)] for d, n in enumerate(sizes)}
    relations = []
    for a, b in gens:
        if elements[a] and elements[b]:
            relations.append(draw(st.lists(
                st.tuples(st.sampled_from(elements[b]),
                          st.sampled_from(elements[a])), max_size=4)))
        else:
            relations.append([])
    return objects, elements, relations


def bfs_least(order, edges):
    """For each element, the least index in its connected component."""
    index = {x: i for i, x in enumerate(order)}
    adj = {x: [] for x in order}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    least = {}
    for x in order:
        if x in least:
            continue
        least[x] = index[x]
        todo = [x]
        while todo:
            for y in adj[todo.pop()]:
                if y not in least:
                    least[y] = index[x]
                    todo.append(y)
    return [least[x] for x in order]


def run_coend(objects, elements, relations):
    """The elements in enumeration order, and the engine's representatives
    of their indices under the relations."""
    order = [x for d in objects for x in elements[d]]
    index = {x: i for i, x in enumerate(order)}
    rep = least_representatives(
        len(order), [([index[u] for u, _ in r], [index[v] for _, v in r])
                     for r in relations])
    return order, rep


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_coend_partition_matches_breadth_first_search(case):
    objects, elements, relations = case
    order, rep = run_coend(objects, elements, relations)
    # each class is represented by its element of smallest index
    assert rep == bfs_least(order, [e for r in relations for e in r])


@settings(max_examples=50, deadline=None)
@given(presentations(), st.randoms(use_true_random=False))
def test_coend_ignores_the_order_of_relations(case, rng):
    objects, elements, relations = case
    shuffled = [list(r) for r in relations]
    rng.shuffle(shuffled)
    for r in shuffled:
        rng.shuffle(r)
    assert run_coend(objects, elements, shuffled) == \
        run_coend(objects, elements, relations)


# ---------------------------------------------------------------------------
# the index arithmetic over Δ≤b against relations written out with
# MonotoneMaps


def position(f):
    """The index of a MonotoneMap in enumerate_monotone order."""
    return enumerate_monotone(f.domain_top, f.codomain_top).index(f)


def generators(b):
    """The cofaces and codegeneracies among [0], ..., [b], as MonotoneMaps."""
    return ([coface(n, i) for n in range(1, b + 1) for i in range(n + 1)]
            + [codegeneracy(n, i) for n in range(b) for i in range(n + 1)])


def hom_relations(x, ts, b, s):
    """The elements (d, φ, (f_1, ..., f_n), j) of ∫^{[d]} Δ([x], [d]) ×
    ∏_i Δ([d], [t_i]) × S, |S| = s, over d <= b, and the relation of every
    generator γ : [a] -> [c], identifying (c, γ∘φ, f, j) with
    (a, φ, f∘γ, j)."""
    def F(d):
        return itertools.product(
            itertools.product(*(enumerate_monotone(d, t) for t in ts)),
            range(s))

    order = [(d, phi, fs, j) for d in range(b + 1)
             for phi in enumerate_monotone(x, d) for fs, j in F(d)]
    edges = [((c, gamma.compose(phi), fs, j),
              (a, phi, tuple(f.compose(gamma) for f in fs), j))
             for gamma in generators(b)
             for a, c in [(gamma.domain_top, gamma.codomain_top)]
             for phi in enumerate_monotone(x, a) for fs, j in F(c)]
    return order, edges


def product_chains(ns):
    """The nondegenerate simplices of ∏_i Δ^{n_i} by dimension, and each as
    its tuple of points' coordinates, the form _colimit_coend reads."""
    nondeg = [product_nondegenerate(ns, d) for d in range(sum(ns) + 1)]
    return nondeg, [[tuple(p.factors for p in sigma.points)
                     for sigma in sigmas] for sigmas in nondeg]


def colimit_relations(ns, k):
    """The elements (d, β, σ) of the colimit of the k-simplices of Δ^σ over
    the nondegenerate simplices σ of ∏_i Δ^{n_i}, and the relation of every
    coface ι : [a] -> [c], identifying (c, ι∘β, σ) with (a, β, σ∘ι)."""
    total = sum(ns)
    nondeg, chains = product_chains(ns)
    order = [(d, beta, sigma) for d in range(total + 1)
             for beta in enumerate_monotone(k, d) for sigma in nondeg[d]]
    edges = []
    for iota in generators(total):
        a, c = iota.domain_top, iota.codomain_top
        if a < c:
            for beta in enumerate_monotone(k, a):
                for sigma in nondeg[c]:
                    face = type(sigma)(sigma.bounds, tuple(
                        sigma.points[v] for v in iota.values))
                    edges.append(((c, iota.compose(beta), sigma),
                                  (a, beta, face)))
    return order, edges, nondeg, chains


HOM_CASES = [  # (x, ts, b, s): b <= 3, up to three factors, s in {1, 2, 3}
    (x, ts, b, s)
    for b in range(4) for x in range(3) for s in (1, 2, 3)
    for ts in [(), (1,), (1, 2), (2, 1), (1, 1), (0, 2, 1), (1, 1, 1)]
    if b < 3 or (x != 1 and s < 3)  # the slowest oracles are at b = 3
]


@pytest.mark.parametrize("case", HOM_CASES, ids=str)
def test_hom_coend_matches_its_relations(case):
    """The engine leaves out a factor S that no relation moves: the
    partition of F × S, every relation written out, is the engine's
    partition of F copied over S, element (i, j) at index s·i + j."""
    x, ts, b, s = case
    order, edges = hom_relations(x, ts, b, s)
    least = bfs_least(order, edges)
    classes, rep = _hom_coend(x, ts, b)
    assert least == [s * r + j for r in rep for j in range(s)]
    assert [(d, phi, fs + (j,)) for d, phi, fs in classes for j in range(s)] \
        == [(d, position(phi), tuple(map(position, fs)) + (j,))
            for i, (d, phi, fs, j) in enumerate(order) if least[i] == i]


@pytest.mark.parametrize("ns,k", [((1,), 2), ((1, 1), 0), ((1, 1), 2),
                                  ((2, 1), 1), ((1, 1, 1), 2)], ids=str)
def test_colimit_coend_matches_its_relations(ns, k):
    order, edges, nondeg, chains = colimit_relations(ns, k)
    least = bfs_least(order, edges)
    (classes, rep), by_union = both_paths(_colimit_coend, k, chains)
    assert by_union == (classes, rep)
    assert rep == least
    assert classes == [(d, position(beta), nondeg[d].index(sigma))
                       for i, (d, beta, sigma) in enumerate(order)
                       if least[i] == i]


# ---------------------------------------------------------------------------
# descent to the normal form against the union-find


def by_union_find(x, sizes, moved, b, splits=None):
    """_descend's answer from the union-find over every relation: those of
    all the generating maps of Δ≤b for a Kan coend (which passes splits),
    of the cofaces alone for a colimit over the injections."""
    return union_find_coend(x, sizes, moved, [
        g for g in generating_maps(b) if splits is not None or g[0] < g[1]])


def both_paths(coend, *args):
    """coend(*args) by descent, and by the union-find alone."""
    by_descent = coend(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(promonoidal, "_descend", by_union_find)
        by_union = coend(*args)
    return by_descent, by_union


DESCENT_LIMIT = 20_000  # elements, so that the union-find oracle stays fast
DESCENT_CASES = [
    (x, ts, b) for b in range(5) for x in range(b + 2)
    for k in range(4) for ts in itertools.product(range(3), repeat=k)
    if promonoidal._offsets(x, promonoidal._hom_sizes(ts, b))[-1]
    <= DESCENT_LIMIT]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DESCENT_CASES))
def test_descent_gives_the_union_find_partition(case):
    """The same classes and least representatives, for m <= b + 1, b <= 4,
    and up to three factors [t], t <= 2."""
    x, ts, b = case
    by_descent, by_union = both_paths(_hom_coend, x, ts, b)
    assert by_descent == by_union


NORMAL_FORM_CASES = [  # m <= 6, b <= 4, Σ n_i <= 4, half of them m > b
    (m, ts, b) for b in range(5) for m in range(7)
    for k in range(5) for ts in itertools.product(range(5), repeat=k)
    if sum(ts) <= 4
    and promonoidal._offsets(m, promonoidal._hom_sizes(ts, b))[-1]
    <= DESCENT_LIMIT]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NORMAL_FORM_CASES))
def test_the_normal_form_gives_the_union_find_partition_at_every_m(case):
    # the roots (j, ε onto, u injective) are the image factorizations of
    # h ∘ φ, so they are the classes whether or not [m] is in Δ≤b
    m, ts, b = case
    by_descent, by_union = both_paths(_hom_coend, m, ts, b)
    assert by_descent == by_union


def test_the_normal_form_cases_reach_past_b():
    assert sum(m > b for m, _, b in NORMAL_FORM_CASES) > 2000
    assert max(m - b for m, _, b in NORMAL_FORM_CASES) == 6


@pytest.mark.parametrize("b", range(3))
def test_descent_on_every_kan_coend_of_the_coend_family(b):
    # left_kan([n1, n2], b, [m]) for n1, n2 <= 2 and m <= b + 1, the unit
    # (no factor) and both nestings of μ-associativity ((p, q) at n <= b)
    for x in range(b + 2):
        for ts in [()] + list(itertools.product(range(3), repeat=2)):
            by_descent, by_union = both_paths(_hom_coend, x, ts, b)
            assert by_descent == by_union


def wrong_prev(roots, steps, x):
    """The plan with its last step's first φ' swapped for another."""
    (a, c, g), phis, prevs = steps[-1]
    row = comp_row(x, a, c, g)
    wrong = next(p for p in range(len(row)) if row[p] != phis[0])
    return roots, steps[:-1] + (((a, c, g), phis, (wrong, *prevs[1:])),)


def wrong_order(roots, steps, x):
    """The plan with its steps reversed: φ's are read before they are
    reached."""
    return roots, steps[::-1]


def corrupt_plan(monkeypatch, corrupt):
    real = promonoidal._descent_plan
    monkeypatch.setattr(promonoidal, "_descent_plan",
                        lambda x, b: corrupt(*real(x, b), x))


@pytest.mark.parametrize("corrupt", [wrong_prev, wrong_order],
                         ids=lambda f: f.__name__)
def test_a_wrong_descent_plan_is_a_library_fault(monkeypatch, corrupt):
    assert delta_mu_unit_check(2).ok
    corrupt_plan(monkeypatch, corrupt)
    with pytest.raises(CoendFault):
        promonoidal._descend(1, (1, 1, 1), lambda gen: [0], 2)
    # no other path answers, and the fault is not an input error
    with pytest.raises(CoendFault):
        delta_mu_unit_check(2)
    assert not issubclass(CoendFault, ValueError)


@pytest.mark.parametrize("corrupt", [wrong_prev, wrong_order],
                         ids=lambda f: f.__name__)
def test_the_cli_exits_3_on_a_descent_fault(monkeypatch, capsys, corrupt):
    corrupt_plan(monkeypatch, corrupt)
    code = main(["promonoidal", "--check", "unit", "--b", "2"])
    out = capsys.readouterr()
    assert code == 3 and not out.out.strip()
    assert json.loads(out.err)["exit"] == 3


@pytest.mark.parametrize("ns,k", [(ns, k) for k in range(4) for ns in
                                  [(1, 1), (2, 1), (1, 1, 1), (2, 2)]],
                         ids=str)
def test_descent_gives_the_union_find_colimit(ns, k):
    # the roots are the onto β, one block per d <= min(k, Σ n_i)
    by_descent, by_union = both_paths(_colimit_coend, k,
                                      product_chains(ns)[1])
    assert by_descent == by_union


def test_the_colimit_check_makes_no_union_find(monkeypatch):
    # the library keeps no union-find: each level is one descent
    assert not hasattr(promonoidal, "_least_representatives")
    assert not hasattr(promonoidal, "_delta_coend")
    real, levels = promonoidal._descend, []
    monkeypatch.setattr(promonoidal, "_descend",
                        lambda x, *args: levels.append(x) or real(x, *args))
    for ns, k in [((1,), 3), ((1, 1), 4), ((2, 1), 4), ((1, 1, 1), 3)]:
        levels.clear()
        assert promonoidal.product_simplices_colimit_check(ns, range(k)).ok
        assert levels == list(range(k))


@pytest.mark.parametrize("corrupt", [wrong_prev, wrong_order],
                         ids=lambda f: f.__name__)
def test_a_wrong_colimit_step_is_a_library_fault(monkeypatch, corrupt):
    chains = product_chains((2, 1))[1]
    corrupt_plan(monkeypatch, corrupt)
    with pytest.raises(CoendFault):
        _colimit_coend(3, chains)


# ---------------------------------------------------------------------------
# the work cap


def test_a_coend_above_the_cap_is_refused_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(promonoidal, "_descend",
                        lambda *args: built.append(args))
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 500)
    # m = 0 (381 elements) is within the cap and m = 2 (1,153) is not:
    # the check stops before it builds either
    with pytest.raises(CoendTooLarge, match="1153 elements"):
        promonoidal.left_kan_check([2, 2], 2, [0, 2])
    # the first coend above the cap in each check's order is named: c' = 2
    # (15 elements) for the unit, and for (1, 0, 2) the right nesting at
    # n = 1 (81), before the left one at n = 2 (54)
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 12)
    with pytest.raises(CoendTooLarge, match="15 elements"):
        promonoidal.delta_mu_unit_check(2)
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 50)
    with pytest.raises(CoendTooLarge, match="81 elements"):
        promonoidal.delta_mu_associativity_check(1, 0, 2, 2)
    # and for Coyoneda (c, e) = (0, 2) (45), before (1, 2) (81)
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 40)
    with pytest.raises(CoendTooLarge, match="45 elements"):
        promonoidal.coyoneda_check(2)
    assert built == []


def test_the_generic_coend_path_is_capped(monkeypatch):
    # the engine, on any block sizes and moves, checks the cap itself
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 9)
    with pytest.raises(CoendTooLarge, match="10 elements"):
        promonoidal._descend(1, (1, 1, 1), lambda gen: [0], 2)


def test_the_cli_exits_2_on_a_coend_above_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(promonoidal, "COEND_ELEMENT_CAP", 1000)
    code = main(["promonoidal", "--check", "left-kan", "--ns", "2,2",
                 "--b", "2", "--m", "3"])
    out = capsys.readouterr()
    assert code == 2 and not out.out.strip()
    assert "1153 elements" in out.err


def test_the_class_count_is_the_number_of_image_factorizations():
    # every Kan coend with x <= 5, b <= 3 and Σ n_i <= 4 over at most two
    # factors, and the colimits of the products of simplices with Σ n_i <= 3
    nss = [ns for k in range(3) for ns in itertools.product(range(5), repeat=k)
           if sum(ns) <= 4]
    cases = [(x, ns, b) for x in range(6) for b in range(4) for ns in nss]
    assert len(cases) == 504
    for x, ns, b in cases:
        classes, _ = _hom_coend(x, ns, b)
        assert promonoidal._image_factorizations(x, ns, b) == len(classes)
    for ns in [ns for k in range(1, 4)
               for ns in itertools.product(range(3), repeat=k)
               if sum(ns) <= 3]:
        chains = product_chains(ns)[1]
        for k in range(4):
            classes, _ = _colimit_coend(k, chains)
            assert promonoidal._image_factorizations(k, ns, sum(ns)) == \
                len(classes)


@pytest.mark.parametrize("ns", [(1,), (1, 1), (2, 1), (1, 1, 1), (2, 2, 1),
                                (3, 3)], ids=str)
def test_the_chain_point_count_is_that_of_the_chains(ns):
    points = sum(map(len, itertools.chain(*strict_chains(ns))))
    assert promonoidal._chain_points(ns) == points


def test_classes_and_chain_points_are_capped_before_any_chain(monkeypatch):
    listed = []
    monkeypatch.setattr(promonoidal, "strict_chains",
                        lambda ns: listed.append(ns))
    monkeypatch.setattr(promonoidal, "_descend",
                        lambda *args: listed.append(args))
    monkeypatch.setattr(promonoidal, "COEND_OBJECT_CAP", 19)
    # (1, 1) has 4 + 5 + 2 chains: 4·1 + 5·2 + 2·3 = 20 points
    with pytest.raises(CoendTooLarge, match="^a coend of 20 chain points"):
        promonoidal.product_simplices_colimit_check([1, 1], range(2))
    # (1, 1) at level 5: 4 + 5·5 + 10·2 = 49 classes, above 20 points
    monkeypatch.setattr(promonoidal, "COEND_OBJECT_CAP", 40)
    with pytest.raises(CoendTooLarge, match="^a coend of 49 classes"):
        promonoidal.product_simplices_colimit_check([1, 1], range(6))
    # left-kan (2, 2) at b = 2: m = 2 has 100 classes in 1,153 elements
    monkeypatch.setattr(promonoidal, "COEND_OBJECT_CAP", 99)
    with pytest.raises(CoendTooLarge, match="^a coend of 100 classes"):
        promonoidal.left_kan_check([2, 2], 2, [0, 2])
    # (12,) has 13·2^12 = 53,248 points, but its descent lists the
    # C(24, 12) = 2,704,156 maps [11] -> [12] and 956,384 below them
    monkeypatch.setattr(promonoidal, "COEND_OBJECT_CAP", 1 << 20)
    with pytest.raises(CoendTooLarge, match="^a coend of 3660540 maps of Δ"):
        promonoidal.product_simplices_colimit_check([12], range(1))
    # at least 2^21 maps [20] -> [21]: refused before any chain is counted
    monkeypatch.setattr(promonoidal, "strict_chain_count",
                        lambda ns, d: listed.append((ns, d)))
    with pytest.raises(CoendTooLarge, match="^a coend of at least 2\\^21 "
                                            "maps of Δ"):
        promonoidal.product_simplices_colimit_check([7, 7, 7], range(1))
    assert listed == []


@pytest.mark.parametrize("argv, size", [
    (["left-kan", "--ns", "255,255,255", "--b", "0", "--m", "0"],
     "16777216 classes"),
    (["product-colimit", "--ns", "3,3,3", "--k-max", "0"],
     "1606112 chain points"),
    (["product-colimit", "--ns", "4,4,4", "--k-max", "0"],
     "182707280 chain points"),
], ids=["left-kan-255", "colimit-333", "colimit-444"])
def test_the_cli_refuses_a_coend_of_too_many_classes_or_faces(capsys, argv,
                                                              size):
    # the counts come from closed forms: no element, class or chain is
    # built, so the refusal is quick and small
    tracemalloc.start()
    started = time.perf_counter()
    code = main(["promonoidal", "--check", *argv])
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 2 and not out.out.strip()
    assert f"a coend of {size} is above the cap" in out.err
    assert elapsed < 1 and peak < 1 << 20


# ---------------------------------------------------------------------------
# element and class counts of the coend benchmark family


LEFT_KAN = {  # (n1, n2, b, m): (elements, classes)
    (0, 0, 0, 0): (1, 1), (0, 0, 0, 1): (1, 1), (0, 0, 1, 0): (3, 1),
    (0, 0, 1, 1): (4, 1), (0, 0, 1, 2): (5, 1), (0, 0, 2, 0): (6, 1),
    (0, 0, 2, 1): (10, 1), (0, 0, 2, 2): (15, 1), (0, 0, 2, 3): (21, 1),
    (0, 1, 0, 0): (2, 2), (0, 1, 0, 1): (2, 2), (0, 1, 1, 0): (8, 2),
    (0, 1, 1, 1): (11, 3), (0, 1, 1, 2): (14, 4), (0, 1, 2, 0): (20, 2),
    (0, 1, 2, 1): (35, 3), (0, 1, 2, 2): (54, 4), (0, 1, 2, 3): (77, 5),
    (0, 2, 0, 0): (3, 3), (0, 2, 0, 1): (3, 3), (0, 2, 1, 0): (15, 3),
    (0, 2, 1, 1): (21, 6), (0, 2, 1, 2): (27, 9), (0, 2, 2, 0): (45, 3),
    (0, 2, 2, 1): (81, 6), (0, 2, 2, 2): (127, 10), (0, 2, 2, 3): (183, 15),
    (1, 0, 0, 0): (2, 2), (1, 0, 0, 1): (2, 2), (1, 0, 1, 0): (8, 2),
    (1, 0, 1, 1): (11, 3), (1, 0, 1, 2): (14, 4), (1, 0, 2, 0): (20, 2),
    (1, 0, 2, 1): (35, 3), (1, 0, 2, 2): (54, 4), (1, 0, 2, 3): (77, 5),
    (1, 1, 0, 0): (4, 4), (1, 1, 0, 1): (4, 4), (1, 1, 1, 0): (22, 4),
    (1, 1, 1, 1): (31, 9), (1, 1, 1, 2): (40, 14), (1, 1, 2, 0): (70, 4),
    (1, 1, 2, 1): (127, 9), (1, 1, 2, 2): (200, 16), (1, 1, 2, 3): (289, 25),
    (1, 2, 0, 0): (6, 6), (1, 2, 0, 1): (6, 6), (1, 2, 1, 0): (42, 6),
    (1, 2, 1, 1): (60, 18), (1, 2, 1, 2): (78, 30), (1, 2, 2, 0): (162, 6),
    (1, 2, 2, 1): (300, 18), (1, 2, 2, 2): (478, 40), (1, 2, 2, 3): (696, 72),
    (2, 0, 0, 0): (3, 3), (2, 0, 0, 1): (3, 3), (2, 0, 1, 0): (15, 3),
    (2, 0, 1, 1): (21, 6), (2, 0, 1, 2): (27, 9), (2, 0, 2, 0): (45, 3),
    (2, 0, 2, 1): (81, 6), (2, 0, 2, 2): (127, 10), (2, 0, 2, 3): (183, 15),
    (2, 1, 0, 0): (6, 6), (2, 1, 0, 1): (6, 6), (2, 1, 1, 0): (42, 6),
    (2, 1, 1, 1): (60, 18), (2, 1, 1, 2): (78, 30), (2, 1, 2, 0): (162, 6),
    (2, 1, 2, 1): (300, 18), (2, 1, 2, 2): (478, 40), (2, 1, 2, 3): (696, 72),
    (2, 2, 0, 0): (9, 9), (2, 2, 0, 1): (9, 9), (2, 2, 1, 0): (81, 9),
    (2, 2, 1, 1): (117, 36), (2, 2, 1, 2): (153, 63), (2, 2, 2, 0): (381, 9),
    (2, 2, 2, 1): (717, 36), (2, 2, 2, 2): (1153, 100),
    (2, 2, 2, 3): (1689, 201),
}

NESTINGS = {  # (p, q, r, b, n): left (elements, classes) + right
    (0, 0, 0, 1, 0): (3, 1, 3, 1), (0, 0, 0, 1, 1): (4, 1, 4, 1),
    (0, 0, 1, 1, 0): (6, 2, 8, 2), (0, 0, 1, 1, 1): (12, 3, 11, 3),
    (0, 1, 0, 1, 0): (8, 2, 8, 2), (0, 1, 0, 1, 1): (11, 3, 11, 3),
    (0, 1, 1, 1, 0): (16, 4, 22, 4), (0, 1, 1, 1, 1): (33, 9, 31, 9),
    (1, 0, 0, 1, 0): (8, 2, 6, 2), (1, 0, 0, 1, 1): (11, 3, 12, 3),
    (1, 0, 1, 1, 0): (16, 4, 16, 4), (1, 0, 1, 1, 1): (33, 9, 33, 9),
    (1, 1, 0, 1, 0): (22, 4, 16, 4), (1, 1, 0, 1, 1): (31, 9, 33, 9),
    (1, 1, 1, 1, 0): (44, 8, 44, 8), (1, 1, 1, 1, 1): (93, 27, 93, 27),
    (0, 0, 0, 2, 0): (6, 1, 6, 1), (0, 0, 0, 2, 1): (10, 1, 10, 1),
    (0, 0, 0, 2, 2): (15, 1, 15, 1), (0, 0, 1, 2, 0): (12, 2, 20, 2),
    (0, 0, 1, 2, 1): (30, 3, 35, 3), (0, 0, 1, 2, 2): (60, 4, 54, 4),
    (0, 0, 2, 2, 0): (18, 3, 45, 3), (0, 0, 2, 2, 1): (60, 6, 81, 6),
    (0, 0, 2, 2, 2): (150, 10, 127, 10), (0, 1, 0, 2, 0): (20, 2, 20, 2),
    (0, 1, 0, 2, 1): (35, 3, 35, 3), (0, 1, 0, 2, 2): (54, 4, 54, 4),
    (0, 1, 1, 2, 0): (40, 4, 70, 4), (0, 1, 1, 2, 1): (105, 9, 127, 9),
    (0, 1, 1, 2, 2): (216, 16, 200, 16), (0, 2, 0, 2, 0): (45, 3, 45, 3),
    (0, 2, 0, 2, 1): (81, 6, 81, 6), (0, 2, 0, 2, 2): (127, 10, 127, 10),
    (1, 0, 0, 2, 0): (20, 2, 12, 2), (1, 0, 0, 2, 1): (35, 3, 30, 3),
    (1, 0, 0, 2, 2): (54, 4, 60, 4), (1, 0, 1, 2, 0): (40, 4, 40, 4),
    (1, 0, 1, 2, 1): (105, 9, 105, 9), (1, 0, 1, 2, 2): (216, 16, 216, 16),
    (1, 1, 0, 2, 0): (70, 4, 40, 4), (1, 1, 0, 2, 1): (127, 9, 105, 9),
    (1, 1, 0, 2, 2): (200, 16, 216, 16), (2, 0, 0, 2, 0): (45, 3, 18, 3),
    (2, 0, 0, 2, 1): (81, 6, 60, 6), (2, 0, 0, 2, 2): (127, 10, 150, 10),
}

COLIMIT = {  # (ns, k): (elements, classes)
    ((1, 1), 0): (20, 4), ((1, 1), 1): (31, 9), ((1, 1), 2): (44, 16),
    ((1, 1), 3): (59, 25), ((2, 1), 0): (72, 6), ((2, 1), 1): (132, 18),
    ((2, 1), 2): (214, 40), ((2, 1), 3): (321, 75), ((1, 1, 1), 0): (124, 8),
    ((1, 1, 1), 1): (233, 27), ((1, 1, 1), 2): (384, 64),
}

UNIT = {  # (b, c, c'): (elements, classes)
    (1, 0, 0): (3, 1), (1, 0, 1): (4, 1), (1, 1, 0): (6, 2),
    (1, 1, 1): (12, 3), (2, 0, 0): (6, 1), (2, 0, 1): (10, 1),
    (2, 0, 2): (15, 1), (2, 1, 0): (12, 2), (2, 1, 1): (30, 3),
    (2, 1, 2): (60, 4), (2, 2, 0): (18, 3), (2, 2, 1): (60, 6),
    (2, 2, 2): (150, 10),
}


def counts(result, s=1):
    """(elements, classes) of a coend result (classes, reps, ...), times a
    factor of s elements that no relation moves."""
    classes, reps = result[:2]
    return s * len(reps), s * len(classes)


@pytest.mark.parametrize("key", sorted(LEFT_KAN), ids=str)
def test_left_kan_coend_counts(key):
    n1, n2, b, m = key
    assert counts(_hom_coend(m, (n1, n2), b)) == LEFT_KAN[key]


def nesting_relations(p, q, r, b, n):
    """The elements (d, h, (f, g), k) of the left nesting ∫^{[d]} μ(p, q; d)
    × μ(d, r; n) over d <= b, where μ(p, q; d) is the pairs f : [d] -> [p],
    g : [d] -> [q] and μ(d, r; n) the pairs h : [n] -> [d], k : [n] -> [r],
    and the relation of every generator γ : [a] -> [c], identifying
    (a, h, (f∘γ, g∘γ), k) with (c, γ∘h, (f, g), k)."""
    def mu(d):
        return itertools.product(enumerate_monotone(d, p),
                                 enumerate_monotone(d, q))

    ks = enumerate_monotone(n, r)
    order = [(d, h, fg, k) for d in range(b + 1)
             for h in enumerate_monotone(n, d) for fg in mu(d) for k in ks]
    edges = [((a, h, (f.compose(gamma), g.compose(gamma)), k),
              (c, gamma.compose(h), (f, g), k))
             for gamma in generators(b)
             for a, c in [(gamma.domain_top, gamma.codomain_top)]
             for h in enumerate_monotone(n, a) for f, g in mu(c) for k in ks]
    return order, edges


@pytest.mark.parametrize("key", sorted(NESTINGS), ids=str)
def test_nesting_coend_counts(key):
    p, q, r, b, n = key
    # ∫^d μ(p, q; d) × μ(d, r; n) and ∫^d μ(q, r; d) × μ(p, d; n)
    left = counts(_hom_coend(n, (p, q), b), monotone_count(n, r))
    right = counts(_hom_coend(n, (q, r), b), monotone_count(n, p))
    assert left + right == NESTINGS[key]
    # the left nesting, its relations written out, is the Kan coend of
    # (p, q) at [n] copied over Δ([n], [r])
    order, edges = nesting_relations(p, q, r, b, n)
    least = bfs_least(order, edges)
    s = monotone_count(n, r)
    assert least == [s * i + j for i in _hom_coend(n, (p, q), b)[1]
                     for j in range(s)]


@pytest.mark.parametrize("key", sorted(COLIMIT), ids=str)
def test_product_colimit_coend_counts(key):
    ns, k = key
    assert counts(_colimit_coend(k, product_chains(ns)[1])) == COLIMIT[key]


@pytest.mark.parametrize("key", sorted(UNIT), ids=str)
def test_unit_coend_counts(key):
    b, c, cp = key
    # ∫^d η(d) × μ(d, c; c')
    assert counts(_hom_coend(cp, (), b), monotone_count(cp, c)) == UNIT[key]


# ---------------------------------------------------------------------------
# the failures the unit, μ-associativity and Coyoneda checks report


def joins_nothing(monkeypatch, calls):
    """_descend that joins nothing on the given calls (1 for the first
    coend built; all calls when None), every element its own class, and
    is itself on the rest."""
    real, seen = promonoidal._descend, []

    def patched(x, sizes, *args):
        seen.append(x)
        if calls is None or len(seen) in calls:
            off = promonoidal._offsets(x, sizes)
            n = off[-1]
            return promonoidal._classes(off, sizes, range(n)), list(range(n))
        return real(x, sizes, *args)

    monkeypatch.setattr(promonoidal, "_descend", patched)


UNIT_FAILURES = {  # calls without unions: the witness of unit(2)
    None: (0, 0, (1, "*", (MonotoneMap(0, 1, (0,)), MonotoneMap(0, 0, (0,))))),
    (2,): (0, 1, (1, "*", (MonotoneMap(1, 1, (0, 0)),
                           MonotoneMap(1, 0, (0, 0))))),
    (3,): (0, 2, (1, "*", (MonotoneMap(2, 1, (0, 0, 0)),
                           MonotoneMap(2, 0, (0, 0, 0))))),
}


@pytest.mark.parametrize("calls", list(UNIT_FAILURES), ids=str)
def test_the_unit_check_names_the_first_coend_that_is_not_a_point(
        monkeypatch, calls):
    joins_nothing(monkeypatch, calls)
    cert = delta_mu_unit_check(2)
    assert not cert.ok and cert.detail == "unit map not injective"
    assert cert.witness == UNIT_FAILURES[calls]


COYONEDA_FAILURES = {  # calls without unions: the witness of coyoneda(1),
    # whose coends are built for (c, e) = (0, 0), (0, 1), (1, 0), (1, 1)
    None: (0, 0, (0, (1, MonotoneMap(0, 1, (0,)), (MonotoneMap(1, 0, (0, 0)),)),
                  (0, MonotoneMap(0, 0, (0,)), (MonotoneMap(0, 0, (0,)),)))),
    (2,): (0, 1, (0, (1, MonotoneMap(0, 1, (0,)), (MonotoneMap(1, 1, (0, 0)),)),
                  (0, MonotoneMap(0, 0, (0,)), (MonotoneMap(0, 1, (0,)),)))),
    (4,): (1, 1, (1, (1, MonotoneMap(1, 1, (0, 0)),
                      (MonotoneMap(1, 1, (0, 0)),)),
                  (0, MonotoneMap(1, 0, (0, 0)), (MonotoneMap(0, 1, (0,)),)))),
}


@pytest.mark.parametrize("calls", list(COYONEDA_FAILURES), ids=str)
def test_the_coyoneda_check_names_the_first_pair_that_is_not_a_bijection(
        monkeypatch, calls):
    joins_nothing(monkeypatch, calls)
    cert = coyoneda_check(1)
    assert not cert.ok and cert.detail == "canonical map not injective"
    assert cert.witness == COYONEDA_FAILURES[calls]


@pytest.mark.parametrize("calls,side,n", [
    (None, "left", 0), ((1,), "left", 0), ((2,), "right", 0),
    ((3,), "left", 1), ((4,), "right", 1), ((5,), "left", 2),
    ((6,), "right", 2)], ids=str)
def test_the_associativity_check_names_the_nesting_that_fails(
        monkeypatch, calls, side, n):
    # its coends are built n by n, the left nesting before the right one
    joins_nothing(monkeypatch, calls)
    cert = delta_mu_associativity_check(1, 0, 2, 2)
    assert not cert.ok and cert.witness == (side, n)
    assert cert.detail == f"{side} nesting is not in bijection"


@pytest.mark.parametrize("p,b,joined", [(0, 2, True), (1, 2, True),
                                         (2, 2, True), (1, 3, True),
                                         (1, 2, False)])
def test_equal_entries_build_and_cap_each_coend_once(monkeypatch, p, b,
                                                     joined):
    # with p = q = r the left nesting (p, q) and the right one (q, r) are
    # one Kan coend: it is capped and built once per n, and the certificate
    # is the one the two sides give when each is built (a failure when the
    # engine joins nothing)
    if not joined:
        joins_nothing(monkeypatch, None)
    real_kan, real_cap = promonoidal._kan_failure, promonoidal._within_cap
    expected = next((CheckCertificate(False, witness=(side, n),
                                      detail=f"{side} nesting is not in "
                                             f"bijection")
                     for n in range(b + 1) for side in ("left", "right")
                     if real_kan(n, (p, p), b) is not None),
                    CheckCertificate(True, detail="μ∘(μ×1) ≅ μ∘(1×μ) ≅ "
                                                  "Map([n], [p]×[q]×[r])"))
    built, capped = [], []
    monkeypatch.setattr(promonoidal, "_kan_failure",
                        lambda *a: built.append(a) or real_kan(*a))
    monkeypatch.setattr(promonoidal, "_within_cap",
                        lambda b, cs: capped.append(list(cs)) or real_cap(b, cs))
    cert = delta_mu_associativity_check(p, p, p, b)
    assert (cert.ok, cert.witness, cert.detail) == \
        (expected.ok, expected.witness, expected.detail)
    stop = b + 1 if cert.ok else cert.witness[1] + 1
    assert built == [(n, (p, p), b) for n in range(stop)]
    assert capped == [[(n, (p, p)) for n in range(b + 1)]]
