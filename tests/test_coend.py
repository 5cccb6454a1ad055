"""The coend engine against a breadth-first search over the relation
graph, and the element and class counts of every coend that the coend
benchmark family builds.

The counts below were recorded from the dictionary union-find over
MonotoneMap keys that the index-based engine replaced; class
representatives may differ between the two, the counts may not."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber.delta import monotone_count, product_nondegenerate
from zilber.promonoidal import (NaryMu, _colimit_coend, _hom_coend, coend,
                                delta_op_promonoidal, poset_category)


# ---------------------------------------------------------------------------
# the engine on random presentations


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
    P = poset_category(objects, lambda a, b: a == b or (a, b) in below)
    gens = draw(st.lists(st.sampled_from(P.morphisms), max_size=8))
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
    return coend(objects, elements.__getitem__, range(len(relations)),
                 lambda h: [u for u, _ in relations[h]],
                 lambda h: [v for _, v in relations[h]])


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_coend_partition_matches_breadth_first_search(case):
    objects, elements, relations = case
    classes, reps = run_coend(objects, elements, relations)
    order = [x for d in objects for x in elements[d]]
    assert list(reps) == order
    # each class is represented by its element of smallest index
    least = bfs_least(order, [e for r in relations for e in r])
    assert [reps[x] for x in order] == [order[i] for i in least]
    assert classes == [x for i, x in enumerate(order) if least[i] == i]


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


def counts(result):
    """(elements, classes) of a coend result (classes, reps, ...)."""
    classes, reps = result[:2]
    return len(reps), len(classes)


@pytest.mark.parametrize("key", sorted(LEFT_KAN), ids=str)
def test_left_kan_coend_counts(key):
    n1, n2, b, m = key
    assert counts(_hom_coend(m, (n1, n2), b)) == LEFT_KAN[key]


@pytest.mark.parametrize("key", sorted(NESTINGS), ids=str)
def test_nesting_coend_counts(key):
    p, q, r, b, n = key
    left = _hom_coend(n, (p, q), b, monotone_count(n, r))
    right = _hom_coend(n, (q, r), b, monotone_count(n, p))
    assert counts(left) + counts(right) == NESTINGS[key]
    # the generic token path builds the same left nesting
    nary = NaryMu(delta_op_promonoidal(b)).space((p, q, r), n)
    assert len(nary) == NESTINGS[key][1]


@pytest.mark.parametrize("key", sorted(COLIMIT), ids=str)
def test_product_colimit_coend_counts(key):
    ns, k = key
    nondeg = {d: product_nondegenerate(ns, d) for d in range(sum(ns) + 1)}
    assert counts(_colimit_coend(k, nondeg)) == COLIMIT[key]


@pytest.mark.parametrize("key", sorted(UNIT), ids=str)
def test_unit_coend_counts(key):
    b, c, cp = key
    assert counts(_hom_coend(cp, (), b, monotone_count(cp, c))) == UNIT[key]
