"""Combinatorics of the simplex category: monotone maps, epi-mono
factorization, signed shuffles, and nondegenerate simplices of products
of standard simplices.

Objects [m] are the linear orders {0, ..., m}; a map is stored as its tuple
of values.  All enumerations are in lexicographic order on value tuples so
that outputs are stable.

The records here (MonotoneMap, PosetPoint, StrictMonotoneIntoProduct,
Shuffle), like chains.AbelianGroupInvariants, doldkan.NormalizationResult
and promonoidal.OperatorMorphism, are named tuples whose ``__new__``
validates its fields.  A record is the tuple of its fields: it equals that
plain tuple and hashes like it, so a dict or set must not mix records and
plain tuples as keys (none in the library does).  ``_make`` and
``_replace`` skip the validation; the library calls neither.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import le
from types import MappingProxyType


class MonotoneMap(namedtuple("MonotoneMap",
                             ("domain_top", "codomain_top", "values"))):
    """A monotone map [m] -> [n], stored by its values: a validated named
    tuple, equal to the tuple (domain_top, codomain_top, values)."""

    __slots__ = ()

    def __new__(cls, domain_top, codomain_top, values):
        if len(values) != domain_top + 1:
            raise ValueError("wrong number of values")
        if any(v < 0 or v > codomain_top for v in values):
            raise ValueError("value out of range")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("values must be nondecreasing")
        return tuple.__new__(cls, (domain_top, codomain_top, values))

    def __call__(self, i):
        return self.values[i]

    def compose(self, other):
        """self ∘ other (other applied first)."""
        if other.codomain_top != self.domain_top:
            raise ValueError("maps not composable")
        return MonotoneMap(other.domain_top, self.codomain_top,
                           tuple(self.values[v] for v in other.values))

    @property
    def is_injective(self):
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    @property
    def is_surjective(self):
        return set(self.values) == set(range(self.codomain_top + 1))


def coface(n, i):
    """δ_i : [n-1] -> [n], the injection missing i."""
    if not 0 <= i <= n:
        raise ValueError("coface index out of range")
    return MonotoneMap(n - 1, n, tuple(v if v < i else v + 1 for v in range(n)))


def codegeneracy(n, i):
    """σ_i : [n+1] -> [n], the surjection hitting i twice."""
    if not 0 <= i <= n:
        raise ValueError("codegeneracy index out of range")
    return MonotoneMap(n + 1, n, tuple(v if v <= i else v - 1 for v in range(n + 2)))


@lru_cache(maxsize=None)
def _enumerate_monotone_cached(m, n):
    # nondecreasing sequences of length m+1 in {0..n} via stars and bars;
    # combinations are lexicographic and ix -> ix - (0, 1, ..., m) keeps
    # that order, so the values come out lexicographic
    return tuple(MonotoneMap(m, n, tuple(x - k for k, x in enumerate(ix)))
                 for ix in combinations(range(m + n + 1), m + 1))


def enumerate_monotone(m, n):
    """All monotone maps [m] -> [n], lexicographic; there are C(m+n+1, m+1)."""
    return list(_enumerate_monotone_cached(m, n))


@lru_cache(maxsize=None)
def monotone_position(m, n):
    """The index of each monotone map [m] -> [n] in enumerate_monotone(m, n),
    keyed by its values (read-only)."""
    return MappingProxyType({f.values: i for i, f in
                             enumerate(_enumerate_monotone_cached(m, n))})


@lru_cache(maxsize=None)
def comp_row(x, a, c, g):
    """Composition by index: comp_row(x, a, c, g)[f] is the index of g ∘ f,
    for f the f-th map [x] -> [a] and g the g-th map [a] -> [c] in
    enumerate_monotone order."""
    pos = monotone_position(x, c)
    gv = _enumerate_monotone_cached(a, c)[g].values
    return tuple(pos[tuple(map(gv.__getitem__, f.values))]
                 for f in _enumerate_monotone_cached(x, a))


@lru_cache(maxsize=None)
def precomp_row(a, c, t, g):
    """Precomposition by index: precomp_row(a, c, t, g)[f] is the index of
    f ∘ g, for g the g-th map [a] -> [c] and f the f-th map [c] -> [t]."""
    pos = monotone_position(a, t)
    gv = _enumerate_monotone_cached(a, c)[g].values
    return tuple(pos[tuple(map(f.values.__getitem__, gv))]
                 for f in _enumerate_monotone_cached(c, t))


@lru_cache(maxsize=None)
def _surjections_cached(m, n):
    return tuple(f for f in _enumerate_monotone_cached(m, n)
                 if f.is_surjective)


def enumerate_surjections(m, n):
    """All monotone surjections [m] ->> [n], lexicographic; filtered once
    per (m, n) and kept."""
    return list(_surjections_cached(m, n))


def epi_mono_factorize(f):
    """Unique factorization f = mono ∘ epi through the image of f."""
    image = sorted(set(f.values))
    k = len(image) - 1
    pos = {v: i for i, v in enumerate(image)}
    epi = MonotoneMap(f.domain_top, k, tuple(pos[v] for v in f.values))
    mono = MonotoneMap(k, f.codomain_top, tuple(image))
    return epi, mono


def factor_into_codegeneracies(f):
    """Indices (j_1, ..., j_r) with f = g_r where g_0 = f and each peel
    removes one duplicated value: f = (...((σ-free part)) ∘ σ_{j_r}) ... ∘ σ_{j_1}.

    Concretely, a monotone surjection [m] ->> [k] is the composite of the
    codegeneracies σ_{j} recorded here, innermost first.
    """
    if not f.is_surjective:
        raise ValueError("map is not surjective")
    word = []
    cur = f
    while cur.domain_top > cur.codomain_top:
        j = next(t for t in range(cur.domain_top)
                 if cur.values[t] == cur.values[t + 1])
        word.append(j)
        cur = MonotoneMap(cur.domain_top - 1, cur.codomain_top,
                          cur.values[:j + 1] + cur.values[j + 2:])
    return word


def factor_into_cofaces(f):
    """Indices with f = δ_{i_1} ∘ ... ∘ δ_{i_r} for a monotone injection;
    outermost first."""
    if not f.is_injective:
        raise ValueError("map is not injective")
    word = []
    cur = f
    while cur.codomain_top > cur.domain_top:
        missing = next(v for v in range(cur.codomain_top + 1)
                       if v not in cur.values)
        word.append(missing)
        cur = MonotoneMap(cur.domain_top, cur.codomain_top - 1,
                          tuple(v if v < missing else v - 1 for v in cur.values))
    return word


# ---------------------------------------------------------------------------
# points and chains in products of simplices


class PosetPoint(namedtuple("PosetPoint", ("factors",))):
    """A point of the product poset ∏_i [n_i]: a named tuple, equal to the
    tuple (factors,)."""

    __slots__ = ()

    def leq(self, other):
        return all(a <= b for a, b in zip(self.factors, other.factors))


class StrictMonotoneIntoProduct(namedtuple("StrictMonotoneIntoProduct",
                                           ("bounds", "points"))):
    """A strictly increasing chain [k] -> ∏_i [n_i] in the product order: a
    validated named tuple, equal to the tuple (bounds, points)."""

    __slots__ = ()

    def __new__(cls, bounds, points):
        for p in points:
            if len(p.factors) != len(bounds):
                raise ValueError("point arity mismatch")
            if any(v < 0 or v > b for v, b in zip(p.factors, bounds)):
                raise ValueError("point out of range")
        for a, b in zip(points, points[1:]):
            if a.factors == b.factors or not a.leq(b):
                raise ValueError("chain is not strictly increasing")
        return tuple.__new__(cls, (bounds, points))

    @property
    def degree(self):
        return len(self.points) - 1


def strict_chains(ns):
    """The strictly increasing chains in ∏_i [n_i] by degree: out[k] lists
    the chains [k] -> ∏_i [n_i], each a tuple of k + 1 coordinate tuples,
    lexicographic on the points, for k <= Σ_i n_i, the last degree with
    any."""
    points = list(product(*(range(n + 1) for n in ns)))
    above = {p: [q for q in points if q != p and all(map(le, p, q))]
             for p in points}
    out = [[(p,) for p in points]]
    for _ in range(sum(ns)):
        out.append([chain + (q,) for chain in out[-1]
                    for q in above[chain[-1]]])
    return out


@lru_cache(maxsize=None)
def strict_chain_count(ns, j):
    """len(strict_chains(ns)[j]) for a tuple ns, listing no chain: a
    monotone map [j] -> ∏_i [n_i] is a surjection [j] ->> [i] followed by a
    strict chain of degree i, so ∏_t monotone_count(j, n_t) =
    Σ_{i <= j} C(j, i)·count(i), and by binomial inversion count(j) =
    Σ_i (-1)^{j-i} C(j, i) ∏_t monotone_count(i, n_t).  Kept per (ns, j);
    0 for j > Σ_i n_i."""
    return prod(monotone_count(j, n) for n in ns) - sum(
        comb(j, i) * strict_chain_count(ns, i) for i in range(j))


# ---------------------------------------------------------------------------
# shuffles


class Shuffle(namedtuple("Shuffle", ("p", "q", "interleaving", "sign"))):
    """A (p,q)-shuffle: a partition of the p+q steps of a maximal chain in
    [p]x[q] into the positions where the first coordinate increases; a
    validated named tuple, equal to the tuple (p, q, interleaving, sign).

    ``interleaving`` is the 1-based set of step indices in {1, ..., p+q}
    where the first coordinate moves, strictly increasing; its complement
    is where the second coordinate moves.  ``sign`` is the parity of the
    associated shuffle permutation; it must be ±1 but is not checked
    against the interleaving.
    """

    __slots__ = ()

    def __new__(cls, p, q, interleaving, sign):
        if len(interleaving) != p:
            raise ValueError("interleaving must have p elements")
        if any(not 1 <= i <= p + q for i in interleaving):
            raise ValueError("interleaving index out of range")
        if any(a >= b for a, b in zip(interleaving, interleaving[1:])):
            raise ValueError("interleaving must be strictly increasing")
        if sign not in (1, -1):
            raise ValueError("sign must be ±1")
        return tuple.__new__(cls, (p, q, interleaving, sign))

    def components(self):
        """The two projections [p+q] -> [p] and [p+q] -> [q] of the chain,
        computed once per shuffle."""
        return _shuffle_components(self.p, self.q, self.interleaving)


@lru_cache(maxsize=None)
def _shuffle_components(p, q, interleaving):
    first = {i - 1 for i in interleaving}
    a = b = 0
    xs, ys = [a], [b]
    for t in range(p + q):
        if t in first:
            a += 1
        else:
            b += 1
        xs.append(a)
        ys.append(b)
    return (MonotoneMap(p + q, p, tuple(xs)), MonotoneMap(p + q, q, tuple(ys)))


def shuffle_sign_by_inversions(p, q, interleaving):
    """Parity of the permutation that sends the chosen p positions to the
    first p letters (in order) and the rest to the last q letters."""
    first = sorted(interleaving)
    rest = [i for i in range(1, p + q + 1) if i not in set(first)]
    label = {}
    for idx, pos in enumerate(first):
        label[pos] = idx
    for idx, pos in enumerate(rest):
        label[pos] = p + idx
    perm = [label[i] for i in range(1, p + q + 1)]
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def shuffles(p, q):
    """All (p,q)-shuffles with signs, lexicographic on the interleaving, as
    a tuple computed once per shape."""
    return tuple(sorted((Shuffle(p, q, comb_,
                                 shuffle_sign_by_inversions(p, q, comb_))
                         for comb_ in combinations(range(1, p + q + 1), p)),
                        key=lambda s: s.interleaving))


def monotone_count(m, n):
    return comb(m + n + 1, m + 1)
