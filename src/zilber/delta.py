"""Combinatorics of the simplex category: monotone maps, epi-mono
factorization, signed shuffles, and nondegenerate simplices of products
of standard simplices.

Objects [m] are the linear orders {0, ..., m}; a map is stored as its tuple
of values.  All enumerations are in lexicographic order on value tuples so
that outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType


@dataclass(frozen=True)
class MonotoneMap:
    """A monotone map [m] -> [n], stored by its values."""

    domain_top: int
    codomain_top: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.domain_top + 1:
            raise ValueError("wrong number of values")
        if any(v < 0 or v > self.codomain_top for v in self.values):
            raise ValueError("value out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")

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


def identity_map(n):
    return MonotoneMap(n, n, tuple(range(n + 1)))


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
    out = []
    for ix in combinations(range(m + n + 1), m + 1):
        # nondecreasing sequences of length m+1 in {0..n} via stars and bars
        vals = tuple(x - k for k, x in enumerate(ix))
        out.append(MonotoneMap(m, n, vals))
    out.sort(key=lambda f: f.values)
    return tuple(out)


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
def comp_table(a, b, c):
    """Composition by index: comp_table(a, b, c)[g][f] is the index of
    g ∘ f, for f the f-th map [a] -> [b] and g the g-th map [b] -> [c] in
    enumerate_monotone order."""
    pos = monotone_position(a, c)
    fs = [f.values for f in _enumerate_monotone_cached(a, b)]
    return tuple(tuple(pos[tuple(g.values[v] for v in fv)] for fv in fs)
                 for g in _enumerate_monotone_cached(b, c))


def generating_maps(b):
    """The cofaces and codegeneracies among [0], ..., [b]; they generate
    every monotone map between these objects."""
    gens = [coface(n, i) for n in range(1, b + 1) for i in range(n + 1)]
    gens += [codegeneracy(n, i) for n in range(b) for i in range(n + 1)]
    return gens


def enumerate_surjections(m, n):
    """All monotone surjections [m] ->> [n]."""
    return [f for f in enumerate_monotone(m, n) if f.is_surjective]


def enumerate_injections(m, n):
    return [f for f in enumerate_monotone(m, n) if f.is_injective]


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


@dataclass(frozen=True)
class PosetPoint:
    """A point of the product poset ∏_i [n_i]."""

    factors: tuple

    def leq(self, other):
        return all(a <= b for a, b in zip(self.factors, other.factors))

    def __lt__(self, other):
        return self.factors < other.factors


@dataclass(frozen=True)
class StrictMonotoneIntoProduct:
    """A strictly increasing chain [k] -> ∏_i [n_i] in the product order."""

    bounds: tuple
    points: tuple

    def __post_init__(self):
        for p in self.points:
            if len(p.factors) != len(self.bounds):
                raise ValueError("point arity mismatch")
            if any(v < 0 or v > b for v, b in zip(p.factors, self.bounds)):
                raise ValueError("point out of range")
        for a, b in zip(self.points, self.points[1:]):
            if a.factors == b.factors or not a.leq(b):
                raise ValueError("chain is not strictly increasing")

    @property
    def degree(self):
        return len(self.points) - 1

    def component(self, i):
        """The i-th coordinate projection as a MonotoneMap [k] -> [n_i]."""
        return MonotoneMap(self.degree, self.bounds[i],
                           tuple(p.factors[i] for p in self.points))


def product_points(ns):
    """All points of ∏_i [n_i], lexicographic."""
    pts = [()]
    for n in ns:
        pts = [p + (v,) for p in pts for v in range(n + 1)]
    return [PosetPoint(p) for p in sorted(pts)]


def product_nondegenerate(ns, k):
    """All strictly monotone chains [k] -> ∏_i [n_i]: the nondegenerate
    k-simplices of the product of standard simplices."""
    ns = tuple(ns)
    pts = product_points(ns)
    out = []

    def extend(chain):
        if len(chain) == k + 1:
            out.append(StrictMonotoneIntoProduct(ns, tuple(chain)))
            return
        last = chain[-1]
        for p in pts:
            if p.factors != last.factors and last.leq(p):
                extend(chain + [p])

    for p in pts:
        extend([p])
    return out


# ---------------------------------------------------------------------------
# shuffles


@dataclass(frozen=True)
class Shuffle:
    """A (p,q)-shuffle: a partition of the p+q steps of a maximal chain in
    [p]x[q] into the positions where the first coordinate increases.

    ``interleaving`` is the 1-based set of step indices in {1, ..., p+q}
    where the first coordinate moves; its complement is where the second
    coordinate moves.  ``sign`` is the parity of the associated shuffle
    permutation.
    """

    p: int
    q: int
    interleaving: tuple
    sign: int

    def __post_init__(self):
        if len(self.interleaving) != self.p:
            raise ValueError("interleaving must have p elements")
        if any(not 1 <= i <= self.p + self.q for i in self.interleaving):
            raise ValueError("interleaving index out of range")
        if self.sign not in (1, -1):
            raise ValueError("sign must be ±1")

    @property
    def first_moves(self):
        """0-based step positions where the first coordinate increases."""
        return tuple(i - 1 for i in self.interleaving)

    def components(self):
        """The two projections [p+q] -> [p] and [p+q] -> [q] of the chain."""
        first = set(self.first_moves)
        a = b = 0
        xs, ys = [a], [b]
        for t in range(self.p + self.q):
            if t in first:
                a += 1
            else:
                b += 1
            xs.append(a)
            ys.append(b)
        return (MonotoneMap(self.p + self.q, self.p, tuple(xs)),
                MonotoneMap(self.p + self.q, self.q, tuple(ys)))

    def to_chain(self):
        sm, sp = self.components()
        pts = tuple(PosetPoint((sm(i), sp(i))) for i in range(self.p + self.q + 1))
        return StrictMonotoneIntoProduct((self.p, self.q), pts)


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


def shuffle_sign_by_products(p, q, interleaving):
    """Cross-check formula: product over (i, j) with i a first-coordinate
    step and j a second-coordinate step of +1 if i < j and -1 if i > j."""
    first = sorted(interleaving)
    rest = [i for i in range(1, p + q + 1) if i not in set(first)]
    sign = 1
    for i in first:
        for j in rest:
            if i > j:
                sign = -sign
    return sign


def shuffles(p, q):
    """All (p,q)-shuffles with signs, lexicographic on the interleaving."""
    out = []
    for comb_ in combinations(range(1, p + q + 1), p):
        sign = shuffle_sign_by_inversions(p, q, comb_)
        out.append(Shuffle(p, q, tuple(comb_), sign))
    out.sort(key=lambda s: s.interleaving)
    return out


def monotone_count(m, n):
    return comb(m + n + 1, m + 1)
