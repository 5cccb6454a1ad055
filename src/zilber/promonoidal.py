"""Coends over the truncated simplex category Δ≤b and the checks built on
them: the unit and μ-associativity of the Eilenberg-Zilber promonoidal
structure on Δᵒᵖ, Coyoneda, the left-Kan-extension dichotomy, colimit
presentations of products of simplices, and a bounded category-of-operators
fragment.

Coends are on integer indices.  The element (d, φ, u) of
∫^{[d]} Δ([x], [d]) × F(d) is off[d] + φ·|F(d)| + u, and a generating
map's relations are index arithmetic.  A map of Δ≤b is the triple (a, c, i)
of a map [a] -> [c] and its index i in enumerate_monotone(a, c), composed
through comp_row.  The unit, μ-associativity, Coyoneda and left-Kan checks
are one left Kan comparison, (k, φ, h) ↦ h ∘ φ.

Every coend is decided by descent to one normal form, for every x.
Stripping the cofaces of φ carries (d, φ, u) to an onto block (j, ε, u'),
one block of |F(d)| elements per step.  The colimit presentations stop
there.  A Kan coend then steps u' = u''∘σ_t, at its first repeated point
t, to (j - 1, σ_t∘ε, u''), so that its roots (j, ε onto, u injective) are
the image factorizations of h ∘ φ (Gabriel-Zisman): distinct classes,
told apart by h ∘ φ.  A step that fails its check is a fault of the
library.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache, partial

from .delta import (PosetPoint, StrictMonotoneIntoProduct, comp_row,
                    enumerate_monotone, monotone_count, monotone_position,
                    precomp_row, strict_chain_count, strict_chains)
from .simplicial import CheckCertificate


# ---------------------------------------------------------------------------
# coends over Δ≤b: a monotone map is its index in enumerate_monotone

# The engine peaks at 8.5-10 bytes per element when the classes are few
# (the canon list, whose entries share their roots' ints; measured on Kan
# coends of 1.4-6.8 M elements): 0.16 GB at the cap.  Each class adds about
# 280 bytes (its tuple and its dict entry), measured on 1 M singletons:
# 0.3 GB at the object cap.  The object cap also bounds two counts of the
# colimit check: its chain points, at 11-31 bytes each (the chains and
# their position dicts, measured on products of 4,128-997,084 points),
# and the maps [d - 1] -> [d] of Δ that its descent lists, at about 350
# bytes each (Δ^11 at level 0: 360 MB peak for 956,384 maps).
COEND_ELEMENT_CAP = 1 << 24
COEND_OBJECT_CAP = 1 << 20


class CoendTooLarge(ValueError):
    """A coend with more elements than COEND_ELEMENT_CAP, or more classes,
    chain points or maps of Δ than COEND_OBJECT_CAP (CLI exit 2)."""


class CoendFault(RuntimeError):
    """A descent step that fails its check, or an element that no step
    reaches: a fault of the library, not of its input (CLI exit 3)."""


def _capped(n, what="elements"):
    """n, a coend's count of elements (or of classes, chain points or maps
    of Δ), if it is within its cap."""
    cap = COEND_ELEMENT_CAP if what == "elements" else COEND_OBJECT_CAP
    if n > cap:
        raise CoendTooLarge(f"a coend of {n} {what} is above the cap of "
                            f"{cap} {what}")
    return n


def _image_factorizations(x, ns, b):
    """The pairs (ε : [x] ->> [j], u), j <= b and u a nondegenerate
    j-simplex of ∏_i Δ^{n_i}, counted: the classes of _hom_coend(x, ns, b),
    and of the colimit at level x for b = Σ_i n_i."""
    return sum(math.comb(x, j) * strict_chain_count(ns, j)
               for j in range(min(x, b, sum(ns)) + 1))


def _compose(g, f):
    """g ∘ f for maps of Δ as triples (a, c, i), f applied first."""
    a, b, i = f
    _, c, j = g
    return (a, c, comp_row(a, b, c, j)[i])


def _identity(n):
    """The identity of [n] as a triple."""
    return (n, n, monotone_position(n, n)[tuple(range(n + 1))])


def _family(d, ts, idxs):
    """The maps [d] -> [t_i] of the given indices, as MonotoneMaps."""
    return tuple(enumerate_monotone(d, t)[i] for i, t in zip(idxs, ts))


@lru_cache(maxsize=None)
def _offsets(x, sizes):
    """off[d] = Σ_{e < d} |Δ([x], [e])|·sizes[e], sizes a tuple; off[-1]
    counts all."""
    return tuple(itertools.accumulate(
        (monotone_count(x, d) * n for d, n in enumerate(sizes)), initial=0))


def _classes(off, sizes, firsts):
    """The elements (d, φ, u) of the indices firsts, each its class's least."""
    out = []
    for i in firsts:
        d = bisect.bisect_right(off, i) - 1
        out.append((d, *divmod(i - off[d], sizes[d])))
    return out


@lru_cache(maxsize=None)
def _hom_sizes(ts, b):
    """|F(d)| for d <= b, F(d) = ∏_i Δ([d], [t_i])."""
    return tuple(math.prod(monotone_count(d, t) for t in ts)
                 for d in range(b + 1))


@lru_cache(maxsize=None)
def _hom_digits(ts, d):
    """F(d) as the digit tuples (f_1, ..., f_n), in mixed-radix order."""
    return tuple(itertools.product(*(range(monotone_count(d, t))
                                     for t in ts)))


@lru_cache(maxsize=None)
def _hom_counts(x, ts, b):
    """The elements and the classes of _hom_coend(x, ts, b)."""
    return (_offsets(x, _hom_sizes(ts, b))[-1],
            _image_factorizations(x, ts, b))


def _within_cap(b, coends):
    """Checks the elements and the classes of every _hom_coend(x, ts, b),
    (x, ts) in coends, against the caps before any is built."""
    for x, ts in coends:
        elements, classes = _hom_counts(x, ts, b)
        _capped(elements)
        _capped(classes, "classes")


@lru_cache(maxsize=None)
def _hom_moved(ts, gen):
    """u ↦ u ∘ γ on F(c) = ∏_i Δ([c], [t_i]) for γ = gen : [a] -> [c], u
    the mixed-radix number of its digits (f_1, ..., f_n)."""
    a, c, g = gen
    out = [0]
    for t in ts:
        radix = monotone_count(a, t)
        out = [v * radix + h for v in out for h in precomp_row(a, c, t, g)]
    return tuple(out)


@lru_cache(maxsize=None)
def _codegeneracies(j):
    """σ_0, ..., σ_{j-1} : [j] -> [j - 1] as triples."""
    return tuple((j, j - 1, monotone_position(j, j - 1)[
        tuple(w - (w > t) for w in range(j + 1))]) for t in range(j))


@lru_cache(maxsize=None)
def _hom_splits(ts, j):
    """index[u] for u in F(j), j >= 1, on an onto block (j, ε) of a Kan
    coend: u whose first repeated point is t is u'' ∘ σ_t, read off
    _hom_moved(ts, σ_t), and index[u] = t·|F(j-1)| + u''; an injective u, a
    root, has index[u] = j·|F(j-1)| + u."""
    sizes = _hom_sizes(ts, j)
    below = sizes[j - 1]
    index = [j * below + u for u in range(sizes[j])]
    for t in reversed(range(j)):  # the first repeated point is written last
        for v, u in enumerate(_hom_moved(ts, _codegeneracies(j)[t])):
            index[u] = t * below + v
    return tuple(index)


def _hom_coend(x, ts, b):
    """∫^{[d] ∈ Δ≤b} Δ([x], [d]) × F(d), F(d) = ∏_i Δ([d], [t_i]), by
    _descend with the splits of _hom_splits: its roots (j, ε, u), ε onto
    and u injective, are the image factorizations of u ∘ ε, so
    (d, φ, u) ↦ u ∘ φ, constant on classes, tells them apart.  Returns the
    classes (d, φ, (f_1, ..., f_n)) and rep."""
    sizes = _hom_sizes(ts, b)
    classes, rep = _descend(x, sizes, partial(_hom_moved, ts), b,
                            partial(_hom_splits, ts))
    return [(d, phi, _hom_digits(ts, d)[u]) for d, phi, u in classes], rep


@lru_cache(maxsize=None)
def _descent_plan(x, b):
    """(roots, steps): the onto blocks (j, ε), ε : [x] ->> [j], j rising,
    and a step for every other block (d, φ) to (d - 1, φ'), φ = δ_i ∘ φ' for
    φ's first missed value i.  steps are (δ_i, φs, φ's) by d rising, so
    each φ' is reached first."""
    roots, steps = [], {}
    for d in range(b + 1):
        for v, phi in monotone_position(x, d).items():
            i = next((i for i in range(d + 1) if i not in v), None)
            if i is None:
                roots.append((d, phi))
                continue
            gamma = tuple(w + (w >= i) for w in range(d))
            phis, prevs = steps.setdefault(
                (d - 1, d, monotone_position(d - 1, d)[gamma]), ([], []))
            phis.append(phi)
            prevs.append(monotone_position(x, d - 1)[
                tuple(w - (w > i) for w in v)])
    return tuple(roots), tuple((gen, *map(tuple, rows))
                               for gen, rows in steps.items())


def _descend(x, sizes, moved, b, splits=None):
    """The classes (d, φ, u) and the least-index representatives rep of
    ∫^{[d] ∈ Δ≤b} Δ([x], [d]) × F(d), |F(d)| = sizes[d], in which a
    generator γ : [a] -> [c] identifies (c, γ∘φ, u) with (a, φ, u·γ),
    u·γ = moved(γ)[u].  Each onto block (j, ε) of _descent_plan, j rising,
    is one map by splits(j) over the canon of its σ_t∘ε blocks, then its
    own indices (every one a root without splits); each coface step,
    checked by comp_row, then copies its block's canon.  The caller's roots
    lie in distinct classes: an invariant of the classes tells them apart.
    A failed step or an unreached element raises CoendFault."""
    roots, steps = _descent_plan(x, b)
    off = _offsets(x, sizes)
    canon = [None] * _capped(off[-1])
    for j, eps in roots:
        lo, n = off[j] + eps * sizes[j], sizes[j]
        if splits is None or j == 0:  # u in F(0) is a point: a root
            canon[lo:lo + n] = range(lo, lo + n)
            continue
        pool, below = [], sizes[j - 1]
        for sigma in _codegeneracies(j):
            at = off[j - 1] + comp_row(x, *sigma)[eps] * below
            pool += canon[at:at + below]
        pool += range(lo, lo + n)
        canon[lo:lo + n] = map(pool.__getitem__, splits(j))
    for gen, phis, prevs in steps:
        a, c, g = gen
        if tuple(map(comp_row(x, a, c, g).__getitem__, prevs)) != phis:
            raise CoendFault(f"a descent step by {gen} at x = {x} does "
                             f"not compose to its blocks")
        moves = moved(gen)
        na, nc = sizes[a], sizes[c]
        for phi, prev in zip(phis, prevs):
            lo, hi = off[a] + prev * na, off[c] + phi * nc
            canon[hi:hi + nc] = map(canon[lo:lo + na].__getitem__, moves)
    # a fibre's least index is its first, and first keeps them ascending;
    # rep overwrites canon a slice at a time: a second list of n, grown
    # from an iterator, left freed heap resident for the coends after it
    first = {}
    for lo in range(0, len(canon), 4096):
        hi = lo + 4096
        canon[lo:hi] = map(first.setdefault, canon[lo:hi], range(lo, hi))
    if None in first:
        raise CoendFault(f"descent leaves element {first[None]} of a coend "
                         f"at x = {x} unreached")
    return _classes(off, sizes, first.values()), canon


def _kan_failure(m, ns, b):
    """Why ∫^{k<=b} Δ([m], [k]) × ∏_i Δ([k], [n_i]) -> ∏_i Δ([m], [n_i]),
    (k, φ, h) ↦ h ∘ φ, is not a bijection: ("not injective", (m, two (k, φ, h)
    of one image)), ("not surjective", (m, a missed h)), or None."""
    classes, _ = _hom_coend(m, ns, b)
    images, block = {}, None
    for k, phi, hs in classes:
        if (k, phi) != block:  # classes come block by block
            block = k, phi
            rows = [precomp_row(m, k, n, phi) for n in ns]
        img = tuple(map(operator.getitem, rows, hs))
        if img in images:
            pair = [(k2, enumerate_monotone(m, k2)[phi2],
                     _family(k2, ns, hs2))
                    for k2, phi2, hs2 in ((k, phi, hs), images[img])]
            return "not injective", (m, *pair)
        images[img] = (k, phi, hs)
    ranges = [range(monotone_count(m, n)) for n in ns]
    if len(images) < math.prod(map(len, ranges)):
        missing = next(t for t in itertools.product(*ranges)
                       if t not in images)
        return "not surjective", (m, _family(m, ns, missing))
    return None


def _nonnegative(name, values):
    """values as a list; empty or negative ones leave nothing to certify."""
    values = list(values)
    if not values or min(values) < 0:
        raise ValueError(f"{name} must be nonempty and nonnegative, "
                         f"got {values}")
    return values


def delta_mu_unit_check(b):
    """For the Δᵒᵖ data: μ(η, c; c') ≅ Hom(c, c') via the canonical map
    that forgets the unit coordinate, for all c, c' <= b.

    The coend ∫^d η(d) × μ(d, c; c') has elements (d, *, (f, g)) with
    f : [c'] -> [d] and g : [c'] -> [c], and the map sends them to g.  No
    relation moves g, so this holds for every c iff the Kan comparison with
    no factors holds at [c']; a failure is first met, and named, at c = 0."""
    _nonnegative("b", [b])
    _within_cap(b, [(cp, ()) for cp in range(b + 1)])
    for cp in range(b + 1):
        failure = _kan_failure(cp, (), b)
        if failure is None:
            continue
        reason, witness = failure
        if reason == "not injective":
            d, f, _ = witness[1]
            witness = (0, cp, (d, "*", (f, enumerate_monotone(cp, 0)[0])))
        else:
            witness = (0, cp)
        return CheckCertificate(False, witness=witness,
                                detail=f"unit map {reason}")
    return CheckCertificate(True, detail="μ(η, c; c') ≅ Hom(c, c')")


def delta_mu_associativity_check(p, q, r, b):
    """Three-way bijection for the Δᵒᵖ data: both nestings of the ternary μ
    on ([p],[q],[r]) biject with monotone maps [n] -> [p]×[q]×[r], for every
    output [n] with n <= b.  The left nesting ∫^d μ(p, q; d) × μ(d, r; n) is
    the Kan comparison for (p, q) at [n] times Δ([n], [r]), which no relation
    moves; the right one, ∫^d μ(q, r; d) × μ(p, d; n), is (q, r)'s.  When
    p = q = r the two are one coend, built once."""
    _nonnegative("b", [b])
    _nonnegative("entries", [p, q, r])
    sides = [("left", (p, q))]
    if (q, r) != (p, q):
        sides.append(("right", (q, r)))
    _within_cap(b, [(n, ns) for n in range(b + 1) for _, ns in sides])
    for n in range(b + 1):
        for side, ns in sides:
            if _kan_failure(n, ns, b) is not None:
                return CheckCertificate(
                    False, witness=(side, n),
                    detail=f"{side} nesting is not in bijection")
    return CheckCertificate(True,
                            detail="μ∘(μ×1) ≅ μ∘(1×μ) ≅ Map([n], [p]×[q]×[r])")


def coyoneda_check(b):
    """Coyoneda for the hom functor of Δ≤b: ∫^{[d]} Δ([c], [d]) × Δ([d], [e])
    -> Δ([c], [e]), (d, φ, g) ↦ g ∘ φ, is a bijection for all c, e <= b.
    This is the Kan comparison for the one factor [e] at [c]; a failure's
    witness is (c, e, _kan_failure's witness)."""
    _nonnegative("b", [b])
    pairs = [(c, e) for c in range(b + 1) for e in range(b + 1)]
    _within_cap(b, [(c, (e,)) for c, e in pairs])
    for c, e in pairs:
        failure = _kan_failure(c, (e,), b)
        if failure is not None:
            reason, witness = failure
            return CheckCertificate(False, witness=(c, e, witness),
                                    detail=f"canonical map {reason}")
    return CheckCertificate(True, detail="P ∘ Hom ≅ P")


# ---------------------------------------------------------------------------
# left Kan extensions


def left_kan_check(ns, b, m_range):
    """For each m, compares the left Kan extension (along the inclusion of
    the simplex subcategory on [k], k <= b) of the restricted functor
    H = ∏_i Hom_Δ(−, [n_i]) against H([m]) itself.

    The Kan extension at [m] is the colimit, over the comma category of
    pairs (k <= b, monotone φ : [m] -> [k]), of H([k]); the canonical map
    sends (k, φ, h) to h ∘ φ.  Passes iff the map is a bijection for every
    m in m_range; the expected dichotomy is pass iff Σ n_i <= b."""
    ns = tuple(_nonnegative("ns", ns))
    _nonnegative("b", [b])
    ms = _nonnegative("m", m_range)
    _within_cap(b, [(m, ns) for m in ms])
    for m in ms:
        failure = _kan_failure(m, ns, b)
        if failure is not None:
            reason, witness = failure
            return CheckCertificate(False, witness=witness,
                                    detail=f"canonical map {reason} at m={m}")
    return CheckCertificate(True,
                            detail="Kan extension agrees on the given range")


# ---------------------------------------------------------------------------
# products of simplices as colimits


def _positions(chains):
    """index[d][chain], the position of each chain in chains[d]."""
    return [{chain: s for s, chain in enumerate(cs)} for cs in chains]


@lru_cache(maxsize=None)
def _getter(positions):
    """v ↦ tuple(v[p] for p in positions), by one itemgetter."""
    if len(positions) == 1:
        p, = positions
        return lambda v: (v[p],)
    return operator.itemgetter(*positions)


def _colimit_coend(k, chains):
    """The set colimit of the k-simplices of Δ^σ over the simplices σ in
    chains[d] (tuples of points), a coend over the injections of Δ, which
    the cofaces generate: δ_i identifies (σ, δ_i∘β) with (σ∘δ_i, β).  By
    descent, β's first missed value steps (d, β, σ) down to a root, a β
    that is onto; the roots are distinct classes, as (d, β, σ) ↦
    (σ∘mono β, epi β) is constant on classes and sends (d, β onto, σ) to
    (σ, β).  Returns the classes (d, β, σ), σ indexing chains[d], and
    rep."""
    index = _positions(chains)

    def moved(gen):
        a, c, g = gen
        face = _getter(enumerate_monotone(a, c)[g].values)
        return list(map(index[a].__getitem__, map(face, chains[c])))

    return _descend(k, tuple(map(len, chains)), moved, len(chains) - 1)


def _points(chain):
    return tuple(map(PosetPoint, chain))


def _chain_points(ns):
    """The points of the chains of ∏_i Δ^{n_i}, from strict_chain_count: a
    chain of degree d has d + 1."""
    return sum((d + 1) * strict_chain_count(ns, d)
               for d in range(sum(ns) + 1))


def _colimit_within_cap(ns, ks):
    """Checks the colimit of product_simplices_colimit_check against the
    caps before any chain is listed: the points of its chains, the maps
    [d - 1] -> [d] of Δ that its descent lists for d <= Σ = Σ_i n_i, and
    per level k its elements and classes, all from closed forms.  There are
    C(2Σ, Σ) >= 2^Σ maps [Σ - 1] -> [Σ], so a Σ of as many bits as the cap
    is refused first, and then no count is large."""
    top = sum(ns)
    if top >= COEND_OBJECT_CAP.bit_length():
        raise CoendTooLarge(f"a coend of at least 2^{top} maps of Δ is above "
                            f"the cap of {COEND_OBJECT_CAP} maps of Δ")
    _capped(_chain_points(ns), "chain points")
    _capped(sum(monotone_count(d - 1, d) for d in range(1, top + 1)),
            "maps of Δ")
    sizes = tuple(strict_chain_count(ns, d) for d in range(top + 1))
    for k in ks:
        _capped(_offsets(k, sizes)[-1])
        _capped(_image_factorizations(k, ns, top), "classes")


def product_simplices_colimit_check(ns, k_range):
    """Certifies, for each level k, that the set colimit of the simplices
    Δ^σ over the nondegenerate simplices σ of ∏_i Δ^{n_i} maps bijectively
    onto the monotone maps [k] -> ∏_i [n_i], and that the image
    factorization of each such map is an initial object of its comma
    category of presentations.  Points are coordinate tuples, rebuilt as
    PosetPoints for witnesses; each map is read by an itemgetter."""
    ns = tuple(_nonnegative("ns", ns))
    ks = _nonnegative("k", k_range)
    _colimit_within_cap(ns, ks)
    chains = strict_chains(ns)
    sizes = tuple(map(len, chains))
    index = _positions(chains)
    # the chains that repeat a point, by degree, found once for every level
    repeats = [[s for s, chain in enumerate(cs)
                if len(set(chain)) < len(chain)] for cs in chains]
    for k in ks:
        classes, rep = _colimit_coend(k, chains)
        gets = [list(map(_getter, monotone_position(k, d)))
                for d in range(len(chains))]
        off = _offsets(k, sizes)

        def presentation(d, a, s):
            return (StrictMonotoneIntoProduct(ns, _points(chains[d][s])),
                    enumerate_monotone(k, d)[a])

        taus, images = {}, set()  # a class's first index -> its image τ
        for d, a, s in classes:
            tau = gets[d][a](chains[d][s])
            if tau in images:
                return CheckCertificate(
                    False, witness=(k, presentation(d, a, s)),
                    detail=f"colimit map not injective at level {k}")
            images.add(tau)
            taus[off[d] + a * sizes[d] + s] = tau
        # a map into the product poset is monotone iff its components are
        allmaps = [tuple(zip(*fam)) for fam in itertools.product(
            *(monotone_position(k, n) for n in ns))]
        if images != set(allmaps):
            stray = images.difference(allmaps)
            if stray:
                tau = next(t for t in taus.values() if t in stray)
                return CheckCertificate(False, witness=(k, _points(tau)),
                                        detail=f"colimit map image is not "
                                               f"monotone at level {k}")
            missing = next(t for t in allmaps if t not in images)
            return CheckCertificate(False, witness=(k, _points(missing)),
                                    detail=f"colimit map not surjective at "
                                           f"level {k}")
        # cofinality: the image factorization τ = σ_im ∘ ε is initial among
        # the presentations τ = σ ∘ α, the elements (d, α, σ) of τ's class,
        # once σ ∘ α = τ on each and σ is injective: σ_im's points are τ's,
        # so ι, their positions in σ, is the one injection with
        # σ ∘ ι = σ_im, and σ ∘ ι ∘ ε = τ = σ ∘ α gives ι ∘ ε = α
        unfactored = {}  # a class -> its first presentation on a repeat
        for d, cs in enumerate(chains):
            for a, get in enumerate(gets[d]):
                lo = off[d] + a * sizes[d]
                reps = rep[lo:lo + sizes[d]]
                if list(map(get, cs)) != list(map(taus.__getitem__, reps)):
                    s = next(s for s, (sigma, r) in enumerate(zip(cs, reps))
                             if get(sigma) != taus[r])
                    return CheckCertificate(
                        False, witness=(k, presentation(d, a, s)),
                        detail=f"colimit map not well defined at level {k}")
                for s in repeats[d]:
                    unfactored.setdefault(reps[s], (d, a, s))
        for r, tau in taus.items():
            image_chain = tuple(dict.fromkeys(tau))
            if image_chain not in index[len(image_chain) - 1]:
                return CheckCertificate(False, witness=(k, _points(tau)),
                                        detail="image chain is not a "
                                               "nondegenerate simplex")
            if r in unfactored:  # σ repeats a point: a witness of points
                d, a, s = unfactored[r]
                return CheckCertificate(
                    False, witness=(k, _points(tau),
                                    (_points(chains[d][s]),
                                     enumerate_monotone(k, d)[a])),
                    detail="image factorization is not initial")
    return CheckCertificate(True,
                            detail="products of simplices are colimits of "
                                   "their nondegenerate simplices")


# ---------------------------------------------------------------------------
# category-of-operators fragment


class MulticategoryModel:
    """A concrete symmetric multicategory: finite object set, a sampler
    draw(cs, c', rng) of a random element of mul(cs, c'), None when that
    set is empty, unary identities, substitution, and the symmetric-group
    action permute(y, idxs) reindexing the inputs of y so that new input t
    is old input idxs[t]."""

    def __init__(self, objects, draw, ident, subst, permute):
        self.objects = list(objects)
        self.draw = draw
        self.ident = ident
        self.subst = subst
        self.permute = permute


def delta_op_multicategory(b):
    """Objects [0..b]; mul({[n_i]}; [m]) = monotone [m] -> ∏[n_i], drawn
    componentwise by index; substitution composes componentwise."""

    def draw(cs, m, rng):
        return tuple((m, n, rng.randrange(monotone_count(m, n))) for n in cs)

    def ident(c):
        return (_identity(c),)

    def subst(y, xs):
        out = []
        for g, x in zip(y, xs):
            out.extend(_compose(h, g) for h in x)
        return tuple(out)

    def permute(y, idxs):
        return tuple(y[i] for i in idxs)

    return MulticategoryModel(list(range(b + 1)), draw, ident, subst, permute)


class OperatorMorphism(namedtuple("OperatorMorphism",
                                  ("source", "target", "alpha", "mults"))):
    """A morphism (c_1..c_n) -> (d_1..d_m): a pointed map α (alpha[i] is the
    image of i+1 in {0..m}, 0 the basepoint) and one multimorphism per
    fiber, all tuples; a named tuple, equal to the tuple (source, target,
    alpha, mults)."""

    __slots__ = ()


class OperatorCategoryFragment:
    """The category of operators of a concrete multicategory, restricted to
    sequences of length <= N: morphisms are pointed maps of index sets with
    a multimorphism for every fiber; composition substitutes fiberwise and
    composes the pointed maps.  Objects and morphisms are drawn at random,
    never listed: their numbers grow exponentially in N."""

    def __init__(self, model, N):
        self.model = model
        self.N = N

    def fiber(self, alpha, j):
        return [i for i, a in enumerate(alpha) if a == j]

    def draw_object(self, rng):
        """A sequence of uniform length <= N with uniform entries."""
        return tuple(rng.choice(self.model.objects)
                     for _ in range(rng.randint(0, self.N)))

    def draw(self, source, target, rng):
        """A random morphism source -> target: a uniform pointed map α, then
        a multimorphism drawn on each fiber; None if some fiber has none."""
        alpha = tuple(rng.randrange(len(target) + 1) for _ in source)
        mults = []
        for j, d in enumerate(target, 1):
            x = self.model.draw([source[i] for i in self.fiber(alpha, j)], d,
                                rng)
            if x is None:
                return None
            mults.append(x)
        return OperatorMorphism(source, target, alpha, tuple(mults))

    def identity(self, obj):
        alpha = tuple(range(1, len(obj) + 1))
        mults = tuple(self.model.ident(c) for c in obj)
        return OperatorMorphism(obj, obj, alpha, mults)

    def compose(self, second, first):
        """second ∘ first."""
        if first.target != second.source:
            raise ValueError("not composable")
        n = len(first.source)
        alpha = tuple(0 if first.alpha[i] == 0
                      else second.alpha[first.alpha[i] - 1]
                      for i in range(n))
        mults = []
        for k in range(1, len(second.target) + 1):
            js = self.fiber(second.alpha, k)
            xs = [first.mults[j] for j in js]
            grouped = self.model.subst(second.mults[k - 1], xs)
            # substitution lists inputs fiber-by-fiber; reindex to ascending
            # input order, which is how the composite's fiber is read off
            order = [i for j in js for i in self.fiber(first.alpha, j + 1)]
            idxs = [order.index(i) for i in sorted(order)]
            mults.append(self.model.permute(grouped, idxs))
        return OperatorMorphism(first.source, second.target, alpha,
                                tuple(mults))
