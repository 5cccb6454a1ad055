"""Finite-category profunctor calculus: coends, profunctor composition,
n-ary promonoidal multimorphism spaces, multimorphism spaces for the
simplex category and its ℕ-semidirect variant, the left-Kan-extension
dichotomy, colimit presentations of products of simplices, and a bounded
category-of-operators fragment.

Every coend goes through ``coend``, an array union-find over elements
interned to integers.  The checks over the truncated simplex category Δ≤b
hand it integer tuples: a monotone map is its index in enumerate_monotone,
composites come from delta.comp_table, and MonotoneMaps are rebuilt only
for a failing certificate's witness.
"""

from __future__ import annotations

import itertools

from .delta import (PosetPoint, coface, comp_table, enumerate_injections,
                    enumerate_monotone, generating_maps, identity_map,
                    monotone_count, monotone_position, product_nondegenerate)
from .simplicial import CheckCertificate


# ---------------------------------------------------------------------------
# the coend engine


def coend(objects, elements, generators, push, pull):
    """Classes of ⊔_d elements(d), d in ``objects``, under the relations of
    ``generators``: push(h) and pull(h) are equally long sequences and h
    identifies push(h)[i] with pull(h)[i].  Elements are hashable tokens,
    distinct across objects, interned to indices in enumeration order.

    Returns the class representatives, each the element of smallest index
    in its class, and a dict sending every element to its representative;
    both are in index order and independent of the order of relations."""
    index = {}
    for d in objects:
        for x in elements(d):
            index.setdefault(x, len(index))
    parent = list(range(len(index)))
    size = [1] * len(index)

    def find(a):
        while parent[a] != a:
            # path halving: point a at its grandparent and move there
            parent[a] = a = parent[parent[a]]
        return a

    at = index.__getitem__
    for h in generators:
        for u, v in zip(map(at, push(h)), map(at, pull(h))):
            a, b = find(u), find(v)
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
    least = {}
    reps = {x: least.setdefault(find(i), x) for x, i in index.items()}
    return list(least.values()), reps


# ---------------------------------------------------------------------------
# finite categories


class FiniteCategory:
    """A finite category: hashable object and morphism tokens, source and
    target maps, identities, and a full composition table (validated for
    unit and associativity laws)."""

    def __init__(self, objects, morphisms, src, tgt, ident, comp, check=True,
                 gens=None):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.comp = dict(comp)
        self.gens = list(gens) if gens is not None else None
        if check:
            self._validate()

    def compose(self, g, f):
        """g ∘ f (f first)."""
        return self.comp[(g, f)]

    def hom(self, c, d):
        return [f for f in self.morphisms
                if self.src[f] == c and self.tgt[f] == d]

    def generating_morphisms(self):
        """A set of morphisms generating all of them under composition.
        Coend relations indexed by a generating set generate all coend
        relations (the relation for g∘f follows from those for f and g by a
        zigzag), so relation loops may be restricted to this set."""
        return self.gens if self.gens is not None else self.morphisms

    def _validate(self):
        for c in self.objects:
            e = self.ident[c]
            if self.src[e] != c or self.tgt[e] != c:
                raise ValueError("identity has wrong endpoints")
        for f in self.morphisms:
            if self.src[f] not in self.objects or self.tgt[f] not in self.objects:
                raise ValueError("morphism endpoints outside object set")
            if self.comp[(self.ident[self.tgt[f]], f)] != f or \
                    self.comp[(f, self.ident[self.src[f]])] != f:
                raise ValueError("unit law fails")
        composable = [(g, f) for g in self.morphisms for f in self.morphisms
                      if self.src[g] == self.tgt[f]]
        for g, f in composable:
            h = self.comp[(g, f)]
            if self.src[h] != self.src[f] or self.tgt[h] != self.tgt[g]:
                raise ValueError("composite has wrong endpoints")
        for h in self.morphisms:
            for g in self.morphisms:
                if self.src[h] != self.tgt[g]:
                    continue
                hg = self.comp[(h, g)]
                for f in self.morphisms:
                    if self.src[g] != self.tgt[f]:
                        continue
                    if self.comp[(hg, f)] != self.comp[(h, self.comp[(g, f)])]:
                        raise ValueError("associativity fails")

    def to_payload(self):
        oid = {c: f"o{i}" for i, c in enumerate(self.objects)}
        mid = {f: f"m{i}" for i, f in enumerate(self.morphisms)}
        return {
            "format": "cat",
            "version": 1,
            "objects": [str(c) for c in self.objects],
            "morphisms": [{"id": mid[f], "label": str(f),
                           "src": oid[self.src[f]], "tgt": oid[self.tgt[f]]}
                          for f in self.morphisms],
            "identity": {oid[c]: mid[self.ident[c]] for c in self.objects},
            "composition": {f"{mid[g]}|{mid[f]}": mid[h]
                            for (g, f), h in self.comp.items()},
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != "cat":
            raise ValueError("not a cat payload")
        objects = [f"o{i}" for i in range(len(payload["objects"]))]
        morphisms = [m["id"] for m in payload["morphisms"]]
        src = {m["id"]: m["src"] for m in payload["morphisms"]}
        tgt = {m["id"]: m["tgt"] for m in payload["morphisms"]}
        ident = dict(payload["identity"])
        comp = {}
        for key, h in payload["composition"].items():
            g, f = key.split("|")
            comp[(g, f)] = h
        return cls(objects, morphisms, src, tgt, ident, comp)


def discrete_category(objects):
    ident = {c: ("id", c) for c in objects}
    morphisms = list(ident.values())
    src = {f: f[1] for f in morphisms}
    tgt = dict(src)
    comp = {(f, f): f for f in morphisms}
    return FiniteCategory(objects, morphisms, src, tgt, ident, comp)


def poset_category(elements, leq):
    """The category of a finite poset: one morphism (a, b) whenever
    leq(a, b)."""
    morphisms = [(a, b) for a in elements for b in elements if leq(a, b)]
    src = {f: f[0] for f in morphisms}
    tgt = {f: f[1] for f in morphisms}
    ident = {a: (a, a) for a in elements}
    comp = {((b, c), (a, b2)): (a, c)
            for (a, b2) in morphisms for (b, c) in morphisms if b2 == b}
    covers = [(a, b) for (a, b) in morphisms if a != b
              and not any(c != a and c != b and leq(a, c) and leq(c, b)
                          for c in elements)]
    return FiniteCategory(list(elements), morphisms, src, tgt, ident, comp,
                          gens=covers)


def delta_leq(b, check=True):
    """The full subcategory of the simplex category on [0], ..., [b];
    objects are the integers n for [n], morphisms are MonotoneMaps."""
    objects = list(range(b + 1))
    morphisms = [f for p in objects for q in objects
                 for f in enumerate_monotone(p, q)]
    src = {f: f.domain_top for f in morphisms}
    tgt = {f: f.codomain_top for f in morphisms}
    ident = {n: identity_map(n) for n in objects}
    comp = {(g, f): g.compose(f) for g in morphisms for f in morphisms
            if f.codomain_top == g.domain_top}
    return FiniteCategory(objects, morphisms, src, tgt, ident, comp,
                          check=check, gens=generating_maps(b))


def opposite(C, check=False):
    """The opposite category on the same tokens (already validated via C)."""
    src = {f: C.tgt[f] for f in C.morphisms}
    tgt = {f: C.src[f] for f in C.morphisms}
    comp = {(g, f): h for (f, g), h in C.comp.items()}
    return FiniteCategory(C.objects, C.morphisms, src, tgt, C.ident, comp,
                          check=check, gens=C.gens)


# ---------------------------------------------------------------------------
# profunctors and coends


class SetProfunctor:
    """P : C^op × D -> Set with finite value sets.

    values : dict (c, d) -> sequence of hashable elements.
    action(f, x, g) : for f : c' -> c in C, x in P(c, d), g : d -> d' in D,
    the image element in P(c', d')."""

    def __init__(self, C, D, values, action, check=True):
        self.C = C
        self.D = D
        self.values = {k: list(v) for k, v in values.items()}
        self.action = action
        if check:
            self._validate()

    def value(self, c, d):
        return self.values.get((c, d), [])

    def _validate(self):
        C, D = self.C, self.D
        for c in C.objects:
            for d in D.objects:
                for x in self.value(c, d):
                    if self.action(C.ident[c], x, D.ident[d]) != x:
                        raise ValueError("identity action is not trivial")
        for f in C.morphisms:
            for g in D.morphisms:
                c, d = C.tgt[f], D.src[g]
                for x in self.value(c, d):
                    y = self.action(f, x, g)
                    if y not in self.value(C.src[f], D.tgt[g]):
                        raise ValueError("action leaves the value set")
                    two_step = self.action(f, self.action(C.ident[c], x, g),
                                           D.ident[D.tgt[g]])
                    if two_step != y:
                        raise ValueError("actions do not commute")
        for f2 in C.morphisms:
            for f1 in C.morphisms:
                if C.src[f1] != C.tgt[f2]:
                    continue
                c = C.tgt[f1]
                for d in D.objects:
                    for x in self.value(c, d):
                        lhs = self.action(C.comp[(f1, f2)], x, D.ident[d])
                        rhs = self.action(f2, self.action(f1, x, D.ident[d]),
                                          D.ident[d])
                        if lhs != rhs:
                            raise ValueError("contravariant action not functorial")
        for g2 in D.morphisms:
            for g1 in D.morphisms:
                if D.src[g2] != D.tgt[g1]:
                    continue
                d = D.src[g1]
                for c in C.objects:
                    for x in self.value(c, d):
                        lhs = self.action(C.ident[c], x, D.comp[(g2, g1)])
                        rhs = self.action(C.ident[c],
                                          self.action(C.ident[c], x, g1), g2)
                        if lhs != rhs:
                            raise ValueError("covariant action not functorial")


def hom_profunctor(C):
    values = {(c, d): C.hom(c, d) for c in C.objects for d in C.objects}

    def action(f, x, g):
        return C.comp[(C.comp[(g, x)], f)]

    return SetProfunctor(C, C, values, action, check=False)


class CoendSet:
    """∫^c P(c, c): canonical class representatives with a section."""

    def __init__(self, classes, reps):
        self.classes = classes
        self._reps = reps

    def rep(self, c, x):
        return self._reps[(c, x)]

    def __len__(self):
        return len(self.classes)


def coend_set(P):
    """Coend of P : C^op × C -> Set over the elements (c, x) of
    ⊔_c P(c, c); the relation of f : c -> d identifies (c, x·f) with
    (d, f·x) for x in P(d, c)."""
    C = P.C

    def push(f):
        c, d = C.src[f], C.tgt[f]
        return [(c, P.action(f, x, C.ident[c])) for x in P.value(d, c)]

    def pull(f):
        c, d = C.src[f], C.tgt[f]
        return [(d, P.action(C.ident[d], x, f)) for x in P.value(d, c)]

    return CoendSet(*coend(C.objects,
                           lambda c: [(c, x) for x in P.value(c, c)],
                           C.generating_morphisms(), push, pull))


def _composite_coend(D, left, right, push, pull):
    """∫^d left(d) × right(d) over D, with elements (d, x, y): for
    f : d1 -> d2, x in left(d1) and y in right(d2), the relation of f
    identifies (d2, push(x, f), y) with (d1, x, pull(f, y))."""

    def pushed(f):
        d1, d2 = D.src[f], D.tgt[f]
        xs = [push(x, f) for x in left(d1)]
        return [(d2, x, y) for x in xs for y in right(d2)]

    def pulled(f):
        d1, d2 = D.src[f], D.tgt[f]
        ys = [pull(f, y) for y in right(d2)]
        return [(d1, x, y) for x in left(d1) for y in ys]

    return coend(D.objects,
                 lambda d: [(d, x, y) for x in left(d) for y in right(d)],
                 D.generating_morphisms(), pushed, pulled)


def compose_profunctors(P, Q, check=False):
    """P : C ↛ D composed with Q : D ↛ E; the value at (c, e) is
    ∫^d P(c, d) × Q(d, e), with elements stored as (d, x, y) class
    representatives."""
    C, D, E = P.C, P.D, Q.D
    coends = {}
    for c in C.objects:
        for e in E.objects:
            coends[(c, e)] = _composite_coend(
                D, lambda d: P.value(c, d), lambda d: Q.value(d, e),
                lambda x, f: P.action(C.ident[c], x, f),
                lambda f, y: Q.action(f, y, E.ident[e]))

    def action(f, elem, g):
        d, x, y = elem
        moved = (d, P.action(f, x, D.ident[d]), Q.action(D.ident[d], y, g))
        return coends[(C.src[f], E.tgt[g])][1][moved]

    return SetProfunctor(C, E, {k: cls for k, (cls, _) in coends.items()},
                         action, check=check)


def coyoneda_check(P):
    """Certifies P ∘ Hom_D ≅ P via the canonical map (d, x, g) -> x · g."""
    R = compose_profunctors(P, hom_profunctor(P.D))
    for c in P.C.objects:
        for e in P.D.objects:
            seen = {}
            for elem in R.value(c, e):
                d, x, g = elem
                img = P.action(P.C.ident[c], x, g)
                if img in seen:
                    return CheckCertificate(False, witness=(c, e, elem),
                                            detail="canonical map not injective")
                seen[img] = elem
            if set(seen) != set(P.value(c, e)):
                return CheckCertificate(False, witness=(c, e),
                                        detail="canonical map not surjective")
    return CheckCertificate(True, detail="P ∘ Hom ≅ P")


# ---------------------------------------------------------------------------
# promonoidal data and n-ary multimorphisms


class PromonoidalData:
    """A symmetric promonoidal structure on a finite base category, given by
    callables:

    mu_value(c1, c2, c') : the set μ(c1, c2; c');
    mu_act(f1, f2, x, g) : the action for f1 : a1 -> c1, f2 : a2 -> c2
    (contravariant) and g : c' -> b' (covariant);
    eta_value(c') and eta_act(x, g) : the unit profunctor."""

    def __init__(self, base, mu_value, mu_act, eta_value, eta_act):
        self.base = base
        self.mu_value = mu_value
        self.mu_act = mu_act
        self.eta_value = eta_value
        self.eta_act = eta_act


def delta_op_promonoidal(b, check_base=False):
    """The Eilenberg-Zilber promonoidal structure on the opposite simplex
    category truncated at [b]: μ([p],[q];[n]) is the set of monotone maps
    [n] -> [p] × [q], i.e. pairs of monotone maps out of [n], and the unit
    is the terminal profunctor (every [n] -> [0] is unique)."""
    _nonnegative("b", [b])
    base = opposite(delta_leq(b, check=check_base))

    cache = {}

    def mu_value(p, q, n):
        if (p, q, n) not in cache:
            cache[(p, q, n)] = [(f, g) for f in enumerate_monotone(n, p)
                                for g in enumerate_monotone(n, q)]
        return cache[(p, q, n)]

    def mu_act(f1, f2, x, g):
        # base morphisms a -> c are Δ-maps [c] -> [a]; g : c' -> b' is a
        # Δ-map [b'] -> [c']
        f, h = x
        return (f1.compose(f).compose(g), f2.compose(h).compose(g))

    def eta_value(n):
        return ["*"]

    def eta_act(x, g):
        return "*"

    return PromonoidalData(base, mu_value, mu_act, eta_value, eta_act)


class NaryMu:
    """Inductive n-ary multimorphism spaces of a PromonoidalData:
    μ⁰ = η, μ¹ = Hom, μ² = μ, and for n > 2
    μⁿ({c_i}; c') = ∫^d μⁿ⁻¹({c_1..c_{n-1}}; d) × μ(d, c_n; c'),
    with coend classes stored as canonical representatives."""

    def __init__(self, data):
        self.data = data
        self._cache = {}

    def space(self, inputs, output):
        return self._get(tuple(inputs), output)[0]

    def canon(self, inputs, output, elem):
        """Canonical representative of a raw element."""
        reps = self._get(tuple(inputs), output)[1]
        return reps[elem] if reps is not None else elem

    def _get(self, inputs, output):
        key = (inputs, output)
        if key in self._cache:
            return self._cache[key]
        data = self.data
        base = data.base
        n = len(inputs)
        if n == 0:
            out = (list(data.eta_value(output)), None)
        elif n == 1:
            out = (base.hom(inputs[0], output), None)
        elif n == 2:
            out = (list(data.mu_value(inputs[0], inputs[1], output)), None)
        else:
            head, last = inputs[:-1], inputs[-1]
            out = _composite_coend(
                base, lambda d: self.space(head, d),
                lambda d: data.mu_value(d, last, output),
                lambda u, h: self.act_out(head, base.src[h], u, h),
                lambda h, y: data.mu_act(h, base.ident[last], y,
                                         base.ident[output]))
        self._cache[key] = out
        return out

    def act_out(self, inputs, output, elem, g):
        """Covariant action on the output: g : output -> b' in the base."""
        data = self.data
        base = data.base
        n = len(inputs)
        b_out = base.tgt[g]
        if n == 0:
            return data.eta_act(elem, g)
        if n == 1:
            return base.comp[(g, elem)]
        if n == 2:
            return data.mu_act(base.ident[inputs[0]], base.ident[inputs[1]],
                               elem, g)
        d, u, y = elem
        moved = (d, u, data.mu_act(base.ident[d], base.ident[inputs[-1]],
                                   y, g))
        return self.canon(inputs, b_out, moved)


# ---------------------------------------------------------------------------
# coends over Δ≤b: a monotone map is its index in enumerate_monotone


def _indexed(maps):
    """Monotone maps f : [a] -> [c] as triples (a, c, index of f)."""
    return [(f.domain_top, f.codomain_top,
             monotone_position(f.domain_top, f.codomain_top)[f.values])
            for f in maps]


def _family(d, ts, idxs):
    """The maps [d] -> [t_i] of the given indices, as MonotoneMaps."""
    return tuple(enumerate_monotone(d, t)[i] for i, t in zip(idxs, ts))


def _delta_coend(x, F, act, gens):
    """∫^{[d]} Δ([x], [d]) × F(d) over the objects d of F, presented by the
    indexed Δ-maps γ = (a, c, g) of gens: elements are (d, φ, u), φ indexing
    a map [x] -> [d] and u the list F[d], and γ identifies (c, γ∘φ, u) with
    (a, φ, u·γ) for φ : [x] -> [a], where act(F[c][u], γ) = F[a][u·γ]."""

    def elements(d):
        return [(d, phi, u) for phi in range(monotone_count(x, d))
                for u in range(len(F[d]))]

    def push(gen):
        a, c, g = gen
        return [(c, gphi, u) for gphi in comp_table(x, a, c)[g]
                for u in range(len(F[c]))]

    def pull(gen):
        a, c, g = gen
        pos = {v: i for i, v in enumerate(F[a])}
        moved = [pos[act(v, gen)] for v in F[c]]
        return [(a, phi, ug) for phi in range(monotone_count(x, a))
                for ug in moved]

    return coend(F, elements, gens, push, pull)


def _hom_coend(x, ts, b, s=1):
    """_delta_coend over Δ≤b for F(d) = ∏_i Δ([d], [t_i]) × S, |S| = s, with
    F(d) listing (f_1, ..., f_n, j): f_i indexes a map [d] -> [t_i], j < s.
    Returns the classes, the representatives and F."""
    F = {d: [f + (j,) for f in itertools.product(
             *(range(monotone_count(d, t)) for t in ts)) for j in range(s)]
         for d in range(b + 1)}

    def act(v, gen):
        a, c, g = gen
        return tuple(comp_table(a, c, t)[f][g]
                     for f, t in zip(v, ts)) + v[-1:]

    return (*_delta_coend(x, F, act, _indexed(generating_maps(b))), F)


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
    f : [c'] -> [d] and g : [c'] -> [c], and the map sends them to g."""
    _nonnegative("b", [b])
    for c in range(b + 1):
        for cp in range(b + 1):
            classes, _, F = _hom_coend(cp, (), b, monotone_count(cp, c))
            images = set()
            for d, f, u in classes:
                (g,) = F[d][u]
                if g in images:
                    maps = _family(cp, (d, c), (f, g))
                    return CheckCertificate(False,
                                            witness=(c, cp, (d, "*", maps)),
                                            detail="unit map not injective")
                images.add(g)
            if len(images) != monotone_count(cp, c):
                return CheckCertificate(False, witness=(c, cp),
                                        detail="unit map not surjective")
    return CheckCertificate(True, detail="μ(η, c; c') ≅ Hom(c, c')")


def _nesting_bijective(a, c, e, n, b):
    """Whether ∫^d μ(a, c; d) × μ(d, e; n) over d <= b maps bijectively onto
    the monotone maps [n] -> [a]×[c]×[e] by (d, (f_a, f_c), (h, f_e)) ↦
    (f_a∘h, f_c∘h, f_e).  The right nesting ∫^d μ(q, r; d) × μ(p, d; n) of
    the ternary μ on (p, q, r) is this coend for (a, c, e) = (q, r, p)."""
    classes, _, F = _hom_coend(n, (a, c), b, monotone_count(n, e))
    images = set()
    for d, h, u in classes:
        fa, fc, fe = F[d][u]
        images.add((comp_table(n, d, a)[fa][h], comp_table(n, d, c)[fc][h],
                    fe))
    size = monotone_count(n, a) * monotone_count(n, c) * monotone_count(n, e)
    return len(images) == len(classes) == size


def delta_mu_associativity_check(p, q, r, b):
    """Three-way bijection for the Δᵒᵖ data: both nestings of the ternary μ
    on ([p],[q],[r]) biject with monotone maps [n] -> [p]×[q]×[r], for every
    output [n] with n <= b."""
    _nonnegative("b", [b])
    _nonnegative("entries", [p, q, r])
    for n in range(b + 1):
        # left nesting: ∫^d μ(p,q;d) × μ(d,r;n)
        if not _nesting_bijective(p, q, r, n, b):
            return CheckCertificate(False, witness=("left", n),
                                    detail="left nesting is not in bijection")
        # right nesting: ∫^d μ(q,r;d) × μ(p,d;n)
        if not _nesting_bijective(q, r, p, n, b):
            return CheckCertificate(False, witness=("right", n),
                                    detail="right nesting is not in bijection")
    return CheckCertificate(True,
                            detail="μ∘(μ×1) ≅ μ∘(1×μ) ≅ Map([n], [p]×[q]×[r])")


# ---------------------------------------------------------------------------
# multimorphism spaces for Δᵒᵖ and ℕ⋉Δᵒᵖ


def mul_delta(ns, m):
    """Mul({[n_i]}; [m]) for the opposite simplex category: monotone maps
    [m] -> ∏_i [n_i], as tuples of componentwise monotone maps."""
    out = [()]
    for n in ns:
        out = [t + (f,) for t in out for f in enumerate_monotone(m, n)]
    return out


def mul_nn_delta(a_list, n_list, b, m):
    """Multimorphisms ((a_i, [n_i]))_i -> (b, [m]) in the semidirect product
    of ℕ with the simplex-category filtration: empty unless Σ a_i <= b, in
    which case the space is Mul_Δᵒᵖ({[n_i]}; [m]).

    Requires n_i <= a_i and m <= b."""
    if len(a_list) != len(n_list):
        raise ValueError("arity mismatch")
    for a, n in zip(a_list, n_list):
        if n > a:
            raise ValueError(f"object constraint violated: [{n}] exceeds "
                             f"filtration stage {a}")
    if m > b:
        raise ValueError(f"object constraint violated: [{m}] exceeds "
                         f"filtration stage {b}")
    if sum(a_list) > b:
        return []
    return mul_delta(n_list, m)


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
    for m in _nonnegative("m", m_range):
        classes, _, F = _hom_coend(m, ns, b)
        images = {}
        for k, phi, u in classes:
            img = tuple(comp_table(m, k, n)[h][phi]
                        for h, n in zip(F[k][u], ns))
            if img in images:
                pair = [(k2, enumerate_monotone(m, k2)[phi2],
                         _family(k2, ns, F[k2][u2]))
                        for k2, phi2, u2 in ((k, phi, u), images[img])]
                return CheckCertificate(
                    False, witness=(m, *pair),
                    detail=f"canonical map not injective at m={m}")
            images[img] = (k, phi, u)
        targets = itertools.product(*(range(monotone_count(m, n))
                                      for n in ns))
        missing = next((t for t in targets if t not in images), None)
        if missing is not None:
            return CheckCertificate(
                False, witness=(m, _family(m, ns, missing)),
                detail=f"canonical map not surjective at m={m}")
    return CheckCertificate(True,
                            detail="Kan extension agrees on the given range")


# ---------------------------------------------------------------------------
# products of simplices as colimits


def _colimit_coend(k, nondeg):
    """The set colimit of the k-simplices of Δ^σ over the nondegenerate
    simplices σ ∈ nondeg[d], a coend over the injections of Δ, which the
    cofaces generate: the coface ι identifies (σ, ι∘β) with (σ∘ι, β)."""
    chains = {d: [sigma.points for sigma in sigmas]
              for d, sigmas in nondeg.items()}

    def face(points, gen):
        a, c, g = gen
        return tuple(points[v] for v in enumerate_monotone(a, c)[g].values)

    cofaces = _indexed(coface(d, i) for d in nondeg if d > 0
                       for i in range(d + 1))
    return _delta_coend(k, chains, face, cofaces)


def product_simplices_colimit_check(ns, k_range):
    """Certifies, for each level k, that the set colimit of the simplices
    Δ^σ over the nondegenerate simplices σ of ∏_i Δ^{n_i} maps bijectively
    onto the monotone maps [k] -> ∏_i [n_i], and that the image
    factorization of each such map is an initial object of its comma
    category of presentations."""
    ns = tuple(_nonnegative("ns", ns))
    total = sum(ns)
    nondeg = {d: product_nondegenerate(ns, d) for d in range(total + 1)}
    for k in _nonnegative("k", k_range):
        classes, reps = _colimit_coend(k, nondeg)
        alphas = {d: enumerate_monotone(k, d) for d in nondeg}
        image = {(d, a, s): tuple(nondeg[d][s].points[v]
                                  for v in alphas[d][a].values)
                 for d, a, s in reps}
        presentations = {}
        for (d, a, s), img in image.items():
            presentations.setdefault(img, []).append(
                (nondeg[d][s], alphas[d][a]))
        images = set()
        for d, a, s in classes:
            if image[(d, a, s)] in images:
                witness = (k, (nondeg[d][s], alphas[d][a]))
                return CheckCertificate(False, witness=witness,
                                        detail=f"colimit map not injective "
                                               f"at level {k}")
            images.add(image[(d, a, s)])
        # a map into the product poset is monotone iff its components are
        allmaps = [tuple(map(PosetPoint, zip(*(f.values for f in fam))))
                   for fam in mul_delta(ns, k)]
        if images != set(allmaps):
            missing = next(t for t in allmaps if t not in images)
            return CheckCertificate(False, witness=(k, missing),
                                    detail=f"colimit map not surjective at "
                                           f"level {k}")
        # cofinality: the image factorization τ = σ_im ∘ ε is initial among
        # the presentations τ = σ ∘ α, so exactly one injection ι has
        # σ ∘ ι = σ_im and ι ∘ ε = α
        for tau, pres in presentations.items():
            image_chain = tuple(dict.fromkeys(tau))
            epi = [image_chain.index(pt) for pt in tau]
            d_im = len(image_chain) - 1
            if all(s.points != image_chain for s in nondeg[d_im]):
                return CheckCertificate(False, witness=(k, tau),
                                        detail="image chain is not a "
                                               "nondegenerate simplex")
            for sigma, alpha in pres:
                arrows = [iota for iota in enumerate_injections(d_im,
                                                                sigma.degree)
                          if tuple(sigma.points[v] for v in iota.values)
                          == image_chain
                          and tuple(iota(e) for e in epi) == alpha.values]
                if len(arrows) != 1:
                    return CheckCertificate(
                        False, witness=(k, tau, (sigma, alpha)),
                        detail="image factorization is not initial")
    return CheckCertificate(True,
                            detail="products of simplices are colimits of "
                                   "their nondegenerate simplices")


# ---------------------------------------------------------------------------
# category-of-operators fragment


class MulticategoryModel:
    """A concrete symmetric multicategory: finite object set, enumerable
    multimorphism sets mul(cs, c'), unary identities, substitution, and the
    symmetric-group action permute(y, idxs) reindexing the inputs of y so
    that new input t is old input idxs[t]."""

    def __init__(self, objects, mul, ident, subst, permute):
        self.objects = list(objects)
        self.mul = mul
        self.ident = ident
        self.subst = subst
        self.permute = permute


def trivial_multicategory():
    return MulticategoryModel(
        ["*"],
        lambda cs, c: ["*"],
        lambda c: "*",
        lambda y, xs: "*",
        lambda y, idxs: "*")


def delta_op_multicategory(b):
    """Objects [0..b]; mul({[n_i]}; [m]) = monotone [m] -> ∏[n_i];
    substitution composes componentwise."""

    def mul(cs, m):
        return mul_delta(cs, m)

    def ident(c):
        return (identity_map(c),)

    def subst(y, xs):
        out = []
        for g, x in zip(y, xs):
            out.extend(h.compose(g) for h in x)
        return tuple(out)

    def permute(y, idxs):
        return tuple(y[i] for i in idxs)

    return MulticategoryModel(list(range(b + 1)), mul, ident, subst, permute)


class OperatorMorphism:
    """A morphism (c_1..c_n) -> (d_1..d_m): a pointed map α (alpha[i] is the
    image of i+1 in {0..m}, 0 the basepoint) and one multimorphism per
    fiber."""

    def __init__(self, source, target, alpha, mults):
        self.source = tuple(source)
        self.target = tuple(target)
        self.alpha = tuple(alpha)
        self.mults = tuple(mults)

    def __eq__(self, other):
        return (self.source, self.target, self.alpha, self.mults) == \
            (other.source, other.target, other.alpha, other.mults)

    def __hash__(self):
        return hash((self.source, self.target, self.alpha, self.mults))

    def __repr__(self):
        return (f"OperatorMorphism({self.source}->{self.target}, "
                f"alpha={self.alpha})")


class OperatorCategoryFragment:
    """The category of operators of a concrete multicategory, restricted to
    sequences of length <= N: morphisms are pointed maps of index sets with
    a multimorphism for every fiber; composition substitutes fiberwise and
    composes the pointed maps."""

    def __init__(self, model, N):
        self.model = model
        self.N = N
        self.objects = []
        for n in range(N + 1):
            self.objects.extend(itertools.product(model.objects, repeat=n))

    def fiber(self, alpha, j):
        return [i for i, a in enumerate(alpha) if a == j]

    def morphisms_between(self, source, target):
        n, m = len(source), len(target)
        out = []
        for alpha in itertools.product(range(m + 1), repeat=n):
            choices = []
            ok = True
            for j in range(1, m + 1):
                cs = [source[i] for i in self.fiber(alpha, j)]
                ms = self.model.mul(cs, target[j - 1])
                if not ms:
                    ok = False
                    break
                choices.append(ms)
            if not ok:
                continue
            for mults in itertools.product(*choices):
                out.append(OperatorMorphism(source, target, alpha, mults))
        return out

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


def operator_category_fragment(model, N):
    return OperatorCategoryFragment(model, N)


def arrow_fiber_nn(a_list, b):
    """The fiber over b of the additive arrow construction on ℕ^k: the
    poset of tuples x with Σ x_i <= b, ordered componentwise."""
    k = len(a_list)
    objs = [t for t in itertools.product(range(b + 1), repeat=k)
            if sum(t) <= b]
    return poset_category(objs,
                          lambda x, y: all(u <= v for u, v in zip(x, y)))


# ---------------------------------------------------------------------------
# serialization


def profunctor_to_payload(P):
    oc = {c: f"c{i}" for i, c in enumerate(P.C.objects)}
    od = {d: f"d{i}" for i, d in enumerate(P.D.objects)}
    ids = {}
    for (c, d), elems in P.values.items():
        for i, x in enumerate(elems):
            ids[(c, d, x)] = f"x{oc[c]}_{od[d]}_{i}"
    action = {}
    for f in P.C.morphisms:
        for g in P.D.morphisms:
            c, d = P.C.tgt[f], P.D.src[g]
            for x in P.value(c, d):
                y = P.action(f, x, g)
                fk = P.C.morphisms.index(f)
                gk = P.D.morphisms.index(g)
                action[f"m{fk}|{ids[(c, d, x)]}|n{gk}"] = \
                    ids[(P.C.src[f], P.D.tgt[g], y)]
    return {
        "format": "prof",
        "version": 1,
        "source": P.C.to_payload(),
        "target": P.D.to_payload(),
        "values": {f"{oc[c]}|{od[d]}": [ids[(c, d, x)] for x in elems]
                   for (c, d), elems in P.values.items()},
        "action": action,
    }
