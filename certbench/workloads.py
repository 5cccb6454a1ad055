"""The certificate families the benchmark drives, one build function per
workload.

A build function takes the workload seed and returns a Family: fresh input
objects wrapped as Items, each with its expected outcome, plus the random
inputs themselves for the determinism digest.  The library only ever sees
the generated inputs; the seed stays in the benchmark.  Build functions run
once per pass so that every pass works on freshly built objects, as a
caller certifying a new batch would.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Callable, NamedTuple

from zilber import _random as zrandom
from zilber.chains import homology, is_homology_isomorphism
from zilber.doldkan import (gamma_normalize_comparison, is_chain_iso,
                            is_levelwise_unimodular,
                            normalized_gamma_comparison)
from zilber.ez import (associativity_check, aw_nabla_identity_check,
                       shuffle_product, symmetry_check, unitality_check)
from zilber.filtration import (convolution_associativity_check,
                               convolution_symmetry_check, day_convolution,
                               filtered_ez, filtrations_stagewise_equal,
                               unit_filtration)
from zilber.promonoidal import (delta_mu_associativity_check,
                                delta_mu_unit_check, left_kan_check,
                                product_simplices_colimit_check)
from zilber.simplicial import (SimplicialAbelianGroup,
                               SimplicialIdentityError, circle, free_abelian,
                               product, standard_simplex)
from zilber.spectral import (SpectralSequence, compute_pages, heart_check,
                             induced_pairing, leibniz_check)


class Item(NamedTuple):
    """One certificate call.

    ``run`` returns (passed, evidence): the certificate's pass flag and
    either its witness (on failure) or a checked invariant (on success).
    A negative control has ``expect_pass=False`` and must fail with a
    witness.  When ``expect`` is not None, a passing certificate must
    produce exactly that evidence."""

    key: str
    run: Callable[[], tuple]
    expect_pass: bool = True
    expect: object = None


class Family(NamedTuple):
    items: list
    inputs: list  # the seeded random input objects, in generation order

    def inputs_digest(self):
        """The item keys in pass order, then the random inputs."""
        return _sha([it.key for it in self.items] + [_text(x) for x in self.inputs])

    def family_digest(self):
        """The item keys with their order ignored."""
        return _sha(sorted(it.key for it in self.items))


def unexpected(item, passed, evidence):
    """Why an outcome breaks the item's expectation, or None if it meets it."""
    if passed != item.expect_pass:
        return "expected pass" if item.expect_pass else "expected failure"
    if not passed and evidence is None:
        return "negative control failed without a witness"
    if passed and item.expect is not None and evidence != item.expect:
        return f"invariant {evidence!r} != expected {item.expect!r}"
    return None


def _sha(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def _family(rng, items, inputs):
    """Permute the items by the seed."""
    rng.shuffle(items)
    return Family(items, inputs)


def _cert(c):
    return c.ok, c.witness


def _text(x):
    if isinstance(x, SimplicialAbelianGroup):
        return json.dumps([x.ranks, sorted(x.face_mats.items()),
                           sorted(x.degen_mats.items())])
    return json.dumps(x.to_payload())


# ---------------------------------------------------------------------------
# ez: large sparse 0/1 matrices, repeated normalization of the same objects


SPACES = ("delta0", "delta1", "delta2", "s1")
# every triple without Δ² plus the two Δ² triples of scripts/run_acceptance.sh,
# enough for at least 100 certificates per pass
ASSOC_TRIPLES = (list(itertools.product(("delta0", "delta1", "s1"), repeat=3))
                 + [("delta2", "delta1", "s1"), ("delta2", "delta2", "delta0")])


def _space(name, D):
    return circle(D) if name == "s1" else standard_simplex(int(name[5:]), D)


def build_ez(seed):
    sets3 = {n: _space(n, 3) for n in SPACES}
    free3 = {n: free_abelian(X) for n, X in sets3.items()}
    free2 = {n: free_abelian(_space(n, 2)) for n in SPACES}
    torus_factor = free_abelian(circle(2))
    items = []
    for a, b in itertools.product(SPACES, repeat=2):
        A, B = free3[a], free3[b]
        # normalized ranks of Z[X×Y] are its nondegenerate counts, read off
        # the simplicial set without any linear algebra
        ranks = tuple(product(sets3[a], sets3[b]).nondegenerate_counts())
        items += [
            Item(f"shuffle_product({a},{b})",
                 lambda A=A, B=B: (True, tuple(shuffle_product(A, B).target.ranks)),
                 expect=ranks),
            Item(f"aw_nabla({a},{b})",
                 lambda A=A, B=B: _cert(aw_nabla_identity_check(A, B))),
            Item(f"unitality({a},{b})",
                 lambda A=A, B=B: _cert(unitality_check(A, B))),
            Item(f"symmetry({a},{b})",
                 lambda A=A, B=B: _cert(symmetry_check(A, B))),
            Item(f"filtered_ez({a},{b})",
                 lambda A=A, B=B: _cert(filtered_ez(A, B).containment_certificate())),
        ]
    for a, b, c in ASSOC_TRIPLES:
        items.append(Item(
            f"associativity({a},{b},{c})",
            lambda A=free2[a], B=free2[b], C=free2[c]:
                _cert(associativity_check(A, B, C))))

    def kunneth(T=torus_factor):
        sp = shuffle_product(T, T)
        return True, (tuple(str(h) for h in homology(sp.target)),
                      tuple(str(h) for h in homology(sp.source)),
                      is_homology_isomorphism(sp.map))

    want = ("Z", "Z^2", "Z")
    items.append(Item("torus_kunneth", kunneth, expect=(want, want, True)))
    return _family(random.Random(seed), items, [])


# ---------------------------------------------------------------------------
# coend: pure combinatorics of the truncated simplex category


def build_coend(seed):
    items = [Item(f"delta_mu_unit({b})",
                  lambda b=b: _cert(delta_mu_unit_check(b))) for b in (1, 2)]
    triples = [(t, 1) for t in itertools.product(range(2), repeat=3)]
    triples += [(t, 2) for t in itertools.product(range(3), repeat=3)
                if sum(t) <= 2]
    for (p, q, r), b in triples:
        items.append(Item(
            f"delta_mu_associativity({p},{q},{r},{b})",
            lambda p=p, q=q, r=r, b=b:
                _cert(delta_mu_associativity_check(p, q, r, b))))
    for ns, k in (((1, 1), 4), ((2, 1), 4), ((1, 1, 1), 3)):
        items.append(Item(
            f"product_simplices_colimit({ns},{k})",
            lambda ns=ns, k=k:
                _cert(product_simplices_colimit_check(list(ns), range(k)))))
    # the extension dichotomy, one certificate per level m: every m <= b
    # passes (the inclusion is full), and m = b + 1 passes iff n1 + n2 <= b
    for n1, n2, b in itertools.product(range(3), range(3), range(3)):
        for m in range(b + 2):
            items.append(Item(
                f"left_kan([{n1},{n2}],{b},{m})",
                lambda n1=n1, n2=n2, b=b, m=m:
                    _cert(left_kan_check([n1, n2], b, [m])),
                expect_pass=m <= b or n1 + n2 <= b))
    return _family(random.Random(seed), items, [])


# ---------------------------------------------------------------------------
# spectral: many small dense subquotients on seeded random inputs


def _rebuilt(A):
    """Revalidate A through the public constructor (raises on a broken
    simplicial identity)."""
    SimplicialAbelianGroup(A.dim_bound, A.ranks, A.face_mats, A.degen_mats)
    return True, None


def _rejected(B):
    try:
        _rebuilt(B)
    except SimplicialIdentityError as exc:
        return False, str(exc)
    return True, None


def _pages(F):
    """compute_pages raises unless d_r² = 0, page recursion and
    convergence all hold."""
    compute_pages(F)
    return True, None


def _leibniz(A, B):
    P = filtered_ez(A, B)
    S_F, S_G, S_H = (SpectralSequence(X) for X in (P.F, P.G, P.H))
    return induced_pairing(P, S_F, S_G, S_H, 1)


def _corrupted_leibniz(A, B):
    """Negative control: flip one generator product of an induced pairing;
    the Leibniz check must catch it.  Passes only if no flip is caught."""
    pairing = _leibniz(A, B)
    for key, tbl in pairing.products.items():
        for i, row in enumerate(tbl):
            for j in range(len(row)):
                cert = leibniz_check(pairing.corrupted(key, i, j))
                if not cert.ok:
                    return False, (key, i, j, cert.witness)
    return True, None


def build_spectral(seed):
    rng = random.Random(seed)
    inputs = []
    items = []
    for t in range(40):
        C = zrandom.rand_complex(rng, top_degree=3, max_total_rank=10)
        inputs.append(C)
        items.append(Item(f"dk_complex#{t}",
                          lambda C=C: (is_chain_iso(normalized_gamma_comparison(C, 3)), None)))
    for t in range(16):
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        inputs.append(A)
        items += [
            Item(f"dk_object#{t}",
                 lambda A=A: (is_levelwise_unimodular(
                     gamma_normalize_comparison(A), A.ranks), None)),
            Item(f"validate#{t}", lambda A=A: _rebuilt(A)),
        ]
    t = 0
    while t < 16:
        B = zrandom.corrupt_simplicial(rng, zrandom.rand_simplicial(rng, dim_bound=3))
        if B is None:
            continue
        inputs.append(B)
        items.append(Item(f"reject_corrupted#{t}", lambda B=B: _rejected(B),
                          expect_pass=False))
        t += 1
    for t in range(64):
        # every seed gets the same mix of filtration lengths
        F = zrandom.rand_filtration(rng, p_max=1 + t % 4)
        inputs.append(F)
        items.append(Item(f"compute_pages#{t}", lambda F=F: _pages(F)))
    unit = unit_filtration()
    for t in range(12):
        F = zrandom.rand_filtration(rng)
        inputs.append(F)
        items += [
            Item(f"day_unit_right#{t}", lambda F=F: (
                filtrations_stagewise_equal(day_convolution(F, unit), F), None)),
            Item(f"day_unit_left#{t}", lambda F=F: (
                filtrations_stagewise_equal(day_convolution(unit, F), F), None)),
        ]
    for t in range(12):
        F, G = (zrandom.rand_filtration(rng, p_max=2, max_total_rank=4)
                for _ in range(2))
        inputs += [F, G]
        items.append(Item(f"day_symmetry#{t}", lambda F=F, G=G:
                          _cert(convolution_symmetry_check(F, G))))
    # small factors: larger ones make a seed's cost swing by up to 3x
    for t in range(24):
        F, G, H = (zrandom.rand_filtration(rng, p_max=2, max_total_rank=2)
                   for _ in range(3))
        inputs += [F, G, H]
        items.append(Item(f"day_associativity#{t}", lambda F=F, G=G, H=H:
                          _cert(convolution_associativity_check(F, G, H))))
    models = {"delta1": standard_simplex(1, 2), "delta2": standard_simplex(2, 3),
              "s1": circle(3), "torus": product(circle(2), circle(2))}
    for name, X in models.items():
        items.append(Item(f"heart({name})",
                          lambda A=free_abelian(X): _cert(heart_check(A))))
    free2 = {n: free_abelian(_space(n, 2)) for n in SPACES}
    for a, b in itertools.product(SPACES, repeat=2):
        items.append(Item(f"leibniz({a},{b})",
                          lambda A=free2[a], B=free2[b]:
                              _cert(leibniz_check(_leibniz(A, B)))))
    items.append(Item("leibniz_corrupted(delta1,delta1)",
                      lambda A=free2["delta1"]: _corrupted_leibniz(A, A),
                      expect_pass=False))
    return _family(rng, items, inputs)


WORKLOADS = {"ez": build_ez, "coend": build_coend, "spectral": build_spectral}
