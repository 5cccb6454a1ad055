"""Acceptance gate: one test per advertised guarantee, at full scale.

Each test prints a single PASS/FAIL line (on the real stdout, so it is
visible even under capture) and then asserts.  All arithmetic is exact; no
tolerances anywhere.
"""

import itertools
import random
import sys

from zilber import _random as zrandom
from zilber.chains import homology, hom_rank, is_homology_isomorphism
from zilber.doldkan import (disk, gamma_normalize_comparison, is_chain_iso,
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
from zilber.simplicial import (SimplicialIdentityError, circle, free_abelian,
                               product, skeleton_product_check,
                               standard_simplex)
from zilber.spectral import (SpectralSequence, compute_pages, heart_check,
                             induced_pairing, leibniz_check)


LINES = []


def report(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def corpus(D):
    return [free_abelian(X) for X in (standard_simplex(0, D),
                                      standard_simplex(1, D),
                                      standard_simplex(2, D), circle(D))]


def test_01_simplicial_identity_fuzz():
    rng = random.Random(10_001)
    valid = rejected = 0
    while valid < 500:
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        A._validate()
        valid += 1
    while rejected < 500:
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        B = zrandom.corrupt_simplicial(rng, A)
        if B is None:
            continue
        try:
            B._validate()
            ok = False
        except SimplicialIdentityError:
            ok = True
            rejected += 1
        if not ok:
            break
    report(1, valid == 500 and rejected == 500,
           "500 random objects validate; 500 corruptions rejected")


def test_02_normalization_roundtrips_and_hom_table():
    rng = random.Random(10_002)
    ok = True
    for _ in range(100):
        C = zrandom.rand_complex(rng, top_degree=3, max_total_rank=10)
        ok = ok and is_chain_iso(normalized_gamma_comparison(C, 3))
    for _ in range(50):
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        comp = gamma_normalize_comparison(A)
        ok = ok and is_levelwise_unimodular(comp, A.ranks)
    for m in range(6):
        for n in range(6):
            r = hom_rank(disk(m), disk(n))
            ok = ok and r == (1 if n in (m, m + 1) else 0)
    report(2, ok, "100 + 50 round-trip isomorphisms; two-term hom table "
                  "matches for m,n <= 5")


def test_03_shuffle_product_certification():
    ok = True
    spaces3 = corpus(3)
    for A, B in itertools.product(spaces3, repeat=2):
        shuffle_product(A, B)  # construction verifies d∘∇ = ∇∘d
        ok = ok and aw_nabla_identity_check(A, B).ok
        ok = ok and unitality_check(A, B).ok
        ok = ok and symmetry_check(A, B).ok
    spaces2 = corpus(2)
    for A, B, C in itertools.product(spaces2, repeat=3):
        ok = ok and associativity_check(A, B, C).ok
    report(3, ok, "chain-map, AW∘∇, unitality, symmetry on all pairs; "
                  "associativity on all triples")


def test_04_torus_kunneth():
    A = free_abelian(circle(2))
    sp = shuffle_product(A, A)
    want = ["Z", "Z^2", "Z"]
    ok = [str(x) for x in homology(sp.target)] == want
    ok = ok and [str(x) for x in homology(sp.source)] == want
    ok = ok and is_homology_isomorphism(sp.map)
    report(4, ok, "torus homology (Z, Z^2, Z) on both sides, induced by an "
                  "isomorphism")


def test_05_skeleton_products():
    ok = True
    for a in range(4):
        for b in range(4):
            for n in range(a + b, 7):
                X = standard_simplex(a, max(n, 1))
                Y = standard_simplex(b, max(n, 1))
                ok = ok and skeleton_product_check(X, Y, a, b, n).ok
    X = standard_simplex(2, 4)
    for n in range(4):
        cert = skeleton_product_check(X, X, 2, 2, n)
        ok = ok and not cert.ok and cert.witness is not None
    report(5, ok, "products of a- and b-skeleta land in the (a+b)-skeleton; "
                  "witnessed failure below it")


def test_06_filtered_shuffle_pairing():
    ok = True
    for A, B in itertools.product(corpus(3), repeat=2):
        P = filtered_ez(A, B)
        ok = ok and P.containment_certificate().ok
        ok = ok and P.filtration_zero_certificate().ok
    report(6, ok, "filtered pairing containment and filtration-0 "
                  "isomorphism on all corpus pairs")


def test_07_first_page_is_normalized_chains():
    ok = True
    for X in (standard_simplex(1, 2), standard_simplex(2, 3), circle(3),
              product(circle(2), circle(2))):
        ok = ok and heart_check(free_abelian(X)).ok
    report(7, ok, "first page with d_1 equals the normalized chains for "
                  "four model spaces")


def test_08_spectral_invariants_and_leibniz():
    rng = random.Random(10_008)
    ok = True
    for _ in range(50):
        F = zrandom.rand_filtration(rng, p_max=rng.randrange(1, 5))
        compute_pages(F)  # raises if any page invariant fails
    detected = False
    for A, B in itertools.product(corpus(2), repeat=2):
        P = filtered_ez(A, B)
        S_F, S_G, S_H = (SpectralSequence(X) for X in (P.F, P.G, P.H))
        pairing = induced_pairing(P, S_F, S_G, S_H, 1)
        ok = ok and leibniz_check(pairing).ok
        if not detected:
            for key, tbl in pairing.products.items():
                for i, row in enumerate(tbl):
                    for j, _ in enumerate(row):
                        cand = pairing.corrupted(key, i, j)
                        if not leibniz_check(cand).ok:
                            detected = True
    report(8, ok and detected,
           "page invariants on 50 random filtrations; Leibniz holds on "
           "induced pairings and fails on a corrupted control")


def test_09_promonoidal_suite():
    ok = delta_mu_unit_check(2).ok
    for p, q, r in itertools.product(range(3), repeat=3):
        ok = ok and delta_mu_associativity_check(p, q, r, 2).ok
    for ns in ([1, 1], [2, 1], [2, 2]):
        ok = ok and product_simplices_colimit_check(ns, range(6)).ok
    for n1 in range(3):
        for n2 in range(3):
            for b in range(5):
                cert = left_kan_check([n1, n2], b, range(5))
                ok = ok and cert.ok == (n1 + n2 <= b)
                if n1 + n2 > b:
                    ok = ok and cert.witness is not None
    report(9, ok, "n-ary multiplication associativity, colimit "
                  "presentations, and the extension dichotomy")


def test_10_convolution_unit_symmetry_associativity():
    rng = random.Random(10_010)
    unit = unit_filtration()
    ok = True
    for _ in range(20):
        F = zrandom.rand_filtration(rng)
        ok = ok and filtrations_stagewise_equal(day_convolution(F, unit), F)
        ok = ok and filtrations_stagewise_equal(day_convolution(unit, F), F)
    for _ in range(3):
        F = zrandom.rand_filtration(rng, p_max=3, max_total_rank=5)
        G = zrandom.rand_filtration(rng, p_max=3, max_total_rank=5)
        H = zrandom.rand_filtration(rng, p_max=2, max_total_rank=4)
        ok = ok and convolution_symmetry_check(F, G).ok
        ok = ok and convolution_associativity_check(F, G, H).ok
    report(10, ok, "unit laws stagewise for 20 random filtrations; "
                   "symmetry and associativity on random triples")
