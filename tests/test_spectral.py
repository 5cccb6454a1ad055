"""Spectral sequences of filtered complexes: pages, differentials,
recursion, convergence, first-page identification, Leibniz pairings."""

import random

import pytest

from zilber import _random as zrandom
from zilber.filtration import filtered_ez, skeletal_filtration
from zilber.simplicial import circle, free_abelian, product, standard_simplex
from zilber.spectral import (PagePairing, SpectralSequence, compute_pages,
                             heart_check, induced_pairing, leibniz_check)


def test_first_page_with_d1_is_normalized_chains():
    for X in (standard_simplex(1, 2), standard_simplex(2, 3), circle(3),
              product(circle(2), circle(2))):
        assert heart_check(free_abelian(X)).ok


def test_torus_infinity_page():
    T = free_abelian(product(circle(2), circle(2)))
    S = SpectralSequence(skeletal_filtration(T))
    inf = S.infinity()
    nonzero = {pq: list(sq.orders) for pq, sq in inf.items() if sq.ngens}
    assert nonzero == {(0, 0): [0], (1, 0): [0, 0], (2, 0): [0]}


def test_skeletal_sequence_collapses_for_a_simplex():
    A = free_abelian(standard_simplex(2, 2))
    S = compute_pages(skeletal_filtration(A))
    inf = S.infinity()
    # only H_0 = Z survives
    assert sum(sq.ngens for sq in inf.values()) == 1
    assert list(inf[(0, 0)].orders) == [0]


def test_random_filtrations_satisfy_all_page_invariants():
    rng = random.Random(31)
    for _ in range(10):
        F = zrandom.rand_filtration(rng, p_max=rng.randrange(1, 4),
                                    max_total_rank=6)
        compute_pages(F)  # asserts d_r²=0, recursion, convergence


def test_invariant_checks_are_named_and_stop_at_the_first_failure(
        monkeypatch):
    from zilber import cli
    from zilber.simplicial import CheckCertificate
    from zilber.spectral import _invariant_checks
    F = skeletal_filtration(free_abelian(standard_simplex(1, 1)))
    assert [name for name, _ in _invariant_checks(SpectralSequence(F))] == [
        "d-squared-r1", "page-recursion-r1", "d-squared-r2", "convergence"]
    monkeypatch.setattr(SpectralSequence, "page_recursion_check",
                        lambda self, r: CheckCertificate(False, detail="forced"))
    certs = []
    assert not cli._ss_checks(SpectralSequence(F), certs, prefix="trial0-")
    assert [c["check"] for c in certs] == ["trial0-page-recursion-r1"]
    with pytest.raises(AssertionError, match="forced"):
        compute_pages(F)


def test_leibniz_rule_on_shuffle_pairing():
    A = free_abelian(standard_simplex(1, 2))
    B = free_abelian(circle(2))
    P = filtered_ez(A, B)
    S_F = SpectralSequence(P.F)
    S_G = SpectralSequence(P.G)
    S_H = SpectralSequence(P.H)
    pairing = induced_pairing(P, S_F, S_G, S_H, 1)
    assert leibniz_check(pairing).ok


def test_leibniz_rule_detects_a_corrupted_product_table():
    # needs a pairing with nonzero d_1 on a factor, so that some Leibniz
    # equation is sensitive to the product's sign
    P = filtered_ez(free_abelian(standard_simplex(1, 2)),
                    free_abelian(circle(2)))
    S_F = SpectralSequence(P.F)
    S_G = SpectralSequence(P.G)
    S_H = SpectralSequence(P.H)
    pairing = induced_pairing(P, S_F, S_G, S_H, 1)
    assert leibniz_check(pairing).ok
    broken = None
    for key, tbl in pairing.products.items():
        for i, row in enumerate(tbl):
            for j, vec in enumerate(row):
                if any(vec):
                    cand = pairing.corrupted(key, i, j)
                    if not leibniz_check(cand).ok:
                        broken = cand
                        break
            if broken:
                break
        if broken:
            break
    assert broken is not None


def test_report_is_json_shaped():
    import json
    F = skeletal_filtration(free_abelian(circle(2)))
    S = SpectralSequence(F)
    rep = json.loads(json.dumps(S.to_report()))
    assert rep["format"] == "ss" and rep["version"] == 1
    assert "1" in rep["pages"]
