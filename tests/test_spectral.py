"""Spectral sequences of filtered complexes: pages, differentials,
recursion, convergence, first-page identification, Leibniz pairings."""

import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import page_recursion_orders

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber import spectral
from zilber.filtration import (FilteredChainComplex, day_convolution,
                               filtered_ez, skeletal_filtration)
from zilber.simplicial import circle, free_abelian, product, standard_simplex
from zilber.spectral import (SpectralSequence, _invariant_checks,
                             _span_of_preimage, compute_pages, heart_check,
                             induced_pairing, leibniz_check)


def test_first_page_with_d1_is_normalized_chains():
    # Δ² at bound 2: E_1 is the normalized chains, ranks 3, 3, 1, each in
    # its stage degree (q = 0)
    for X in (standard_simplex(1, 2), standard_simplex(2, 2),
              standard_simplex(2, 3), circle(3), product(circle(2), circle(2))):
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


def pages_by_definition(F, r_top):
    """(pages, diffs) with Z_r = {x in F_p : dx in F_{p-r}} and
    B_r = Z_{r-1}^{p-1} + d Z_{r-1}^{p+r-1} built afresh for every
    (r, p, n), nothing shared between entries or pages."""
    amb = F.ambient
    top = amb.top_degree

    def z(r, p, n):
        if p < 0 or not 0 <= n <= top:
            return la.zeros(amb.rank(n), 0)
        S = F.stage(p, n)
        if r == 0 or n == 0:
            return S
        return _span_of_preimage(S, la.mat_mul(amb.diff(n), S),
                                 F.stage(p - r, n - 1), {})

    def b(r, p, n):
        return la.hstack(z(r - 1, p - 1, n),
                         la.mat_mul(amb.diff(n + 1), z(r - 1, p + r - 1, n + 1)))

    pages, diffs = {}, {}
    for r in range(1, r_top + 1):
        pages[r] = {(p, n - p): la.Subquotient(la.Span(z(r, p, n)),
                                               b(r, p, n))
                    for p in range(F.p_max + 1) for n in range(top + 1)}
        diffs[r] = {}
        for (p, q), sq in pages[r].items():
            tgt = pages[r].get((p - r, q + r - 1))
            diffs[r][(p, q)] = (
                tgt.coords(la.mat_mul(amb.diff(p + q), sq.lifts))
                if tgt and tgt.ngens else la.zeros(0, sq.ngens))
    return pages, diffs


def test_keyed_pages_equal_the_pages_built_by_definition():
    rng = random.Random(47)
    for t in range(12):
        F = zrandom.rand_filtration(rng, p_max=1 + t % 4, max_total_rank=7)
        S = SpectralSequence(F, r_max=F.p_max + 2)
        pages, diffs = pages_by_definition(F, S.r_top)
        for r, entries in pages.items():
            assert S.pages[r].keys() == entries.keys()
            for pq, sq in entries.items():
                assert S.pages[r][pq].orders == sq.orders, (t, r, pq)
                assert la.mat_eq(S.pages[r][pq].lifts, sq.lifts), (t, r, pq)
                assert la.mat_eq(S.diffs[r][pq], diffs[r][pq]), (t, r, pq)
        assert S.pages.keys() == S.diffs.keys() == pages.keys()


def stage_id(F, p, n):
    """-1 for a stage with no nonzero column (p < 0 included), else the
    least p' whose generator matrix equals that of F_p, p clamped."""
    S = F.stage(p, n)
    if not any(S):
        return -1
    return next(a for a in range(F.p_max + 1) if F.stage(a, n) == S)


def test_each_z_is_computed_once_per_distinct_stage_pair(monkeypatch):
    F = zrandom.rand_filtration(random.Random(5), p_max=3)
    calls = []

    def counted(A, M, B, memo):
        calls.append(None)
        return _span_of_preimage(A, M, B, memo)

    monkeypatch.setattr(spectral, "_span_of_preimage", counted)
    S = SpectralSequence(F, r_max=F.p_max + 3)
    assert not calls  # nothing is built before a page is read
    for r in range(1, S.r_top + 1):
        list(S.pages[r].values())
        list(S.diffs[r].values())
    top, p_max = F.ambient.top_degree, F.p_max
    # the (r, p, n) of every Z an entry or a B reads
    read = set()
    for r in range(1, S.r_top + 1):
        for p in range(p_max + 1):
            for n in range(top + 1):
                read |= {(r, p, n), (r - 1, p - 1, n), (r - 1, p + r - 1, n + 1)}
    # Z_r^{p,n} for r, n >= 1 is {x in F_p : dx in F_{p-r}}: one
    # computation per pair of distinct stages, none when F_p is zero
    read = [(r, p, n) for r, p, n in read if r >= 1 and p >= 0 and 1 <= n <= top]
    triples = {(stage_id(F, p, n), stage_id(F, p - r, n - 1), n)
               for r, p, n in read}
    triples = {t for t in triples if t[0] >= 0}
    assert len(calls) == len(triples)
    clamped = {(min(p, p_max), max(-1, min(p - r, p_max)), n) for r, p, n in read}
    assert len(triples) < len(clamped)


def test_pages_past_r_inf_are_the_infinity_page():
    rng = random.Random(53)
    filtrations = [skeletal_filtration(free_abelian(
        product(circle(2), circle(2))))]
    filtrations += [zrandom.rand_filtration(rng, p_max=1 + t % 4)
                    for t in range(6)]
    for F in filtrations:
        r_inf = F.p_max + 1
        S = SpectralSequence(F, r_max=r_inf + 2)
        assert S.r_top == r_inf + 2
        inf = S.infinity()
        for r in range(r_inf + 1, S.r_top + 1):
            assert {pq: sq.orders for pq, sq in S.pages[r].items()} == {
                pq: sq.orders for pq, sq in inf.items()}
            assert all(la.is_zero(M) for M in S.diffs[r].values())
        names = [name for name, _ in _invariant_checks(S)]
        assert names[-3:] == [f"page-recursion-r{r_inf + 1}",
                              f"d-squared-r{r_inf + 2}", "convergence"]
        for name, cert in _invariant_checks(S):
            assert cert.ok, name


def built_pages(monkeypatch):
    """The r of every page a SpectralSequence builds, in build order."""
    built = []
    real = spectral._Store.page

    def page(self, r, entries):
        built.append(r)
        return real(self, r, entries)

    monkeypatch.setattr(spectral._Store, "page", page)
    return built


def test_a_page_is_built_on_the_first_read_of_an_entry(monkeypatch):
    built = built_pages(monkeypatch)
    built_diffs = []
    real = spectral._Store.differentials

    def differentials(self, r, page):
        built_diffs.append(r)
        return real(self, r, page)

    monkeypatch.setattr(spectral._Store, "differentials", differentials)
    F = zrandom.rand_filtration(random.Random(55), p_max=3)
    S = SpectralSequence(F, r_max=F.p_max + 2)
    entries = [(p, n - p) for p in range(F.p_max + 1)
               for n in range(F.ambient.top_degree + 1)]
    assert built == built_diffs == []
    assert list(S.pages[2]) == entries
    assert (built, built_diffs) == ([2], [])
    assert list(S.diffs[3]) == entries
    assert (built, built_diffs) == ([2, 3], [3])
    S.pages[2][(0, 0)], S.pages[3], S.diffs[3]  # each is built once
    assert (built, built_diffs) == ([2, 3], [3])
    for r in (0, S.r_top + 1):
        for table in (S.pages, S.diffs):
            with pytest.raises(KeyError):
                table[r]
    assert (built, built_diffs) == ([2, 3], [3])
    for r in reversed(range(1, S.r_top + 1)):
        list(S.diffs[r].items())
    assert sorted(built) == sorted(built_diffs) == list(range(1, S.r_top + 1))


def test_heart_and_leibniz_build_page_one_alone(monkeypatch):
    built = built_pages(monkeypatch)
    assert heart_check(free_abelian(product(circle(2), circle(2)))).ok
    assert built == [1]
    built.clear()
    P = filtered_ez(free_abelian(standard_simplex(1, 2)),
                    free_abelian(circle(2)))
    S_F, S_G, S_H = (SpectralSequence(X) for X in (P.F, P.G, P.H))
    assert leibniz_check(induced_pairing(P, S_F, S_G, S_H, 1)).ok
    assert built == [1, 1, 1]


def test_a_dropped_sequence_is_freed_without_the_cycle_collector():
    # the unbuilt pages hold no reference back to the instance
    import gc
    import weakref
    F = zrandom.rand_filtration(random.Random(58), p_max=2)
    gc.disable()
    try:
        S = SpectralSequence(F)
        S.pages[1][(0, 0)]
        ref = weakref.ref(S)
        del S
        assert ref() is None
    finally:
        gc.enable()


def read_every_page(S):
    for r in range(1, S.r_top + 1):
        list(S.pages[r].items())
        list(S.diffs[r].items())
    return S


def test_pages_read_in_any_order_equal_an_eager_build():
    rng = random.Random(56)
    filtrations = [zrandom.rand_filtration(rng, p_max=1 + t % 4)
                   for t in range(8)]
    filtrations.append(skeletal_filtration(free_abelian(
        product(circle(2), circle(2)))))
    for F in filtrations:
        eager = read_every_page(SpectralSequence(F, r_max=F.p_max + 3))
        S = SpectralSequence(F, r_max=F.p_max + 3)
        for r in reversed(range(1, S.r_top + 1)):
            for pq in reversed(list(S.diffs[r])):
                S.diffs[r][pq]
        assert S.pages.keys() == eager.pages.keys()
        assert S.diffs.keys() == eager.diffs.keys()
        for r, page in eager.pages.items():
            assert list(S.pages[r].items()) and S.pages[r].keys() == page.keys()
            for pq, sq in page.items():
                assert S.pages[r][pq].orders == sq.orders
                assert la.mat_eq(S.pages[r][pq].lifts, sq.lifts)
                assert la.mat_eq(S.diffs[r][pq], eager.diffs[r][pq])
        assert S.to_report() == eager.to_report()


def test_heart_and_leibniz_certificates_equal_those_of_eager_pages(
        monkeypatch):
    def certificates():
        out = [heart_check(free_abelian(X)) for X in (
            standard_simplex(1, 2), standard_simplex(2, 3), circle(3),
            product(circle(2), circle(2)))]
        P = filtered_ez(free_abelian(standard_simplex(1, 2)),
                        free_abelian(circle(2)))
        S_F, S_G, S_H = (SpectralSequence(X) for X in (P.F, P.G, P.H))
        pairing = induced_pairing(P, S_F, S_G, S_H, 1)
        out.append(leibniz_check(pairing))
        out += [leibniz_check(pairing.corrupted(key, i, j))
                for key, tbl in pairing.products.items()
                for i, row in enumerate(tbl) for j in range(len(row))]
        return [(c.ok, c.witness, c.detail) for c in out]

    lazy = certificates()
    real = SpectralSequence.__init__

    def eager(self, F, r_max=None):
        real(self, F, r_max)
        read_every_page(self)

    monkeypatch.setattr(SpectralSequence, "__init__", eager)
    assert certificates() == lazy
    assert any(not ok for ok, _, _ in lazy)


@pytest.mark.parametrize("r_max", [0, -2])
def test_a_page_bound_below_one_is_rejected(r_max):
    # r_max = -2 once computed pages 1 to p_max + 1 as if it were absent
    F = zrandom.rand_filtration(random.Random(54), p_max=2)
    with pytest.raises(ValueError, match=f"^r_max must be at least 1, "
                                         f"not {r_max}$"):
        SpectralSequence(F, r_max=r_max)


def test_invariant_checks_are_named_and_stop_at_the_first_failure(
        monkeypatch):
    from zilber import cli
    from zilber.simplicial import CheckCertificate
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
            for j, col in enumerate(row):
                if col:  # a nonzero product column
                    cand = pairing.corrupted(key, i, j)
                    if not leibniz_check(cand).ok:
                        broken = cand
                        break
            if broken:
                break
        if broken:
            break
    assert broken is not None


def leibniz_by_generator_pairs(pairing):
    """Oracle for leibniz_check: (ok, witness, detail) with both sides of
    d_r(x·y) = d_r(x)·y + (-1)^{p+q} x·d_r(y) computed one generator pair
    (x_i, y_j) at a time, as plain lists."""
    r = pairing.r
    S_F, S_G, S_H = pairing.S_F, pairing.S_G, pairing.S_H
    ph = S_H.pages[r]

    def coords(entry, key, i, j):
        """The coordinates of the product column (i, j) of key in entry."""
        (p, q), (p2, q2) = key
        col = la.Sparse((pairing.products[key][i][j],),
                        S_H.F.ambient.rank(p + q + p2 + q2))
        return [x for (x,) in la.rows(entry.coords(col))]

    for (pq1, pq2), tbl in pairing.products.items():
        (p, q), (p2, q2) = pq1, pq2
        tgt = ph.get((p + p2 - r, q + q2 + r - 1))
        if tgt is None or not tgt.ngens:
            continue
        src = ph[(p + p2, q + q2)]
        d_h = la.rows(S_H.diffs[r][(p + p2, q + q2)])
        d_f, d_g = S_F.diffs[r][pq1], S_G.diffs[r][pq2]
        f_key, g_key = ((p - r, q + r - 1), pq2), (pq1, (p2 - r, q2 + r - 1))
        sign = -1 if (p + q) % 2 else 1
        for i, row in enumerate(tbl):
            for j in range(len(row)):
                x = coords(src, (pq1, pq2), i, j)
                lhs = [sum(a * b for a, b in zip(h, x)) for h in d_h]
                rhs = [0] * tgt.ngens
                if f_key in pairing.products:
                    for k, a in d_f[i]:
                        rhs = [u + a * v for u, v in
                               zip(rhs, coords(tgt, f_key, k, j))]
                if g_key in pairing.products:
                    for k, b in d_g[j]:
                        rhs = [u + sign * b * v for u, v in
                               zip(rhs, coords(tgt, g_key, i, k))]
                if [(u - v) % o if o else u - v
                        for u, v, o in zip(lhs, rhs, tgt.orders)] != \
                        [0] * tgt.ngens:
                    return (False, (pq1, i, pq2, j),
                            "Leibniz rule fails on a generator pair")
    return True, None, f"Leibniz rule holds on page {r}"


def test_leibniz_check_equals_the_per_pair_oracle():
    # {Δ¹, Δ², S¹}² at bound 3 and r = 1..3, each pairing and every table
    # with one product negated: 202 certificates, 139 of them failing
    spaces = (standard_simplex(1, 3), standard_simplex(2, 3), circle(3))
    certs = []
    for X, Y in itertools.product(spaces, repeat=2):
        P = filtered_ez(free_abelian(X), free_abelian(Y))
        seqs = [SpectralSequence(Z) for Z in (P.F, P.G, P.H)]
        for r in (1, 2, 3):
            pairing = induced_pairing(P, *seqs, r)
            for cand in [pairing] + [
                    pairing.corrupted(key, i, j)
                    for key, tbl in pairing.products.items()
                    for i, row in enumerate(tbl) for j in range(len(row))]:
                cert = leibniz_check(cand)
                certs.append((cert.ok, cert.witness, cert.detail))
                assert certs[-1] == leibniz_by_generator_pairs(cand)
    assert len(certs) == 202
    assert sum(1 for ok, _, _ in certs if not ok) == 139


def test_leibniz_check_factors_each_product_matrix_once(monkeypatch):
    # a key's products are its own left side and a d_r term of other
    # keys: over the 27 honest pairings of {Δ¹, Δ², S¹}² at bound 3 and
    # r = 1..3 there are 117 distinct product matrices, read 162 times
    spaces = (standard_simplex(1, 3), standard_simplex(2, 3), circle(3))
    calls = []
    real = la.Subquotient.coords

    def counting(self, B):
        calls.append((self, B))
        return real(self, B)

    pairings = []
    for X, Y in itertools.product(spaces, repeat=2):
        P = filtered_ez(free_abelian(X), free_abelian(Y))
        seqs = [SpectralSequence(Z) for Z in (P.F, P.G, P.H)]
        pairings += [induced_pairing(P, *seqs, r) for r in (1, 2, 3)]
    monkeypatch.setattr(la.Subquotient, "coords", counting)
    for pairing in pairings:
        before = len(calls)
        assert leibniz_check(pairing).ok
        seen = [(id(sq), B) for sq, B in calls[before:]]
        assert len(seen) == len(set(seen))  # no matrix twice in one call
    assert len(pairings) == 27 and len(calls) <= 117


def test_page_recursion_factors_only_page_sized_matrices(monkeypatch):
    # H(E_r, d_r) is computed in generator coordinates: every SNF that page
    # recursion runs at (p, q) has at most as many rows as E_r^{p,q} or its
    # d_r target has generators, never the rank of the ambient chains
    F = zrandom.rand_filtration(random.Random(59), p_max=3)
    S = SpectralSequence(F, r_max=F.p_max + 3)
    read_every_page(S)
    rows, real_homology, real_snf = [], S._homology, la._smith_with_inverses
    entry = []

    def homology(r, p, q):
        entry[:] = [(r, p, q)]
        return real_homology(r, p, q)

    monkeypatch.setattr(S, "_homology", homology)
    monkeypatch.setattr(la, "_smith_with_inverses", lambda M, track: (
        rows.append((*entry, M.nrows)) or real_snf(M, track)))
    for r in range(1, S.r_top):
        assert S.page_recursion_check(r).ok
    assert rows
    below_ambient = 0
    for (r, p, q), n in rows:
        tgt = S.pages[r].get((p - r, q + r - 1))
        bound = max(S.pages[r][(p, q)].ngens, tgt.ngens if tgt else 0)
        assert n <= bound, (r, p, q)
        below_ambient += bound < F.ambient.rank(p + q)
    assert below_ambient  # the ambient route factored larger matrices


def test_page_recursion_equals_the_ambient_formula():
    # H(E_r, d_r) in page coordinates against (Z_{r+1} + B_r)/(d Z_r^{p+r}
    # + B_r) in the ambient chains, entry by entry, past r_inf too
    rng = random.Random(73)
    filtrations = [zrandom.rand_filtration(rng, p_max=1 + t % 4,
                                           max_total_rank=(4, 8, 12)[t % 3])
                   for t in range(18)]
    filtrations += [day_convolution(*(
        zrandom.rand_filtration(rng, p_max=2, top_degree=2, max_total_rank=4)
        for _ in range(2))) for _ in range(2)]
    filtrations += [skeletal_filtration(free_abelian(X)) for X in (
        standard_simplex(0, 3), standard_simplex(1, 3),
        standard_simplex(2, 3), circle(3))]
    entries = torsion = 0
    for F in filtrations:
        S = SpectralSequence(F, r_max=F.p_max + 3)
        assert S.r_top == S.r_inf + 2
        for r in range(1, S.r_top):
            for (p, q), orders in page_recursion_orders(S, r).items():
                assert S._homology(r, p, q) == orders, (r, p, q)
                entries += 1
                torsion += any(o >= 2 for o in orders)
    assert entries > 1000 and torsion > 50


@pytest.mark.parametrize("check, r, bound", [
    ("page_recursion_check", 0, "1 <= r < 3"),
    ("page_recursion_check", 3, "1 <= r < 3"),
    ("d_squared_check", 0, "1 <= r <= 3"),
    ("d_squared_check", 4, "1 <= r <= 3")])
def test_a_check_rejects_a_page_out_of_range(check, r, bound):
    # page_recursion_check(0) once passed as "E_1 = H(E_0, d_0)", and the
    # other three raised a bare KeyError
    S = SpectralSequence(zrandom.rand_filtration(random.Random(75), p_max=1),
                         r_max=3)
    assert S.r_top == 3
    with pytest.raises(ValueError, match=f"checked for {bound}, not r = {r}$"):
        getattr(S, check)(r)
    assert getattr(S, check)(r - 1 if r else 1).ok


def zero_first_nonzero_block(self, r, page,
                             real=spectral._Store.differentials):
    """_Store.differentials with the first nonzero block of each d_r
    zeroed."""
    out = real(self, r, page)
    pq = next((pq for pq, M in out.items() if any(M)), None)
    if pq is not None:
        out[pq] = la.zeros(out[pq].nrows, out[pq].ncols)
    return out


@pytest.mark.parametrize("fault, seed, failure", [
    ("d_r zeroed", 61, ("page-recursion-r2", (2, 1, 0))),
    ("d_r zeroed", 71, ("page-recursion-r1", (1, 2, 0))),
    ("B_r without Z_{r-1}^{p-1}", 60, ("page-recursion-r1", (1, 2, 0))),
    ("B_r without Z_{r-1}^{p-1}", 61, ("page-recursion-r1", (1, 3, -1)))])
def test_page_recursion_catches_a_faulty_page(monkeypatch, fault, seed,
                                              failure):
    F = zrandom.rand_filtration(random.Random(seed), p_max=3)
    if fault == "d_r zeroed":
        monkeypatch.setattr(spectral._Store, "differentials",
                            zero_first_nonzero_block)
    else:
        monkeypatch.setattr(spectral._Store, "b_of",
                            lambda self, key: self.dz_of(key[1]))
    S = SpectralSequence(F)
    failed = [(name, cert.witness) for name, cert in _invariant_checks(S)
              if not cert.ok]
    assert failed[:1] == [failure]
    r, p, q = failure[1]
    detail = f"page recursion fails at E_{r + 1}^{{{p},{q}}}"
    with pytest.raises(AssertionError, match=f"^{re.escape(detail)}$"):
        compute_pages(F)
    if fault == "d_r zeroed":
        # the ambient formula reads Z and B alone, and misses a wrong d_r
        assert page_recursion_orders(S, r) == {
            pq: sq.orders for pq, sq in S.pages[r + 1].items()}


def test_a_relation_outside_ker_d_r_is_a_fault():
    # d_r sends the generator of order 6 of E_1^{3,-1} to a free generator:
    # d_r is not well defined, which must not pass
    S = SpectralSequence(zrandom.rand_filtration(random.Random(59), p_max=3))
    assert S.pages[1][(3, -1)].orders == [6, 0]
    assert S.pages[1][(2, -1)].orders == [0]
    S.diffs[1][(3, -1)] = la.Sparse([((0, 1),), ()], 1)
    for check in (lambda: S._homology(1, 3, -1),
                  lambda: S.page_recursion_check(1)):
        with pytest.raises(AssertionError, match="^B is not contained in Z$"):
            check()


def test_report_is_json_shaped():
    import json
    F = skeletal_filtration(free_abelian(circle(2)))
    S = SpectralSequence(F)
    rep = json.loads(json.dumps(S.to_report()))
    assert rep["format"] == "ss" and rep["version"] == 1
    assert "1" in rep["pages"]


def rational_nullspace(cols, nrows):
    """A basis over ℚ of {c : Σ c_j cols[j] = 0}, by Gauss–Jordan
    elimination on Fractions (no Smith form)."""
    k = len(cols)
    A = [[Fraction(cols[j][i]) for j in range(k)] for i in range(nrows)]
    pivots = []
    for c in range(k):
        top = len(pivots)
        piv = next((i for i in range(top, nrows) if A[i][c]), None)
        if piv is None:
            continue
        A[top], A[piv] = A[piv], A[top]
        A[top] = [x / A[top][c] for x in A[top]]
        for i in range(nrows):
            if i != top and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[top])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(k) if c not in pivots):
        v = [Fraction(0)] * k
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -A[i][f]
        basis.append(v)
    return basis


def rational_free_ranks(F, r_last):
    """dim_ℚ Z_r - dim_ℚ B_r for every E_r^{p,q}, r <= r_last, straight
    from the stages of F: Z_r^{p,n} = {x in F_p : dx in F_{p-r}} and
    B_r^{p,n} = Z_{r-1}^{p-1,n} + d Z_{r-1}^{p+r-1,n+1} over ℚ."""
    amb = F.ambient
    top = amb.top_degree

    def d(n, v):
        return [sum(a * x for a, x in zip(row, v))
                for row in la.rows(amb.diff(n))]

    def columns(M):
        return la.rows(la.transpose(M))

    def dim(vectors, n):
        return len(vectors) - len(rational_nullspace(vectors, amb.rank(n)))

    def z(r, p, n):
        if p < 0 or not 0 <= n <= top:
            return []
        S = columns(F.stage(p, n))
        if r == 0 or n == 0:
            return S
        T = columns(F.stage(p - r, n - 1))
        ker = rational_nullspace([d(n, v) for v in S] +
                                 [[-x for x in t] for t in T], amb.rank(n - 1))
        return [[sum(c * v[i] for c, v in zip(k, S))
                 for i in range(amb.rank(n))] for k in ker]

    def b(r, p, n):
        return z(r - 1, p - 1, n) + [d(n + 1, v)
                                     for v in z(r - 1, p + r - 1, n + 1)]

    return {(r, p, n - p): dim(z(r, p, n), n) - dim(b(r, p, n), n)
            for r in range(1, r_last + 1) for p in range(F.p_max + 1)
            for n in range(top + 1)}


def test_free_ranks_of_every_page_match_a_rational_oracle():
    rng = random.Random(57)
    filtrations = [zrandom.rand_filtration(rng, p_max=1 + t % 4)
                   for t in range(12)]
    filtrations.append(skeletal_filtration(free_abelian(
        product(circle(2), circle(2)))))
    filtrations.append(day_convolution(*(
        zrandom.rand_filtration(rng, p_max=2, top_degree=2, max_total_rank=4)
        for _ in range(2))))
    moved = 0
    for F in filtrations:
        S = SpectralSequence(F, r_max=F.p_max + 2)
        want = rational_free_ranks(F, S.r_inf + 1)
        got = {(r, p, q): S.pages[r][(p, q)].free_rank
               for r, p, q in want}
        assert got == want
        moved += any(want[(1, p, q)] != want[(S.r_inf, p, q)]
                     for _, p, q in want)
    assert moved  # some d_r is nonzero over ℚ


# ---------------------------------------------------------------------------
# convergence keyed on stage ids


def convergence_by_definition(S):
    """Oracle for convergence_check: (ok, witness), with ker d ∩ F_p and
    each graded piece computed afresh for every p, no stage shared."""
    amb = S.F.ambient
    einf = S.infinity()
    for n in range(amb.top_degree + 1):
        kern = la.kernel_basis(amb.diff(n))
        im = la.image_basis(amb.diff(n + 1))
        zp1 = la.zeros(amb.rank(n), 0)
        for p in range(S.F.p_max + 1):
            zp = _span_of_preimage(kern, kern, S.F.stage(p, n), {})
            gr = la.Subquotient(la.Span(la.hstack(zp, im)),
                                la.hstack(zp1, im))
            zp1 = zp
            if gr.orders != einf[(p, n - p)].orders:
                return False, (p, n - p)
    return True, None


def repeated_stages(F, rng):
    """F with each stage listed one to three times: equal stages, next to
    each other, under other p."""
    stages = [stage for stage in F.stages for _ in range(rng.randrange(1, 4))]
    return FilteredChainComplex(F.ambient, stages, len(stages) - 1)


def repeated_filtrations():
    rng = random.Random(61)
    out = [repeated_stages(zrandom.rand_filtration(rng, p_max=1 + t % 3,
                                                   max_total_rank=6), rng)
           for t in range(8)]
    T = skeletal_filtration(free_abelian(product(circle(2), circle(2))))
    out.append(FilteredChainComplex(T.ambient, [T.stages[0]] + T.stages,
                                    T.p_max + 1))
    return out


def counted_snfs(monkeypatch):
    calls = []
    real = la._smith_with_inverses

    def counted(M, track):
        calls.append(M)
        return real(M, track)

    monkeypatch.setattr(la, "_smith_with_inverses", counted)
    return calls


def test_keyed_convergence_gives_the_same_certificate_with_fewer_snfs(
        monkeypatch):
    snfs = counted_snfs(monkeypatch)
    for F in repeated_filtrations():
        S = SpectralSequence(F)
        list(S.infinity().values())
        del snfs[:]
        cert = S.convergence_check()
        keyed = len(snfs)
        del snfs[:]
        assert (cert.ok, cert.witness) == convergence_by_definition(S) == \
            (True, None)
        assert keyed < len(snfs)


def test_compute_pages_factors_each_distinct_z_matrix_once(monkeypatch):
    # entries, page recursion and convergence of a filtration with
    # repeated stages read many Z generator matrices under many keys: each
    # distinct nonzero one is factored by one SNF, and a stage by none
    # beyond the filtration's own span
    filtrations = repeated_filtrations()
    snfs = counted_snfs(monkeypatch)
    spans = []
    real = la.Span
    monkeypatch.setattr(la, "Span", lambda A: spans.append(A) or real(A))
    for F in filtrations:
        stages = set()
        for p in range(F.p_max + 1):
            for n in range(F.ambient.top_degree + 1):
                F.span(p, n)
                stages.add((F.ambient.rank(n), F.stage(p, n)))
        del snfs[:], spans[:]
        compute_pages(F)
        z_ids = set(map(id, spans))
        factored = [(M.nrows, M) for M in snfs if id(M) in z_ids]
        assert factored
        assert len(set(factored)) == len(factored)
        assert not set(factored) & stages


class Forgetful(dict):
    """A memo that keeps nothing, so that every question is answered
    afresh."""

    def __setitem__(self, key, value):
        pass


def test_one_sequence_answers_each_linear_algebra_question_once(
        monkeypatch):
    # one Subquotient per (Z span, B value), and no kernel or image
    # matrix factored twice, over every page and check of compute_pages
    F = zrandom.rand_filtration(random.Random(71), p_max=4)
    quotients, factored = [], []
    real_sq, real_snf = la.Subquotient, la._smith_with_inverses

    def subquotient(Z, B):
        quotients.append((id(Z), B.nrows, B))
        return real_sq(Z, B)

    def smith(M, track):
        if track in (("V",), ("Uinv",)):  # kernel_basis, image_basis
            factored.append((track, M.nrows, M))
        return real_snf(M, track)

    monkeypatch.setattr(la, "Subquotient", subquotient)
    monkeypatch.setattr(la, "_smith_with_inverses", smith)
    S = compute_pages(F)
    monkeypatch.undo()
    assert quotients and len(set(quotients)) == len(quotients)
    assert factored and len(set(factored)) == len(factored)
    # the same pages from a store that keeps no answer
    T = SpectralSequence(F)
    T._store.memo = Forgetful()
    for r in S.pages:
        for pq, sq in S.pages[r].items():
            assert sq.orders == T.pages[r][pq].orders, (r, pq)
            assert la.mat_eq(S.diffs[r][pq], T.diffs[r][pq]), (r, pq)
    assert all(cert.ok for _, cert in _invariant_checks(T))


def test_keyed_convergence_catches_every_corrupted_infinity_entry():
    for F in repeated_filtrations()[::3]:
        S = SpectralSequence(F)
        einf = dict(S.infinity().items())
        for key, sq in einf.items():
            # a torsion summand more, or the last summand dropped
            orders = sq.orders[:-1] if sq.orders else [3]
            fake = {**einf, key: SimpleNamespace(orders=orders)}
            S.infinity = lambda fake=fake: fake
            cert = S.convergence_check()
            assert (cert.ok, cert.witness) == \
                convergence_by_definition(S) == (False, key)
