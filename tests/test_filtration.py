"""Filtered chain complexes: skeletal filtrations, graded pieces, Day
convolution, filtered pairings."""

import json
import random

import pytest

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber.chains import ChainMap, homology, identity_chain_map
from zilber.delta import enumerate_surjections
from zilber.doldkan import normalize
from zilber.filtration import (FilteredChainComplex, FilteredPairing,
                               _kron_columns, _tensor_column,
                               constant_filtration,
                               convolution_associativity_check,
                               convolution_symmetry_check, day_convolution,
                               filtered_ez, filtrations_stagewise_equal,
                               graded_pieces, skeletal_filtration,
                               unit_filtration)
from zilber.simplicial import circle, free_abelian, product, standard_simplex


def stage_rank(F, p, n):
    return la.image_basis(F.stage(p, n)).ncols


def test_skeletal_filtration_of_interval():
    A = free_abelian(standard_simplex(1, 1))
    F = skeletal_filtration(A)
    # normalized ranks (2, 1): stage 0 sees the vertices only
    assert [stage_rank(F, 0, n) for n in range(2)] == [2, 0]
    assert [stage_rank(F, 1, n) for n in range(2)] == [2, 1]


def test_skeletal_stages_are_nested_and_exhaustive():
    A = free_abelian(circle(3))
    F = skeletal_filtration(A)  # constructor validates
    assert F.p_max == 3
    for n in range(4):
        assert stage_rank(F, F.p_max, n) == F.ambient.rank(n)


def skeletal_stages_one_by_one(A):
    """stages[p][k] for every p and k, each computed on its own from the
    surjections [k] ->> [j], j <= p."""
    proj = normalize(A).projection
    return [{k: la.image_basis(la.mat_mul(proj.mat(k), la.hstack(
                *[A.operator_matrix(eta) for j in range(min(p, k) + 1)
                  for eta in enumerate_surjections(k, j)])))
             for k in range(A.dim_bound + 1)}
            for p in range(A.dim_bound + 1)]


SKELETAL_GROUPS = {
    "Z[s1]": lambda: free_abelian(circle(3)),
    "Z[delta2]": lambda: free_abelian(standard_simplex(2, 3)),
    # not free: image_basis changes the basis of some stages
    "conjugate": lambda: zrandom.conjugate_simplicial(
        random.Random(3), free_abelian(product(standard_simplex(1, 3),
                                               circle(3)))),
}


@pytest.mark.parametrize("name", SKELETAL_GROUPS)
def test_skeletal_stages_match_the_per_stage_computation(name):
    A = SKELETAL_GROUPS[name]()
    F = skeletal_filtration(A)
    want = skeletal_stages_one_by_one(A)
    assert F.p_max == A.dim_bound
    for p in range(F.p_max + 1):
        for k in range(A.dim_bound + 1):
            assert la.mat_eq(F.stage(p, k), want[p][k])
    if name == "conjugate":
        assert any(F.stage(p, k) != la.identity(F.ambient.rank(k))
                   for p in range(F.p_max + 1) for k in range(p + 1)
                   if F.stage(p, k).ncols == F.ambient.rank(k))


def test_graded_pieces_of_triangle_concentrated_in_stage_degree():
    A = free_abelian(standard_simplex(2, 2))
    F = skeletal_filtration(A)
    pieces = graded_pieces(F)
    for p, (C, lifts) in enumerate(pieces):
        h = homology(C)
        for n, inv in enumerate(h):
            if n == p:
                assert not inv.torsion
            else:
                assert inv.is_trivial
    # nondegenerate counts 3, 3, 1 appear as the graded homology ranks
    assert [homology(pieces[p][0])[p].free_rank for p in range(3)] \
        == [3, 3, 1]


def test_day_convolution_with_unit_is_identity():
    rng = random.Random(21)
    unit = unit_filtration()
    for _ in range(5):
        F = zrandom.rand_filtration(rng)
        conv = day_convolution(F, unit)
        assert filtrations_stagewise_equal(conv, F)


def test_day_convolution_stages_are_those_of_every_term():
    # stage n of F ⊛ G sums F_p ⊗ G_{n-p} over the p with p <= p_max(F) and
    # n - p <= p_max(G) only; the full sum over 0 <= p <= n spans the same
    rng = random.Random(28)
    pairs = [(zrandom.rand_filtration(rng, p_max=a, top_degree=2,
                                      max_total_rank=5),
              zrandom.rand_filtration(rng, p_max=b, top_degree=2,
                                      max_total_rank=5))
             for a, b in [(1, 3), (3, 1), (0, 2), (2, 4)]]
    F = pairs[0][0]
    pairs += [(F, unit_filtration()), (unit_filtration(), F),
              (unit_filtration(2), F)]
    for F, G in pairs:
        conv = day_convolution(F, G)
        tb = conv.basis
        for n in range(conv.p_max + 1):
            for k in range(tb.top_degree + 1):
                full = _kron_columns(tb.rank(k), [
                    (off, F.stage(p, a), G.stage(n - p, b))
                    for p in range(n + 1) for a, b, off in tb.blocks(k)])
                assert la.spans_equal(conv.stage(n, k), full), (n, k)


def test_day_convolution_p_max_is_additive():
    rng = random.Random(22)
    F = zrandom.rand_filtration(rng, p_max=2, top_degree=1)
    G = zrandom.rand_filtration(rng, p_max=3, top_degree=1)
    assert day_convolution(F, G).p_max == 5


def test_convolution_symmetry_and_associativity():
    rng = random.Random(23)
    for _ in range(3):
        F = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                    max_total_rank=3)
        G = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                    max_total_rank=3)
        H = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                    max_total_rank=3)
        assert convolution_symmetry_check(F, G).ok
        assert convolution_associativity_check(F, G, H).ok


def test_filtered_ez_containment_and_unit_stage():
    A = free_abelian(standard_simplex(1, 2))
    B = free_abelian(circle(2))
    P = filtered_ez(A, B)
    assert P.containment_certificate().ok
    assert P.filtration_zero_certificate().ok


def _first_escape(P):
    """Oracle for the containment certificate: test m(x ⊗ y) ∈ H_{p+q} one
    generator pair at a time and return the first failing (p, q, n)."""
    tb = P.basis
    for p in range(P.F.p_max + 1):
        for q in range(P.G.p_max + 1):
            for n in range(tb.top_degree + 1):
                for a in range(min(n, P.F.ambient.top_degree) + 1):
                    if n - a > P.G.ambient.top_degree:
                        continue
                    for x in la.columns(P.F.stage(p, a)):
                        for y in la.columns(P.G.stage(q, n - a)):
                            img = la.mat_vec(P.m.mat(n), _tensor_column(
                                tb, a, x, n - a, y))
                            if not la.in_span(P.H.stage(p + q, n), img):
                                return p, q, n
    return None


def test_containment_witness_is_the_first_escaping_triple():
    rng = random.Random(26)
    witnesses = set()
    for _ in range(40):
        # F ⊛ G with the identity is a compatible pairing; one perturbed
        # entry of the identity may make it escape
        F, G = (zrandom.rand_filtration(rng, p_max=2, max_total_rank=4)
                for _ in range(2))
        H = day_convolution(F, G)
        P = FilteredPairing(F, G, H, identity_chain_map(H.ambient), H.basis)
        # perturb one entry of m: the pairing need not be compatible now
        mats = dict(P.m.mats)
        n = rng.choice([n for n, M in mats.items() if all(la.dims(M))])
        M = la.rows(mats[n])
        M[rng.randrange(len(M))][rng.randrange(mats[n].ncols)] \
            += rng.choice([-1, 1])
        mats[n] = la.as_sparse(M, *la.dims(mats[n]))
        m = ChainMap(P.m.source, P.m.target, mats, check=False)
        Q = FilteredPairing(P.F, P.G, P.H, m, P.basis, check=False)
        cert = Q.containment_certificate()
        want = _first_escape(Q)
        assert cert.ok == (want is None)
        if want is not None:
            p, q, k = want
            assert cert.witness == want
            assert cert.detail == f"m(F_{p} ⊗ G_{q}) escapes H_{p+q} in degree {k}"
            witnesses.add(want)
    assert len(witnesses) >= 3


def test_filtration_validation_rejects_non_closed_stage():
    from zilber.chains import ChainComplex
    C = ChainComplex([1, 1], {1: [[1]]})
    # stage 0 contains the generator in degree 1 but not its boundary
    stages = [{0: [[]], 1: [[1]]},
              {0: [[1]], 1: [[1]]}]
    with pytest.raises(ValueError):
        FilteredChainComplex(C, stages, 1)


def test_validation_factors_each_distinct_stage_once(monkeypatch):
    factored = []
    real = la.Span

    def counted(A):
        factored.append(A)
        return real(A)

    monkeypatch.setattr(la, "Span", counted)
    rng = random.Random(29)
    filtrations = [zrandom.rand_filtration(rng, p_max=3) for _ in range(8)]
    filtrations.append(skeletal_filtration(free_abelian(
        product(circle(2), circle(2)))))
    for F in filtrations:
        factored.clear()
        FilteredChainComplex(F.ambient, F.stages, F.p_max)
        stages = {(F.ambient.rank(n), F.stage(p, n))
                  for p in range(F.p_max + 1)
                  for n in range(F.ambient.top_degree + 1)}
        assert {(A.nrows, A) for A in factored} <= stages
        assert len({(A.nrows, A) for A in factored}) == len(factored)


def test_filtration_payload_roundtrip():
    rng = random.Random(24)
    F = zrandom.rand_filtration(rng)
    payload = json.loads(json.dumps(F.to_payload()))
    G = FilteredChainComplex.from_payload(payload)
    assert filtrations_stagewise_equal(F, G)


def test_constant_filtration_is_everything_at_stage_zero():
    rng = random.Random(25)
    C = zrandom.rand_complex(rng)
    F = constant_filtration(C)
    for n in range(C.top_degree + 1):
        assert stage_rank(F, 0, n) == C.rank(n)


def _per_column_violation(F):
    """Oracle for FilteredChainComplex validation: every column tested on
    its own, in stage, degree and column order; the message of the first
    failure, or None."""
    top = F.ambient.top_degree
    for p in range(F.p_max + 1):
        for n in range(top + 1):
            for v in la.columns(F.stages[p][n]):
                if n >= 1 and not la.in_span(
                        F.stage(p, n - 1), la.mat_vec(F.ambient.diff(n), v)):
                    return f"stage {p} is not closed under d in degree {n}"
                if p < F.p_max and not la.in_span(F.stage(p + 1, n), v):
                    return (f"stage {p} is not contained in stage {p+1} "
                            f"in degree {n}")
    for n in range(top + 1):
        if not la.spans_equal(F.stage(F.p_max, n),
                              la.identity(F.ambient.rank(n))):
            return f"top stage does not exhaust the ambient in degree {n}"
    return None


@pytest.mark.parametrize("columns, message", [
    ([[1, 0], [0, 1]], "stage 0 is not closed under d in degree 1"),
    ([[0, 1], [1, 0]], "stage 0 is not contained in stage 1 in degree 1")],
    ids=["closure-first", "nesting-first"])
def test_validation_reports_the_first_offending_column(columns, message):
    from zilber.chains import ChainComplex
    # d e1 = v, d e2 = 0; stage 1 is span(e1) over ℤv.  In stage 0 (zero in
    # degree 0), e1 breaks closure only and e2 nesting only.
    C = ChainComplex([1, 2], {1: [[1, 0]]})
    stages = [{0: [[]], 1: columns},
              {0: [[1]], 1: [[1], [0]]},
              {0: [[1]], 1: [[1, 0], [0, 1]]}]
    with pytest.raises(ValueError) as err:
        FilteredChainComplex(C, stages, 2)
    assert str(err.value) == message
    assert _per_column_violation(FilteredChainComplex(C, stages, 2,
                                                      check=False)) == message


def test_validation_rejects_a_top_stage_of_full_rank_but_index_two():
    from zilber.chains import ChainComplex
    C = ChainComplex([1, 1], {1: [[0]]})
    with pytest.raises(ValueError, match="^top stage does not exhaust the "
                                         "ambient in degree 1$"):
        FilteredChainComplex(C, [{0: [[1]], 1: [[2]]}], 0)


def test_validation_matches_the_per_column_oracle():
    rng = random.Random(27)
    kinds = set()
    for _ in range(150):
        F = zrandom.rand_filtration(rng, p_max=3, top_degree=2,
                                    max_total_rank=5)
        # one perturbed stage entry may break closure, nesting or exhaustion
        stages = [dict(stage) for stage in F.stages]
        cells = [(p, n, i, j) for p, stage in enumerate(stages)
                 for n, M in stage.items()
                 for i in range(M.nrows) for j in range(M.ncols)]
        if cells:
            p, n, i, j = rng.choice(cells)
            M = la.rows(stages[p][n])
            M[i][j] += rng.choice([-1, 1, 2])
            stages[p][n] = la.as_sparse(M, *la.dims(stages[p][n]))
        want = _per_column_violation(
            FilteredChainComplex(F.ambient, stages, F.p_max, check=False))
        if want is None:
            FilteredChainComplex(F.ambient, stages, F.p_max)
        else:
            with pytest.raises(ValueError) as err:
                FilteredChainComplex(F.ambient, stages, F.p_max)
            assert str(err.value) == want
            kinds.add(next(k for k in ("closed", "contained", "exhaust")
                           if k in want))
    assert kinds == {"closed", "contained", "exhaust"}


def test_filtered_ez_computes_its_containment_certificate_once(monkeypatch):
    calls = []
    real = FilteredPairing._check_containment

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FilteredPairing, "_check_containment", counting)
    P = filtered_ez(free_abelian(standard_simplex(1, 2)),
                    free_abelian(circle(2)))
    assert P.containment_certificate().ok
    assert calls == [P]
    Q = FilteredPairing(P.F, P.G, P.H, P.m, P.basis, check=False)
    assert calls == [P]
    assert Q.containment_certificate() is Q.containment_certificate()
    assert calls == [P, Q]
