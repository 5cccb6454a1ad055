"""Filtered chain complexes: skeletal filtrations, Day convolution,
filtered pairings."""

import json
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import _random as zrandom
from zilber import filtration
from zilber import intlinalg as la
from zilber.chains import ChainMap, identity_chain_map, tensor
from zilber.delta import enumerate_surjections
from zilber.doldkan import normalize
from zilber.ez import _koszul_swap, _tensor_associator
from zilber.filtration import (FilteredChainComplex, FilteredPairing,
                               _kron_columns, constant_filtration,
                               convolution_associativity_check,
                               convolution_symmetry_check, day_convolution,
                               filtered_ez, filtrations_stagewise_equal,
                               skeletal_filtration, unit_filtration)
from zilber.simplicial import circle, free_abelian, product, standard_simplex
from zilber.spectral import heart_check

import oracles


def one_by_one(M):
    """The columns of M, each as a one-column matrix."""
    return [la.Sparse((col,), M.nrows) for col in M]


def spans_equal(A, B):
    """Do A and B span the same lattice?  Factors both sides afresh."""
    return la.Span(A).contains(B) and la.Span(B).contains(A)


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
    definition: the images under the normalization projection of the
    operators of the surjections [k] ->> [j], j <= p.

    The generators run from j = min(p, k) down to 0, so for p >= k the
    identity of [k] comes first.  image_basis depends on the order of the
    generators: after P_k itself come only the columns P_k A(eta) that the
    lemma says are zero, and trailing zero columns leave the Smith normal
    form of P_k as it is."""
    proj = normalize(A).projection
    return [{k: la.image_basis(la.mat_mul(proj.mat(k), la.hstack(
                *[A.operator_matrix(eta)
                  for j in reversed(range(min(p, k) + 1))
                  for eta in enumerate_surjections(k, j)])))
             for k in range(A.dim_bound + 1)}
            for p in range(A.dim_bound + 1)]


def assert_skeletal_stages_are_the_definitional_ones(A):
    """The stages of skeletal_filtration(A) (of the oracle's, if A is not
    ℤ[X]) span the definitional ones.  On ℤ[X] they are the definitional
    image bases matrix for matrix; on other groups image_basis may pick
    another basis of a stage, so they are compared as spans.  Returns the
    definitional stages."""
    F = (oracles.skeletal_filtration if A.simplicial_set is None
         else skeletal_filtration)(A)
    want = skeletal_stages_one_by_one(A)
    assert F.p_max == A.dim_bound
    assert filtrations_stagewise_equal(
        F, FilteredChainComplex(F.ambient, want, F.p_max))
    if A.simplicial_set is not None:
        for p in range(F.p_max + 1):
            for k in range(A.dim_bound + 1):
                assert la.mat_eq(F.stage(p, k), want[p][k]), (p, k)
    return want


SKELETAL_GROUPS = {
    "Z[s1]": lambda: free_abelian(circle(3)),
    "Z[delta2]": lambda: free_abelian(standard_simplex(2, 3)),
    # not free: image_basis changes the basis of some stages
    "conjugate": lambda: oracles.conjugate_simplicial(
        random.Random(3), free_abelian(product(standard_simplex(1, 3),
                                               circle(3)))),
}


@pytest.mark.parametrize("name", SKELETAL_GROUPS)
def test_skeletal_stages_match_the_per_stage_computation(name):
    A = SKELETAL_GROUPS[name]()
    want = assert_skeletal_stages_are_the_definitional_ones(A)
    # skeletal_filtration writes every full stage as the identity; the
    # definitional image basis of P_k is another basis on the conjugate
    F = (oracles.skeletal_filtration if name == "conjugate"
         else skeletal_filtration)(A)
    full = [(p, k) for p in range(A.dim_bound + 1) for k in range(p + 1)]
    assert all(la.mat_eq(F.stage(p, k),
                         la.identity(want[p][k].nrows)) for p, k in full)
    assert (name == "conjugate") == any(
        want[p][k] != la.identity(want[p][k].nrows) for p, k in full)


SKELETAL_SPACES = {
    "delta1": lambda D: standard_simplex(1, D),
    "delta2": lambda D: standard_simplex(2, D),
    "s1": circle,
    "delta1 x s1": lambda D: product(standard_simplex(1, D), circle(D)),
}


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(sorted(SKELETAL_SPACES)),
       dim_bound=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_skeletal_stages_of_conjugated_groups_are_the_definitional_ones(
        space, dim_bound, seed):
    # conjugated groups are not free, so normalize takes its Smith normal
    # form path and image_basis may give definitional stages other than
    # the identity: the stages are compared as spans
    A = oracles.conjugate_simplicial(
        random.Random(seed), free_abelian(SKELETAL_SPACES[space](dim_bound)))
    assert_skeletal_stages_are_the_definitional_ones(A)


def projection_that_misses_s0(monkeypatch, k):
    """Make the normalization that the oracle's skeletal filtration reads
    return a projection which, in degree k, sends a column of
    s_0 : A_{k-1} -> A_k to nonzero."""
    def broken(A):
        nres = normalize(A)
        P = nres.projection.mat(k)
        row = A.degen_mats[(k - 1, 0)][0][0][0]  # a coordinate s_0 hits
        hit = la.Sparse([((0, 1),) if c == row else ()
                         for c in range(P.ncols)], P.nrows)
        mats = dict(nres.projection.mats)
        mats[k] = la.mat_sum([(1, P), (1, hit)])
        return nres._replace(projection=ChainMap(
            nres.projection.source, nres.normalized, mats, check=False))

    monkeypatch.setattr(oracles, "normalize", broken)


def test_skeletal_filtration_checks_that_the_projection_kills_degeneracies(
        monkeypatch):
    # the premise is checked on the oracle's matrix path; ℤ[X] normalizes
    # nothing
    projection_that_misses_s0(monkeypatch, 1)
    with pytest.raises(AssertionError,
                       match="^projection P_1 does not kill s_0$"):
        oracles.skeletal_filtration(_matrix_copy(circle(2)))


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
                assert spans_equal(conv.stage(n, k), full), (n, k)


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
                    for x in one_by_one(P.F.stage(p, a)):
                        for y in one_by_one(P.G.stage(q, n - a)):
                            xy = oracles.kron_sum(tb.rank(n), 1, [
                                (x, y, tb.offset(n, a), 0, 1)])
                            img = la.mat_mul(P.m.mat(n), xy)
                            if not la.Span(P.H.stage(p + q, n)).contains(img):
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
        Q = FilteredPairing(P.F, P.G, P.H, m, P.basis)
        cert = Q.containment_certificate()
        want = _first_escape(Q)
        assert cert.ok == (want is None)
        if want is not None:
            p, q, k = want
            assert cert.witness == want
            assert cert.detail == f"m(F_{p} ⊗ G_{q}) escapes H_{p+q} in degree {k}"
            witnesses.add(want)
    assert len(witnesses) >= 3


def test_skeletal_containment_holds_for_any_map_of_the_right_shape():
    # F_p ⊗ G_q lives in degrees n <= p + q, where the skeletal H_{p+q} is
    # all of N_n(A⊗B): the certificate passes for 2·∇ and for an m that is
    # not even a chain map.  The non-skeletal filtrations of
    # test_containment_witness_is_the_first_escaping_triple can fail it.
    rng = random.Random(71)
    P = filtered_ez(free_abelian(circle(3)),
                    free_abelian(standard_simplex(2, 3)))
    twice = ChainMap(P.m.source, P.m.target,
                     {n: la.mat_scale(2, M) for n, M in P.m.mats.items()})
    noise = ChainMap(P.m.source, P.m.target, {
        n: la.as_sparse([[rng.randint(-3, 3) for _ in range(M.ncols)]
                         for _ in range(M.nrows)], M.nrows, M.ncols)
        for n, M in P.m.mats.items()}, check=False)
    for m in (twice, noise):
        Q = FilteredPairing(P.F, P.G, P.H, m, P.basis)
        assert Q.containment_certificate().ok
    # the stage-0 certificate is the one that tells 2·∇ from ∇
    assert P.filtration_zero_certificate().ok
    assert not FilteredPairing(P.F, P.G, P.H, twice,
                               P.basis).filtration_zero_certificate().ok


def filtration_zero_by_convolution(P):
    """Oracle for the stage-0 certificate: (ok, witness) read off stage 0
    of the whole Day convolution F ⊛ G, in the degrees it shares with P."""
    conv = day_convolution(P.F, P.G)
    for n in range(min(conv.basis.top_degree, P.basis.top_degree) + 1):
        src = conv.stage(0, n)
        img = la.mat_mul(P.m.mat(n), src)
        if not spans_equal(img, P.H.stage(0, n)) or \
                la.rank(src) != la.rank(img):
            return False, n
    return True, None


def test_stage_zero_certificate_matches_the_whole_convolution(monkeypatch):
    # stage 0 is built from F_0 ⊗ G_0 on the pairing's basis, with no Day
    # convolution: it gives the certificate of the convolution's stage 0
    rng = random.Random(72)
    results = []
    for X, Y in [(circle(2), standard_simplex(1, 2)),
                 (standard_simplex(2, 2), circle(2)), (circle(2), circle(2))]:
        P = filtered_ez(free_abelian(X), free_abelian(Y))
        maps = [P.m, ChainMap(P.m.source, P.m.target, {
            n: la.mat_scale(2, M) for n, M in P.m.mats.items()})]
        maps += [ChainMap(P.m.source, P.m.target, {
            n: la.as_sparse([[rng.randint(-1, 1) for _ in range(M.ncols)]
                             for _ in range(M.nrows)], M.nrows, M.ncols)
            for n, M in P.m.mats.items()}, check=False) for _ in range(3)]
        for m in maps:
            Q = FilteredPairing(P.F, P.G, P.H, m, P.basis)
            want = filtration_zero_by_convolution(Q)
            with monkeypatch.context() as patched:
                patched.setattr(filtration, "day_convolution", None)
                cert = Q.filtration_zero_certificate()
            assert (cert.ok, cert.witness) == want
            results.append(want)
    assert (True, None) in results and (False, 0) in results


def test_a_target_stage_of_full_rank_but_index_two_is_still_tested():
    # H_0 = 2ℤ in degree 0 has full rank but is not a lattice: the
    # containment test must not skip it
    F, G = unit_filtration(), unit_filtration()
    E, tb = tensor(F.ambient, G.ambient)
    H = FilteredChainComplex(E, [{0: [[2]]}, {0: [[1]]}], 1)
    for scale, ok in ((1, False), (2, True)):
        m = ChainMap(E, H.ambient, {0: [[scale]]})
        cert = FilteredPairing(F, G, H, m, tb).containment_certificate()
        assert cert.ok == ok
        if not ok:
            assert cert.witness == (0, 0, 0)
            assert cert.detail == "m(F_0 ⊗ G_0) escapes H_0 in degree 0"


def test_skeletal_containment_builds_no_image(monkeypatch):
    # F_p ⊗ G_q has columns only in degrees n <= p + q, the only ones
    # visited, and there H_{p+q} is all of N_n(A⊗B), so each is skipped
    built = []
    real = filtration._kron_columns

    def recording(nrows, pieces):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_check_containment":
            built.append(tuple(caller.f_locals[k] for k in "pqn"))
        return real(nrows, pieces)

    monkeypatch.setattr(filtration, "_kron_columns", recording)
    P = filtered_ez(free_abelian(circle(3)),
                    free_abelian(standard_simplex(2, 3)))
    assert P.containment_certificate().ok
    assert built == []


def test_filtration_validation_rejects_non_closed_stage():
    from zilber.chains import ChainComplex
    C = ChainComplex([1, 1], {1: [[1]]})
    # stage 0 contains the generator in degree 1 but not its boundary
    stages = [{0: [[]], 1: [[1]]},
              {0: [[1]], 1: [[1]]}]
    with pytest.raises(ValueError):
        FilteredChainComplex(C, stages, 1)


def test_a_negative_p_max_is_rejected_by_name():
    # it used to fail as "top stage does not exhaust the ambient"
    with pytest.raises(ValueError, match="^p_max must be nonnegative, not -1$"):
        FilteredChainComplex(unit_filtration().ambient, [], -1)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_span_is_one_object_per_clamped_stage(seed):
    rng = random.Random(seed)
    F, G = (zrandom.rand_filtration(rng, p_max=rng.randrange(4),
                                    top_degree=2, max_total_rank=5)
            for _ in range(2))
    handed = []  # the spans day_convolution hands to its output

    class Recording(FilteredChainComplex):
        def __init__(self, *args, spans=None, **kwargs):
            handed.extend((spans or {}).values())
            super().__init__(*args, spans=spans, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "FilteredChainComplex", Recording)
        conv = day_convolution(F, G)
    skeletal = skeletal_filtration(free_abelian(circle(2)))
    for X in (F, conv, skeletal):
        top, p_max = X.ambient.top_degree, X.p_max
        for n in range(-2, top + 3):
            if not 0 <= n <= top:  # every p reads the zero stage
                assert len({id(X.span(p, n))
                            for p in range(-3, p_max + 3)}) == 1
                continue
            for ps in ([-3, -2, -1], *([p] for p in range(p_max)),
                       [p_max, p_max + 1, p_max + 5]):
                sp = X.span(ps[0], n)
                assert all(X.span(p, n) is sp for p in ps)
                S = X.stage(ps[0], n)
                assert sp.contains(S) and la.Span(S).contains(sp.basis)
                if X is conv and ps[0] >= 0 and conv.basis.rank(n):
                    assert any(sp is h for h in handed)
        # a stage is looked up once per clamped p, not once per p
        assert all(-1 <= p <= p_max for p, _ in X._stage_spans)


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
            for v in one_by_one(F.stages[p][n]):
                if n >= 1 and not la.Span(F.stage(p, n - 1)).contains(
                        la.mat_mul(F.ambient.diff(n), v)):
                    return f"stage {p} is not closed under d in degree {n}"
                if p < F.p_max and not la.Span(F.stage(p + 1, n)).contains(v):
                    return (f"stage {p} is not contained in stage {p+1} "
                            f"in degree {n}")
    for n in range(top + 1):
        if not spans_equal(F.stage(F.p_max, n),
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
    emptying = random.Random(28)
    kinds, emptied_kinds = set(), set()
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
        # and a copy with one stage of positive rank left with no columns:
        # closed and nested itself, it may break the closure of the stage
        # above it in degree, or exhaustion
        variants = [(stages, kinds)]
        slots = [(p, n) for p, stage in enumerate(stages)
                 for n, M in stage.items() if M.nrows]
        if slots:
            p, n = emptying.choice(slots)
            emptied = [dict(stage) for stage in stages]
            emptied[p][n] = la.zeros(emptied[p][n].nrows, 0)
            variants.append((emptied, emptied_kinds))
        for stages, seen in variants:
            want = _per_column_violation(
                FilteredChainComplex(F.ambient, stages, F.p_max, check=False))
            if want is None:
                FilteredChainComplex(F.ambient, stages, F.p_max)
                seen.add(None)
            else:
                with pytest.raises(ValueError) as err:
                    FilteredChainComplex(F.ambient, stages, F.p_max)
                assert str(err.value) == want
                seen.add(next(k for k in ("closed", "contained", "exhaust")
                              if k in want))
    assert kinds - {None} == {"closed", "contained", "exhaust"}
    assert emptied_kinds >= {None, "closed", "exhaust"}


def test_a_sparse_stage_of_the_right_shape_is_kept_as_it_is():
    C = unit_filtration().ambient
    kept = la.identity(1)
    F = FilteredChainComplex(C, [{0: kept}], 0)
    assert F.stages[0][0] is kept
    assert la.mat_eq(FilteredChainComplex(C, [{0: [[1]]}], 0).stage(0, 0),
                     kept)
    with pytest.raises(ValueError, match="^stage \\(0,0\\) has wrong shape$"):
        FilteredChainComplex(C, [{0: la.identity(2)}], 0)


def test_filtered_ez_computes_its_containment_certificate_once(monkeypatch):
    calls = []
    real = FilteredPairing._check_containment

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FilteredPairing, "_check_containment", counting)
    P = filtered_ez(free_abelian(standard_simplex(1, 2)),
                    free_abelian(circle(2)))
    assert calls == []  # construction tests nothing
    assert P.containment_certificate() is P.containment_certificate()
    assert P.containment_certificate().ok
    assert calls == [P]
    Q = FilteredPairing(P.F, P.G, P.H, P.m, P.basis)
    assert calls == [P]
    assert Q.containment_certificate() is Q.containment_certificate()
    assert calls == [P, Q]


# ---------------------------------------------------------------------------
# kept stage spans against spans_equal, which factors both sides afresh


def stagewise_equal_by_spans_equal(F, G):
    """Oracle for filtrations_stagewise_equal."""
    top = F.ambient.top_degree
    if [F.ambient.rank(n) for n in range(top + 1)] != \
            [G.ambient.rank(n) for n in range(G.ambient.top_degree + 1)]:
        return False
    return all(spans_equal(F.stage(p, n), G.stage(p, n))
               for p in range(max(F.p_max, G.p_max) + 1)
               for n in range(top + 1))


def first_unequal_image(X, Y, mats):
    """Oracle for the symmetry and associativity checks: (ok, witness) of
    comparing span(mats[n] X_p) with Y_p stage by stage."""
    for p in range(X.p_max + 1):
        for n in range(X.ambient.top_degree + 1):
            if not spans_equal(la.mat_mul(mats[n], X.stage(p, n)),
                                  Y.stage(p, n)):
                return False, (p, n)
    return True, None


def stage_cells(X):
    """The (p, n, j) of every nonzero stage column of X."""
    return [(p, n, j) for p in range(X.p_max + 1)
            for n in range(X.ambient.top_degree + 1)
            for j, col in enumerate(X.stages[p][n]) if col]


def corrupted(X, cell, mode):
    """X, unvalidated, with column j of stage (p, n) dropped or doubled; a
    convolution keeps its basis."""
    p, n, j = cell
    stages = [dict(stage) for stage in X.stages]
    cols = list(stages[p][n])
    if mode == "drop":
        del cols[j]
    else:
        cols[j] = tuple((i, 2 * x) for i, x in cols[j])
    stages[p][n] = la.Sparse(cols, stages[p][n].nrows)
    out = FilteredChainComplex(X.ambient, stages, X.p_max, check=False)
    if hasattr(X, "basis"):
        out.basis = X.basis
    return out


MODES = st.sampled_from(["drop", "double"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_stagewise_equality_matches_spans_equal(seed, data):
    rng = random.Random(seed)
    F = zrandom.rand_filtration(rng, p_max=rng.randrange(4), top_degree=2,
                                max_total_rank=5)
    G = zrandom.rand_filtration(rng, p_max=rng.randrange(4), top_degree=2,
                                max_total_rank=5)
    conv = day_convolution(F, unit_filtration())
    pairs = [(F, G), (conv, F), (F, conv)]
    cells = stage_cells(conv)
    if cells:
        bad = corrupted(conv, data.draw(st.sampled_from(cells)),
                        data.draw(MODES))
        # a convolution stage is a basis: any dropped or doubled column
        # changes its span
        assert not filtrations_stagewise_equal(bad, F)
        pairs += [(bad, F), (F, bad)]
    for X, Y in pairs:
        assert filtrations_stagewise_equal(X, Y) == \
            stagewise_equal_by_spans_equal(X, Y)


def recording_convolutions(corrupt=None):
    """A day_convolution that records what it returns, in call order;
    corrupt = (call, draw) hands the output of that call to draw, which
    returns the convolution to use instead."""
    made = []
    real = filtration.day_convolution

    def conv(F, G):
        out = real(F, G)
        if corrupt is not None and len(made) == corrupt[0]:
            out = corrupt[1](out)
        made.append(out)
        return out

    return conv, made


def corrupt_with(data):
    """A corruption of a drawn nonzero column of a convolution, by a drawn
    mode; the convolution itself when it has no nonzero column."""

    def draw(X):
        cells = stage_cells(X)
        if not cells:
            return X
        return corrupted(X, data.draw(st.sampled_from(cells)),
                         data.draw(MODES))

    return draw


def small_filtrations(rng, k):
    return [zrandom.rand_filtration(rng, p_max=rng.randrange(3),
                                    top_degree=rng.randrange(1, 3),
                                    max_total_rank=3) for _ in range(k)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([None, 0, 1]), st.data())
def test_symmetry_check_matches_spans_equal(seed, call, data):
    F, G = small_filtrations(random.Random(seed), 2)
    conv, made = recording_convolutions(
        None if call is None else (call, corrupt_with(data)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "day_convolution", conv)
        cert = convolution_symmetry_check(F, G)
    FG, GF = made
    want = first_unequal_image(FG, GF, _koszul_swap(FG.basis, GF.basis))
    assert (cert.ok, cert.witness) == want
    if call is None:
        assert cert.ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([None, 2, 3]), st.data())
def test_associativity_check_matches_spans_equal(seed, call, data):
    F, G, H = small_filtrations(random.Random(seed), 3)
    conv, made = recording_convolutions(
        None if call is None else (call, corrupt_with(data)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filtration, "day_convolution", conv)
        cert = convolution_associativity_check(F, G, H)
    FG, GH, L, R = made
    want = first_unequal_image(
        L, R, _tensor_associator(L.basis, FG.basis, R.basis, GH.basis))
    assert (cert.ok, cert.witness) == want
    if call is None:
        assert cert.ok


def test_a_doubled_convolution_column_fails_both_checks():
    rng = random.Random(41)
    F, G, H = (zrandom.rand_filtration(rng, p_max=1, top_degree=1,
                                       max_total_rank=3) for _ in range(3))

    def double_first(X):
        return corrupted(X, stage_cells(X)[0], "double")

    for call, check, args, witness, detail, holds in [
            (1, convolution_symmetry_check, (F, G), (0, 0),
             "swap image of stage 0 differs in degree 0",
             "⊛ is symmetric stagewise"),
            (3, convolution_associativity_check, (F, G, H), (1, 0),
             "associator image of stage 1 differs in degree 0",
             "⊛ is associative stagewise")]:
        conv, _ = recording_convolutions((call, double_first))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtration, "day_convolution", conv)
            cert = check(*args)
        assert (cert.ok, cert.witness, cert.detail) == (False, witness, detail)
        cert = check(*args)
        assert (cert.ok, cert.witness, cert.detail) == (True, None, holds)


def test_day_convolution_factors_each_distinct_input_once(monkeypatch):
    # one SNF per distinct input with a nonzero entry that is not an
    # identity, and the validation of the output runs none: it reads the
    # spans the bases came from
    inputs = []
    real_span, real_snf = la.Span, la._smith_with_inverses
    snfs = []
    monkeypatch.setattr(la, "Span", lambda M: inputs.append(M) or real_span(M))
    monkeypatch.setattr(la, "_smith_with_inverses",
                        lambda M, track: snfs.append(M) or real_snf(M, track))
    rng = random.Random(43)
    for _ in range(6):
        F, G = (zrandom.rand_filtration(rng, p_max=2, max_total_rank=4)
                for _ in range(2))
        inputs.clear()
        snfs.clear()
        day_convolution(F, G)
        distinct = {(M.nrows, M) for M in inputs}
        assert len(distinct) == len(inputs)
        assert [(M.nrows, M) for M in snfs] == \
            [(M.nrows, M) for M in inputs
             if any(M) and M != la.identity(M.nrows)]


BAD_STAGES = {  # d e1 = v in degree 1 over ℤv in degree 0
    "not closed": ([{0: [[]], 1: [[1]]}, {0: [[1]], 1: [[1]]}],
                   "stage 0 is not closed under d in degree 1"),
    "not nested": ([{0: [[1]], 1: [[1]]}, {0: [[1]], 1: [[]]}],
                   "stage 0 is not contained in stage 1 in degree 1"),
    "not exhaustive": ([{0: [[1]], 1: [[]]}, {0: [[1]], 1: [[2]]}],
                       "top stage does not exhaust the ambient in degree 1"),
}


@pytest.mark.parametrize("name", sorted(BAD_STAGES))
def test_pre_factored_spans_do_not_bypass_validation(name):
    from zilber.chains import ChainComplex
    C = ChainComplex([1, 1], {1: [[1]]})
    stages, message = BAD_STAGES[name]
    stages = [{n: la.as_sparse(M, 1) for n, M in stage.items()}
              for stage in stages]
    spans = {(M.nrows, M): la.Span(M)
             for stage in stages for M in stage.values()}
    with pytest.raises(ValueError, match=f"^{message}$"):
        FilteredChainComplex(C, stages, 1, spans=spans)


def test_a_group_keeps_its_skeletal_filtration():
    # the oracle keeps the matrix filtration per group; the library refuses
    # a group without its simplicial set
    A = _matrix_copy(product(circle(2), circle(2)))
    F = oracles.skeletal_filtration(A)
    assert oracles.skeletal_filtration(A) is F
    assert oracles.filtered_ez(A, A).F is F
    with pytest.raises(ValueError, match="has no simplicial set"):
        skeletal_filtration(A)


def test_a_simplicial_set_keeps_its_basis_skeletal_filtration():
    X, Y = product(circle(2), circle(2)), standard_simplex(1, 2)
    A, B = free_abelian(X), free_abelian(Y)
    P = filtered_ez(A, B)
    assert P.F is X.nondegenerate.skeletal and P.G is Y.nondegenerate.skeletal
    assert filtered_ez(A, A).F is P.F and filtered_ez(B, A).F is P.G
    # a second group on X shares it, and skeletal_filtration reads it too
    assert filtered_ez(free_abelian(X), B).F is P.F
    assert skeletal_filtration(A) is P.F


def _matrix_copy(X):
    A = free_abelian(X)
    A.simplicial_set = None
    return A


FILTERED_SETS = {
    "pt": lambda D: standard_simplex(0, D),
    "d1": lambda D: standard_simplex(1, D),
    "d2": lambda D: standard_simplex(2, D),
    "s1": circle,
    "torus": lambda D: product(circle(D), circle(D)),
}


@pytest.mark.parametrize("D", [2, 5])
@pytest.mark.parametrize("a, b", [(a, b) for a in FILTERED_SETS
                                  for b in FILTERED_SETS],
                         ids=lambda name: name)
def test_free_skeletal_stages_are_the_matrix_ones(a, b, D):
    # the stages read off the nondegenerate bases are the image bases of
    # P_k that the oracle's matrix path computes, matrix for matrix
    X, Y = FILTERED_SETS[a](D), FILTERED_SETS[b](D)
    P = filtered_ez(free_abelian(X), free_abelian(Y))
    Q = oracles.filtered_ez(_matrix_copy(X), _matrix_copy(Y))
    for got, want in ((P.F, Q.F), (P.G, Q.G), (P.H, Q.H)):
        assert got.ambient == want.ambient and got.p_max == want.p_max
        for p in range(got.p_max + 1):
            for k in range(got.ambient.top_degree + 1):
                assert la.mat_eq(got.stage(p, k), want.stage(p, k))


def _certificate(cert):
    return cert.ok, cert.witness, cert.detail


@settings(max_examples=30, deadline=None)
@given(space=st.sampled_from(sorted(SKELETAL_SPACES) + ["torus"]),
       dim_bound=st.integers(0, 5))
def test_the_skeletal_filtration_of_a_free_group_is_the_matrix_one(
        space, dim_bound):
    # ℤ[X] reads its filtration off the nondegenerate basis; the oracle
    # normalizes a copy with no simplicial set and checks the premise
    X = {**SKELETAL_SPACES, "torus": FILTERED_SETS["torus"]}[space](dim_bound)
    A, M = free_abelian(X), _matrix_copy(X)
    got, want = skeletal_filtration(A), oracles.skeletal_filtration(M)
    assert got is X.nondegenerate.skeletal and want is not got
    assert got.p_max == want.p_max == dim_bound
    for n in range(dim_bound + 1):
        assert got.ambient.rank(n) == want.ambient.rank(n)
        if n:
            assert la.mat_eq(got.ambient.diff(n), want.ambient.diff(n))
        for p in range(dim_bound + 1):
            assert la.mat_eq(got.stage(p, n), want.stage(p, n)), (p, n)
    assert _certificate(heart_check(A)) == \
        _certificate(oracles.heart_check(M))


def test_a_group_with_a_kept_skeletal_filtration_pickles():
    A = free_abelian(circle(2))
    F = skeletal_filtration(A)
    copied = pickle.loads(pickle.dumps(A))
    G = skeletal_filtration(copied)
    assert copied.simplicial_set.nondegenerate.skeletal is G and G is not F
    assert G.p_max == F.p_max and G.stages == F.stages
    assert filtrations_stagewise_equal(F, G)
    assert filtered_ez(copied, copied).containment_certificate().ok


# ---------------------------------------------------------------------------
# the walks that skip slots with no columns against the every-slot oracles


def random_map(rng, m):
    """An unchecked chain map of m's shape with entries in -1..1."""
    return ChainMap(m.source, m.target, {
        n: la.as_sparse([[rng.randint(-1, 1) for _ in range(M.ncols)]
                         for _ in range(M.nrows)], M.nrows, M.ncols)
        for n, M in m.mats.items()}, check=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_slot_walks_match_the_every_slot_oracles(seed, data):
    # random filtrations, their Day convolutions (degrees of tensor rank 0
    # occur), the skeletal pairing of two corpus spaces, and dropped or
    # doubled columns of each: the same certificates and booleans
    rng = random.Random(seed)
    F, G = (zrandom.rand_filtration(rng, p_max=rng.randrange(4),
                                    top_degree=rng.randrange(1, 4),
                                    max_total_rank=4) for _ in range(2))
    FG, GF = day_convolution(F, G), day_convolution(G, F)
    D = data.draw(st.integers(1, 3))
    X, Y = (FILTERED_SETS[data.draw(st.sampled_from(sorted(FILTERED_SETS)))](D)
            for _ in range(2))
    Q = filtered_ez(free_abelian(X), free_abelian(Y))
    draw = corrupt_with(data)
    for left, right, H, m, tb in [
            (F, G, FG, identity_chain_map(FG.ambient), FG.basis),
            (Q.F, Q.G, Q.H, Q.m, Q.basis)]:
        for target in (H, draw(H)):
            for mm in (m, random_map(rng, m)):
                P = FilteredPairing(left, right, target, mm, tb)
                assert _certificate(P._check_containment()) == \
                    _certificate(oracles.check_containment(P))
    swap = _koszul_swap(FG.basis, GF.basis)
    ident = {n: la.identity(Q.H.ambient.rank(n))
             for n in range(Q.H.ambient.top_degree + 1)}
    for mats, src, tgt in [(swap, FG, GF), (swap, draw(FG), GF),
                           (swap, FG, draw(GF)), (ident, Q.H, draw(Q.H)),
                           (ident, draw(Q.H), Q.H)]:
        args = mats, src, tgt, "swap", "holds"
        assert _certificate(filtration._carries_stages(*args)) == \
            _certificate(oracles.carries_stages(*args))
    for A, B in [(F, G), (F, F), (FG, draw(FG)), (draw(FG), FG),
                 (Q.F, Q.G), (Q.H, draw(Q.H)), (draw(Q.H), Q.H)]:
        assert filtrations_stagewise_equal(A, B) == \
            oracles.filtrations_stagewise_equal(A, B)
