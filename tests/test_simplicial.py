"""Simplicial sets and abelian groups: validators, products, skeleta."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber.delta import (enumerate_monotone, epi_mono_factorize,
                          factor_into_codegeneracies, factor_into_cofaces)
from zilber.doldkan import gamma, gamma_normalize_comparison, normalize
from zilber.simplicial import (SimplicialAbelianGroup,
                               SimplicialIdentityError, SimplicialSet, circle,
                               free_abelian, product, skeleton,
                               skeleton_product_check, standard_simplex)

import oracles
from oracles import sab_tensor


def test_standard_simplex_level_sizes():
    # |Δ^n_k| = number of monotone maps [k] -> [n]
    from zilber.delta import monotone_count
    X = standard_simplex(2, 4)
    for k in range(5):
        assert X.level_size(k) == monotone_count(k, 2)


def test_standard_simplex_nondegenerate_counts():
    X = standard_simplex(2, 4)
    assert X.nondegenerate_counts() == (3, 3, 1, 0, 0)


def test_circle_levels_and_nondegenerates():
    S = circle(3)
    assert [S.level_size(k) for k in range(4)] == [1, 2, 3, 4]
    assert S.nondegenerate_counts() == (1, 1, 0, 0)


def test_product_levels_multiply():
    X = standard_simplex(1, 2)
    Y = circle(2)
    P = product(X, Y)
    for k in range(3):
        assert P.level_size(k) == X.level_size(k) * Y.level_size(k)


def test_torus_nondegenerate_counts():
    T = product(circle(2), circle(2))
    assert T.nondegenerate_counts() == (1, 3, 2)


def test_skeleton_of_triangle_is_boundary():
    X = standard_simplex(2, 3)
    assert skeleton(X, 1).nondegenerate_counts() == (3, 3, 0, 0)
    assert skeleton(X, 0).nondegenerate_counts() == (3, 0, 0, 0)


def test_skeleton_idempotent_at_presentation_dimension():
    X = product(standard_simplex(1, 3), standard_simplex(1, 3))
    S = skeleton(X, 3)
    for k in range(4):
        assert set(S.levels[k]) == set(X.levels[k])


def test_skeleton_product_check_positive_cases():
    X = standard_simplex(2, 3)
    Y = standard_simplex(1, 3)
    assert skeleton_product_check(X, Y, 2, 1, 3).ok


def test_skeleton_product_check_negative_witness():
    X = standard_simplex(2, 2)
    cert = skeleton_product_check(X, X, 1, 1, 1)
    assert not cert.ok
    assert cert.witness is not None
    # the witness lives at level 2: a product of two nondegenerate edges
    assert cert.witness[0] == 2


def test_simplicial_set_payload_roundtrip():
    X = product(circle(2), standard_simplex(1, 2))
    payload = json.loads(json.dumps(X.to_payload()))
    Y = SimplicialSet.from_payload(payload)
    for k in range(3):
        assert Y.level_size(k) == X.level_size(k)
    assert Y.nondegenerate_counts() == X.nondegenerate_counts()


def test_free_abelian_ranks_and_validation():
    A = free_abelian(standard_simplex(1, 2))
    assert A.ranks == [2, 3, 4]
    A._validate()  # permutation-like matrices satisfy all identities


def test_free_abelian_of_product_has_multiplied_ranks():
    X, Y = circle(2), standard_simplex(1, 2)
    A = free_abelian(product(X, Y))
    for k in range(3):
        assert A.ranks[k] == X.level_size(k) * Y.level_size(k)


def test_operators_are_stored_sparse_and_accepted_back():
    A = free_abelian(circle(2))
    for M in [*A.face_mats.values(), *A.degen_mats.values()]:
        assert isinstance(M, la.Sparse)
        assert all(len(col) == 1 and col[0][1] == 1 for col in M)
    # the constructor takes the stored form and row lists alike
    rows = {k: la.rows(M) for k, M in A.degen_mats.items()}
    for degens in (A.degen_mats, rows):
        B = SimplicialAbelianGroup(2, A.ranks, A.face_mats, degens)
        assert B.degen_mats == A.degen_mats


def test_free_tensor_cube_stores_only_its_nonzero_entries():
    # ℤ[Δ²]^{⊗3} at bound 3: 27, 216, 1000 and 3375 simplices per level;
    # every operator column is one entry, a dense cell would be 99.9% zeros
    A = free_abelian(standard_simplex(2, 3))
    G = sab_tensor(sab_tensor(A, A), A)
    assert G.ranks == [27, 216, 1000, 3375]
    for M in [*G.face_mats.values(), *G.degen_mats.values()]:
        stored = sum(map(len, M))
        assert stored == M.ncols == sum(len(row) - row.count(0)
                                        for row in la.rows(M))
    # and each of those entries is a shared unit column, as are the
    # columns of ℤ[Δ²]'s operators and of its coordinate normalization
    u = la.units(max(G.ranks))
    proj = normalize(A).projection
    for M in [*G.face_mats.values(), *G.degen_mats.values(),
              *A.face_mats.values(), *A.degen_mats.values(),
              *(proj.mat(n) for n in range(4))]:
        assert all(col is u[col[0][0]] for col in M if col)


def test_operators_at_unknown_indices_are_rejected():
    X = circle(2)
    faces = {**X.faces, (1, 7): X.faces[(1, 0)]}
    degens = {**X.degens, (0, 3): X.degens[(0, 0)]}
    for f, s in ((faces, X.degens), (X.faces, degens)):
        with pytest.raises(SimplicialIdentityError, match="not an operator"):
            SimplicialSet(2, X.levels, f, s)
    A = free_abelian(X)
    faces = {**A.face_mats, (1, 7): A.face_mats[(1, 0)]}
    degens = {**A.degen_mats, (0, 3): A.degen_mats[(0, 0)]}
    for f, s in ((faces, A.degen_mats), (A.face_mats, degens)):
        with pytest.raises(SimplicialIdentityError, match="not an operator"):
            SimplicialAbelianGroup(2, A.ranks, f, s)


def test_validator_rejects_corrupted_matrices():
    rng = random.Random(5)
    for _ in range(25):
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        B = zrandom.corrupt_simplicial(rng, A)
        if B is None:
            continue
        with pytest.raises(SimplicialIdentityError):
            B._validate()


def verdict(check, obj):
    """The message with which check(obj) raises, or None."""
    try:
        check(obj)
    except SimplicialIdentityError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(0, 120, 3))
def test_identities_without_composites_match_the_composite_oracle(seed):
    # valid objects pass both checkers; a corrupted one fails both, at the
    # same identity and in the same words
    rng = random.Random(seed)
    G = gamma(zrandom.rand_complex(rng, top_degree=3), 3)
    A = zrandom.rand_simplicial(rng, dim_bound=3)
    for valid in (G, A):
        assert verdict(oracles.check_group_identities, valid) is None
        assert verdict(SimplicialAbelianGroup._validate, valid) is None
        B = zrandom.corrupt_simplicial(rng, valid)
        if B is not None:
            want = verdict(oracles.check_group_identities, B)
            assert want is not None
            assert verdict(SimplicialAbelianGroup._validate, B) == want


# ---------------------------------------------------------------------------
# index tables against the identifier tables they replace


def identity_walk(payload):
    """The message with which a payload's tables break a simplicial
    identity, or None: a walk over every simplex of dicts keyed by
    identifier, the way simplicial sets were once checked."""
    D = payload["dim_bound"]
    levels = [range(n) for n in payload["levels"]]

    def tables(entries):
        return {tuple(int(t) for t in key.split(",")): dict(enumerate(arr))
                for key, arr in entries.items()}

    faces, degens = tables(payload["faces"]), tables(payload["degens"])
    lv_sets = [set(lv) for lv in levels]
    for k in range(1, D + 1):
        for i in range(k + 1):
            f = faces.get((k, i))
            if f is None or set(f) != lv_sets[k]:
                return f"face ({k},{i}) not total"
            if not set(f.values()) <= lv_sets[k - 1]:
                return f"face ({k},{i}) lands outside level {k-1}"
    for k in range(D):
        for i in range(k + 1):
            s = degens.get((k, i))
            if s is None or set(s) != lv_sets[k]:
                return f"degeneracy ({k},{i}) not total"
            if not set(s.values()) <= lv_sets[k + 1]:
                return f"degeneracy ({k},{i}) lands outside level {k+1}"
    for k in range(2, D + 1):
        for j in range(1, k + 1):
            for i in range(j):
                fa, fb = faces[(k, j)], faces[(k - 1, i)]
                fc, fd = faces[(k, i)], faces[(k - 1, j - 1)]
                if any(fb[fa[x]] != fd[fc[x]] for x in levels[k]):
                    return f"d_{i} d_{j} != d_{j-1} d_{i} at level {k}"
    for k in range(D - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                sa, sb = degens[(k, j)], degens[(k + 1, i)]
                sc, sd = degens[(k, i)], degens[(k + 1, j + 1)]
                if any(sb[sa[x]] != sd[sc[x]] for x in levels[k]):
                    return f"s_{i} s_{j} != s_{j+1} s_{i} at level {k}"
    for k in range(D):
        for j in range(k + 1):
            s = degens[(k, j)]
            for i in range(k + 2):
                f = faces[(k + 1, i)]
                if i == j or i == j + 1:
                    if any(f[s[x]] != x for x in levels[k]):
                        return f"d_{i} s_{j} != id at level {k}"
                elif i < j:
                    sb, fb = degens[(k - 1, j - 1)], faces[(k, i)]
                    if any(f[s[x]] != sb[fb[x]] for x in levels[k]):
                        return f"d_{i} s_{j} != s_{j-1} d_{i} at level {k}"
                else:
                    sb, fb = degens[(k - 1, j)], faces[(k, i - 1)]
                    if any(f[s[x]] != sb[fb[x]] for x in levels[k]):
                        return f"d_{i} s_{j} != s_{j} d_{i-1} at level {k}"
    return None


def _delete(v, i):
    return v[:i] + v[i + 1:]


def _repeat(v, i):
    return v[:i] + (v[i],) + v[i:]


def _collapse(v):
    return "*" if len(set(v)) == 1 else v


# each space with its face and degeneracy on identifiers
SIMPLEX_OPS = (_delete, _repeat)
CIRCLE_OPS = (lambda x, i: "*" if x == "*" else _collapse(_delete(x, i)),
              lambda x, i: "*" if x == "*" else _repeat(x, i))


def _pair_ops(a, b):
    return (lambda z, i: (a[0](z[0], i), b[0](z[1], i)),
            lambda z, i: (a[1](z[0], i), b[1](z[1], i)))


IDENTIFIED_SPACES = {
    "delta2": (lambda D: standard_simplex(2, D), SIMPLEX_OPS),
    "s1": (circle, CIRCLE_OPS),
    "torus": (lambda D: product(circle(D), circle(D)),
              _pair_ops(CIRCLE_OPS, CIRCLE_OPS)),
    "delta1 x s1": (lambda D: product(standard_simplex(1, D), circle(D)),
                    _pair_ops(SIMPLEX_OPS, CIRCLE_OPS)),
}


def free_group_of_tables(payload):
    """The group whose operators are the unit columns of a payload's tables,
    built without a SimplicialSet."""
    ranks = payload["levels"]

    def unit_columns(entries, step):
        out = {}
        for key, arr in entries.items():
            k, i = map(int, key.split(","))
            out[(k, i)] = la.Sparse([((a, 1),) for a in arr], ranks[k + step])
        return out

    return SimplicialAbelianGroup(payload["dim_bound"], ranks,
                                  unit_columns(payload["faces"], -1),
                                  unit_columns(payload["degens"], 1))


def set_identities_by_composites(payload):
    """The composite oracle on a payload's index tables."""
    def tables(entries):
        return {tuple(map(int, key.split(","))): arr
                for key, arr in entries.items()}

    oracles.check_set_identities(
        payload["dim_bound"], tables(payload["faces"]),
        tables(payload["degens"]), payload["levels"])


def rejection(build, payload):
    """The message with which build(payload) raises, or None."""
    try:
        build(payload)
    except SimplicialIdentityError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(IDENTIFIED_SPACES)), st.integers(2, 3),
       st.data())
def test_one_corrupted_entry_is_rejected_as_the_identity_walk_rejects_it(
        name, D, data):
    payload = IDENTIFIED_SPACES[name][0](D).to_payload()
    kind = data.draw(st.sampled_from(["faces", "degens"]))
    key = data.draw(st.sampled_from(sorted(payload[kind])))
    table = payload[kind][key]
    k = int(key.split(",")[0])
    target = payload["levels"][k - 1 if kind == "faces" else k + 1]
    table[data.draw(st.integers(0, len(table) - 1))] = data.draw(
        st.integers(-1, target))
    want = identity_walk(payload)
    assert rejection(SimplicialSet.from_payload, payload) == want
    if "lands outside" not in str(want):
        # ℤ of the same tables breaks the same identity, in the same words,
        # and so do the tables composed and compared whole
        assert rejection(free_group_of_tables, payload) == want
        assert rejection(set_identities_by_composites, payload) == want


def test_sets_and_groups_name_a_broken_mixed_identity_alike():
    # Δ¹ at bound 1 with s_0 sending the vertex 0 to the edge 01
    payload = standard_simplex(1, 1).to_payload()
    payload["degens"]["0,0"][0] = 1
    for build in (SimplicialSet.from_payload, free_group_of_tables):
        assert rejection(build, payload) == "d_0 s_0 != id at level 0"


@pytest.mark.parametrize("name", sorted(IDENTIFIED_SPACES))
def test_free_abelian_is_the_unit_columns_of_the_identifier_tables(name):
    space, (face, degen) = IDENTIFIED_SPACES[name]
    for D in (2, 3):
        X = space(D)
        A = free_abelian(X)
        index = [{x: a for a, x in enumerate(lv)} for lv in X.levels]
        for mats, op, step in ((A.face_mats, face, -1),
                               (A.degen_mats, degen, 1)):
            for (k, i), M in mats.items():
                want = la.Sparse([((index[k + step][op(x, i)], 1),)
                                  for x in X.levels[k]], A.ranks[k + step])
                assert la.mat_eq(M, want)


def test_negative_bound_and_entries_that_are_not_indices_are_rejected():
    # a group of bound -1 once built with no levels
    for cls in (SimplicialSet, SimplicialAbelianGroup):
        with pytest.raises(SimplicialIdentityError,
                           match="^dim_bound must be nonnegative$"):
            cls(-1, [], {}, {})
    # face (2,0) of the circle lands in level 1, of two simplices
    for bad in (1.0, True, "1", None, -1, 2):
        payload = circle(2).to_payload()
        payload["faces"]["2,0"][1] = bad
        with pytest.raises(SimplicialIdentityError,
                           match=r"face \(2,0\) lands outside level 1"):
            SimplicialSet.from_payload(payload)


# ---------------------------------------------------------------------------
# operator matrices X(f), computed once per group


def operator_by_products(A, f):
    """X(f) as a chain of products from the identity: the faces of the
    mono part of f, then the degeneracies of its epi part."""
    epi, mono = epi_mono_factorize(f)
    level = f.codomain_top
    M = la.identity(A.ranks[level])
    for i in factor_into_cofaces(mono):
        M = la.mat_mul(A.face_mats[(level, i)], M)
        level -= 1
    for j in reversed(factor_into_codegeneracies(epi)):
        M = la.mat_mul(A.degen_mats[(level, j)], M)
        level += 1
    return M


D = 3


def operator_groups():
    return {
        "Z[delta2]": free_abelian(standard_simplex(2, D)),
        "Z[s1] (x) Z[delta1]": sab_tensor(free_abelian(circle(D)),
                                          free_abelian(standard_simplex(1, D))),
        "conjugate of Z[delta1 x s1]": oracles.conjugate_simplicial(
            random.Random(3), free_abelian(product(standard_simplex(1, D),
                                                   circle(D)))),
    }


def all_monotone_maps():
    return [f for m in range(D + 1) for n in range(D + 1)
            for f in enumerate_monotone(m, n)]


@pytest.mark.parametrize("name", operator_groups())
def test_operator_matrix_is_the_product_chain_and_kept(name):
    A = operator_groups()[name]
    for f in all_monotone_maps():
        M = A.operator_matrix(f)
        assert la.dims(M) == (A.ranks[f.domain_top], A.ranks[f.codomain_top])
        assert la.mat_eq(M, operator_by_products(A, f))
        assert A.operator_matrix(f) is M  # computed once, then kept


def test_operator_matrix_of_a_simplex_precomposes():
    # in Z[delta2] the simplex v : [n] -> [2] goes to v o f under X(f)
    X = standard_simplex(2, D)
    A = free_abelian(X)
    for f in all_monotone_maps():
        r, c = A.ranks[f.domain_top], A.ranks[f.codomain_top]
        want = [[0] * c for _ in range(r)]
        for j, v in enumerate(X.levels[f.codomain_top]):
            want[X.levels[f.domain_top].index(
                tuple(v[i] for i in f.values))][j] = 1
        assert la.mat_eq(A.operator_matrix(f), la.as_sparse(want, r, c))


def test_cached_operators_survive_their_callers():
    # the products, AW and the comparison Γ(𝒩(G)) -> G share the kept
    # matrices, and the skeletal filtrations run beside them; none of them
    # may change one
    A = free_abelian(standard_simplex(1, D))
    B = oracles.conjugate_simplicial(random.Random(4), free_abelian(circle(D)))
    sp = oracles.shuffle_product(A, B)
    sp.alexander_whitney()
    for G in (A, B, sp.product):
        oracles.skeletal_filtration(G)
        gamma_normalize_comparison(G)
    for G in (A, B, sp.product):
        assert G.operators
        for f, M in G.operators.items():
            assert la.mat_eq(M, operator_by_products(G, f))
