"""The block layout of tensor products against its definition, entry by
entry: in degree n the basis of C ⊗ D is the (p, i, q, j) with p + q = n,
p descending, then i, then j.  The oracles here enumerate that list and
place one entry at a time, or sum placed Kronecker blocks
(``oracles.kron_sum``); the library writes each column in row order."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import _random as zrandom
from zilber import intlinalg as la
from zilber import ez, filtration
from zilber.chains import (ChainComplex, ChainMap, hom_rank,
                           identity_chain_map, tensor, tensor_map)
from zilber.delta import shuffles
from zilber.ez import associativity_check, shuffle_product
from zilber.filtration import convolution_associativity_check
from zilber.simplicial import circle, free_abelian, standard_simplex
from zilber.spectral import PagePairing

import oracles
from oracles import ShuffleProduct, back_face, front_face, kron_sum
from test_ez import unnormalized_aw, unnormalized_shuffle


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def basis(C, D, top):
    """Per degree n <= top, the position of each (p, i, q, j)."""
    out = []
    for n in range(top + 1):
        elems = [(p, i, n - p, j)
                 for p in range(min(n, C.top_degree), -1, -1)
                 if n - p <= D.top_degree
                 for i in range(C.rank(p)) for j in range(D.rank(n - p))]
        out.append({e: k for k, e in enumerate(elems)})
    return out


def tensor_map_oracle(f, g, src, tgt):
    """f ⊗ g from the basis src to the basis tgt, one entry at a time (zero
    into the degrees that tgt truncates), as row lists."""
    mats = {}
    for n, positions in enumerate(src):
        rows = tgt[n] if n < len(tgt) else {}
        M = zeros(len(rows), len(positions))
        for (p, i, q, j), col in positions.items() if rows else ():
            fm, gm = la.rows(f.mat(p)), la.rows(g.mat(q))
            for i2 in range(len(fm)):
                for j2 in range(len(gm)):
                    if fm[i2][i] * gm[j2][j]:
                        M[rows[(p, i2, q, j2)]][col] += fm[i2][i] * gm[j2][j]
        mats[n] = M
    return mats


def direct_sum(C, D):
    """C ⊕ D, the basis of C first in each degree."""
    top = max(C.top_degree, D.top_degree)
    ranks = [C.rank(n) + D.rank(n) for n in range(top + 1)]
    diffs = {}
    for n in range(1, top + 1):
        M = zeros(ranks[n - 1], ranks[n])
        for i, row in enumerate(la.rows(C.diff(n))):
            M[i][:C.rank(n)] = row
        for i, row in enumerate(la.rows(D.diff(n)), C.rank(n - 1)):
            M[i][C.rank(n):] = row
        diffs[n] = M
    return ChainComplex(ranks, diffs)


def random_complex(rng):
    # often with a degree of rank 0, or with every degree of rank 0
    return zrandom.rand_complex(rng, top_degree=rng.randint(0, 2),
                                max_total_rank=rng.randint(0, 6))


def random_chain_map(rng, C):
    """k·U : C -> E ⊕ C', with C' the conjugate of C by levelwise unimodular
    U, E another random complex and k a small integer."""
    top = C.top_degree
    us = [zrandom._random_unimodular(rng, C.rank(n)) for n in range(top + 1)]
    conj = ChainComplex(C.ranks, {
        n: la.mat_mul(la.mat_mul(us[n - 1][0], C.diff(n)), us[n][1])
        for n in range(1, top + 1)})
    E = zrandom.rand_complex(rng, top_degree=top, max_total_rank=3)
    k = rng.choice([1, -1, 2, 3])
    return ChainMap(C, direct_sum(E, conj), {
        n: zeros(E.rank(n), C.rank(n)) + la.rows(la.mat_scale(k, U))
        for n, (U, _) in enumerate(us)})


def truncation(rng, C, D):
    return rng.choice([None, rng.randint(0, C.top_degree + D.top_degree)])


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tensor_differential_is_the_koszul_formula(rng):
    C, D = random_complex(rng), random_complex(rng)
    E, tb = tensor(C, D, truncation(rng, C, D))
    kron_built = oracles.tensor_differentials(C, D, tb)
    positions = basis(C, D, tb.top_degree)
    assert E.ranks == [len(pos) for pos in positions]
    for n in range(1, tb.top_degree + 1):
        want = zeros(len(positions[n - 1]), len(positions[n]))
        # d(x_i ⊗ y_j) = dx_i ⊗ y_j + (-1)^p x_i ⊗ dy_j
        for (p, i, q, j), col in positions[n].items():
            for i2 in range(C.rank(p - 1) if p else 0):
                want[positions[n - 1][(p - 1, i2, q, j)]][col] += \
                    la.rows(C.diff(p))[i2][i]
            for j2 in range(D.rank(q - 1) if q else 0):
                want[positions[n - 1][(p, i, q - 1, j2)]][col] += \
                    (-1) ** p * la.rows(D.diff(q))[j2][j]
        assert la.rows(E.diff(n)) == want
        assert la.mat_eq(E.diff(n), kron_built[n])
        # x_i ⊗ y_j sits at entry i * rank D_q + j of its block
        for (p, i, q, j), k in positions[n].items():
            assert tb.offset(n, p) + i * D.rank(q) + j == k


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tensor_map_is_the_entrywise_product(rng):
    C, D = random_complex(rng), random_complex(rng)
    f, g = random_chain_map(rng, C), random_chain_map(rng, D)
    _, tb_src = tensor(C, D, truncation(rng, C, D))
    _, tb_tgt = tensor(f.target, g.target, truncation(rng, C, D))
    want = tensor_map_oracle(
        f, g, basis(C, D, tb_src.top_degree),
        basis(f.target, g.target, tb_tgt.top_degree))
    got = tensor_map(f, g, tb_src, tb_tgt)
    assert {n: la.rows(M) for n, M in got.items()} == want
    kron_built = oracles.tensor_map(f, g, tb_src, tb_tgt)
    assert got.keys() == kron_built.keys()
    assert all(la.mat_eq(M, kron_built[n]) for n, M in got.items())


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_tensor_column_is_the_entrywise_product(rng):
    # with m the identity, PagePairing._multiply returns x_i ⊗ y_j itself,
    # in column i * Y.ncols + j
    C, D = random_complex(rng), random_complex(rng)
    E, tb = tensor(C, D)
    positions = basis(C, D, tb.top_degree)
    p = rng.randint(0, C.top_degree)
    q = rng.randint(0, D.top_degree)
    xs = [[rng.randint(-3, 3) for _ in range(C.rank(p))]
          for _ in range(rng.randint(0, 3))]
    ys = [[rng.randint(-3, 3) for _ in range(D.rank(q))]
          for _ in range(rng.randint(0, 3))]
    want = []
    for x in xs:
        for y in ys:
            col = [0] * len(positions[p + q])
            for i, u in enumerate(x):
                for j, v in enumerate(y):
                    col[positions[p + q][(p, i, q, j)]] += u * v
            want.append(col)
    pairing = SimpleNamespace(P=SimpleNamespace(
        basis=tb, m=identity_chain_map(E), H=SimpleNamespace(ambient=E)))
    got = PagePairing._multiply(pairing, p, la.from_columns(xs, C.rank(p)),
                                q, la.from_columns(ys, D.rank(q)))
    assert la.mat_eq(got, la.from_columns(want, E.rank(p + q)))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_kron_sum_adds_a_scaled_block(rng):
    def rand(r, c):
        return [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]

    (ra, ca), (rb, cb) = [(rng.randint(0, 3), rng.randint(0, 3))
                          for _ in range(2)]
    A, B = rand(ra, ca), rand(rb, cb)
    row, col, scale = rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)
    r, c = row + ra * rb + 1, col + ca * cb + 1
    M = rand(r, c)
    want = [x[:] for x in M]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    want[row + i * rb + k][col + j * cb + m] += \
                        scale * A[i][j] * B[k][m]
    # M is kron(M, 1) at the origin
    got = kron_sum(r, c, [(la.as_sparse(M, r, c), la.identity(1), 0, 0, 1),
                          (la.as_sparse(A, ra, ca), la.as_sparse(B, rb, cb),
                           row, col, scale)])
    assert la.rows(got) == want


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_hom_rank_equations_are_the_kron_sum_build(rng):
    C, D = random_complex(rng), random_complex(rng)
    factored = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(la, "rank", lambda M: factored.append(M) or 0)
        unknowns = hom_rank(C, D)
    assert len(factored) == 1
    assert la.mat_eq(factored[0], oracles.hom_equations(C, D))
    assert unknowns == factored[0].ncols


def associators_of(module, check, *args):
    """(bases, matrices) of every _tensor_associator call that check(*args)
    makes through module; the check must pass."""
    calls = []
    worker = module._tensor_associator

    def recording(*bases):
        calls.append((bases, worker(*bases)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_tensor_associator", recording)
        assert check(*args).ok
    return calls


FREE = {"pt": lambda D: standard_simplex(0, D),
        "d1": lambda D: standard_simplex(1, D),
        "d2": lambda D: standard_simplex(2, D),
        "s1": circle}


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(sorted(FREE)), min_size=3, max_size=3),
       st.integers(0, 4))
def test_the_associator_on_ez_bases_is_the_kron_sum_build(names, D):
    A, B, C = (free_abelian(FREE[name](D)) for name in names)
    [(bases, mats)] = associators_of(ez, associativity_check, A, B, C)
    want = oracles.tensor_associator(*bases)
    assert mats.keys() == want.keys()
    assert all(la.mat_eq(M, want[n]) for n, M in mats.items())


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_associator_on_day_bases_is_the_kron_sum_build(rng):
    F, G, H = (zrandom.rand_filtration(rng, p_max=rng.randrange(3),
                                       top_degree=rng.randrange(3),
                                       max_total_rank=rng.randint(1, 3))
               for _ in range(3))
    [(bases, mats)] = associators_of(filtration,
                                     convolution_associativity_check, F, G, H)
    want = oracles.tensor_associator(*bases)
    assert mats.keys() == want.keys()
    assert all(la.mat_eq(M, want[n]) for n, M in mats.items())


PAIRS = [("delta1", "s1"), ("s1", "delta1"), ("s1", "s1")]


def space(name, dim_bound):
    X = standard_simplex(1, dim_bound) if name == "delta1" else circle(dim_bound)
    return free_abelian(X)


@pytest.mark.parametrize("a, b", PAIRS, ids=lambda name: name)
def test_shuffle_and_alexander_whitney_are_entrywise_sums(a, b):
    D = 3
    A, B = space(a, D), space(b, D)
    sp = ShuffleProduct(A, B)  # the oracle's matrix path, on the same groups
    free = shuffle_product(A, B)
    free_aw = free.alexander_whitney()
    nA, nB, nAB = sp.norm_A, sp.norm_B, sp.norm_AB
    un = basis(nA.projection.source, nB.projection.source, D)
    norm = basis(nA.normalized, nB.normalized, D)
    aw_map = sp.alexander_whitney()
    nabla_un, tb_un, _ = unnormalized_shuffle(A, B)
    aw_un = unnormalized_aw(nabla_un, tb_un, A, B)
    for n in range(D + 1):
        bn = B.ranks[n]
        # ∇(x_i ⊗ y_j) = Σ over (p, q)-shuffles of ± s_a x_i ⊗ s_b y_j
        nabla = zeros(A.ranks[n] * bn, len(un[n]))
        # AW(a ⊗ b) = Σ_p (front face of a) ⊗ (back face of b)
        aw = zeros(len(un[n]), A.ranks[n] * bn)
        for (p, i, q, j), k in un[n].items():
            for sh in shuffles(p, q):
                opA = la.rows(A.operator_matrix(sh.components()[0]))
                opB = la.rows(B.operator_matrix(sh.components()[1]))
                for x in range(A.ranks[n]):
                    for y in range(bn):
                        nabla[x * bn + y][k] += sh.sign * opA[x][i] * opB[y][j]
            front = la.rows(A.operator_matrix(front_face(n, p)))
            back = la.rows(B.operator_matrix(back_face(n, q)))
            for x in range(A.ranks[n]):
                for y in range(bn):
                    aw[k][x * bn + y] += front[i][x] * back[j][y]
        assert la.rows(nabla_un.mat(n)) == nabla
        assert la.rows(aw_un.mat(n)) == aw
        nabla = la.as_sparse(nabla, A.ranks[n] * bn, len(un[n]))
        aw = la.as_sparse(aw, len(un[n]), A.ranks[n] * bn)
        secsec = la.as_sparse(
            tensor_map_oracle(nA.section, nB.section, norm, un)[n],
            len(un[n]), len(norm[n]))
        want = la.mat_mul(nAB.projection.mat(n), la.mat_mul(nabla, secsec))
        assert la.mat_eq(sp.map.mat(n), want)
        assert la.mat_eq(free.map.mat(n), want)
        projproj = la.as_sparse(
            tensor_map_oracle(nA.projection, nB.projection, un, norm)[n],
            len(norm[n]), len(un[n]))
        want = la.mat_mul(projproj, la.mat_mul(aw, nAB.section.mat(n)))
        assert la.mat_eq(aw_map.mat(n), want)
        assert la.mat_eq(free_aw.mat(n), want)
