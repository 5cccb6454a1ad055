"""Exact integer linear algebra against sympy as an oracle, on random small
matrices of every shape, including those with no rows or no columns."""

import copy
import itertools
import json
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import invariant_factors

from zilber import _random as zrandom
from zilber import intlinalg as la

import oracles

ENTRIES = st.integers(-4, 4)
EVERY_TRANSFORM = ("U", "V", "Uinv")


@st.composite
def matrices(draw, rows=None, max_dim=5, cols=None, entries=ENTRIES):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    M = [[0] * c for _ in range(r)]
    for row in M:
        for j in range(c):
            row[j] = draw(entries)
    return la.as_sparse(M, r, c)


def to_sympy(M):
    r, c = la.dims(M)
    return SympyMatrix(r, c, [x for row in la.rows(M) for x in row])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_diagonal_matches_sympy_invariant_factors(M):
    expected = [abs(int(d)) for d in invariant_factors(to_sympy(M), domain=ZZ)]
    assert la.snf_diagonal(M) == expected


def check_snf(M):
    """U*M*V = S with unimodular U and V, U from its inverse and V from
    its determinant, and S a nonnegative divisibility chain on its
    diagonal."""
    r, c = la.dims(M)
    U, diag, V, Uinv = la._smith_with_inverses(M, EVERY_TRANSFORM)
    U, Uinv = la.as_sparse(U, r, r), la.as_sparse(Uinv, r, r)
    V = la.as_sparse(V, c, c)
    assert len(diag) == min(r, c)
    S = la.from_columns([[diag[j] if i == j else 0 for i in range(r)]
                         for j in range(c)], r)
    assert la.mat_eq(la.mat_mul(la.mat_mul(U, M), V), S)
    assert la.mat_eq(la.mat_mul(U, Uinv), la.identity(r))
    assert to_sympy(V).det() in (1, -1)
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)


def check_kernel(M):
    r, c = la.dims(M)
    K = la.kernel_basis(M)
    assert la.dims(K) == (c, c - to_sympy(M).rank())
    assert la.is_zero(la.mat_mul(M, K))
    # saturated: the basis extends to a basis of ℤ^c
    assert all(d == 1 for d in la.snf_diagonal(K))


def check_solve(M, X0):
    B = la.mat_mul(M, X0)
    X = oracles.solve_matrix(M, B)
    assert X is not None
    assert la.mat_eq(la.mat_mul(M, X), B)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_is_certified_by_its_unimodular_factors(M):
    check_snf(M)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_is_a_basis_of_the_kernel(M):
    check_kernel(M)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_matrix_solves_every_consistent_system(data):
    M = data.draw(matrices())
    check_solve(M, data.draw(matrices(rows=la.dims(M)[1], max_dim=3)))


@pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0)])
def test_snf_kernel_and_solve_of_matrices_without_entries(r, c):
    M = la.zeros(r, c)
    check_snf(M)
    check_kernel(M)
    for k in (0, 2):
        check_solve(M, la.zeros(c, k))


@pytest.mark.parametrize("r, k, c", [(2, 0, 3), (0, 3, 2), (3, 2, 0), (0, 0, 0)])
def test_products_keep_the_shape_of_empty_factors(r, k, c):
    A, B = la.zeros(r, k), la.zeros(k, c)
    P = la.mat_mul(A, B)
    assert la.dims(P) == (r, c) and la.is_zero(P)
    assert la.products_equal(A, B, la.zeros(r, 1), la.zeros(1, c))
    if r and c:  # the empty product is zero, a unit column is not
        U = la.Sparse([((0, 1),)] + [()] * (c - 1), r)
        assert not la.products_equal(A, B, la.identity(r), U)


@st.composite
def sparse_matrices(draw, rows, cols):
    """Mostly-zero matrices with negative and very large entries, and with
    some rows and columns forced to zero."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-2 ** 80, 2 ** 80))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return [[0 if i in zero_rows or j in zero_cols else draw(entry)
             for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mat_mul_matches_the_triple_loop(data):
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    A = data.draw(sparse_matrices(r, k))
    B = data.draw(sparse_matrices(k, c))
    want = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c)]
            for i in range(r)]
    P = la.mat_mul(la.as_sparse(A, r, k), la.as_sparse(B, k, c))
    assert la.dims(P) == (r, c) and la.rows(P) == want


def test_mat_mul_rejects_mismatched_shapes():
    # a shape fault inside the library is not an input error
    with pytest.raises(AssertionError, match="^dimension mismatch in mat_mul"):
        la.mat_mul(la.zeros(2, 3), la.zeros(2, 3))
    with pytest.raises(AssertionError):
        la.mat_mul(la.zeros(0, 3), la.zeros(2, 0))


@pytest.mark.parametrize("fault", [
    lambda: la.mat_sum([(1, la.zeros(2, 3)), (1, la.zeros(3, 2))]),
    lambda: la.product_is_zero(la.zeros(2, 3), la.zeros(2, 3)),
    lambda: la.products_equal(la.zeros(2, 3), la.zeros(3, 1),
                              la.zeros(2, 2), la.zeros(2, 2)),
    lambda: la.apply_factors([(la.zeros(2, 1), la.zeros(1, 3))],
                             la.zeros(2, 2)),
    lambda: la.hstack(la.zeros(2, 1), la.zeros(3, 1)),
    # the tests' solve keeps the row check it had in the library
    lambda: oracles.solve_matrix(la.identity(2), la.zeros(3, 1)),
    lambda: la.Span(la.identity(2)).coords(la.zeros(3, 1))],
    ids=["mat_sum", "product_is_zero", "products_equal", "apply_factors", "hstack", "solve_matrix", "Span.coords"])
def test_shape_faults_raise_assertion_errors(fault):
    with pytest.raises(AssertionError, match="mismatch"):
        fault()


# ---------------------------------------------------------------------------
# the column form against row lists


def dense_mul(A, B, c):
    """A * B on row lists, B of width c: compress skips the zeros of each
    row of A and of each row of B it meets."""
    out = [[0] * c for _ in A]
    cols = range(c)
    for Ai, Oi in zip(A, out):
        for a, Bk in itertools.compress(zip(Ai, B), Ai):
            for j in itertools.compress(cols, Bk):
                Oi[j] += a * Bk[j]
    return out


def dense_sum(terms):
    """Σ scale * M over (scale, M) in terms, row lists of one shape."""
    return [[sum(s * x for s, x in zip([s for s, _ in terms], xs))
             for xs in zip(*rows)] for rows in zip(*[M for _, M in terms])]


def dense_hstack(*mats):
    return [[x for row in rows for x in row] for rows in zip(*mats)]


def dense_kron_sum(nrows, ncols, terms):
    """Σ scale * kron(A, B) over row lists, each product with its top left
    entry at (row, col): M[row + i*rb + k][col + j*cb + l] +=
    scale * A[i][j] * B[k][l], over the products of nonzero entries."""
    M = [[0] * ncols for _ in range(nrows)]
    for A, B, row, col, scale in terms:
        rb, cb = len(B), len(B[0]) if B else 0
        nonzero_B = [[(l, b) for l, b in enumerate(Bk) if b] for Bk in B]
        for i, Ai in enumerate(A):
            for j, a in enumerate(Ai):
                if a:
                    a *= scale
                    c = col + j * cb
                    for k, Bk in enumerate(nonzero_B, row + i * rb):
                        for l, b in Bk:
                            M[k][c + l] += a * b
    return M


def assert_canonical(S, M, c):
    """S is the r x c matrix of the row list M: same shape and entries, each
    column its nonzero entries with rows ascending."""
    assert isinstance(S, la.Sparse) and la.dims(S) == (len(M), c)
    assert la.rows(S) == M
    assert [list(col) for col in S] == [
        [(i, row[j]) for i, row in enumerate(M) if row[j]]
        for j in range(c)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_operations_match_the_dense_ones(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    A, A2 = (data.draw(sparse_matrices(r, k)) for _ in range(2))
    B = data.draw(sparse_matrices(k, c))
    SA, SA2, SB = (la.as_sparse(A, r, k), la.as_sparse(A2, r, k),
                   la.as_sparse(B, k, c))
    assert_canonical(SA, A, k)
    assert la.as_sparse(SA, r, k) is SA
    # rows are the JSON form, and read back
    assert la.mat_eq(la.as_sparse(la.rows(SA), r, k), SA)
    assert json.dumps(la.rows(SA)) == json.dumps(A)
    # product, product with one column, transpose and columns
    assert_canonical(la.mat_mul(SA, SB), dense_mul(A, B, c), c)
    v = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    assert la.rows(la.mat_mul(SA, la.from_columns([v], k))) == [
        [sum(x * y for x, y in zip(row, v))] for row in A]
    cols = [list(col) for col in zip(*A)] if r else [[] for _ in range(k)]
    assert_canonical(la.transpose(SA), cols, r)
    assert la.rows(la.transpose(SA)) == cols
    assert la.mat_eq(la.from_columns(cols, r), SA)
    # [A A] [B; -B] = 0: every product that meets cancels
    assert_canonical(la.mat_mul(la.hstack(SA, SA),
                                la.as_sparse(B + [[-x for x in row] for row in B],
                                             2 * k, c)),
                     [[0] * c for _ in range(r)], c)
    # signed sum and scaling
    s, t = (data.draw(st.integers(-2, 2)) for _ in range(2))
    assert_canonical(la.mat_sum([(s, SA), (t, SA2)]),
                     dense_sum([(s, A), (t, A2)]), k)
    assert_canonical(la.mat_sum([(s, SA), (-s, SA)]),
                     [[0] * k for _ in range(r)], k)
    assert_canonical(la.mat_scale(s, SA), dense_sum([(s, A)]), k)
    # equality and the zero test
    assert la.mat_eq(SA, SA2) == (A == A2)
    assert la.is_zero(SA) == all(x == 0 for row in A for x in row)
    assert not la.mat_eq(la.zeros(r, k + 1), la.zeros(r, k))
    # Kronecker products, alone and moved down into more rows; a factor
    # with no columns (k or c 0) gives none
    assert_canonical(la.kron(SA, SB),
                     dense_kron_sum(r * k, k * c, [(A, B, 0, 0, 1)]), k * c)
    row, extra = (data.draw(st.integers(0, 2)) for _ in range(2))
    rows = row + r * k + extra
    assert_canonical(la.kron(SA, SB, row, rows),
                     dense_kron_sum(rows, k * c, [(A, B, row, 0, 1)]), k * c)
    assert_canonical(la.hstack(SA, SA2), dense_hstack(A, A2), 2 * k)
    # JSON, hashing of its columns, copies
    assert json.loads(json.dumps(SA)) == [[list(p) for p in col] for col in SA]
    hash(tuple(map(tuple, SA)))
    assert la.mat_eq(copy.deepcopy(SA), SA)


@st.composite
def unit_column_matrices(draw, rows, cols):
    """Row lists whose columns are mostly unit vectors (one entry 1), the
    rest zero or with another entry."""
    M = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        kind = draw(st.sampled_from(("unit", "unit", "unit", "zero", "other")))
        if rows and kind != "zero":
            for i in draw(st.sets(st.integers(0, rows - 1), min_size=1,
                                  max_size=1 if kind == "unit" else 2)):
                M[i][j] = 1 if kind == "unit" else draw(
                    st.sampled_from((-1, 2)))
    return M


def _is_unit(col):
    return len(col) == 1 and col[0][1] == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kron_is_the_entrywise_product_and_shares_unit_columns(data):
    ra, ca, rb, cb = (data.draw(st.integers(0, 4)) for _ in range(4))
    kinds = st.sampled_from((unit_column_matrices, sparse_matrices))
    A = data.draw(kinds.flatmap(lambda kind: kind(ra, ca)))
    B = data.draw(kinds.flatmap(lambda kind: kind(rb, cb)))
    SA, SB = la.as_sparse(A, ra, ca), la.as_sparse(B, rb, cb)
    row, extra = (data.draw(st.integers(0, 3)) for _ in range(2))
    rows = row + ra * rb + extra
    K = la.kron(SA, SB, row, rows)
    assert_canonical(K, dense_kron_sum(rows, ca * cb, [(A, B, row, 0, 1)]),
                     ca * cb)
    for col, (Aj, Bl) in zip(K, itertools.product(SA, SB)):
        if _is_unit(Aj) and _is_unit(Bl):
            assert col is la.units(K.nrows)[col[0][0]]


@st.composite
def scaled_unit_column_matrices(draw, rows, cols):
    """Row lists whose columns are empty or have one entry, of any size."""
    M = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        if rows and draw(st.booleans()):
            M[draw(st.integers(0, rows - 1))][j] = draw(st.sampled_from(
                (1, 1, -1, 2, 2 ** 80, -2 ** 80)))
    return M


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_is_zero_is_the_zero_test_of_the_product(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    kinds = st.sampled_from((sparse_matrices, unit_column_matrices,
                             scaled_unit_column_matrices))
    A = data.draw(kinds.flatmap(lambda kind: kind(r, k)))
    B = data.draw(kinds.flatmap(lambda kind: kind(k, c)))
    SA, SB = la.as_sparse(A, r, k), la.as_sparse(B, k, c)
    assert la.product_is_zero(SA, SB) == la.is_zero(la.mat_mul(SA, SB))
    # products forced to zero: [A A] [B; -B] cancels in every entry, and
    # A annihilates its kernel basis and the zero matrix
    AA = la.hstack(SA, SA)
    BB = la.as_sparse(B + [[-x for x in row] for row in B], 2 * k, c)
    for X, Y in ((AA, BB), (SA, la.kernel_basis(SA)), (SA, la.zeros(k, c))):
        assert la.is_zero(la.mat_mul(X, Y))
        assert la.product_is_zero(X, Y)


def test_product_is_zero_reads_a_one_entry_column_as_a_column_of_a():
    A = la.Sparse((((0, 1), (1, -1)), (), ((1, 2 ** 80),)), 2)
    for b in (1, -1, 3, 2 ** 80):
        assert not la.product_is_zero(A, la.Sparse((((0, b),),), 3))
        assert la.product_is_zero(A, la.Sparse((((1, b),),), 3))
        assert not la.product_is_zero(A, la.Sparse((((2, b),),), 3))
    # the two nonzero columns of A meet in row 1 and cancel only there
    assert not la.product_is_zero(A, la.Sparse((((0, 2 ** 80), (2, 1)),), 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_equal_is_the_comparison_of_the_products(data):
    r, k, m, c = (data.draw(st.integers(0, 5)) for _ in range(4))
    kinds = st.sampled_from((sparse_matrices, unit_column_matrices,
                             scaled_unit_column_matrices))

    def draw(rows, cols):
        M = data.draw(kinds.flatmap(lambda kind: kind(rows, cols)))
        return M, la.as_sparse(M, rows, cols)

    (_, A), (B, SB), (_, C), (_, D) = draw(r, k), draw(k, c), draw(r, m), \
        draw(m, c)
    assert la.products_equal(A, SB, C, D) == la.mat_eq(la.mat_mul(A, SB),
                                                       la.mat_mul(C, D))
    # pairs forced equal: A * B against (A * B) * I, and against [A A]
    # times [B - Y; Y], whose Y terms cancel
    P, eye = la.mat_mul(A, SB), la.identity(c)
    Y, _ = draw(k, c)
    split = la.as_sparse([[b - y for b, y in zip(*rows)]
                          for rows in zip(B, Y)] + Y, 2 * k, c)
    for X, Z in ((P, eye), (la.hstack(A, A), split)):
        assert la.products_equal(A, SB, X, Z)
        assert la.products_equal(X, Z, A, SB)
    # pairs that differ in one entry
    if r and c:
        i = data.draw(st.integers(0, r - 1))
        j = data.draw(st.integers(0, c - 1))
        x = data.draw(st.sampled_from((1, -1, 2 ** 80)))
        E = la.Sparse([((i, x),) if t == j else () for t in range(c)], r)
        Q = la.mat_sum([(1, P), (1, E)])
        assert not la.products_equal(A, SB, Q, eye)
        assert not la.products_equal(Q, eye, A, SB)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mat_sum_matches_the_dense_sum(data):
    r, c = (data.draw(st.integers(0, 4)) for _ in range(2))
    kinds = st.sampled_from((sparse_matrices, unit_column_matrices,
                             scaled_unit_column_matrices))
    terms = [(data.draw(st.sampled_from((0, 0, 1, -1, 2, -3, 2 ** 70))),
              data.draw(kinds.flatmap(lambda kind: kind(r, c))))
             for _ in range(data.draw(st.integers(1, 4)))]
    if data.draw(st.booleans()):  # every term with its negative
        terms += [(-s, M) for s, M in terms]
    got = la.mat_sum([(s, la.as_sparse(M, r, c)) for s, M in terms])
    assert_canonical(got, dense_sum(terms), c)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_factors_matches_the_dense_products(data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    kinds = st.sampled_from((sparse_matrices, unit_column_matrices,
                             scaled_unit_column_matrices))
    ops = [(data.draw(kinds.flatmap(lambda kind: kind(r, k))),
            data.draw(kinds.flatmap(lambda kind: kind(k, r))))
           for _ in range(data.draw(st.integers(0, 3)))]
    M = data.draw(kinds.flatmap(lambda kind: kind(r, c)))
    want = M
    for s, d in ops:  # the first factor first: want -= s (d want)
        want = dense_sum([(1, want),
                          (-1, dense_mul(s, dense_mul(d, want, c), c))])
    got = la.apply_factors([(la.as_sparse(s, r, k), la.as_sparse(d, k, r))
                            for s, d in ops], la.as_sparse(M, r, c))
    assert_canonical(got, want, c)


def test_identity_shares_its_unit_columns():
    assert la.identity(3)[1] is la.identity(5)[1]
    assert la.identity(3) == tuple(((j, 1),) for j in range(3))
    assert la.dims(la.identity(0)) == (0, 0)
    assert la.units(4)[:4] == [((r, 1),) for r in range(4)]


@pytest.mark.parametrize("M", [
    la.identity(4), la.kron(la.identity(2), la.identity(3)),
    la.as_sparse([[1, 0, 0], [0, 2, -1]], 2, 3), la.zeros(0, 3),
    la.zeros(2, 0)], ids=["identity", "kron", "general", "no-rows", "no-cols"])
def test_matrices_with_shared_columns_pickle(M):
    back = pickle.loads(pickle.dumps(M))
    assert type(back) is type(M) and isinstance(back, la.Sparse)
    assert la.mat_eq(back, M)


def test_zero_and_identity_matrices_are_shared_per_shape():
    for r, c in [(0, 0), (0, 3), (2, 0), (3, 2)]:
        assert la.zeros(r, c) is la.zeros(r, c)
        assert la.dims(la.zeros(r, c)) == (r, c) and not any(la.zeros(r, c))
    for n in range(5):
        assert la.identity(n) is la.identity(n)


@pytest.mark.parametrize("build, nrows", [
    (lambda: la.Sparse([((1, 2),), ()], 3), 3),
    (lambda: la.as_sparse([[1, 0], [0, 2]], 2), 2),
    (lambda: la.from_columns([[0, 1, 0, 3]], 4), 4),
    (lambda: la.mat_mul(la.as_sparse([[1, 2]], 1), la.identity(2)), 1),
    (lambda: la.kron(la.identity(2), la.identity(3), 1, 8), 8),
    (lambda: la.hstack(la.identity(2), la.zeros(2, 1)), 2),
    (lambda: la.transpose(la.as_sparse([[1, 2, 3]], 1)), 3),
    (lambda: la.zeros(4, 1), 4),
    (lambda: la.identity(5), 5),
], ids=["Sparse", "as_sparse", "from_columns", "mat_mul", "kron", "hstack",
        "transpose", "zeros", "identity"])
def test_matrices_have_no_instance_dict(build, nrows):
    M = build()
    assert isinstance(M, la.Sparse) and M.nrows == nrows
    assert not hasattr(M, "__dict__")
    with pytest.raises(AttributeError):
        M.note = 1
    with pytest.raises(AttributeError):
        M.nrows = nrows + 1
    for back in (pickle.loads(pickle.dumps(M)), copy.copy(M),
                 copy.deepcopy(M)):
        assert type(back) is type(M) and back.nrows == nrows
        assert la.mat_eq(back, M)


# the transforms by their position in the result (U, diag, V, Uinv)
TRANSFORMS = {"U": 0, "V": 2, "Uinv": 3}


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_tracking_a_subset_of_the_transforms_changes_none_of_them(M):
    full = la._smith_with_inverses(M, EVERY_TRANSFORM)
    for k in range(len(TRANSFORMS) + 1):
        for track in itertools.combinations(TRANSFORMS, k):
            out = la._smith_with_inverses(M, track)
            assert out[1] == full[1]
            for name, i in TRANSFORMS.items():
                if name in track:
                    assert out[i] == full[i]
                else:
                    assert out[i] is None




def reference_smith(M, track):
    """The Smith normal form as an earlier implementation wrote it, with one
    helper per elementary operation; la._smith_with_inverses must return
    exactly its outputs.

    Return (U, diag, V, Uinv) with U*M*V = S in Smith normal form,
    diag the min(rows, cols) diagonal entries of S and the transforms row
    lists.

    Only the transforms named in ``track`` (some of "U", "V" and "Uinv")
    are built and updated; the others are returned as None.  The pivots
    depend on S alone, so S and every tracked transform are the same
    whatever is tracked.  Pivots are chosen with minimal absolute value to
    bound entry growth; diagonal entries are nonnegative and form a
    divisibility chain.
    """
    r, c = la.dims(M)
    S = la.rows(M)  # the working rows
    U = la._eye(r) if "U" in track else None
    Uinv = la._eye(r) if "Uinv" in track else None
    V = la._eye(c) if "V" in track else None

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for row in Uinv:
                row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_add(i, j, k):
        # row_i += k * row_j ; Uinv column j -= k * column i
        S[i] = [a + k * b for a, b in zip(S[i], S[j])]
        if U is not None:
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        if Uinv is not None:
            for row in Uinv:
                row[j] -= k * row[i]

    def col_add(i, j, k):
        # col_i += k * col_j
        for row in S:
            row[i] += k * row[j]
        if V is not None:
            for row in V:
                row[i] += k * row[j]

    def row_negate(i):
        S[i] = [-a for a in S[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]
        if Uinv is not None:
            for row in Uinv:
                row[i] = -row[i]

    def min_pivot(t):
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                a = S[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
                    if best == 1:
                        return pivot
        return pivot

    n = min(r, c)
    for t in range(n):
        while True:
            # re-pick a pivot of minimal absolute value every round: the
            # pivot magnitude never increases, so entries stay bounded and
            # each dirty round strictly shrinks it, forcing termination
            pivot = min_pivot(t)
            if pivot is None:
                break
            if pivot != (t, t):
                row_swap(t, pivot[0])
                col_swap(t, pivot[1])
            d = S[t][t]
            dirty = False
            for i in range(t + 1, r):
                if S[i][t]:
                    row_add(i, t, -(S[i][t] // d))
                    if S[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if S[t][j]:
                    col_add(j, t, -(S[t][j] // d))
                    if S[t][j]:
                        dirty = True
            if dirty:
                continue
            # row and column t are clear; a unit pivot divides everything
            if d == 1 or d == -1:
                break
            # enforce that d divides the trailing block (adding the
            # offending row makes the next round produce a remainder
            # smaller than |d|)
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if S[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if S[t][t] < 0:
            row_negate(t)
        if S[t][t] == 0:
            break

    return U, [S[i][i] for i in range(n)], V, Uinv


@st.composite
def signed_partial_permutations(draw, max_dim=6):
    """An r x c matrix with at most one nonzero entry, ±1, in each row and
    each column."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    picked_cols = draw(st.permutations(range(c)))[
        :draw(st.integers(0, min(r, c)))]
    picked_rows = draw(st.permutations(range(r)))[:len(picked_cols)]
    M = [[0] * c for _ in range(r)]
    for i, j in zip(picked_rows, picked_cols):
        M[i][j] = draw(st.sampled_from((1, -1)))
    return la.as_sparse(M, r, c)


def zero_matrices(max_dim=6):
    return st.builds(la.zeros, st.integers(0, max_dim),
                     st.integers(0, max_dim))


# matrices whose pivots do not divide the trailing block, with entries
# growing during elimination, or already in Smith form
SNF_CASES = [[[2, 0], [0, 3]], [[4, 6], [6, 9]],
             [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
             [[0, 0, 0], [0, 0, 5], [0, 7, 0]], [[3, 5, 7], [11, 13, 17]],
             [[-2, 4], [6, -8], [10, 12]], [[1, 0], [0, 1]], [[0]], [[-3]]]


def assert_smith_matches_the_reference(M):
    for k in range(len(TRANSFORMS) + 1):
        for track in itertools.combinations(TRANSFORMS, k):
            assert (la._smith_with_inverses(M, track)
                    == reference_smith(M, track))


@pytest.mark.parametrize("M", [
    la.zeros(r, c) for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 2)]
] + [la.as_sparse(M, len(M)) for M in SNF_CASES])
def test_smith_form_of_listed_matrices_matches_the_reference(M):
    assert_smith_matches_the_reference(M)


@settings(max_examples=300, deadline=None)
@given(st.one_of(zero_matrices(), signed_partial_permutations(), matrices(),
                 matrices(max_dim=7, entries=st.integers(-30, 30))))
def test_smith_form_matches_the_reference(M):
    assert_smith_matches_the_reference(M)


def _column(v):
    """The one-column matrix of the vector v."""
    return la.from_columns([v], len(v))


def one_by_one(M):
    """The columns of M, each as a one-column matrix."""
    return [la.Sparse((col,), M.nrows) for col in M]


def lattice_by_snf(M):
    """Oracle for Span.is_lattice: does M have as many invariant factors
    as rows, all equal to 1?  Factors M afresh."""
    diag = la.snf_diagonal(M)
    return len(diag) == M.nrows and all(d == 1 for d in diag)


class SolveSubquotient:
    """Oracle: Z/B with the basis of Z from image_basis and every
    coordinate on it from solve_matrix, one SNF per solve."""

    def __init__(self, z_gens, b_gens):
        self.zbasis = la.image_basis(z_gens)
        r = self.zbasis.ncols
        R = oracles.solve_matrix(self.zbasis, b_gens)
        U, diag, _, Uinv = la._smith_with_inverses(R, ("U", "Uinv"))
        diag = diag + [0] * (r - len(diag))
        self.kept = [i for i in range(r) if diag[i] != 1]
        self.orders = [diag[i] for i in self.kept]
        self.U = U
        self.lifts = la.mat_mul(self.zbasis, la.from_columns(
            [[row[i] for row in Uinv] for i in self.kept], r))

    def contains(self, B):
        return oracles.solve_matrix(self.zbasis, B) is not None

    def coords(self, B):
        """The reduced generator coordinates of the columns of B."""
        ys = [[sum(row[k] * x for k, x in col) for row in self.U]
              for col in oracles.solve_matrix(self.zbasis, B)]
        return la.from_columns(
            [[y[i] % o if o else y[i] for i, o in zip(self.kept, self.orders)]
             for y in ys], len(self.kept))


@st.composite
def subquotients(draw):
    """(z_gens, b_gens, R, inside, anywhere): Z is spanned by the full-rank
    n x r matrix Zb, z_gens = Zb W for W whose columns span ℤ^r, B is
    spanned by b_gens = Zb R (so Z/B is the cokernel of R), and the columns
    of inside (in Z) and anywhere are test vectors of ℤ^n."""
    n = draw(st.integers(0, 5))
    r = draw(st.integers(0, n))
    Zb = draw(matrices(rows=n, cols=r))
    assume(to_sympy(Zb).rank() == r)
    W, _ = zrandom._random_unimodular(random.Random(draw(st.integers(0, 999))), r)
    W = la.hstack(W, draw(matrices(rows=r, max_dim=2)))
    z_gens = la.mat_mul(Zb, W)
    R = draw(matrices(rows=r, max_dim=4))
    b_gens = la.mat_mul(Zb, R)
    inside = la.mat_mul(z_gens, draw(matrices(rows=z_gens.ncols, max_dim=3)))
    anywhere = draw(matrices(rows=n, max_dim=3))
    return z_gens, b_gens, R, inside, anywhere


@settings(max_examples=200, deadline=None)
@given(subquotients())
def test_subquotient_matches_the_solve_based_oracle(case):
    z_gens, b_gens, _, inside, anywhere = case
    Z = la.Span(z_gens)
    sq = la.Subquotient(Z, b_gens)
    oracle = SolveSubquotient(z_gens, b_gens)
    assert sq.orders == oracle.orders
    assert la.mat_eq(sq.lifts, oracle.lifts)
    for v in one_by_one(inside):
        assert Z.contains(v)
        assert la.mat_eq(sq.coords(v), oracle.coords(v))
    # the coordinates of many columns are those of each, side by side
    assert la.mat_eq(sq.coords(inside), oracle.coords(inside))
    assert la.mat_eq(sq.coords(inside), la.Sparse(
        [col for v in one_by_one(inside) for col in sq.coords(v)], sq.ngens))
    odd = la.as_sparse([[2 * x + 1 for x in row] for row in la.rows(anywhere)],
                       anywhere.nrows, anywhere.ncols)
    for v in one_by_one(inside) + one_by_one(anywhere) + one_by_one(odd):
        assert Z.contains(v) == oracle.contains(v)
        if not Z.contains(v):
            with pytest.raises(AssertionError):
                sq.coords(v)


@settings(max_examples=200, deadline=None)
@given(subquotients())
def test_subquotient_invariants_match_sympy(case):
    z_gens, b_gens, R, _, _ = case
    factors = ([abs(int(d)) for d in invariant_factors(to_sympy(R), domain=ZZ)]
               if R.ncols else [])
    nonzero = [d for d in factors if d]
    expected = (R.nrows - len(nonzero), tuple(d for d in nonzero if d >= 2))
    sq = la.Subquotient(la.Span(z_gens), b_gens)
    assert (sq.free_rank, tuple(sq.torsion)) == expected


@settings(max_examples=200, deadline=None)
@given(subquotients())
def test_quotient_orders_are_the_orders_of_the_subquotient(case):
    # orders alone come from the SNF that construction runs with no
    # transform; a B outside Z is refused there
    z_gens, b_gens, _, _, anywhere = case
    Z = la.Span(z_gens)
    assert la.Subquotient(Z, b_gens).orders == \
        oracles.Subquotient(Z, b_gens).orders
    wider = la.hstack(b_gens, anywhere)
    if not Z.contains(wider):
        with pytest.raises(AssertionError, match="^B is not contained in Z$"):
            la.Subquotient(Z, wider)


CHOSEN_SUBQUOTIENTS = [
    ([[0, 0], [0, 0]], [[0], [0]], []),  # a zero Z
    ([[1, 0], [0, 1]], [[], []], [0, 0]),  # a zero B
    ([[1, 0], [0, 1]], [[2, 0], [0, 3]], [6]),  # B of index 6
    ([[1, 2, 0], [0, 0, 1], [0, 0, 0]], [[4], [2], [0]], [2, 0]),
]
CHOSEN_IDS = ["zero-z", "zero-b", "index-6", "torsion-and-free"]


def chosen(z_gens, b_gens):
    return (la.Span(la.as_sparse(z_gens, len(z_gens))),
            la.as_sparse(b_gens, len(b_gens)))


@pytest.mark.parametrize("z_gens, b_gens, orders", CHOSEN_SUBQUOTIENTS + [
    ([[2], [0], [0]], [[1], [0], [0]], None),  # B not in Z
], ids=CHOSEN_IDS + ["b-not-in-z"])
def test_quotient_orders_of_chosen_subquotients(z_gens, b_gens, orders):
    Z, B = chosen(z_gens, b_gens)
    if orders is None:
        with pytest.raises(AssertionError, match="^B is not contained in Z$"):
            la.Subquotient(Z, B)
        return
    assert la.Subquotient(Z, B).orders == orders


@pytest.mark.parametrize("read", ["lifts", "coords"])
@pytest.mark.parametrize("z_gens, b_gens, orders", CHOSEN_SUBQUOTIENTS,
                         ids=CHOSEN_IDS)
def test_transforms_are_factored_once_on_first_read(monkeypatch, z_gens,
                                                    b_gens, orders, read):
    # construction factors with no transform; the first read of lifts or
    # coords factors once more, with U and Uinv, and later reads not at all
    Z, B = chosen(z_gens, b_gens)
    tracked = []
    real = la._smith_with_inverses
    monkeypatch.setattr(la, "_smith_with_inverses",
                        lambda M, track: tracked.append(track) or
                        real(M, track))
    sq = la.Subquotient(Z, B)
    assert tracked == [()] and sq.orders == orders
    reads = {"lifts": lambda: sq.lifts,
             "coords": lambda: sq.coords(Z.basis)}
    reads[read]()
    assert tracked == [(), ("U", "Uinv")]
    for again in (read, "lifts", "coords"):
        reads[again]()
    assert tracked == [(), ("U", "Uinv")]


@settings(max_examples=200, deadline=None)
@given(subquotients(), st.booleans())
def test_transforms_on_first_read_match_the_eager_oracle(case, lifts_first):
    z_gens, b_gens, _, inside, _ = case
    Z = la.Span(z_gens)
    sq, eager = la.Subquotient(Z, b_gens), oracles.Subquotient(Z, b_gens)
    assert (sq.orders, sq.free_rank, sq.torsion) == \
        (eager.orders, eager.free_rank, eager.torsion)
    if lifts_first:
        assert la.mat_eq(sq.lifts, eager.lifts)
    assert la.mat_eq(sq.coords(inside), eager.coords(inside))
    assert la.mat_eq(sq.lifts, eager.lifts)


@pytest.mark.parametrize("M, full", [
    ([[1, 0], [0, 1]], True), ([[2, 3], [0, 0]], False), ([[2, 3]], True),
    ([[2, 4]], False), ([[2], [0]], False), ([[1, 0]], True)])
def test_spans_lattice(M, full):
    A = la.as_sparse(M, len(M))
    assert lattice_by_snf(A) == full
    assert la.Span(A).is_lattice() == full
    I = la.identity(len(M))
    assert (la.Span(A).contains(I) and la.Span(I).contains(A)) == full


@pytest.mark.parametrize("z_cols", [0, 2], ids=["no-columns", "zero-columns"])
def test_a_zero_z_holds_only_the_zero_b(z_cols):
    z_gens = la.zeros(3, z_cols)
    Z = la.Span(z_gens)
    sq = la.Subquotient(Z, la.zeros(3, 2))
    assert (sq.orders, sq.free_rank, sq.torsion) == ([], 0, [])
    assert la.mat_eq(sq.lifts, la.zeros(3, 0))
    assert Z.contains(_column([0, 0, 0]))
    assert la.mat_eq(sq.coords(_column([0, 0, 0])), la.zeros(0, 1))
    assert not Z.contains(_column([0, 1, 0]))
    # every caller asks only for columns of Z and builds B inside Z, so a
    # column or a B outside Z is a library fault
    with pytest.raises(AssertionError,
                       match="^a column is not in the subgroup Z$"):
        sq.coords(_column([0, 1, 0]))
    with pytest.raises(AssertionError, match="^B is not contained in Z$"):
        la.Subquotient(la.Span(z_gens), la.as_sparse([[0], [2], [0]], 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_span_answers_every_containment_and_the_lattice_test(data):
    A = data.draw(matrices())
    span = la.Span(A)
    assert span.is_lattice() == lattice_by_snf(A)
    assert la.mat_eq(span.basis, la.image_basis(A))
    assert span.rank == la.rank(A)
    zero_spans = [la.Span(la.zeros(A.nrows, c)) for c in (0, 2)]
    for zero in zero_spans:
        assert la.dims(zero.basis) == (A.nrows, 0) and zero.rank == 0
    with pytest.raises(AssertionError, match="against a Span"):
        span.coords(la.zeros(A.nrows + 1, 1))
    for _ in range(3):
        B = data.draw(matrices(rows=A.nrows, max_dim=3))
        inside = la.mat_mul(A, data.draw(matrices(rows=A.ncols, max_dim=3)))
        assert span.contains(B) == (oracles.solve_matrix(A, B) is not None)
        assert (span.coords(B) is None) == (oracles.solve_matrix(A, B) is None)
        assert span.contains(inside)
        assert la.mat_eq(la.mat_mul(span.basis, span.coords(inside)), inside)
        for zero in zero_spans:
            assert (zero.coords(B) is None) == (not la.is_zero(B))


@pytest.mark.parametrize("n", range(9))
def test_an_identity_span_skips_the_smith_form_and_keeps_its_fields(
        monkeypatch, n):
    eye = la.identity(n)
    if n:  # the fields the Smith form of the identity gives
        U, diag, _, Uinv = la._smith_with_inverses(eye, ("U", "Uinv"))
        want_U, want_basis = la._from_rows(U, n), la._image_from_snf(diag,
                                                                      Uinv)
    else:  # no nonzero entry: the zero span, as for every empty matrix
        want_U, diag, want_basis = None, [], la.zeros(0, 0)
    snf = []
    monkeypatch.setattr(la, "_smith_with_inverses",
                        lambda *args: snf.append(args))
    span = la.Span(eye)
    assert snf == []
    assert span.nrows == n and span.rank == n and span._diag == diag == [1] * n
    assert la.mat_eq(span.basis, want_basis) and span.basis is eye
    assert span._U is None if not n else la.mat_eq(span._U, want_U)
    assert span.is_lattice()


@st.composite
def known_spans(draw):
    """A matrix whose span answers without a full solve: an identity, a
    permuted unimodular matrix (all of ℤⁿ but not the identity) or one
    with no nonzero entry."""
    kind = draw(st.sampled_from(["identity", "unimodular", "zero"]))
    if kind == "zero":
        return la.zeros(draw(st.integers(0, 5)), draw(st.integers(0, 3)))
    if kind == "identity":
        return la.identity(draw(st.integers(1, 5)))
    n = draw(st.integers(2, 5))
    W, _ = zrandom._random_unimodular(random.Random(draw(st.integers(0, 999))),
                                      n)
    A = la.mat_mul(W, la.Sparse([la.units(n)[i]
                                 for i in draw(st.permutations(range(n)))], n))
    assume(not la.mat_eq(A, la.identity(n)))
    return A


@settings(max_examples=200, deadline=None)
@given(known_spans(), st.data())
def test_identity_lattice_and_zero_spans_answer_as_the_solving_oracle(A, data):
    span = la.Span(A)
    n = A.nrows
    assert span.is_lattice() == lattice_by_snf(A)
    for _ in range(3):
        B = data.draw(matrices(rows=n, max_dim=3))
        want = oracles.span_coords(A, B)
        got = span.coords(B)
        assert got is None if want is None else la.mat_eq(got, want)
        assert span.contains(B) == (want is not None)
        if A and la.mat_eq(A, la.identity(n)):
            assert got is B  # its own coordinates, with no product taken
    for wrong in (la.zeros(n + 1, 1), la.zeros(n + 1, 0)):
        for ask in (span.contains, span.coords):
            with pytest.raises(AssertionError, match="against a Span"):
                ask(wrong)


def test_a_lattice_span_contains_without_a_solve(monkeypatch):
    unimodular = la.as_sparse([[0, 1, 0], [1, 0, 2], [0, 0, 1]], 3)
    span = la.Span(unimodular)
    assert span.is_lattice()
    monkeypatch.setattr(la, "_diagonal_solve", None)  # a call would raise
    assert span.contains(la.as_sparse([[5, 0], [-3, 0], [7, 1]], 3))


def rows_times(R, B):
    """Oracle: the row list R times the matrix B, one dense dot product per
    entry, as the Smith-form transforms were applied before they were kept
    as Sparse matrices."""
    return la.from_columns([[sum([row[k] * b for k, b in col]) for row in R]
                            for col in B], len(R))


def dense_span_coords(A, B):
    """Oracle for Span(A).coords(B), from a fresh Smith form of A."""
    if la.is_zero(A):
        return None if any(B) else la.zeros(0, B.ncols)
    U, diag, _, _ = la._smith_with_inverses(A, ("U",))
    rank = sum(1 for d in diag if d)
    return la._diagonal_solve(diag, rows_times(U, B), rank)


def dense_solve(M, B):
    """Oracle for solve_matrix(M, B), from a fresh Smith form of M."""
    if not B.ncols:
        return la.zeros(M.ncols, 0)
    U, diag, V, _ = la._smith_with_inverses(M, ("U", "V"))
    Y = la._diagonal_solve(diag, rows_times(U, B), M.ncols)
    return None if Y is None else rows_times(V, Y)


def dense_subquotient_coords(z_gens, b_gens, B):
    """Oracle for Subquotient(Span(z_gens), b_gens).coords(B), or None
    where it raises AssertionError, from fresh Smith forms."""
    C = dense_span_coords(z_gens, B)
    if C is None:
        return None
    R = dense_span_coords(z_gens, b_gens)
    U, diag, _, _ = la._smith_with_inverses(R, ("U",))
    diag = diag + [0] * (R.nrows - len(diag))
    kept = [i for i in range(R.nrows) if diag[i] != 1]
    Y = rows_times([U[i] for i in kept], C)
    return la.from_columns([[x % diag[i] if diag[i] else x
                             for i, x in zip(kept, y)]
                            for y in zip(*la.rows(Y))] if kept
                           else [()] * Y.ncols, len(kept))


def same(X, Y):
    return X is None and Y is None or (
        X is not None and Y is not None and la.mat_eq(X, Y))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_transforms_match_the_dense_row_product(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))

    def draw(rows, cols):
        return la.as_sparse(data.draw(sparse_matrices(rows, cols)), rows, cols)

    A, B = draw(r, k), draw(r, c)
    inside = la.mat_mul(A, draw(k, c))
    b_gens = la.mat_mul(A, draw(k, data.draw(st.integers(0, 4))))
    span = la.Span(A)
    sq = la.Subquotient(span, b_gens)
    for X in (B, inside):
        assert same(span.coords(X), dense_span_coords(A, X))
        assert same(oracles.solve_matrix(A, X), dense_solve(A, X))
        want = dense_subquotient_coords(A, b_gens, X)
        if want is None:
            with pytest.raises(AssertionError):
                sq.coords(X)
        else:
            assert la.mat_eq(sq.coords(X), want)
    unimodular, _ = zrandom._random_unimodular(
        random.Random(data.draw(st.integers(0, 999))), r)
    for M in (A, unimodular):
        want = dense_solve(M, la.identity(r)) if M.ncols == r else None
        if want is None or not la.mat_eq(la.mat_mul(M, want), la.identity(r)):
            with pytest.raises(ValueError):
                la.inverse_unimodular(M)
        else:
            assert la.mat_eq(la.inverse_unimodular(M), want)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [0, 1], [0, 0]], "not square"),
    ([[1, 2], [2, 4]], "matrix is not unimodular"),  # singular
    ([[2, 0], [0, 1]], "matrix is not unimodular"),  # determinant 2
    ([[2, 1], [1, 1]], None),  # determinant 1
    ([[0, 1], [-1, 0]], None),
    ([], None)])
def test_inverse_unimodular_inverts_or_names_the_fault(rows, message):
    n = len(rows)
    M = la.as_sparse(rows, n, len(rows[0]) if rows else 0)
    if message:
        with pytest.raises(ValueError, match=f"^{message}$"):
            la.inverse_unimodular(M)
    else:
        X = la.inverse_unimodular(M)
        assert la.mat_eq(la.mat_mul(M, X), la.identity(n))
        assert la.mat_eq(la.mat_mul(X, M), la.identity(n))
