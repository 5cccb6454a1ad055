"""Exact integer linear algebra against sympy as an oracle, on random small
matrices of every shape, including those with no rows or no columns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy import Matrix as SympyMatrix
from sympy.matrices.normalforms import invariant_factors

from zilber import intlinalg as la

ENTRIES = st.integers(-4, 4)


@st.composite
def matrices(draw, rows=None, max_dim=5):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim))
    M = la.zeros(r, c)
    for row in M:
        for j in range(c):
            row[j] = draw(ENTRIES)
    return M


def to_sympy(M):
    r, c = la.dims(M)
    return SympyMatrix(r, c, [x for row in M for x in row])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_diagonal_matches_sympy_invariant_factors(M):
    expected = [abs(int(d)) for d in invariant_factors(to_sympy(M), domain=ZZ)]
    assert la.snf_diagonal(M) == expected


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_snf_is_certified_by_its_unimodular_factors(M):
    r, c = la.dims(M)
    U, S, V, Uinv, Vinv = la._smith_with_inverses(M)
    assert la.mat_eq(la.mat_mul(la.mat_mul(U, M), V), S)
    assert la.mat_eq(la.mat_mul(U, Uinv), la.identity(r))
    assert la.mat_eq(la.mat_mul(V, Vinv), la.identity(c))
    diag = [S[i][i] for i in range(min(r, c))]
    assert all(S[i][j] == 0 for i in range(r) for j in range(c) if i != j)
    assert all(d >= 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_is_a_basis_of_the_kernel(M):
    r, c = la.dims(M)
    K = la.kernel_basis(M)
    assert la.dims(K) == (c, c - to_sympy(M).rank())
    assert la.is_zero(la.mat_mul(M, K))
    # saturated: the basis extends to a basis of ℤ^c
    assert all(d == 1 for d in la.snf_diagonal(K))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_matrix_solves_every_consistent_system(data):
    M = data.draw(matrices())
    X0 = data.draw(matrices(rows=la.dims(M)[1], max_dim=3))
    B = la.mat_mul(M, X0)
    X = la.solve_matrix(M, B)
    assert X is not None
    assert la.mat_eq(la.mat_mul(M, X), B)


@pytest.mark.parametrize("r, k, c", [(2, 0, 3), (0, 3, 2), (3, 2, 0), (0, 0, 0)])
def test_products_keep_the_shape_of_empty_factors(r, k, c):
    P = la.mat_mul(la.zeros(r, k), la.zeros(k, c))
    assert la.dims(P) == (r, c) and la.is_zero(P)


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        la.mat_mul(la.zeros(2, 3), la.zeros(2, 3))
