"""Exact integer linear algebra: Smith normal form, kernels, spans, subquotients.

A matrix is a ``Sparse``: the tuple of its columns, each a tuple of
``(row, value)`` pairs with nonzero values, rows ascending, plus
``nrows``, so that a matrix with no rows or no columns keeps its shape.
For ℤ[X] each column of an operator is one ``(row, 1)`` pair, so products
and Kronecker products are index arithmetic.  Everything here is exact;
there is no floating point anywhere in this package.

There is no separate vector form: a vector is a column of a ``Sparse``,
and a batch of vectors is one matrix.  ``Subquotient.lifts`` is a matrix
with one column per generator, and ``Subquotient.coords`` takes a matrix
and returns one.  Plain lists of Python ints remain in three places only:

- the working arrays of the Smith normal form and the transforms it
  returns (row lists); ``_from_rows`` makes a transform that is applied
  to a matrix a ``Sparse`` once, and ``mat_mul`` applies it;
- input at the payload boundary, which ``as_sparse`` checks (its shape,
  and that every entry is an ``int``) and converts;
- ``rows``, which writes a matrix as rows for JSON output.

Input is checked at that boundary, so a shape mismatch inside the
library (in ``mat_mul``, ``mat_sum``, ``apply_factors``,
``product_is_zero``, ``products_equal``, ``hstack`` or
``Span.coords``) is a fault of the library and raises AssertionError,
not ValueError.

``mat_sum`` accumulates each column of a signed sum once, in one dict,
and sorts it.  ``apply_factors`` applies a product of factors (1 - s d)
to a matrix the same way, one dict per column updated by every factor;
the Moore idempotent of a normalization is such a product.
``product_is_zero(A, B)`` answers ``is_zero(mat_mul(A, B))`` without
storing the product: one dict per column of B, dropped after its test.
The d∘d check of a chain complex and the Moore check of a normalization
use it.
``products_equal(A, B, C, D)`` answers ``A * B == C * D`` the same way,
one dict per column of A * B_j - C * D_j, except that two unit columns
B_j = (k, 1) and D_j = (l, 1) compare the columns A_k and C_l as they
are.  The simplicial identities of a group, the commuting squares of
``chains.ChainMap``, the projection ∘ section check of a normalization,
the check of ``inverse_unimodular`` and the final comparisons of the
AW∘∇, symmetry and associativity certificates use it.
``product_is_zero`` keeps its own loop for speed: written as
``products_equal`` with an empty right-hand side, its 716 calls of one
certbench ``ez`` pass (seed 5) took 6.4 ms instead of 4.0 ms in replay.

``kron(A, B, row, nrows)`` is the one Kronecker product: the columns of
kron(A, B) moved down by ``row``, the product of two unit columns the
shared unit column, and no columns at once for a factor with none.  Every
block of a tensor-layer matrix is row-disjoint and its rows ascend in
block order, so those matrices are written column by column in row order,
with nothing summed or sorted: ``chains.tensor_map`` and the
Day-convolution stages concatenate the columns of placed ``kron``s, a page
product is one placed ``kron``, and the tensor differential, the
associator and the hom-complex equations write their columns directly.

The unit column ``((r, 1),)`` is one shared tuple per row r (``units``,
grown on demand): ``identity``, ``kron`` of two unit columns, the
operators of ℤ[X] and the coordinate normalizations all take it, so the
many unit columns of free objects and their tensor products cost one
pointer each.  Columns are immutable, so sharing changes no value.

Every solver runs one Smith normal form U*M*V = S and builds only the
transforms it reads: ``snf_diagonal``, ``invariant_factors`` (its
nonzero entries) and ``rank`` none, ``kernel_basis`` V, ``image_basis``
Uinv, ``inverse_unimodular`` U and V (the inverse is V*U), and ``Span`` U
and Uinv.  A ``Span`` keeps U as a ``Sparse``, the diagonal and the image
basis, and answers any number of coordinate and containment tests and
the lattice test, with no solve where the answer is known: a lattice
span (all of ℤⁿ) contains every column, and on an identity span a matrix
is its own coordinates.  A ``Subquotient`` answers every quotient
question: it takes the ``Span`` of Z, which may be shared, and factors
the coordinates of the B generators on the basis of Z with no transform,
for its orders, and with U and Uinv only on the first read of its lifts
or coordinates.  The normalization of a group whose degeneracies are not
unit vectors splits D_n off as the ``Subquotient`` of the identity span
by the degenerate span: its coordinates are the projection, and its
lifts are what the section is built from.
"""

from __future__ import annotations

import threading
from functools import cached_property
from itertools import chain


class Sparse(tuple):
    """An integer matrix: the tuple of its columns, each a tuple of
    (row, value) pairs with nonzero values and rows ascending, plus
    ``nrows``.  Immutable, so matrices share columns freely.  Indexing,
    ``len`` (the column count), iteration, equality and JSON encoding are
    those of the column tuple; ``mat_eq`` also compares shapes."""

    def __new__(cls, cols, nrows):
        self = tuple.__new__(cls, cols)  # faster than the super() lookup
        self.nrows = nrows
        return self

    def __getnewargs__(self):
        return tuple(self), self.nrows

    @property
    def ncols(self):
        return len(self)


def as_sparse(M, r, c=None, what="matrix"):
    """M as an r x c Sparse, or ValueError if it has another shape.  A
    Sparse is checked by its recorded shape and returned as is; a list of
    rows (outside input) is checked row by row and converted, and every
    entry must be an ``int`` (not a bool, float or string).  With c None
    any width is accepted, and a list with no rows has none."""
    if type(M) is Sparse:
        if M.nrows != r or c is not None and len(M) != c:
            raise ValueError(f"{what} has wrong shape")
        return M
    if c is None:
        c = len(M[0]) if M else 0
    if len(M) != r or any(len(row) != c for row in M):
        raise ValueError(f"{what} has wrong shape")
    if not set(map(type, chain.from_iterable(M))) <= {int}:
        raise ValueError(f"{what} has an entry that is not an integer")
    return _from_rows(M, c)


def rows(M):
    """M as a list of plain row lists: the JSON form of a matrix."""
    out = [[0] * len(M) for _ in range(M.nrows)]
    for j, col in enumerate(M):
        for i, x in col:
            out[i][j] = x
    return out


def zeros(r, c):
    return Sparse(((),) * c, r)


_UNITS = []  # _UNITS[r] is the unit column ((r, 1),); only ever appended to
_UNITS_GROWING = threading.Lock()


def units(n):
    """The shared unit columns: a list whose entry r < n is ((r, 1),).
    Read it, never mutate it."""
    if len(_UNITS) < n:
        with _UNITS_GROWING:  # two growers must not append the same rows
            _UNITS.extend([((r, 1),) for r in range(len(_UNITS), n)])
    return _UNITS


def identity(n):
    return Sparse(units(n)[:n], n)


def dims(M):
    return M.nrows, len(M)


def _column(pairs):
    """The canonical column of a list of (row, value) pairs with nonzero
    values: equal rows summed, zeros dropped, rows ascending."""
    if len(pairs) < 2:
        return tuple(pairs)
    if len(dict(pairs)) == len(pairs):
        pairs.sort()
        return tuple(pairs)
    acc = {}  # some row repeats: sum its values
    for i, x in pairs:
        acc[i] = acc.get(i, 0) + x
    return _dict_column(acc)


def _dict_column(acc):
    """The canonical column of a dict row -> value: zeros dropped, rows
    ascending."""
    if 0 in acc.values():
        return tuple([t for t in sorted(acc.items()) if t[1]])
    return tuple(sorted(acc.items()))


def mat_scale(k, M):
    if not k:
        return zeros(*dims(M))
    return Sparse([tuple([(i, k * x) for i, x in col]) for col in M], M.nrows)


def mat_mul(A, B):
    """A * B, touching only the products of nonzero entries: each column of
    B picks the columns of A it names, and a column (k, 1) of B is column k
    of A, shared."""
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise AssertionError(f"dimension mismatch in mat_mul: {ra}x{ca} times "
                             f"{rb}x{cb}")
    out = []
    for Bj in B:
        if len(Bj) != 1:
            out.append(_column([(i, a * b) for k, b in Bj for i, a in A[k]]))
        elif Bj[0][1] == 1:
            out.append(A[Bj[0][0]])
        else:
            k, b = Bj[0]
            out.append(tuple([(i, a * b) for i, a in A[k]]))
    return Sparse(out, ra)


def mat_sum(terms):
    """The signed sum Σ scale * M over (scale, M) in terms, a nonempty list
    of matrices of one shape.  Each column is accumulated once, in one
    dict, over the terms with a nonzero scale."""
    shape = dims(terms[0][1])
    if any(dims(M) != shape for _, M in terms):
        raise AssertionError("shape mismatch in mat_sum")
    terms = [(scale, M) for scale, M in terms if scale]
    out = []
    for j in range(shape[1]):
        acc = {}
        for s, M in terms:
            for i, x in M[j]:
                acc[i] = acc.get(i, 0) + s * x
        out.append(_dict_column(acc))
    return Sparse(out, shape[0])


def apply_factors(ops, M):
    """(1 - s_m d_m)⋯(1 - s_1 d_1) * M for ops = [(s_1, d_1), ..., (s_m,
    d_m)], square products s_i * d_i of the size of M's rows, the first
    factor applied first.  Each column of M is one dict of row -> value
    that every factor updates in place, v -= s_i (d_i v); no product or
    sum is stored."""
    r = M.nrows
    if any(s.nrows != r or d.ncols != r or s.ncols != d.nrows
           for s, d in ops):
        raise AssertionError("shape mismatch in apply_factors")
    out = []
    for col in M:
        v = dict(col)
        for s, d in ops:
            dv = {}
            for k, x in v.items():
                if x:
                    for i, a in d[k]:
                        dv[i] = dv.get(i, 0) + a * x
            for k, y in dv.items():
                if y:
                    for i, b in s[k]:
                        v[i] = v.get(i, 0) - b * y
        out.append(_dict_column(v))
    return Sparse(out, r)


def product_is_zero(A, B):
    """Is A * B zero?  The product is not stored: each column of B is
    accumulated in one dict, dropped after its test."""
    if A.ncols != B.nrows:
        raise AssertionError(f"dimension mismatch in product_is_zero: "
                             f"{A.nrows}x{A.ncols} times {B.nrows}x{B.ncols}")
    for Bj in B:
        if Bj:
            acc = {}
            for k, b in Bj:
                for i, a in A[k]:
                    acc[i] = acc.get(i, 0) + a * b
            if any(acc.values()):
                return False
    return True


def products_equal(A, B, C, D):
    """Is A * B == C * D?  Neither product is stored: each column j is
    one dict of A * B_j - C * D_j, dropped after its zero test."""
    if A.ncols != B.nrows or C.ncols != D.nrows or A.nrows != C.nrows \
            or B.ncols != D.ncols:
        raise AssertionError(
            f"dimension mismatch in products_equal: {A.nrows}x{A.ncols} "
            f"times {B.nrows}x{B.ncols} against {C.nrows}x{C.ncols} times "
            f"{D.nrows}x{D.ncols}")
    for Bj, Dj in zip(B, D):
        if len(Bj) == 1 == len(Dj) and Bj[0][1] == 1 == Dj[0][1]:
            # unit columns: the products are a column of A and one of C
            if A[Bj[0][0]] != C[Dj[0][0]]:
                return False
            continue
        acc = {}
        for k, b in Bj:
            for i, a in A[k]:
                acc[i] = acc.get(i, 0) + a * b
        for k, d in Dj:
            for i, c in C[k]:
                acc[i] = acc.get(i, 0) - c * d
        if any(acc.values()):
            return False
    return True


def transpose(M):
    """The transpose of M: entry (i, j) moves to column i, row j."""
    cols = [[] for _ in range(M.nrows)]
    for j, col in enumerate(M):
        for i, x in col:
            cols[i].append((j, x))
    return Sparse(list(map(tuple, cols)), len(M))


def mat_eq(A, B):
    return dims(A) == dims(B) and A == B


def is_zero(M):
    return not any(M)


def hstack(*mats):
    """Concatenate matrices horizontally.  All must have the same row
    count."""
    r = mats[0].nrows
    for M in mats:
        if M.nrows != r:
            raise AssertionError("row count mismatch in hstack")
    # through a list: a tuple built straight from an iterator is resized,
    # which fills the tuple free lists (0.8 MB more live over ss random)
    return Sparse(list(chain(*mats)), r)


def from_columns(cols, nrows):
    """The nrows x len(cols) matrix whose columns are the given vectors."""
    return Sparse([tuple([(i, x) for i, x in enumerate(v) if x])
                   for v in cols], nrows)


def kron(A, B, row=0, nrows=None):
    """Kronecker product moved down by row: (A ⊗ B)[row+i*rb+k][j*cb+l] =
    A[i][j]*B[k][l], in nrows rows (row + A.nrows * B.nrows by default).
    The product of two unit columns is the shared unit column.  A or B with
    no columns gives no columns, with no work per column of the other."""
    if nrows is None:
        nrows = row + A.nrows * B.nrows
    if not A or not B:
        return Sparse((), nrows)
    rb = B.nrows
    ub = [Bl[0][0] if len(Bl) == 1 and Bl[0][1] == 1 else None for Bl in B]
    u = units(nrows) if any(k is not None for k in ub) else None
    out = []
    for Aj in A:
        if u is not None and len(Aj) == 1 and Aj[0][1] == 1:
            i = row + Aj[0][0] * rb
            out += [u[i + k] if k is not None
                    else tuple([(i + r, b) for r, b in Bl])
                    for k, Bl in zip(ub, B)]
        else:
            Ai = [(row + i * rb, a) for i, a in Aj]
            out += [tuple([(i + k, a * b) for i, a in Ai for k, b in Bl])
                    for Bl in B]
    return Sparse(out, nrows)


def _eye(n):
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def _from_rows(R, ncols):
    """The row list R, each row ncols long, as a Sparse."""
    return from_columns(list(zip(*R)) if R else [()] * ncols, len(R))


def _smith_with_inverses(M, track):
    """Return (U, diag, V, Uinv) with U*M*V = S in Smith normal form,
    diag the min(rows, cols) diagonal entries of S and the transforms row
    lists.

    Only the transforms named in ``track`` (some of "U", "V" and "Uinv")
    are built and updated; the others are returned as None.  The pivots
    depend on S alone, so S and every tracked transform are the same
    whatever is tracked.  Pivots are chosen with minimal absolute value to
    bound entry growth; diagonal entries are nonnegative and form a
    divisibility chain.

    A matrix with no nonzero entry returns at once: a zero diagonal and
    identity transforms.  Otherwise one loop applies the elementary row
    and column operations in place, each to S and to the tracked
    transforms; a row operation on U is a column operation on Uinv.  The
    rows of S above pivot t are zero off the diagonal, so column
    operations skip them.  ``tests/test_intlinalg.py`` pins all four
    outputs against an earlier implementation with one helper per
    operation.
    """
    r, c = dims(M)
    n = min(r, c)
    U = _eye(r) if "U" in track else None
    Uinv = _eye(r) if "Uinv" in track else None
    V = _eye(c) if "V" in track else None
    if not any(M):
        return U, [0] * n, V, Uinv
    S = rows(M)  # the working rows
    for t in range(n):
        while True:
            # re-pick a pivot of minimal absolute value every round, the
            # first in row-major order: the pivot magnitude never increases,
            # so entries stay bounded and each dirty round strictly shrinks
            # it, forcing termination
            best = 0
            for i in range(t, r):
                Si = S[i]
                for j in range(t, c):
                    a = Si[j]
                    if a and (not best or -best < a < best):
                        best, pi, pj = abs(a), i, j
                        if best == 1:
                            break
                if best == 1:
                    break
            if not best:
                break
            if pi != t:  # swap rows t and pi
                S[t], S[pi] = S[pi], S[t]
                if U is not None:
                    U[t], U[pi] = U[pi], U[t]
                if Uinv is not None:
                    for row in Uinv:
                        row[t], row[pi] = row[pi], row[t]
            if pj != t:  # swap columns t and pj
                for i in range(t, r):
                    row = S[i]
                    row[t], row[pj] = row[pj], row[t]
                if V is not None:
                    for row in V:
                        row[t], row[pj] = row[pj], row[t]
            St = S[t]
            d = St[t]
            dirty = False
            for i in range(t + 1, r):
                if S[i][t]:
                    # row i += k * row t; Uinv column t -= k * column i
                    k = -(S[i][t] // d)
                    S[i] = [a + k * b for a, b in zip(S[i], St)]
                    if U is not None:
                        U[i] = [a + k * b for a, b in zip(U[i], U[t])]
                    if Uinv is not None:
                        for row in Uinv:
                            row[t] -= k * row[i]
                    if S[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if St[j]:
                    # column j += k * column t
                    k = -(St[j] // d)
                    for i in range(t, r):
                        row = S[i]
                        row[j] += k * row[t]
                    if V is not None:
                        for row in V:
                            row[j] += k * row[t]
                    if St[j]:
                        dirty = True
            if dirty:
                continue
            # row and column t are clear; a unit pivot divides everything
            if d == 1 or d == -1:
                break
            # enforce that d divides the trailing block: adding the first
            # row with an entry d does not divide makes the next round
            # produce a remainder smaller than |d|
            for bad in range(t + 1, r):
                if any(x % d for x in S[bad][t + 1:]):
                    break
            else:
                break  # d divides the block: pivot t is done
            # row t += row bad; Uinv column bad -= column t
            S[t] = [a + b for a, b in zip(St, S[bad])]
            if U is not None:
                U[t] = [a + b for a, b in zip(U[t], U[bad])]
            if Uinv is not None:
                for row in Uinv:
                    row[bad] -= row[t]
        if S[t][t] < 0:  # negate row t; Uinv column t
            S[t] = [-a for a in S[t]]
            if U is not None:
                U[t] = [-a for a in U[t]]
            if Uinv is not None:
                for row in Uinv:
                    row[t] = -row[t]
        if S[t][t] == 0:
            break

    return U, [S[i][i] for i in range(n)], V, Uinv


def snf_diagonal(M):
    return _smith_with_inverses(M, ())[1]


def invariant_factors(M):
    """The nonzero Smith diagonal of M, built with no transform."""
    return [d for d in snf_diagonal(M) if d]


def rank(M):
    return len(invariant_factors(M))


def kernel_basis(M):
    """Basis of the integer kernel of M, as the columns of a matrix; the
    kernel is saturated, so this is a genuine ℤ-basis."""
    c = M.ncols
    _, diag, V, _ = _smith_with_inverses(M, ("V",))
    return from_columns([[row[j] for row in V] for j in range(c)
                         if j >= len(diag) or diag[j] == 0], c)


def image_basis(M):
    """Basis of the column span of M, as the columns of a matrix."""
    _, diag, _, Uinv = _smith_with_inverses(M, ("Uinv",))
    return _image_from_snf(diag, Uinv)


def _image_from_snf(diag, Uinv):
    """The column span of M from U*M*V = S: the columns Uinv[:, j] * d_j
    over the nonzero diagonal entries d_j of S."""
    return from_columns([[row[j] * d for row in Uinv]
                         for j, d in enumerate(diag) if d], len(Uinv))


def _diagonal_solve(diag, C, c):
    """Y with S Y = C for the Smith form S with c columns and diagonal
    diag, or None if there is no integer Y.  With U*M*V = S and C = U B,
    the solutions of M X = B are X = V Y."""
    out = []
    for col in C:
        y = []
        for i, x in col:
            d = diag[i] if i < len(diag) else 0
            if d == 0 or x % d:
                return None
            y.append((i, x // d))
        out.append(tuple(y))
    return Sparse(out, c)


class Span:
    """The integer column span of A, factored by one SNF U*A*V = S that
    tracks U and Uinv.  It keeps U as a Sparse, the diagonal, ``basis``
    (the image basis, as image_basis gives it) and its column count
    ``rank``; Uinv is not kept.  Since U*basis = [D; 0] with D the nonzero
    invariant factors, the coordinates of b on ``basis`` are (U b)_i / d_i,
    with b in the span iff every division is exact and (U b)_i = 0 for
    i >= rank; ``basis`` has full column rank, so they are unique.  An A
    with no nonzero entry spans 0 and runs no SNF; nor does an identity A,
    its own U and basis, with diagonal all 1, on which B is its own coords.
    The lattice test is decided here, and a lattice contains any B."""

    def __init__(self, A):
        self.nrows = n = A.nrows
        if not any(A):
            self._U, self._diag, basis = None, [], zeros(n, 0)
        elif len(A) == n and A == identity(n):
            self._U, self._diag, basis = A, [1] * n, A
        else:
            U, self._diag, _, Uinv = _smith_with_inverses(A, ("U", "Uinv"))
            self._U = _from_rows(U, n)
            basis = _image_from_snf(self._diag, Uinv)
        # a kept stage is often its own image basis: hold one copy of it
        self.basis = A if basis == A else basis
        self.rank = self.basis.ncols
        self._lattice = self.rank == n and all(d == 1 for d in self._diag)

    def coords(self, B):
        """The coordinates of the columns of B on ``basis``, as a matrix,
        or None if some column is not in the span."""
        if B.nrows != self.nrows:
            raise AssertionError(f"row count mismatch: a {B.nrows}-row matrix "
                                 f"against a Span in {self.nrows} rows")
        if self._U is None:  # the zero span
            return None if any(B) else zeros(0, B.ncols)
        if self._U is self.basis:  # only an identity A is both
            return B
        return _diagonal_solve(self._diag, mat_mul(self._U, B), self.rank)

    def contains(self, B):
        """Is every column of B in the span?  coords raises on a row
        mismatch."""
        return (self._lattice and B.nrows == self.nrows
                or self.coords(B) is not None)

    def is_lattice(self):
        """Is the span all of ℤ^rows?  True iff A has as many invariant
        factors as rows, all equal to 1."""
        return self._lattice


def inverse_unimodular(M):
    """Exact inverse of a unimodular integer matrix: with U*M*V = S = I,
    M⁻¹ = V*U, from one SNF.  M*X = I is checked on the result."""
    n, c = dims(M)
    if n != c:
        raise ValueError("not square")
    U, diag, V, _ = _smith_with_inverses(M, ("U", "V"))
    if any(d != 1 for d in diag):
        raise ValueError("matrix is not unimodular")
    X = mat_mul(_from_rows(V, n), _from_rows(U, n))
    eye = identity(n)
    if not products_equal(M, X, eye, eye):
        raise ValueError("matrix is not unimodular")
    return X


class Subquotient:
    """A subquotient Z/B of ℤ^n, with generator lifts and coordinates.

    Z is a Span in ℤ^n and B is given by a matrix of generator columns with
    n rows; every caller builds B inside Z (d∘d = 0, B_r ⊆ Z_r), so a B
    outside Z is a fault of the library and raises AssertionError.  The
    quotient is put in invariant-factor form: it is ⊕_i ℤ/orders[i] with
    the convention order 0 = ℤ, and column i of ``lifts`` is an ambient
    representative of cyclic summand generator i.

    Coordinates on Z are those on Z.basis (Span.coords), so the SNF here is
    of the coordinate matrix R of b_gens, which splits the quotient: with
    no transform at construction, for the orders, and with U and Uinv on
    the first read of ``lifts`` or ``coords``.  When Z = 0, R has no rows
    and each SNF returns at once: the quotient is the zero group.
    """

    def __init__(self, Z, b_gens):
        R = Z.coords(b_gens)
        if R is None:
            raise AssertionError("B is not contained in Z")
        diag = _smith_with_inverses(R, ())[1]
        diag += [0] * (Z.rank - len(diag))
        self._Z = Z
        self._R = R
        self._kept = [i for i, d in enumerate(diag) if d != 1]
        self.orders = [diag[i] for i in self._kept]
        self.free_rank = sum(1 for o in self.orders if o == 0)
        self.torsion = [o for o in self.orders if o >= 2]

    @property
    def ngens(self):
        return len(self.orders)

    @cached_property
    def _transforms(self):
        """The rows of U and columns of Uinv that select the generators."""
        U, _, _, Uinv = _smith_with_inverses(self._R, ("U", "Uinv"))
        kept, r = self._kept, self._Z.rank
        return (_from_rows([U[i] for i in kept], r),
                from_columns([[row[i] for row in Uinv] for i in kept], r))

    @cached_property
    def lifts(self):
        """The ambient lifts of the generators, one column each: Z.basis
        times the kept columns of Uinv.  Built on first read, so a
        Subquotient whose orders alone are read builds none."""
        return mat_mul(self._Z.basis, self._transforms[1])

    def coords(self, B):
        """The coordinates of the classes of the columns of B on the cyclic
        generators, reduced mod the torsion orders, as an ngens-row matrix.
        Raises ValueError if some column is not in Z."""
        C = self._Z.coords(B)
        if C is None:
            raise ValueError("a column is not in the subgroup Z")
        return self.reduce(mat_mul(self._transforms[0], C))

    def reduce(self, M):
        """M, an ngens-row matrix, with row i reduced mod orders[i]."""
        if not self.torsion:
            return M
        o = self.orders
        return Sparse([tuple([(i, x % o[i] if o[i] else x) for i, x in col
                              if not o[i] or x % o[i]]) for col in M],
                      M.nrows)
