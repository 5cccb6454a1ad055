"""Exact integer linear algebra: Smith normal form, kernels, spans, subquotients.

A matrix comes in one of two forms, both with ``nrows`` and ``ncols``, so
that a matrix with no rows or no columns keeps its shape:

- ``Matrix``, dense: the list of its rows, each a plain list of Python ints.
  The normalized complexes, every Smith normal form and all of
  ``spectral`` use it.
- ``Sparse``: the tuple of its columns, each a tuple of ``(row, value)``
  pairs with nonzero values, rows ascending.  Every object whose rank is
  the unnormalized rank uses it: the faces and degeneracies of a
  simplicial abelian group and every X(f), the unnormalized chains C(A),
  the unnormalized ∇ and AW, and the C(A) side of each projection and
  section.  For ℤ[X] each column of an operator is one ``(row, 1)`` pair,
  so products and Kronecker products are index arithmetic.

``mat_mul``, ``mat_eq``, ``is_zero``, ``hstack`` and ``kron`` take either
form, and an operation with a ``Sparse`` operand gives a ``Sparse``; the
signed sum ``mat_sum`` gives a ``Sparse``.  ``dense`` converts where a composite of sparse maps lands in
a normalized complex (``chains.ChainMap`` stores a map between two dense
complexes densely) or reaches a Smith normal form.  Everything here is
exact; there is no floating point anywhere in this package.

``kron_sum`` adds scaled Kronecker products into blocks of a matrix of
either form; it is the one way tensor-product matrices are built
(``kron``, ``sab_tensor``, ∇, AW and the block layout of
``chains.TensorBasis``).

Every solver runs one Smith normal form U*M*V = S and builds only the
transforms it reads: ``snf_diagonal``, ``rank`` and ``spans_lattice`` none,
``kernel_basis`` V, ``image_basis`` Uinv, ``span_contains`` (so ``in_span``
and ``spans_equal``) U, ``solve_matrix`` (so ``inverse_unimodular``) U and
V.  A ``Subquotient`` keeps U and Uinv of its Z generators, which give the
basis of Z and the coordinates of any vector on it with no further SNF,
and U and Uinv of the relations of B on that basis.
"""

from __future__ import annotations

from itertools import compress


class Matrix(list):
    """A dense integer matrix: a list of plain row lists plus ``ncols``.

    Indexing, ``len`` (the row count), iteration and JSON encoding are
    those of the row list."""

    __slots__ = ("ncols",)

    def __init__(self, rows, ncols):
        self.extend(rows)
        self.ncols = ncols

    nrows = property(list.__len__)


class Sparse(tuple):
    """A sparse integer matrix: the tuple of its columns, each a tuple of
    (row, value) pairs with nonzero values and rows ascending, plus
    ``nrows``.  Immutable, so matrices share columns freely.  Indexing,
    ``len`` (the column count), iteration, equality and JSON encoding are
    those of the column tuple; ``mat_eq`` also compares shapes.  Tested
    with ``type(M) is Sparse``, which is cheaper than isinstance on the
    many small dense matrices: not to be subclassed."""

    def __new__(cls, cols, nrows):
        self = super().__new__(cls, cols)
        self.nrows = nrows
        return self

    def __getnewargs__(self):
        return tuple(self), self.nrows

    @property
    def ncols(self):
        return len(self)


def as_matrix(M, r, c=None, what="matrix"):
    """M as an r x c Matrix, or ValueError if it has another shape.  A
    Matrix is checked by its recorded shape and returned as is, a Sparse
    is checked and made dense; a list of rows (outside input) is checked
    row by row.  With c None any width is accepted, and a list with no rows
    has none."""
    if isinstance(M, (Matrix, Sparse)):
        if dims(M) != (r, M.ncols if c is None else c):
            raise ValueError(f"{what} has wrong shape")
        return dense(M)
    if c is None:
        c = len(M[0]) if M else 0
    if len(M) != r or any(len(row) != c for row in M):
        raise ValueError(f"{what} has wrong shape")
    return Matrix(M, c)


def as_sparse(M, r, c, what="matrix"):
    """M as an r x c Sparse (see as_matrix)."""
    if type(M) is Sparse:
        if dims(M) != (r, c):
            raise ValueError(f"{what} has wrong shape")
        return M
    return to_sparse(as_matrix(M, r, c, what))


def to_sparse(M):
    """M as a Sparse; a Sparse is returned as is."""
    if type(M) is Sparse:
        return M
    if not M:
        return zeros(0, M.ncols, True)
    return Sparse([tuple((i, x) for i, x in enumerate(col) if x)
                   for col in zip(*M)], len(M))


def dense(M):
    """M as a Matrix; a Matrix is returned as is."""
    if type(M) is not Sparse:
        return M
    out = zeros(M.nrows, M.ncols)
    for j, col in enumerate(M):
        for i, x in col:
            out[i][j] = x
    return out


def _eye(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def zeros(rows, cols, sparse=False):
    if sparse:
        return Sparse(((),) * cols, rows)
    return Matrix([[0] * cols for _ in range(rows)], cols)


def identity(n, sparse=False):
    if sparse:
        return Sparse([((j, 1),) for j in range(n)], n)
    return Matrix(_eye(n), n)


def dims(M):
    if type(M) is Sparse:
        return M.nrows, len(M)
    return len(M), M.ncols


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
    if 0 in acc.values():
        return tuple([t for t in sorted(acc.items()) if t[1]])
    return tuple(sorted(acc.items()))


def _is_sparse(*mats):
    for M in mats:
        if type(M) is Sparse:
            return True
    return False


def mat_scale(k, M):
    return Matrix([[k * x for x in row] for row in M], M.ncols)


def mat_mul(A, B):
    """A * B, touching only the products of nonzero entries.  Dense: compress
    skips the zeros of each row of A and of each row of B it meets.  Sparse
    (if either factor is): each column of B picks the columns of A it
    names, and a column (k, 1) of B is column k of A, shared."""
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise ValueError(f"dimension mismatch in mat_mul: {ra}x{ca} times {rb}x{cb}")
    if type(A) is Sparse or type(B) is Sparse:
        A, B = to_sparse(A), to_sparse(B)
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
    out = zeros(ra, cb)
    cols = range(cb)
    for Ai, Oi in zip(A, out):
        for a, Bk in compress(zip(Ai, B), Ai):
            for j in compress(cols, Bk):
                Oi[j] += a * Bk[j]
    return out


def mat_sum(terms):
    """The signed sum Σ scale * M over (scale, M) in terms, a nonempty list
    of matrices of one shape, as a Sparse."""
    shape = dims(terms[0][1])
    if any(dims(M) != shape for _, M in terms):
        raise ValueError("shape mismatch in mat_sum")
    scales = [scale for scale, _ in terms if scale]
    mats = [to_sparse(M) for scale, M in terms if scale]
    return Sparse([_column([(i, s * x) for s, col in zip(scales, cols)
                            for i, x in col]) for cols in zip(*mats)]
                  if mats else ((),) * shape[1], shape[0])


def mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def mat_eq(A, B):
    if dims(A) != dims(B):
        return False
    if _is_sparse(A, B):
        return tuple.__eq__(to_sparse(A), to_sparse(B))
    return all(ra == rb for ra, rb in zip(A, B))


def is_zero(M):
    if type(M) is Sparse:
        return not any(M)
    return all(all(x == 0 for x in row) for row in M)


def hstack(*mats):
    """Concatenate matrices horizontally.  All must have the same row count;
    the result is sparse if any of them is."""
    r = mats[0].nrows
    if any(M.nrows != r for M in mats):
        raise ValueError("row count mismatch in hstack")
    if _is_sparse(*mats):
        return Sparse([col for M in mats for col in to_sparse(M)], r)
    return Matrix([[x for row in rows for x in row] for rows in zip(*mats)],
                  sum(M.ncols for M in mats))


def vstack(*mats):
    """Concatenate dense matrices vertically.  All must have the same column
    count."""
    c = mats[0].ncols
    if any(M.ncols != c for M in mats):
        raise ValueError("column count mismatch in vstack")
    return Matrix([row[:] for M in mats for row in M], c)


def columns(M):
    return [[row[j] for row in M] for j in range(M.ncols)]


def from_columns(cols, nrows):
    """The nrows x len(cols) matrix whose columns are the given vectors."""
    return Matrix([[col[i] for col in cols] for i in range(nrows)], len(cols))


def add_kron(M, A, B, row=0, col=0, scale=1):
    """M[row + i*rb + k][col + j*cb + l] += scale * A[i][j] * B[k][l]: adds
    scale * kron(A, B) into the block of the dense M at (row, col), in
    place, touching only the products of nonzero entries."""
    rb, cb = dims(B)
    nonzero_B = [[(l, b) for l, b in enumerate(Bk) if b] for Bk in B]
    for i, Ai in enumerate(A):
        for j, a in enumerate(Ai):
            if a:
                a *= scale
                c = col + j * cb
                for k, Bk in enumerate(nonzero_B, row + i * rb):
                    Mk = M[k]
                    for l, b in Bk:
                        Mk[c + l] += a * b


def kron_sum(nrows, ncols, terms, sparse=False):
    """The nrows x ncols matrix Σ scale * kron(A, B), each product with its
    top left entry at (row, col), over (A, B, row, col, scale) in terms:
    a Sparse if sparse, else a Matrix built by add_kron."""
    if not sparse:
        M = zeros(nrows, ncols)
        for A, B, row, col, scale in terms:
            add_kron(M, dense(A), dense(B), row, col, scale)
        return M
    cols = [[] for _ in range(ncols)]
    for A, B, row, col, scale in terms:
        if not scale:
            continue
        B = to_sparse(B)
        rb, cb = dims(B)
        for j, Aj in enumerate(to_sparse(A)):
            if not Aj:
                continue
            blocks = [(row + i * rb, scale * a) for i, a in Aj]
            for Bl, out in zip(B, cols[col + j * cb:col + (j + 1) * cb]):
                out.extend((r + k, s * b) for r, s in blocks for k, b in Bl)
    return Sparse(list(map(_column, cols)), nrows)


def kron(A, B):
    """Kronecker product: (A ⊗ B)[i*rb+k][j*cb+l] = A[i][j]*B[k][l]; sparse
    if either factor is."""
    if not _is_sparse(A, B):
        return kron_sum(A.nrows * B.nrows, A.ncols * B.ncols, [(A, B, 0, 0, 1)])
    A, B, rb = to_sparse(A), to_sparse(B), B.nrows
    return Sparse([tuple([(i * rb + k, a * b) for i, a in Aj for k, b in Bl])
                   for Aj in A for Bl in B], A.nrows * rb)


ALL_TRANSFORMS = frozenset(("U", "V", "Uinv", "Vinv"))


def _smith_with_inverses(M, track=ALL_TRANSFORMS):
    """Return (U, S, V, Uinv, Vinv) with U*M*V = S in Smith normal form.

    Only the transforms named in ``track`` (a subset of ALL_TRANSFORMS) are
    built and updated; the others are returned as None.  The pivots depend
    on S alone, so S and every tracked transform are the same whatever is
    tracked.  Pivots are chosen with minimal absolute value to bound entry
    growth; diagonal entries are nonnegative and form a divisibility chain.
    """
    r, c = dims(M)
    # plain row lists while pivoting (indexing a list subclass is slower);
    # wrapped as Matrix on return
    S = [row[:] for row in M]
    U = _eye(r) if "U" in track else None
    Uinv = _eye(r) if "Uinv" in track else None
    V = _eye(c) if "V" in track else None
    Vinv = _eye(c) if "Vinv" in track else None

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
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_add(i, j, k):
        # row_i += k * row_j ; Uinv column j -= k * column i
        S[i] = [a + k * b for a, b in zip(S[i], S[j])]
        if U is not None:
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        if Uinv is not None:
            for row in Uinv:
                row[j] -= k * row[i]

    def col_add(i, j, k):
        # col_i += k * col_j ; Vinv row j -= k * row i
        for row in S:
            row[i] += k * row[j]
        if V is not None:
            for row in V:
                row[i] += k * row[j]
        if Vinv is not None:
            Vinv[j] = [a - k * b for a, b in zip(Vinv[j], Vinv[i])]

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

    def wrap(T, n):
        return None if T is None else Matrix(T, n)

    return wrap(U, r), Matrix(S, c), wrap(V, c), wrap(Uinv, r), wrap(Vinv, c)


def snf_diagonal(M):
    S = _smith_with_inverses(M, ())[1]
    return [S[i][i] for i in range(min(dims(S)))]


def rank(M):
    return sum(1 for d in snf_diagonal(M) if d != 0)


def spans_lattice(M):
    """Is the column span of M all of ℤ^rows?  True iff M has as many
    invariant factors as rows, all equal to 1."""
    diag = snf_diagonal(M)
    return len(diag) == len(M) and all(d == 1 for d in diag)


def kernel_basis(M):
    """Basis of the integer kernel of M, as the columns of a Matrix; the
    kernel is saturated, so this is a genuine ℤ-basis."""
    r, c = dims(M)
    _, S, V, _, _ = _smith_with_inverses(M, ("V",))
    n = min(r, c)
    ker = [j for j in range(c) if j >= n or S[j][j] == 0]
    return Matrix([[row[j] for j in ker] for row in V], len(ker))


def image_basis(M):
    """Basis of the column span of M, as the columns of a Matrix."""
    _, S, _, Uinv, _ = _smith_with_inverses(M, ("Uinv",))
    return _image_from_snf(S, Uinv)


def _image_from_snf(S, Uinv):
    """The column span of M from U*M*V = S: the columns Uinv[:, j] * d_j
    over the nonzero diagonal entries d_j of S."""
    pivots = [(j, S[j][j]) for j in range(min(dims(S))) if S[j][j]]
    return Matrix([[row[j] * d for j, d in pivots] for row in Uinv],
                  len(pivots))


def _diagonal_solve(S, C):
    """Y with S Y = C for a Smith form S, or None if there is no integer Y.
    With U*M*V = S and C = U B, the solutions of M X = B are X = V Y."""
    c = S.ncols
    Y = zeros(c, C.ncols)
    for i, ci in enumerate(C):
        d = S[i][i] if i < c else 0
        if d == 0:
            if any(ci):
                return None
        elif any(x % d for x in ci):
            return None
        else:
            Y[i] = [x // d for x in ci]
    return Y


def solve_matrix(M, B):
    """Integer solution X of M X = B, or None if none exists."""
    if len(B) != len(M):
        raise ValueError("row count mismatch in solve_matrix")
    if not B.ncols:
        return zeros(M.ncols, 0)  # nothing to solve: skip the SNF
    U, S, V, _, _ = _smith_with_inverses(M, ("U", "V"))
    Y = _diagonal_solve(S, mat_mul(U, B))
    return None if Y is None else mat_mul(V, Y)


def span_contains(A, B):
    """Is every column of B in the integer column span of A?"""
    if len(B) != len(A):
        raise ValueError("row count mismatch in span_contains")
    if not B.ncols:
        return True
    U, S, _, _, _ = _smith_with_inverses(A, ("U",))
    return _diagonal_solve(S, mat_mul(U, B)) is not None


def in_span(gens, v):
    """Is v in the column span of gens (over ℤ)?"""
    return span_contains(gens, Matrix([[x] for x in v], 1))


def spans_equal(A, B):
    return span_contains(A, B) and span_contains(B, A)


def inverse_unimodular(M):
    """Exact inverse of a unimodular integer matrix."""
    n, c = dims(M)
    if n != c:
        raise ValueError("not square")
    X = solve_matrix(M, identity(n))
    if X is None:
        raise ValueError("matrix is not unimodular")
    if not mat_eq(mat_mul(M, X), identity(n)):
        raise ValueError("matrix is not unimodular")
    return X


class Subquotient:
    """A subquotient Z/B of ℤ^n, with generator lifts and coordinates.

    Z and B are given by Matrices of generator columns with n rows; B must
    be contained in the span of Z.  The quotient is put in invariant-factor
    form: it is ⊕_i ℤ/orders[i] with the convention order 0 = ℤ, and
    ``lifts`` holds an ambient representative for each cyclic summand
    generator.

    One SNF U_Z z_gens V_Z = S_Z gives the basis of Z, Uinv_Z[:, :r] D with
    D = diag(d_1..d_r) the nonzero invariant factors, and since
    U_Z zbasis = [D; 0], the coordinates of v on that basis are
    (U_Z v)_i / d_i, with v in Z iff the division is exact and (U_Z v)_i = 0
    for i >= r.  Z has full column rank, so these coordinates are unique.
    A second SNF, of the coordinate matrix R of b_gens, splits the quotient.
    """

    def __init__(self, ambient_dim, z_gens, b_gens):
        if len(z_gens) != ambient_dim or len(b_gens) != ambient_dim:
            raise ValueError("generators must be given as an ambient_dim-row matrix")
        Uz, Sz, _, Uz_inv, _ = _smith_with_inverses(z_gens, ("U", "Uinv"))
        self._zbasis = _image_from_snf(Sz, Uz_inv)
        r = self._zbasis.ncols
        self._Uz, self._Sz = Uz, Sz
        R = self._z_coords(b_gens)
        if R is None:
            raise ValueError("B is not contained in Z")
        U, S, _, Uinv, _ = _smith_with_inverses(R, ("U", "Uinv"))
        n = min(dims(S))
        diag = [S[i][i] for i in range(n)] + [0] * (r - n)
        kept = [i for i in range(r) if diag[i] != 1]
        self.orders = [diag[i] for i in kept]
        self._U = U
        self._kept = kept
        # ambient lift of generator i: zbasis * (Uinv column i)
        self.lifts = [mat_vec(self._zbasis, [row[i] for row in Uinv])
                      for i in kept]
        self.free_rank = sum(1 for o in self.orders if o == 0)
        self.torsion = [o for o in self.orders if o >= 2]

    @property
    def ngens(self):
        return len(self.orders)

    def _z_coords(self, B):
        """The coordinates of the columns of B on the basis of Z, as a
        Matrix, or None if some column is not in Z."""
        Y = _diagonal_solve(self._Sz, mat_mul(self._Uz, B))
        return None if Y is None else Matrix(Y[:self._zbasis.ncols], B.ncols)

    def contains(self, v):
        return self._z_coords(Matrix([[x] for x in v], 1)) is not None

    def coords(self, v):
        """Coordinates of the class of v on the cyclic generators (reduced
        mod torsion orders).  Raises ValueError if v is not in Z."""
        c = self._z_coords(Matrix([[x] for x in v], 1))
        if c is None:
            raise ValueError("vector not in the subgroup Z")
        y = mat_vec(self._U, [row[0] for row in c])
        out = []
        for pos, i in enumerate(self._kept):
            o = self.orders[pos]
            out.append(y[i] % o if o else y[i])
        return out

    def induced_matrix(self, M, lifts):
        """The matrix of v -> M v on the given vectors (one column each), in
        the generator coordinates of this subquotient."""
        return from_columns([self.coords(mat_vec(M, v)) for v in lifts],
                            self.ngens)

    def is_zero_class(self, v):
        return all(x == 0 for x in self.coords(v))

    def reduce(self, coords):
        return [c % o if o else c for c, o in zip(coords, self.orders)]
