"""Exact integer linear algebra: Smith normal form, kernels, spans, subquotients.

A matrix is a ``Matrix``: the list of its rows, each a plain list of Python
ints, which also carries its column count, so that a matrix with no rows or
no columns keeps its shape.  Everything here is exact; there is no floating
point anywhere in this package.

``add_kron`` adds a scaled Kronecker product into a block of a matrix; it
is the one way tensor-product matrices are built (``kron``, ``sab_tensor``
and the block layout of ``chains.TensorBasis``).

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


def as_matrix(M, r, c=None, what="matrix"):
    """M as an r x c Matrix, or ValueError if it has another shape.  A
    Matrix is checked by its recorded shape and returned as is; a list of
    rows (outside input) is checked row by row.  With c None any width is
    accepted, and a list with no rows has none."""
    if isinstance(M, Matrix):
        if dims(M) != (r, M.ncols if c is None else c):
            raise ValueError(f"{what} has wrong shape")
        return M
    if c is None:
        c = len(M[0]) if M else 0
    if len(M) != r or any(len(row) != c for row in M):
        raise ValueError(f"{what} has wrong shape")
    return Matrix(M, c)


def _eye(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def zeros(rows, cols):
    return Matrix([[0] * cols for _ in range(rows)], cols)


def identity(n):
    return Matrix(_eye(n), n)


def dims(M):
    return len(M), M.ncols


def mat_scale(k, M):
    return Matrix([[k * x for x in row] for row in M], M.ncols)


def mat_mul(A, B):
    """A * B, touching only the products of nonzero entries: compress skips
    the zeros of each row of A and of each row of B it meets."""
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise ValueError(f"dimension mismatch in mat_mul: {ra}x{ca} times {rb}x{cb}")
    out = zeros(ra, cb)
    cols = range(cb)
    for Ai, Oi in zip(A, out):
        for a, Bk in compress(zip(Ai, B), Ai):
            for j in compress(cols, Bk):
                Oi[j] += a * Bk[j]
    return out


def mat_vec(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def mat_eq(A, B):
    return dims(A) == dims(B) and all(ra == rb for ra, rb in zip(A, B))


def is_zero(M):
    return all(all(x == 0 for x in row) for row in M)


def hstack(*mats):
    """Concatenate matrices horizontally.  All must have the same row count."""
    r = len(mats[0])
    if any(len(M) != r for M in mats):
        raise ValueError("row count mismatch in hstack")
    return Matrix([[x for row in rows for x in row] for rows in zip(*mats)],
                  sum(M.ncols for M in mats))


def vstack(*mats):
    """Concatenate matrices vertically.  All must have the same column count."""
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
    scale * kron(A, B) into the block of M at (row, col), in place, touching
    only the products of nonzero entries."""
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


def kron(A, B):
    """Kronecker product: (A ⊗ B)[i*rb+k][j*cb+l] = A[i][j]*B[k][l]."""
    out = zeros(len(A) * len(B), A.ncols * B.ncols)
    add_kron(out, A, B)
    return out


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
