"""Seeded random generators for property suites: chain complexes with
d² = 0 by construction, simplicial abelian groups via the inverse
normalization functor, single-entry corruptions, and random filtrations.
"""

from __future__ import annotations

from . import intlinalg as la
from .chains import ChainComplex
from .doldkan import gamma
from .filtration import FilteredChainComplex
from .simplicial import SimplicialIdentityError


def _random_unimodular(rng, n):
    """A unimodular n x n matrix and its inverse, built from n + 0..2
    elementary row operations."""
    ops = n + rng.randrange(3)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            U[i][t] += c * U[j][t]
        # inverse accumulates the inverse operations on the right
        for t in range(n):
            Uinv[t][j] -= c * Uinv[t][i]
    return la.as_sparse(U, n, n), la.as_sparse(Uinv, n, n)


def rand_complex(rng, top_degree=3, max_total_rank=10):
    """A random chain complex with d² = 0: a direct sum of spheres (ℤ in
    one degree) and two-term complexes (ℤ -> ℤ, multiplication by a unit or
    small integer), conjugated by random unimodular changes of basis."""
    ranks = [0] * (top_degree + 1)
    entries = []  # (degree, row-in-degree-1 index, value) for two-term summands
    total = 0
    while total < max_total_rank:
        if top_degree >= 1 and rng.random() < 0.6 and total + 2 <= max_total_rank:
            n = rng.randrange(1, top_degree + 1)
            val = rng.choice([1, -1, 2, 3])
            entries.append((n, ranks[n - 1], ranks[n], val))
            ranks[n - 1] += 1
            ranks[n] += 1
            total += 2
        else:
            n = rng.randrange(top_degree + 1)
            ranks[n] += 1
            total += 1
    diffs = {}
    for n in range(1, top_degree + 1):
        cols = [()] * ranks[n]
        for (deg, row, col, val) in entries:
            if deg == n:
                cols[col] = ((row, val),)
        diffs[n] = la.Sparse(cols, ranks[n - 1])
    # conjugate by unimodular matrices, one per degree
    us = [(_random_unimodular(rng, ranks[n])) for n in range(top_degree + 1)]
    return ChainComplex(ranks, {
        n: la.mat_mul(la.mat_mul(us[n - 1][0], diffs[n]), us[n][1])
        for n in range(1, top_degree + 1)})


def rand_simplicial(rng, dim_bound=3, max_total_rank=6):
    """A random valid simplicial abelian group: the inverse normalization
    of a random chain complex, so all simplicial identities hold."""
    C = rand_complex(rng, top_degree=dim_bound, max_total_rank=max_total_rank)
    return gamma(C, dim_bound)


def corrupt_simplicial(rng, A):
    """A copy of A with a single structure-matrix entry changed so that
    some simplicial identity fails; returns None if no invalidating
    single-entry change is found.

    Not every single-entry change is invalidating: when low-degree ranks
    vanish, some entries are unconstrained by the identities (e.g. the
    top differential of an object with empty 0- and 1-levels), so a
    perturbation there yields another valid object.  Such perturbations
    are resampled, up to eight times."""
    slots = []
    for kind, mats in (("face", A.face_mats), ("degen", A.degen_mats)):
        for key, M in mats.items():
            if all(la.dims(M)):
                slots.append((kind, key))
    if not slots:
        return None
    for _ in range(8):
        kind, key = rng.choice(slots)
        faces, degens = dict(A.face_mats), dict(A.degen_mats)
        mats = faces if kind == "face" else degens
        M = mats[key]
        i = rng.randrange(M.nrows)
        j = rng.randrange(M.ncols)
        unit = [()] * M.ncols
        unit[j] = ((i, 1),)
        mats[key] = la.mat_sum([(1, M), (rng.choice([1, -1, 2]),
                                         la.Sparse(unit, M.nrows))])
        B = type(A)(A.dim_bound, A.ranks, faces, degens, check=False)
        try:
            B._validate()
        except SimplicialIdentityError:
            return B
    return None


def rand_filtration(rng, p_max=4, top_degree=3, max_total_rank=8):
    """A random filtered chain complex: stages grow by random d-closed
    spans and the top stage is everything."""
    C = rand_complex(rng, top_degree=top_degree,
                     max_total_rank=max_total_rank)
    acc = [[] for _ in range(top_degree + 1)]  # columns per degree
    stages = []
    for p in range(p_max + 1):
        if p == p_max:
            stages.append({n: la.identity(C.rank(n))
                           for n in range(top_degree + 1)})
            break
        for _ in range(rng.randrange(3)):
            n = rng.randrange(top_degree + 1)
            if not C.rank(n):
                continue
            v = la.from_columns([[rng.randint(-2, 2)
                                  for _ in range(C.rank(n))]], C.rank(n))
            acc[n].append(v[0])
            if n >= 1 and C.rank(n - 1):
                acc[n - 1].append(la.mat_mul(C.diff(n), v)[0])
        stages.append({n: la.Sparse(acc[n], C.rank(n))
                       for n in range(top_degree + 1)})
    return FilteredChainComplex(C, stages, p_max)
