"""Normalization and its inverse: Moore complexes, round-trips, disks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zilber import _random as zrandom
from zilber import doldkan
from zilber import intlinalg as la
from zilber.chains import AbelianGroupInvariants, homology
from zilber.delta import coface, codegeneracy, epi_mono_factorize
from zilber.doldkan import (_moore_section, _quotient_by_degenerates, disk,
                            gamma, gamma_normalize_comparison, homotopy_groups,
                            is_chain_iso, is_levelwise_unimodular,
                            normalized_gamma_comparison, normalize,
                            unnormalized_chains)
from zilber.ez import aw_nabla_identity_check, symmetry_check, unitality_check
from zilber.simplicial import (SimplicialAbelianGroup, circle, free_abelian,
                               product, standard_simplex)

import oracles
from oracles import conjugate_simplicial, identity_map, sab_tensor

# the library's normalization and section, in the upper Moore convention,
# and the oracle's in the lower one
NORMALIZE = {"upper": normalize, "lower": oracles.normalize_lower}
MOORE_SECTIONS = {"upper": _moore_section,
                  "lower": oracles.lower_moore_section}


def test_unnormalized_chains_of_triangle():
    A = free_abelian(standard_simplex(2, 3))
    C = unnormalized_chains(A)
    assert C.ranks == [3, 6, 10, 15]


def test_normalized_ranks_are_nondegenerate_counts():
    for X in (standard_simplex(2, 3), circle(3),
              product(circle(2), circle(2))):
        A = free_abelian(X)
        N = normalize(A).normalized
        assert tuple(N.ranks) == X.nondegenerate_counts()


def test_projection_section_identity():
    A = free_abelian(circle(3))
    res = normalize(A)
    comp = oracles.compose(res.projection, res.section)
    for n in range(4):
        assert la.mat_eq(comp.mat(n), la.identity(res.normalized.rank(n)))


def test_both_moore_conventions_give_same_invariants():
    rng = random.Random(2)
    for _ in range(5):
        A = zrandom.rand_simplicial(rng, dim_bound=2)
        hu = homology(normalize(A).normalized)
        hl = homology(oracles.normalize_lower(A).normalized)
        assert [(x.free_rank, x.torsion) for x in hu] \
            == [(x.free_rank, x.torsion) for x in hl]


def test_homotopy_groups_of_circle_and_torus():
    assert [str(x) for x in homotopy_groups(free_abelian(circle(2)))] \
        == ["Z", "Z", "0"]
    T = free_abelian(product(circle(2), circle(2)))
    assert [str(x) for x in homotopy_groups(T)] == ["Z", "Z^2", "Z"]


def test_gamma_of_disk_is_interval_object():
    # Γ(D^n) levelwise rank: surjections [m] ->> [n] plus those onto [n-1]
    A = gamma(disk(1), 3)
    assert A.ranks == [1, 2, 3, 4]
    A._validate()


def test_gamma_output_is_always_valid():
    rng = random.Random(6)
    for _ in range(10):
        C = zrandom.rand_complex(rng, top_degree=3)
        gamma(C, 3)._validate()


def gamma_operator_by_formula(C, alpha, basis):
    """The matrix of Γ(C)(alpha) with every structure constant computed
    afresh: for the generator t of the summand eta, factor eta ∘ alpha =
    mono ∘ epi; the generator goes to t in the summand epi when mono is an
    identity, to d(t) there when mono is the last coface, and to 0
    otherwise."""
    m, n = alpha.domain_top, alpha.codomain_top
    tgt = {b: i for i, b in enumerate(basis[m])}
    M = [[0] * len(basis[n]) for _ in basis[m]]
    for j, (eta, t) in enumerate(basis[n]):
        k = eta.codomain_top
        epi, mono = epi_mono_factorize(eta.compose(alpha))
        if mono == identity_map(k):
            M[tgt[(epi, t)]][j] = 1
        elif k and mono == coface(k, k):
            for t2, row in enumerate(la.rows(C.diff(k))):
                M[tgt[(epi, t2)]][j] = row[t]
    return la.as_sparse(M, len(basis[m]), len(basis[n]))


def test_gamma_matrices_match_the_uncached_formula():
    # complexes of different ranks and top degrees, built one after the
    # other, read the same table of structure constants: it holds nothing
    # of the complex it was first filled for
    rng = random.Random(15)
    for top, total in [(3, 10), (1, 4), (2, 7), (3, 3), (0, 2), (3, 12)]:
        C = zrandom.rand_complex(rng, top_degree=top, max_total_rank=total)
        A = gamma(C, 5)
        basis = [oracles.gamma_basis(C, n) for n in range(6)]
        for (n, i), M in A.face_mats.items():
            assert la.mat_eq(M, gamma_operator_by_formula(
                C, coface(n, i), basis))
        for (n, i), M in A.degen_mats.items():
            assert la.mat_eq(M, gamma_operator_by_formula(
                C, codegeneracy(n, i), basis))


def test_the_gamma_comparison_includes_the_identity_summand():
    # C_n sits in Γ(C)_n as the summand of the identity surjection, found
    # here by listing the basis; above the top degree it is empty
    rng = random.Random(16)
    for top, bound in [(3, 5), (2, 2), (0, 3), (3, 3), (1, 4)]:
        C = zrandom.rand_complex(rng, top_degree=top)
        f = normalized_gamma_comparison(C, bound)
        P = normalize(gamma(C, bound)).projection
        sign = 1
        for n in range(bound + 1):
            basis = oracles.gamma_basis(C, n)
            incl = la.Sparse([((row, 1),) for row, (eta, _) in enumerate(basis)
                              if eta.codomain_top == n], len(basis))
            assert la.mat_eq(f.mat(n), la.mat_scale(
                sign, la.mat_mul(P.mat(n), incl)))
            sign = sign * (-1 if (n + 1) % 2 else 1)


def test_normalize_gamma_roundtrip_isomorphism():
    rng = random.Random(7)
    for _ in range(20):
        C = zrandom.rand_complex(rng, top_degree=3)
        f = normalized_gamma_comparison(C, 3)
        assert is_chain_iso(f)


def test_the_gamma_comparison_rejects_a_bound_below_the_top_degree():
    # below the top degree 𝒩(Γ(C)) stops before C does: rejected before Γ
    # is built, not left to ChainMap validation
    C = zrandom.rand_complex(random.Random(16), top_degree=3)
    for bound in range(3):
        with pytest.raises(ValueError, match=f"^dimension bound {bound} is "
                                             f"below the top degree 3 of "
                                             f"the complex$"):
            normalized_gamma_comparison(C, bound)
    for bound in (3, 4):
        assert is_chain_iso(normalized_gamma_comparison(C, bound))


def test_gamma_normalize_roundtrip_unimodular():
    rng = random.Random(8)
    for _ in range(10):
        A = zrandom.rand_simplicial(rng, dim_bound=3)
        comp = gamma_normalize_comparison(A)
        assert is_levelwise_unimodular(comp, A.ranks)


def test_disk_chain_complexes():
    assert disk(0).ranks == [1]
    D = disk(2)
    assert D.ranks == [0, 1, 1]
    assert all(inv == AbelianGroupInvariants(0, ()) or n == 0
               for n, inv in enumerate(homology(D)))


# ---------------------------------------------------------------------------
# the two normalization paths: coordinate degeneracies and Smith normal form


def _kernel_normalization(A, moore):
    """Oracle for the Smith-normal-form path: per level, the projection
    U[r:] from the SNF of the degenerate span and the section K (proj K)⁻¹,
    where K is a kernel basis of the stacked Moore faces."""
    projs, secs = [], []
    for n, rn in enumerate(A.ranks):
        span = la.hstack(la.zeros(rn, 0),
                         *[A.degen_mats[(n - 1, i)] for i in range(n)])
        U, diag, _, _ = la._smith_with_inverses(span, ("U",))
        r = sum(1 for d in diag if d)
        proj = la.as_sparse(U[r:], rn - r, rn)
        if n == 0:
            sec = la.identity(rn)
        else:
            faces = range(1, n + 1) if moore == "upper" else range(n)
            stacked = [row for i in faces for row in la.rows(A.face_mats[(n, i)])]
            K = la.kernel_basis(la.as_sparse(stacked, len(stacked), rn))
            sec = la.mat_mul(K, la.inverse_unimodular(la.mat_mul(proj, K)))
        projs.append(proj)
        secs.append(sec)
    return projs, secs


@pytest.fixture
def snf_calls(monkeypatch):
    """The transforms tracked by each Smith normal form computed while the
    test runs."""
    calls = []
    real = la._smith_with_inverses

    def counting(M, track):
        calls.append(track)
        return real(M, track)

    monkeypatch.setattr(la, "_smith_with_inverses", counting)
    return calls


def _snf_path_objects():
    rng = random.Random(11)
    spaces = [standard_simplex(1, 3), standard_simplex(2, 3), circle(3),
              product(circle(2), standard_simplex(1, 2))]
    objs = [conjugate_simplicial(rng, free_abelian(X)) for X in spaces]
    objs += [conjugate_simplicial(
        rng, zrandom.rand_simplicial(rng, dim_bound=3)) for _ in range(8)]
    return objs


@pytest.mark.parametrize("moore", ["upper", "lower"])
def test_snf_path_matches_the_kernel_section(moore, snf_calls):
    for A in _snf_path_objects():
        res = NORMALIZE[moore](A)
        assert snf_calls
        snf_calls.clear()
        projs, secs = _kernel_normalization(A, moore)
        for n in range(A.dim_bound + 1):
            assert la.mat_eq(res.projection.mat(n), projs[n])
            assert la.mat_eq(res.section.mat(n), secs[n])


def _invariants(A):
    return [(h.free_rank, tuple(h.torsion))
            for h in homology(normalize(A).normalized)]


@pytest.mark.parametrize("X", [standard_simplex(0, 2), standard_simplex(1, 2),
                               standard_simplex(2, 2), circle(2)],
                         ids=["d0", "d1", "d2", "s1"])
def test_coordinate_and_snf_paths_agree(X, snf_calls):
    A = free_abelian(X)
    B = conjugate_simplicial(random.Random(12), A)
    normalize(A)
    assert not snf_calls
    assert normalize(B).normalized.ranks == normalize(A).normalized.ranks
    # per level above 0, the Subquotient that splits off D_n factors once
    # for its torsion and once more for the coordinates and lifts
    assert snf_calls == [(), ("U", "Uinv")] * X.dim_bound
    assert _invariants(B) == _invariants(A)
    # the library certifies ℤ[X], the oracle's matrix path its conjugate
    for check, oracle in ((aw_nabla_identity_check,
                           oracles.aw_nabla_identity_check),
                          (unitality_check, oracles.unitality_check),
                          (symmetry_check, oracles.symmetry_check)):
        assert check(A, A).ok
        assert oracle(B, B).ok


def test_broken_face_is_caught_by_the_moore_check(monkeypatch):
    # at bound 1, where d² = 0 cannot catch it
    A = free_abelian(standard_simplex(1, 1))
    faces = {k: la.rows(M) for k, M in A.face_mats.items()}
    # d_1 sends the degenerate edge s_0(0) to the other vertex: d_1 s_0 != id
    e = [row[0] for row in la.rows(A.degen_mats[(0, 0)])].index(1)
    faces[(1, 1)][0][e], faces[(1, 1)][1][e] = 0, 1
    B = SimplicialAbelianGroup(A.dim_bound, A.ranks, faces, A.degen_mats,
                               check=False)
    built = []

    class Recorded(doldkan.ChainComplex):
        def __init__(self, ranks, diffs):
            built.append(list(ranks))
            super().__init__(ranks, diffs)

    monkeypatch.setattr(doldkan, "ChainComplex", Recorded)
    with pytest.raises(ValueError, match="Moore subcomplex"):
        normalize(B)
    # N, which reads one face on the section, was never built: only C(B)
    assert built == [B.ranks]


def test_a_degenerate_subgroup_that_is_not_a_summand_is_rejected():
    # s_0 doubles the vertex: D_1 = 2ℤ in A_1 = ℤ, which has no complement
    A = SimplicialAbelianGroup(1, [1, 1], {(1, 0): [[1]], (1, 1): [[1]]},
                               {(0, 0): [[2]]}, check=False)
    with pytest.raises(ValueError,
                       match="degenerate subgroup is not a direct summand"):
        normalize(A)


def test_free_objects_normalize_without_smith_normal_form(snf_calls):
    X = product(circle(3), standard_simplex(2, 3))
    N = normalize(free_abelian(X)).normalized
    assert tuple(N.ranks) == X.nondegenerate_counts()
    assert snf_calls == []


# ---------------------------------------------------------------------------
# the Moore idempotent column by column against the three-product form


def moore_section_by_products(A, n, moore, lifts):
    """Oracle for either Moore section: each factor (1 - s_i d_j) applied
    to the whole matrix as two products and a signed sum."""
    steps = ([(i, i + 1) for i in reversed(range(n))] if moore == "upper"
             else [(i, i) for i in range(n)])
    V = lifts
    for i, j in steps:
        s, d = A.degen_mats[(n - 1, i)], A.face_mats[(n, j)]
        V = la.mat_sum([(1, V), (-1, la.mat_mul(s, la.mat_mul(d, V)))])
    return V


def _d1_s1():
    return free_abelian(standard_simplex(1, 3)), free_abelian(circle(3))


MOORE_GROUPS = {  # ℤ[X], tensor products, Γ(C) and conjugated groups
    "free": lambda rng: free_abelian(standard_simplex(2, 3)),
    "tensor": lambda rng: sab_tensor(*_d1_s1()),
    "gamma": lambda rng: gamma(zrandom.rand_complex(
        rng, top_degree=3, max_total_rank=5), 3),
    "conjugate": lambda rng: conjugate_simplicial(
        rng, sab_tensor(*reversed(_d1_s1()))),
    "conjugate_gamma": lambda rng: conjugate_simplicial(
        rng, zrandom.rand_simplicial(rng, dim_bound=3)),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(MOORE_GROUPS)),
       moore=st.sampled_from(["upper", "lower"]),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_moore_section_matches_the_three_product_form(kind, moore, seed,
                                                      data):
    A = MOORE_GROUPS[kind](random.Random(seed))
    for n in range(A.dim_bound + 1):
        _, lifts = _quotient_by_degenerates(A, n)
        assert la.mat_eq(MOORE_SECTIONS[moore](A, n, lifts),
                         moore_section_by_products(A, n, moore, lifts))
    # P_n maps every chain into the Moore subgroup, not just the lifts
    n = data.draw(st.integers(0, A.dim_bound))
    rn = A.ranks[n]
    V = la.as_sparse(data.draw(st.lists(
        st.lists(st.integers(-2 ** 70, 2 ** 70) | st.just(0),
                 min_size=3, max_size=3), min_size=rn, max_size=rn)), rn, 3)
    assert la.mat_eq(MOORE_SECTIONS[moore](A, n, V),
                     moore_section_by_products(A, n, moore, V))


@pytest.mark.parametrize("moore", ["upper", "lower"])
def test_normalized_differential_from_one_face_is_the_face_sum(moore):
    rng = random.Random(29)
    for make in MOORE_GROUPS.values():
        A = make(rng)
        res = NORMALIZE[moore](A)
        C = unnormalized_chains(A)
        for n in range(1, A.dim_bound + 1):
            assert la.mat_eq(res.normalized.diff(n), la.mat_mul(
                res.projection.mat(n - 1),
                la.mat_mul(C.diff(n), res.section.mat(n))))


def test_a_face_that_breaks_d_squared_is_caught_by_the_chain_complex():
    X = standard_simplex(2, 2)
    A = free_abelian(X)
    faces = {k: la.rows(M) for k, M in A.face_mats.items()}
    # d_0 [0,1,2] becomes the edge [0,1], not [1,2]: then
    # d [0,1,2] = 2[0,1] - [0,2], whose boundary 2[1] - [0] - [2] is not 0
    top, e01 = X.levels[2].index((0, 1, 2)), X.levels[1].index((0, 1))
    for i, row in enumerate(faces[(2, 0)]):
        row[top] = int(i == e01)
    B = SimplicialAbelianGroup(A.dim_bound, A.ranks, faces, A.degen_mats,
                               check=False)
    with pytest.raises(ValueError, match=r"^d_1 ∘ d_2 != 0$"):
        unnormalized_chains(B)
