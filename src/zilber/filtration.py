"""ℕ-filtered chain complexes presented by stage generator columns, Day
convolution, the chain-level skeletal filtration of ℤ[X] (read off the
nondegenerate basis of X; its stages are 0 or the identity), and filtered
pairings induced by the shuffle product.
"""

from __future__ import annotations

from . import intlinalg as la
from .chains import ChainComplex, check_version, tensor, unit_complex
from .ez import (_koszul_swap, _Nondegenerate, _tensor_associator,
                 shuffle_product)
from .simplicial import CheckCertificate


class FilteredChainComplex:
    """An ℕ-filtered chain complex: an ambient free complex together with,
    for each p <= p_max, a subcomplex given by integer generator columns
    per degree.  Stages must be nested, closed under the ambient
    differential, and exhaust the ambient at p = p_max.  A stage with no
    columns is closed and nested, so validation tests nothing for it, and a
    Sparse stage of the ambient's row count is kept as it is.

    The la.Span of each distinct stage matrix is factored once, keyed by
    (rows, matrix), and kept: validation and every later reader of
    ``span(p, n)``, which finds it by clamped (p, n), share it.  ``spans``
    may hand in spans already factored under those keys (day_convolution
    passes the spans whose bases are its stages); validation still runs
    every closure, nesting and exhaustion test, on them.  Stages and spans
    must not be changed afterwards."""

    def __init__(self, ambient, stages, p_max, check=True, spans=None):
        if p_max < 0:
            raise ValueError(f"p_max must be nonnegative, not {p_max}")
        self.ambient = ambient
        self.p_max = p_max
        self._spans = dict(spans or {})  # (rows, stage matrix) -> Span
        self._stage_spans = {}  # (clamped p, n) -> Span
        if len(stages) != p_max + 1:
            raise ValueError("stages must have p_max + 1 entries")
        for p, stage in enumerate(stages):
            for n in stage:
                if not 0 <= n <= ambient.top_degree:
                    raise ValueError(f"stage ({p},{n}) lies outside degrees "
                                     f"0..{ambient.top_degree}")
        # stages[p][n] is an ambient.rank(n)-row matrix of generator columns
        ranks = [ambient.rank(n) for n in range(ambient.top_degree + 1)]
        missing = [la.zeros(r, 0) for r in ranks]
        self.stages = []
        for p, given in enumerate(stages):
            stage = {}
            for n, r in enumerate(ranks):
                S = given.get(n, missing[n])
                if type(S) is not la.Sparse or S.nrows != r:
                    S = la.as_sparse(S, r, what=f"stage ({p},{n})")
                stage[n] = S
            self.stages.append(stage)
        if check:
            self._validate()

    def stage(self, p, n):
        """Generator columns of F_p in degree n (p is clamped to [−1, p_max];
        p < 0 gives the zero subgroup)."""
        if p < 0 or n < 0 or n > self.ambient.top_degree:
            return la.zeros(self.ambient.rank(n), 0)
        return self.stages[min(p, self.p_max)][n]

    def span(self, p, n):
        """The la.Span of stage (p, n), p clamped as in stage: factored on
        first use, once per distinct stage matrix, and found by (p, n)."""
        at = (-1 if p < -1 else p if p < self.p_max else self.p_max, n)
        sp = self._stage_spans.get(at)
        if sp is None:
            S = self.stage(p, n)
            sp = self._spans.get((S.nrows, S))
            if sp is None:
                sp = self._spans[(S.nrows, S)] = la.Span(S)
            self._stage_spans[at] = sp
        return sp

    def _validate(self):
        # the span of stage (p, n) serves the closure of (p, n + 1), the
        # nesting of (p - 1, n) and, at p_max, exhaustion
        top = self.ambient.top_degree
        for p, stage in enumerate(self.stages):
            for n, S in stage.items():
                if not S:
                    continue  # no columns: closed and nested
                # all columns of the stage at once; only a failure goes
                # column by column, for the first offending column's message
                below = self.span(p, n - 1) if n else None
                closed = (not n or below.is_lattice() or below.contains(
                    la.mat_mul(self.ambient.diff(n), S)))
                nested = p == self.p_max or self.span(p + 1, n).contains(S)
                if not (closed and nested):
                    self._first_violation(p, n)
        for n in range(top + 1):
            if not self.span(self.p_max, n).is_lattice():
                raise ValueError(
                    f"top stage does not exhaust the ambient in degree {n}")

    def _first_violation(self, p, n):
        """Raise for the first column of stage (p, n) that breaks closure
        under d or nesting in stage p + 1."""
        S = self.stages[p][n]
        for col in S:
            v = la.Sparse((col,), S.nrows)
            if n >= 1 and not self.span(p, n - 1).contains(
                    la.mat_mul(self.ambient.diff(n), v)):
                raise ValueError(
                    f"stage {p} is not closed under d in degree {n}")
            if p < self.p_max and not self.span(p + 1, n).contains(v):
                raise ValueError(
                    f"stage {p} is not contained in stage {p+1} "
                    f"in degree {n}")

    # -- serialization ------------------------------------------------------

    def to_payload(self):
        return {
            "format": "filt",
            "version": 1,
            "ambient": self.ambient.to_payload(),
            "p_max": self.p_max,
            "stages": [{str(n): la.rows(self.stages[p][n])
                        for n in range(self.ambient.top_degree + 1)}
                       for p in range(self.p_max + 1)],
        }

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != "filt":
            raise ValueError("not a filt payload")
        check_version(payload, 1)
        ambient = ChainComplex.from_payload(payload["ambient"])
        p_max = payload["p_max"]
        if type(p_max) is not int:
            raise ValueError("p_max must be an integer")
        stages = []
        for stage in payload["stages"]:
            if not isinstance(stage, dict):
                raise ValueError("a filt stage must map degrees to matrices")
            stages.append({int(n): M for n, M in stage.items()})
        return cls(ambient, stages, p_max)


def constant_filtration(C, p_max=0):
    """Every stage is the full ambient complex."""
    full = {n: la.identity(C.rank(n)) for n in range(C.top_degree + 1)}
    return FilteredChainComplex(C, [full] * (p_max + 1), p_max)


def unit_filtration(p_max=0):
    """The monoidal unit: ℤ in degree 0, constant in p."""
    return constant_filtration(unit_complex(), p_max)


def skeletal_filtration(A):
    """The chain-level skeletal filtration of A = ℤ[X] on N(ℤ[X]), read off
    the nondegenerate basis (_basis_skeletal_filtration), with nothing
    normalized.  ValueError if A carries no simplicial set."""
    return _basis_skeletal_filtration(_Nondegenerate.of(A))


def _basis_skeletal_filtration(S):
    """The skeletal filtration of N(ℤ[X]) on the nondegenerate basis of
    the ez._Nondegenerate S: every nondegenerate k-simplex lies in sk_k
    and in no lower skeleton (Goerss-Jardine, Simplicial Homotopy Theory,
    III.2), so stage (p, k) is the identity of N_k for p >= k and 0 for
    p < k.  Computed once per S and kept in S.skeletal, so every group on
    X shares it; callers must not mutate it."""
    if S.skeletal is None:
        N = S.chains
        D = N.top_degree
        full = [la.identity(N.rank(k)) for k in range(D + 1)]
        # a stage (p, k) with p < k is left out, so it is 0
        S.skeletal = FilteredChainComplex(N, [
            {k: full[k] for k in range(p + 1)} for p in range(D + 1)], D)
    return S.skeletal


def _kron_columns(nrows, pieces):
    """The nrows-row matrix whose columns are those of kron(X, Y), moved
    down to row offset off, for (off, X, Y) in pieces, left to right."""
    cols = []
    for off, X, Y in pieces:
        # most pieces of a Day convolution have a factor with no columns,
        # and this test is cheaper than the call, which returns at once
        if X and Y:
            cols += la.kron(X, Y, off, nrows)
    return la.Sparse(cols, nrows)


def day_convolution(F, G):
    """F ⊛ G: ambient is the tensor of the ambients; stage n is the span of
    the images of (stage F_p) ⊗ (stage G_q) over p + q = n, p <= p_max(F)
    and q <= p_max(G).  The resulting filtration stabilizes at
    p_max(F) + p_max(G).  The TensorBasis of the ambient is stored as
    .basis."""
    E, tb = tensor(F.ambient, G.ambient)
    p_max = F.p_max + G.p_max
    stages = [{} for _ in range(p_max + 1)]
    spans = {}  # (rows, input) -> Span: one SNF per distinct input
    for k in range(E.top_degree + 1):
        if not tb.rank(k):  # every stage is 0 x 0: build and key none
            for stage in stages:
                stage[k] = la.zeros(0, 0)
            continue
        # the x ⊗ y of degree k with x in F_p and y in G_q are the columns
        # of kron(F_p, G_q) in each block (a, k - a), a ascending
        splits = [(off, [F.stage(p, a) for p in range(F.p_max + 1)],
                   [G.stage(q, b) for q in range(G.p_max + 1)])
                  for a, b, off in reversed(tb.blocks(k))]
        for n in range(p_max + 1):
            # a term with p > p_max(F) lies in the one at p = p_max(F), and
            # one with n - p > p_max(G) in the one at n - p = p_max(G),
            # since the stages are constant past p_max and nested
            M = _kron_columns(tb.rank(k), [(off, Fa[p], Gb[n - p])
                                           for p in range(max(0, n - G.p_max),
                                                          min(n, F.p_max) + 1)
                                           for off, Fa, Gb in splits])
            key = (M.nrows, M)
            if key not in spans:
                spans[key] = la.Span(M)
            stages[n][k] = spans[key].basis
    # each stage is the basis of a span: the output keeps that span
    out = FilteredChainComplex(E, stages, p_max, spans={
        (sp.nrows, sp.basis): sp for sp in spans.values()})
    out.basis = tb
    return out


def filtrations_stagewise_equal(F, G):
    """Stagewise equality of spans (same ambient ranks assumed)."""
    if [F.ambient.rank(n) for n in range(F.ambient.top_degree + 1)] != \
            [G.ambient.rank(n) for n in range(G.ambient.top_degree + 1)]:
        return False
    p_top = max(F.p_max, G.p_max)
    for p in range(p_top + 1):
        for n in range(F.ambient.top_degree + 1):
            S, T = F.stage(p, n), G.stage(p, n)
            if (S or T) and not (F.span(p, n).contains(T)
                                 and G.span(p, n).contains(S)):
                return False
    return True


def _span_equals_stage(img, H, p, n):
    """Is span(img) the stage (p, n) of H?  Yes iff img lies in the stage
    and its coordinates C on the stage's basis generate ℤ^{C.nrows}, i.e.
    C has C.nrows invariant factors, all 1: one SNF, of C, no transform."""
    C = H.span(p, n).coords(img)
    return C is not None and la.snf_diagonal(C) == [1] * C.nrows


def _carries_stages(mats, src, tgt, what, holds):
    """Certifies that mats[n] carries each stage (p, n) of src onto the
    stage (p, n) of tgt: fails at the first (p, n) that it does not, with
    the detail "<what> image of stage p differs in degree n", and holds
    with the detail holds.  A slot where neither stage has columns holds:
    both span 0."""
    for p in range(src.p_max + 1):
        for n in range(src.ambient.top_degree + 1):
            S = src.stage(p, n)
            if (S or tgt.stage(p, n)) and not _span_equals_stage(
                    la.mat_mul(mats[n], S), tgt, p, n):
                return CheckCertificate(False, witness=(p, n),
                                        detail=f"{what} image of stage {p} "
                                               f"differs in degree {n}")
    return CheckCertificate(True, detail=holds)


def convolution_symmetry_check(F, G):
    """Certifies F ⊛ G ≅ G ⊛ F stagewise: the signed swap of the ambient
    tensor carries each stage span onto the corresponding stage span."""
    FG = day_convolution(F, G)
    GF = day_convolution(G, F)
    return _carries_stages(_koszul_swap(FG.basis, GF.basis), FG, GF, "swap",
                           "⊛ is symmetric stagewise")


def convolution_associativity_check(F, G, H):
    """Certifies (F ⊛ G) ⊛ H ≅ F ⊛ (G ⊛ H) stagewise under the canonical
    associator of the ambient tensor."""
    FG = day_convolution(F, G)
    GH = day_convolution(G, H)
    L = day_convolution(FG, H)
    R = day_convolution(F, GH)
    mats = _tensor_associator(L.basis, FG.basis, R.basis, GH.basis)
    return _carries_stages(mats, L, R, "associator",
                           "⊛ is associative stagewise")


class FilteredPairing:
    """A chain map m : F_ambient ⊗ G_ambient -> H_ambient compatible with
    the filtrations: m(F_p ⊗ G_q) ⊆ H_{p+q} for all p, q.

    Construction tests nothing: the containment certificate is computed on
    the first call of containment_certificate and kept, a violation failing
    it with a witness (p, q, degree).  F, G, H and m must not be changed
    afterwards."""

    def __init__(self, F, G, H, m, basis):
        self.F = F
        self.G = G
        self.H = H
        self.m = m
        self.basis = basis
        self._containment = None

    def containment_certificate(self):
        if self._containment is None:
            self._containment = self._check_containment()
        return self._containment

    def _check_containment(self):
        """Test m(F_p ⊗ G_q) ⊆ H_{p+q} in every degree n, for every p and
        q, and return the certificate with the first escaping (p, q, n)
        as witness.  Only the degrees n = a + b in which F_p has columns
        in degree a and G_q in degree b are visited, ascending: in any
        other F_p ⊗ G_q has no columns.  A triple whose target stage is
        all of ℤ^rank (its span is a lattice) holds whatever m is, so it is
        skipped before any image is built; a stage of full rank but finite
        index > 1 is still tested."""
        tb = self.basis
        top = tb.top_degree
        live_G = [[b for b, S in stage.items() if S] for stage in self.G.stages]
        for p, stage in enumerate(self.F.stages):
            live_F = [a for a, S in stage.items() if S]
            for q, live in enumerate(live_G):
                for n in sorted({a + b for a in live_F for b in live
                                 if a + b <= top}):
                    if self.H.span(p + q, n).is_lattice():
                        continue  # everything is in H_{p+q}: build nothing
                    # every x ⊗ y of F_p ⊗ G_q in degree n, tested at once
                    cols = _kron_columns(tb.rank(n), [
                        (off, self.F.stage(p, a), self.G.stage(q, b))
                        for a, b, off in reversed(tb.blocks(n))])
                    imgs = la.mat_mul(self.m.mat(n), cols)
                    if not self.H.span(p + q, n).contains(imgs):
                        return CheckCertificate(
                            False, witness=(p, q, n),
                            detail=f"m(F_{p} ⊗ G_{q}) escapes "
                                   f"H_{p+q} in degree {n}")
        return CheckCertificate(True, detail="m(F_p ⊗ G_q) ⊆ H_{p+q} for all p, q")

    def filtration_zero_certificate(self):
        """Certifies that m maps the stage-0 part of F ⊛ G isomorphically
        onto the stage 0 of H, degreewise: F_0 ⊗ G_0 on the pairing's basis,
        which spans the stage 0 of F ⊛ G with no convolution built."""
        tb = self.basis
        for n in range(tb.top_degree + 1):
            src = _kron_columns(tb.rank(n), [
                (off, self.F.stage(0, a), self.G.stage(0, b))
                for a, b, off in reversed(tb.blocks(n))])
            img = la.mat_mul(self.m.mat(n), src)
            if not _span_equals_stage(img, self.H, 0, n):
                return CheckCertificate(False, witness=n,
                                        detail=f"stage-0 image differs from "
                                               f"H_0 in degree {n}")
            if la.rank(src) != la.rank(img):
                return CheckCertificate(False, witness=n,
                                        detail=f"stage-0 map not injective "
                                               f"in degree {n}")
        return CheckCertificate(True,
                                detail="filtration-0 component is an isomorphism")


def filtered_ez(A, B):
    """The shuffle product as a filtered pairing between skeletal
    filtrations: sk(A) ⊗ sk(B) -> sk(A⊗B) for A = ℤ[X] and B = ℤ[Y]; its
    containment certificate is computed on its first read.  It holds for
    any m: F_p ⊗ G_q is 0 in degrees n > p + q, and H_{p+q} is all of
    N_n(A⊗B) for n <= p + q.  The containment test visits only the
    degrees where F_p ⊗ G_q has columns, n <= p + q, and skips each, its
    target stage being a lattice: it builds no image.  Its content is the
    validation of ∇ as a chain map.  H is read off the nondegenerate basis
    of X×Y, so A⊗B is not built.  ValueError if A or B carries no
    simplicial set."""
    sp = shuffle_product(A, B)
    return FilteredPairing(skeletal_filtration(A), skeletal_filtration(B),
                           _basis_skeletal_filtration(sp.simplices), sp.map,
                           sp.source_basis)
