"""The spectral sequence of an ℕ-filtered chain complex: pages as explicit
subquotients with ambient lifts, differentials on lifts, page recursion and
convergence checks, pairings induced by filtered pairings, the Leibniz
rule, and the first page of a skeletal filtration (heart_check).

Convention (stated in every report): the E_1 page here is the subquotient
page of the filtered complex, E_1^{p,q} = H_{p+q}(F_p/F_{p-1}); no
reindexing is applied.
"""

from __future__ import annotations

from . import intlinalg as la
from .filtration import skeletal_filtration
from .simplicial import CheckCertificate

CONVENTION = ("E_1^{p,q} = H_{p+q}(F_p/F_{p-1}); pages are the subquotient "
              "pages of the filtered complex, with no reindexing")


class SpectralSequence:
    """Pages E_r^{p,q} of a FilteredChainComplex as Subquotients of the
    ambient chain groups, with differentials d_r computed on lifts.

    Z_r^{p,q} = {x in F_p, degree p+q : dx in F_{p-r}} and
    B_r^{p,q} = Z_{r-1}^{p-1,q+1} + d(Z_{r-1}^{p+r-1,q-r+2}); the entry is
    Z_r/B_r.  ``pages[r]`` and ``diffs[r]`` are dicts of the entries (p, q)
    of page r and of their d_r, for r in 1..r_top = max(r_max, p_max + 1),
    and KeyError for any other r; the page at p_max + 1 is stable and is
    exposed as the infinity page.  r_max sets only how many pages there
    are (those past p_max + 1 repeat E_∞): page r is built on the first
    read of pages[r], and d_r with it on that of diffs[r], once, so a
    caller that reads page 1 alone builds no other page.

    Z_r^{p,n} (ambient degree n = p+q) reads only the stages F_p in degree
    n and F_{p-r} in degree n-1.  A stage (p, n) has the id -1 when it has
    no nonzero column, and otherwise the least p' whose generator matrix in
    degree n is exactly that of F_p (p is clamped to [-1, p_max] first),
    so equal stages share their id.  Z and B are built on first use, once
    per key, and every answer of the linear algebra once per distinct
    question, in caches that live as long as the instance (no reference
    cycle holds it):

    - Z_r^{p,n} is keyed by (id of F_p in n, id of F_{p-r} in n-1, n), and
      Z_0 and degree 0 by (id of F_p in n, n); the zero group (id -1, p < 0
      or n outside 0..top) is keyed (-1, n);
    - B_r^{p,n} by the pair of keys of Z_{r-1}^{p-1,n} and
      Z_{r-1}^{p+r-1,n+1};
    - one memo keyed by value (_once): kernel_basis, image_basis and
      la.Span per matrix, a stage's span being F's kept one, and one
      la.Subquotient per (Z span, B matrix), which an entry and
      convergence share in the ambient chains and page recursion in the
      generator coordinates of page r; so the pages past r_inf share
      E_∞'s Subquotients and their recursion questions, and a question
      that reads orders alone builds no transform."""

    def __init__(self, F, r_max=None):
        self.F = F
        p_max = F.p_max
        if r_max is None:
            r_max = p_max + 1
        if r_max < 1:
            raise ValueError(f"r_max must be at least 1, not {r_max}")
        self.r_inf = p_max + 1
        r_top = max(r_max, self.r_inf)
        self.r_top = r_top
        # the pages hold the store, never the instance, so that a dropped
        # instance is freed at once, with no reference cycle
        store = self._store = _Store(F)
        entries = [(p, n - p) for p in range(p_max + 1)
                   for n in range(F.ambient.top_degree + 1)]
        self.pages = pages = _Pages(r_top, lambda r: store.page(r, entries))
        self.diffs = _Pages(r_top,
                            lambda r: store.differentials(r, pages[r]))

    def _b_gens(self, p, n, r):
        """Generators of B_r^{p, n-p} = Z_{r-1}^{p-1} + d Z_{r-1}^{p+r-1}."""
        return self._store.b_of(self._store.b_key(r, p, n))

    def infinity(self):
        return self.pages[self.r_inf]

    # -- invariants --------------------------------------------------------

    def d_squared_check(self, r):
        """d_r composed with d_r vanishes (entrywise, modulo target orders),
        for 1 <= r <= r_top."""
        if not 1 <= r <= self.r_top:
            raise ValueError(f"d_r² is checked for 1 <= r <= {self.r_top}, "
                             f"not r = {r}")
        for (p, q), M in self.diffs[r].items():
            tgt = self.pages[r].get((p - 2 * r, q + 2 * r - 2))
            M2 = self.diffs[r].get((p - r, q + r - 1))
            if tgt is None or M2 is None or not tgt.ngens:
                continue
            if not la.is_zero(tgt.reduce(la.mat_mul(M2, M))):
                return CheckCertificate(False, witness=(r, p, q),
                                        detail="d_r ∘ d_r != 0")
        return CheckCertificate(True, detail=f"d_{r}² = 0")

    def page_recursion_check(self, r):
        """E_{r+1}^{p,q} has the orders of the homology of (E_r, d_r) at
        every (p, q), for 1 <= r < r_top (Weibel, §5.4): the homology is
        computed from page r and d_r alone (see _homology), never from
        ambient generators, so this also checks d_r as computed."""
        if not 1 <= r < self.r_top:
            raise ValueError(f"page recursion is checked for 1 <= r < "
                             f"{self.r_top}, not r = {r}")
        for (p, q), sq_next in self.pages[r + 1].items():
            if self._homology(r, p, q) != sq_next.orders:
                return CheckCertificate(
                    False, witness=(r, p, q),
                    detail=f"page recursion fails at E_{r+1}^{{{p},{q}}}")
        return CheckCertificate(True, detail=f"E_{r+1} = H(E_{r}, d_{r})")

    def _homology(self, r, p, q):
        """The orders of H(E_r, d_r) at (p, q), in the generator coordinates
        of E_r^{p,q}: ker d_r, the preimage of the target entry's
        relations, over d_r into (p, q) plus the entry's own relations.  If
        one of those lies outside ker d_r, d_r is not well defined, and the
        Subquotient raises AssertionError."""
        page, diffs = self.pages[r], self.diffs[r]
        g = page[(p, q)].ngens
        if not g:
            return []
        ker, d_out = la.identity(g), diffs[(p, q)]
        if not la.is_zero(d_out):
            tgt = page[(p - r, q + r - 1)]
            ker = _span_of_preimage(ker, d_out, _relations(tgt),
                                    self._store.memo)
        d_in = diffs.get((p + r, q - r + 1), la.zeros(g, 0))
        return self._store.quotient(
            ker, la.hstack(d_in, _relations(page[(p, q)]))).orders

    def convergence_check(self):
        """E_∞ invariants equal the associated graded of H_*(ambient) with
        respect to the induced filtration F_p H_n = image of
        (ker d ∩ F_p) in H_n.

        ker d ∩ F_p is computed from kernel_basis(d), never from the pages'
        Z, once per stage id, and the orders of the graded piece through
        the store's memo: equal ids give (Z + im)/(Z + im) = 0."""
        amb = self.F.ambient
        einf = self.infinity()
        st = self._store
        for n in range(amb.top_degree + 1):
            kern = _once(st.memo, la.kernel_basis, amb.diff(n))
            im = _once(st.memo, la.image_basis, amb.diff(n + 1))
            cycles = {-1: la.zeros(amb.rank(n), 0)}  # id -> ker d ∩ F_p
            ids = st._ids[n]
            for p in range(self.F.p_max + 1):
                a, b = ids[p], ids[p - 1] if p else -1
                if a not in cycles:
                    cycles[a] = _span_of_preimage(kern, kern,
                                                  self.F.stage(p, n), st.memo)
                graded = [] if a == b else st.quotient(
                    la.hstack(cycles[a], im), la.hstack(cycles[b], im)).orders
                if graded != einf[(p, n - p)].orders:
                    return CheckCertificate(
                        False, witness=(p, n - p),
                        detail=f"E_∞^{{{p},{n-p}}} differs from the associated "
                               f"graded of H_{n}")
        return CheckCertificate(True,
                                detail="E_∞ matches the associated graded of H_*")

    # -- reporting ---------------------------------------------------------

    def to_report(self):
        pages = {}
        for r in range(1, self.r_top + 1):
            tbl = {}
            for (p, q), sq in sorted(self.pages[r].items()):
                if not sq.ngens and la.is_zero(self.diffs[r][(p, q)]):
                    continue
                tbl[f"{p},{q}"] = {
                    "orders": list(sq.orders),
                    "d": la.rows(self.diffs[r][(p, q)]),
                }
            pages[str(r)] = tbl
        return {
            "format": "ss",
            "version": 1,
            "convention": CONVENTION,
            "p_max": self.F.p_max,
            "r_inf": self.r_inf,
            "pages": pages,
        }


class _Store:
    """Z_r, B_r and the entries E_r of one filtered complex, each built on
    first use and kept under its key or in the memo (see SpectralSequence)."""

    def __init__(self, F):
        self.F = F
        self._ids = _stage_ids(F)
        self._zs = {}  # Z key -> generator columns
        self._dzs = {}  # Z key -> d of its generator columns
        self._bs = {}  # B key -> generator columns
        self._stages = {(S.nrows, S): (p, n)  # (rows, stage matrix) -> (p, n)
                        for p, stage in enumerate(F.stages)
                        for n, S in stage.items()}
        self.memo = {}  # see _once

    def z_key(self, r, p, n):
        """The key of Z_r^{p,n}, from the ids of F_p and F_{p-r}, each p
        clamped to [-1, p_max]."""
        ids, p_max = self._ids, self.F.p_max
        if p < 0 or not 0 <= n < len(ids):
            return (-1, n)
        a = ids[n][min(p, p_max)]
        if a < 0 or r == 0 or n == 0:
            return (a, n)
        return (a, ids[n - 1][min(p - r, p_max)] if p >= r else -1, n)

    def b_key(self, r, p, n):
        return (self.z_key(r - 1, p - 1, n),
                self.z_key(r - 1, p + r - 1, n + 1))

    def z_of(self, key):
        """Generators of Z for a key of z_key: the stage F_a in degree n
        for key (a, n), {x in F_a, deg n : dx in F_b} for key (a, b, n)."""
        Z = self._zs.get(key)
        if Z is None:
            if len(key) == 2:
                Z = self.F.stage(*key)
            else:
                a, b, n = key
                Z = _span_of_preimage(self.F.stage(a, n), self.dz_of((a, n)),
                                      self.F.stage(b, n - 1), self.memo)
            self._zs[key] = Z
        return Z

    def dz_of(self, key):
        """d of the generators of Z for a key of z_key."""
        dZ = self._dzs.get(key)
        if dZ is None:
            dZ = self._dzs[key] = la.mat_mul(self.F.ambient.diff(key[-1]),
                                             self.z_of(key))
        return dZ

    def b_of(self, key):
        """Generators of B for a key of b_key: Z_1 + d Z_2 for the pair of
        Z keys."""
        B = self._bs.get(key)
        if B is None:
            B = self._bs[key] = la.hstack(self.z_of(key[0]),
                                          self.dz_of(key[1]))
        return B

    def quotient(self, Z, B):
        """The la.Subquotient span(Z)/span(B) of generator matrices, once
        per (Z span, B).  A Z equal to a stage (p, n) of F takes the span
        F.span(p, n), and any other Z one la.Span per distinct matrix."""
        stage = self._stages.get((Z.nrows, Z))
        span = (_once(self.memo, la.Span, Z) if stage is None
                else self.F.span(*stage))
        return _once(self.memo, la.Subquotient, span, B)

    def entry(self, r, p, n):
        """E_r^{p, n-p} = Z_r/B_r as a Subquotient of the degree-n chains."""
        return self.quotient(self.z_of(self.z_key(r, p, n)),
                             self.b_of(self.b_key(r, p, n)))

    def page(self, r, entries):
        """The entries (p, q) of page r."""
        return {(p, q): self.entry(r, p, p + q) for p, q in entries}

    def differentials(self, r, page):
        """d_r on lifts: matrix per entry (p,q) of page r into (p-r, q+r-1)
        in the cyclic-generator coordinates of the target entry."""
        amb = self.F.ambient
        out = {}
        for (p, q), sq in page.items():
            tgt = page.get((p - r, q + r - 1))
            rows = tgt.ngens if tgt else 0
            # an entry with no generators has no lifts to read
            out[(p, q)] = (tgt.coords(la.mat_mul(amb.diff(p + q), sq.lifts))
                           if rows and sq.ngens else la.zeros(rows, sq.ngens))
        return out


class _Pages(dict):
    """Page r (or d_r) for 1 <= r <= r_top, built by build(r) on the first
    read of self[r] and kept; any other key raises KeyError."""

    def __init__(self, r_top, build):
        self._r_top = r_top
        self._build = build

    def __missing__(self, r):
        if not 1 <= r <= self._r_top:
            raise KeyError(r)
        out = self[r] = self._build(r)
        return out


def _stage_ids(F):
    """ids[n][p]: -1 if the stage F_p has no nonzero column in degree n,
    else the least p' with the same generator matrix in degree n."""
    ids = []
    for n in range(F.ambient.top_degree + 1):
        first = {}
        row = []
        for p in range(F.p_max + 1):
            S = F.stage(p, n)
            row.append(first.setdefault(S, p) if any(S) else -1)
        ids.append(row)
    return ids


def _once(memo, f, *args):
    """f(*args), kept in memo under f, args and the row count of the last
    arg, a matrix: a Span by identity, which the memo keeps alive, and a
    matrix by value, so f runs once per distinct question."""
    key = (f, *args, args[-1].nrows)
    out = memo.get(key)
    if out is None:
        out = memo[key] = f(*args)
    return out


def _span_of_preimage(A, M, B, memo):
    """A basis of {A x : M x ∈ span(B)}, the span of [A | 0] times
    ker [M | -B].  With M = A this is span(A) ∩ span(B).  Its kernel and
    image are kept in memo (see _once)."""
    if not A.ncols:
        return A  # the zero span; skips two SNFs
    ker = _once(memo, la.kernel_basis, la.hstack(M, la.mat_scale(-1, B)))
    return _once(memo, la.image_basis, la.mat_mul(
        la.hstack(A, la.zeros(A.nrows, B.ncols)), ker))


def _relations(sq):
    """The columns orders[i]·e_i of the torsion generators of an entry, in
    its generator coordinates."""
    return la.Sparse([((i, o),) for i, o in enumerate(sq.orders) if o],
                     sq.ngens)


def _invariant_checks(S):
    """(name, certificate) for d_r² = 0 and page recursion on every page,
    then convergence; lazy, so a caller can stop at the first failure."""
    for r in range(1, S.r_top + 1):
        yield f"d-squared-r{r}", S.d_squared_check(r)
        if r < S.r_top:
            yield f"page-recursion-r{r}", S.page_recursion_check(r)
    yield "convergence", S.convergence_check()


def compute_pages(F, r_max=None):
    """SpectralSequence of a filtered complex with all invariants asserted:
    d_r² = 0 and page recursion for every computed page, and E_∞ equal to
    the associated graded of homology."""
    S = SpectralSequence(F, r_max)
    for _, cert in _invariant_checks(S):
        if not cert.ok:
            raise AssertionError(cert.detail)
    return S


class PairingWitnessError(ValueError):
    """Raised when an induced page pairing is not well defined; carries the
    offending (entry, generator) data as .witness."""

    def __init__(self, detail, witness):
        super().__init__(detail)
        self.witness = witness


class PagePairing:
    """The bilinear maps E_r(F) ⊗ E_r(G) -> E_r(H) induced by a filtered
    pairing, stored as ambient product representatives per generator pair:
    ``products[key][i][j]`` is the column of m(x_i ⊗ y_j) for the lifts x_i
    and y_j of the entries key = (pq1, pq2).

    Well-definedness (independence of lifts) is verified on generators at
    construction: pairing any boundary generator with any cycle generator
    must land in the boundary part of the target entry."""

    def __init__(self, P, S_F, S_G, S_H, r):
        self.P = P
        self.S_F = S_F
        self.S_G = S_G
        self.S_H = S_H
        self.r = r
        self.products = {}
        pf = S_F.pages[r]
        pg = S_G.pages[r]
        ph = S_H.pages[r]
        for (p, q), sf in pf.items():
            for (p2, q2), sg in pg.items():
                tgt = ph.get((p + p2, q + q2))
                if tgt is None or not sf.ngens or not sg.ngens:
                    continue
                M = self._multiply(p + q, sf.lifts, p2 + q2, sg.lifts)
                ng = sg.ngens
                self.products[((p, q), (p2, q2))] = [
                    list(M[i * ng:(i + 1) * ng]) for i in range(sf.ngens)]
        self._well_defined_check()

    def _multiply(self, n1, X, n2, Y):
        """Ambient representatives of m(x_i ⊗ y_j) in degree n1 + n2, in
        column i * Y.ncols + j, for the columns x_i of X (degree n1) and
        y_j of Y (degree n2)."""
        n = n1 + n2
        tb = self.P.basis
        if n > tb.top_degree:
            return la.zeros(self.P.H.ambient.rank(n), X.ncols * Y.ncols)
        return la.mat_mul(self.P.m.mat(n),
                          la.kron(X, Y, tb.offset(n, n1), tb.rank(n)))

    def _well_defined_check(self):
        r = self.r
        for pq1, pq2 in self.products:
            sf = self.S_F.pages[r][pq1]
            sg = self.S_G.pages[r][pq2]
            tgt = self.S_H.pages[r][(pq1[0] + pq2[0], pq1[1] + pq2[1])]
            n1 = pq1[0] + pq1[1]
            n2 = pq2[0] + pq2[1]
            for side, X, Y in (
                    ("left", self.S_F._b_gens(pq1[0], n1, r), sg.lifts),
                    ("right", sf.lifts, self.S_G._b_gens(pq2[0], n2, r))):
                if not la.is_zero(tgt.coords(self._multiply(n1, X, n2, Y))):
                    raise PairingWitnessError(
                        "pairing depends on the lift",
                        witness=(pq1, pq2, f"{side} boundary"))

    def corrupted(self, key, i, j):
        """A copy with the sign of one generator product flipped (for
        negative controls)."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.products = {k: [list(row) for row in tbl]
                          for k, tbl in self.products.items()}
        other.products[key][i][j] = tuple(
            [(k, -v) for k, v in self.products[key][i][j]])
        return other


def induced_pairing(P, S_F, S_G, S_H, r):
    """PagePairing at page r induced by a FilteredPairing (see PagePairing);
    raises PairingWitnessError if the pairing is not lift-independent."""
    return PagePairing(P, S_F, S_G, S_H, r)


def leibniz_check(pairing):
    """Verifies d_r(x·y) = d_r(x)·y + (-1)^{p+q} x·d_r(y) on all generator
    pairs of the pairing's page r, computed entirely from the page data:
    products come from the pairing's generator tables and d_r from the
    spectral sequences, so a corrupted table is detected.

    Per key (pq1, pq2), both sides are one matrix in the generator
    coordinates of the target entry of d_r, column i * ng + j for the pair
    (x_i, y_j), ng the generator count of pq2; the first column where they
    differ is the witness."""
    r = pairing.r
    S_F, S_G, S_H = pairing.S_F, pairing.S_G, pairing.S_H
    ph = S_H.pages[r]
    coords = {}  # key -> its products in coordinates, each factored once

    def coords_of_products(pq1, pq2):
        """The products of the key (pq1, pq2) in the coordinates of their
        entry of page r of H; a key is read as its own left side and as a
        d_r term of other keys, and factored on its first read."""
        if (pq1, pq2) not in coords:
            (p, q), (p2, q2) = pq1, pq2
            cols = [col for row in pairing.products[(pq1, pq2)] for col in row]
            coords[(pq1, pq2)] = ph[(p + p2, q + q2)].coords(
                la.Sparse(cols, S_H.F.ambient.rank(p + q + p2 + q2)))
        return coords[(pq1, pq2)]

    for pq1, pq2 in pairing.products:
        p, q = pq1
        p2, q2 = pq2
        tgt = ph.get((p + p2 - r, q + q2 + r - 1))
        if tgt is None or not tgt.ngens:
            continue
        nf = S_F.pages[r][pq1].ngens
        ng = S_G.pages[r][pq2].ngens
        lhs = la.mat_mul(S_H.diffs[r][(p + p2, q + q2)],
                         coords_of_products(pq1, pq2))
        terms = [(0, la.zeros(tgt.ngens, nf * ng))]  # the shape of rhs
        f_tgt = (p - r, q + r - 1)
        if (f_tgt, pq2) in pairing.products:
            terms.append((1, la.mat_mul(
                coords_of_products(f_tgt, pq2),
                la.kron(S_F.diffs[r][pq1], la.identity(ng)))))
        g_tgt = (p2 - r, q2 + r - 1)
        if (pq1, g_tgt) in pairing.products:
            terms.append((-1 if (p + q) % 2 else 1, la.mat_mul(
                coords_of_products(pq1, g_tgt),
                la.kron(la.identity(nf), S_G.diffs[r][pq2]))))
        lhs = tgt.reduce(lhs)
        rhs = tgt.reduce(la.mat_sum(terms))
        for col, (a, b) in enumerate(zip(lhs, rhs)):
            if a != b:
                return CheckCertificate(
                    False, witness=(pq1, col // ng, pq2, col % ng),
                    detail="Leibniz rule fails on a generator pair")
    return CheckCertificate(True, detail=f"Leibniz rule holds on page {r}")


def heart_check(A):
    """The first page of the skeletal filtration of A, with its d_1, is
    isomorphic as a chain complex to the normalized chains of A: the page
    is concentrated in q = 0, each E_1^{p,0} is free of the normalized
    rank, and the d_1 matrices have the same Smith invariant factors as the
    normalized differentials (which with the ranks fix a bounded free
    complex up to isomorphism).  N is the ambient of skeletal_filtration(A),
    whose stages are 0 or all of N_k, so this checks the pages."""
    F = skeletal_filtration(A)
    N = F.ambient
    S = SpectralSequence(F, r_max=1)
    for (p, q), sq in S.pages[1].items():
        if q != 0:
            if sq.ngens:
                return CheckCertificate(False, witness=(p, q),
                                        detail="page not concentrated in q=0")
            continue
        if sq.torsion:
            return CheckCertificate(False, witness=(p, 0),
                                    detail="entry is not free")
        if sq.free_rank != N.rank(p):
            return CheckCertificate(
                False, witness=(p, 0),
                detail=f"rank {sq.free_rank} != normalized rank {N.rank(p)}")
    for p in range(1, F.p_max + 1):
        if la.invariant_factors(S.diffs[1][(p, 0)]) != \
                la.invariant_factors(N.diff(p)):
            return CheckCertificate(False, witness=p,
                                    detail="d_1 invariant factors differ "
                                           "from the normalized differential")
    return CheckCertificate(True,
                            detail="first page with d_1 is the normalized "
                                   "chain complex")
