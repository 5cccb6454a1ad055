"""Outside-in tracing: timing wrappers installed over the library's module
attributes, spans kept in memory, and the per-layer metrics read off them.

Nothing inside ``src/zilber`` is instrumented.  Installing a Tracer replaces
each traced function in every loaded ``zilber`` module that holds it (so
``promonoidal.enumerate_monotone``, imported by name from ``delta``, is
traced too), plus a few methods on their classes.  Uninstalling puts the
originals back.  A span is (name, start, end, parent, certificate id); a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("delta", "simplicial", "chains", "intlinalg", "doldkan", "ez",
          "filtration", "spectral", "promonoidal", "cli")

# O(1) helpers called hundreds of thousands of times per pass: a span per
# call would cost more than the work it measures, so their time stays with
# the caller.
UNTRACED = {"intlinalg": {"dims", "zeros", "identity", "mat_copy", "shape_ok"}}

# Private functions and methods that are entry points in their own right.
# _smith_with_inverses is the SNF that normalize and every public solver
# calls; without it SNF time would be booked to its callers.
# The validating constructors are wrapped so that identity and chain-complex
# checks are booked to the layer that owns them, not to their caller.
EXTRA = {
    "intlinalg": ("_smith_with_inverses", "Subquotient.__init__"),
    "delta": ("MonotoneMap.compose",),
    "simplicial": ("SimplicialAbelianGroup.__init__",),
    "chains": ("ChainMap.compose", "ChainComplex.__init__", "ChainMap.__init__"),
    "filtration": ("FilteredPairing.containment_certificate",
                   "FilteredChainComplex.__init__", "FilteredPairing.__init__"),
    "spectral": ("SpectralSequence.__init__",),
    "promonoidal": ("UnionFind.find", "UnionFind.union", "UnionFind.classes"),
}

SETUP = -1  # certificate id of spans recorded while inputs are built


def _nnz(M):
    return sum(1 for row in M for x in row if x)


def _cols(M):
    return len(M[0]) if M else 0


def _snf(counts, args, kwargs, result):
    M = args[0]
    counts["snf.cells"] += len(M) * _cols(M)
    counts["snf.nnz"] += _nnz(M)


def _mat_mul(counts, args, kwargs, result):
    A, B = args
    counts["mat_mul.madds"] += len(A) * _cols(A) * _cols(B)


def _mat_mul_shaped(counts, args, kwargs, result):
    (ra, ca), (_, cb) = args[1], args[3]
    counts["mat_mul.madds"] += ra * ca * cb


def _fingerprint(A, moore):
    return hash((moore, tuple(A.ranks),
                 tuple((k, tuple(map(tuple, M))) for k, M in sorted(A.face_mats.items())),
                 tuple((k, tuple(map(tuple, M))) for k, M in sorted(A.degen_mats.items()))))


class _Normalize:
    """Counts normalize calls on an input equal (same ranks and matrices)
    to that of an earlier call."""

    def __init__(self):
        self.seen = set()

    def __call__(self, counts, args, kwargs, result):
        moore = args[1] if len(args) > 1 else kwargs.get("moore", "upper")
        key = _fingerprint(args[0], moore)
        counts["normalize.repeats"] += key in self.seen
        self.seen.add(key)


def _pages(counts, args, kwargs, result):
    counts["pages.entries"] += sum(len(e) for e in args[0].pages.values())


def _enumerate(counts, args, kwargs, result):
    counts["enumerate_monotone.maps"] += len(result)


def _classes(counts, args, kwargs, result):
    counts["coend.elements"] += len(args[0].parent)
    counts["coend.classes"] += len(result[0])


class Tracer:
    """Span store and counters of one traced pass; ``cert`` is the id
    stamped on new spans."""

    def __init__(self):
        self.cert = SETUP
        self.names = []
        self.counts = Counter()
        self.name_of, self.parent, self.cert_of = array("i"), array("i"), array("i")
        self.start, self.end, self.self_time = array("d"), array("d"), array("d")
        self._stack = []
        self._patches = []
        self.missing = []
        self._counters = {
            "intlinalg._smith_with_inverses": _snf,
            "intlinalg.mat_mul": _mat_mul,
            "intlinalg.mat_mul_shaped": _mat_mul_shaped,
            "doldkan.normalize": _Normalize(),
            "spectral.SpectralSequence.__init__": _pages,
            "delta.enumerate_monotone": _enumerate,
            "promonoidal.canonical_classes": _classes,
        }

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        counter = self._counters.get(name)
        stack, counts = self._stack, self.counts
        name_of, parent, cert_of = self.name_of, self.parent, self.cert_of
        start, end, self_time = self.start, self.end, self.self_time
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            cert_of.append(tracer.cert)
            end.append(0.0)
            self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                # also when fn raises, so that a caller catching the
                # exception does not count this span as its own time
                t1 = perf_counter()
                stack.pop()
                end[idx] = t1
                self_time[idx] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if counter is not None:
                counter(counts, args, kwargs, result)
                if stack:
                    # the parent excludes the counter's cost too
                    stack[-1][1] += perf_counter() - t1
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, callers=()):
        """Wrap every traced callable in every loaded zilber module and in
        ``callers``, modules outside the library that imported names from it."""
        modules = {n: importlib.import_module(f"zilber.{n}") for n in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            skip = UNTRACED.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}")
            for path in EXTRA.get(layer, ()):
                owner, _, attr = path.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = vars(holder).get(attr) if holder is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{path}")
                    continue
                traced = self._wrap(fn, f"{layer}.{path}")
                if owner:
                    self._patch(holder, attr, fn, traced)
                else:
                    wrapped[fn] = traced
        holders = [m for n, m in sys.modules.items() if n.startswith("zilber.")]
        for mod in holders + list(callers):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, value, wrapped[value])

    def _patch(self, holder, attr, original, traced):
        setattr(holder, attr, traced)
        self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def by_name(self):
        """name -> [calls, self seconds, inclusive seconds]."""
        out = {n: [0, 0.0, 0.0] for n in self.names}
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += self.self_time[i]
            row[2] += self.end[i] - self.start[i]
        return out

    def write(self, path, header):
        """Spans as gzipped TSV, after one JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write("span\tname\tstart\tend\tparent\tcert\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.cert_of[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

SNF = ("intlinalg._smith_with_inverses",)
MAT_MUL = ("intlinalg.mat_mul", "intlinalg.mat_mul_shaped")
SOLVE = ("intlinalg.solve_matrix", "intlinalg.solve")
SUBQUOTIENT = ("intlinalg.Subquotient.__init__",)
NORMALIZE = ("doldkan.normalize",)
GAMMA = ("doldkan.gamma",)
CHAIN_COMPOSE = ("chains.ChainMap.compose",)
TENSOR = ("chains.tensor", "chains.tensor_map")
HOMOLOGY = ("chains.homology", "chains.homology_subquotients",
            "chains.induced_homology_matrices", "chains.is_homology_isomorphism")
SHUFFLE = ("ez.shuffle_product", "ez.unnormalized_shuffle")
AW = ("ez.alexander_whitney", "ez.unnormalized_aw")
SKELETAL = ("filtration.skeletal_filtration",)
DAY = ("filtration.day_convolution",)
FILTERED_EZ = ("filtration.filtered_ez",
               "filtration.FilteredPairing.containment_certificate")
PAGES = ("spectral.SpectralSequence.__init__",)
LEIBNIZ = ("spectral.leibniz_check", "spectral.induced_pairing")
COMPOSE = ("delta.MonotoneMap.compose",)
FIND = ("promonoidal.UnionFind.find",)
UNION = ("promonoidal.UnionFind.union",)
CLASSES = ("promonoidal.canonical_classes", "promonoidal.UnionFind.classes")

# (metric, unit, better, source): source is ("calls" | "self" | "incl",
# span names), ("count", counter), or a layer name for the layer's whole
# self time.
PER_LAYER = [
    ("intlinalg.snf.calls", "count", "lower", ("calls", SNF)),
    ("intlinalg.snf.self_s", "s", "lower", ("self", SNF)),
    ("intlinalg.snf.cells", "count", "lower", ("count", "snf.cells")),
    ("intlinalg.snf.nnz", "count", "lower", ("count", "snf.nnz")),
    ("intlinalg.mat_mul.calls", "count", "lower", ("calls", MAT_MUL)),
    ("intlinalg.mat_mul.self_s", "s", "lower", ("self", MAT_MUL)),
    ("intlinalg.mat_mul.madds", "count", "lower", ("count", "mat_mul.madds")),
    ("intlinalg.solve.calls", "count", "lower", ("calls", SOLVE[:1])),
    ("intlinalg.solve.self_s", "s", "lower", ("self", SOLVE)),
    ("intlinalg.subquotient.calls", "count", "lower", ("calls", SUBQUOTIENT)),
    ("intlinalg.subquotient.self_s", "s", "lower", ("self", SUBQUOTIENT)),
    ("doldkan.normalize.calls", "count", "lower", ("calls", NORMALIZE)),
    ("doldkan.normalize.self_s", "s", "lower", ("self", NORMALIZE)),
    ("doldkan.normalize.incl_s", "s", "lower", ("incl", NORMALIZE)),
    ("doldkan.normalize.repeat_ratio", "ratio", "lower", "repeat_ratio"),
    ("doldkan.gamma.calls", "count", "lower", ("calls", GAMMA)),
    ("doldkan.gamma.self_s", "s", "lower", ("self", GAMMA)),
    ("chains.compose.calls", "count", "lower", ("calls", CHAIN_COMPOSE)),
    ("chains.compose.self_s", "s", "lower", ("self", CHAIN_COMPOSE)),
    ("chains.tensor.self_s", "s", "lower", ("self", TENSOR)),
    ("chains.homology.self_s", "s", "lower", ("self", HOMOLOGY)),
    ("ez.shuffle_product.calls", "count", "lower", ("calls", SHUFFLE[:1])),
    ("ez.shuffle_product.self_s", "s", "lower", ("self", SHUFFLE)),
    ("ez.alexander_whitney.self_s", "s", "lower", ("self", AW)),
    ("filtration.skeletal.self_s", "s", "lower", ("self", SKELETAL)),
    ("filtration.day_convolution.self_s", "s", "lower", ("self", DAY)),
    ("filtration.filtered_ez.self_s", "s", "lower", ("self", FILTERED_EZ)),
    ("spectral.pages.calls", "count", "lower", ("calls", PAGES)),
    ("spectral.pages.self_s", "s", "lower", ("self", PAGES)),
    ("spectral.pages.incl_s", "s", "lower", ("incl", PAGES)),
    ("spectral.pages.entries", "count", "lower", ("count", "pages.entries")),
    ("spectral.leibniz.self_s", "s", "lower", ("self", LEIBNIZ)),
    ("delta.compose.calls", "count", "lower", ("calls", COMPOSE)),
    ("delta.compose.self_s", "s", "lower", ("self", COMPOSE)),
    ("delta.enumerate_monotone.maps", "count", "lower",
     ("count", "enumerate_monotone.maps")),
    ("promonoidal.find.calls", "count", "lower", ("calls", FIND)),
    ("promonoidal.find.self_s", "s", "lower", ("self", FIND)),
    ("promonoidal.union.calls", "count", "lower", ("calls", UNION)),
    ("promonoidal.classes.self_s", "s", "lower", ("self", CLASSES)),
    ("promonoidal.checks.self_s", "s", "lower", "checks"),
    ("promonoidal.coend.elements", "count", "lower", ("count", "coend.elements")),
    ("promonoidal.coend.classes", "count", "lower", ("count", "coend.classes")),
    ("simplicial.free_abelian.self_s", "s", "lower",
     ("self", ("simplicial.free_abelian",))),
    ("simplicial.sab_tensor.self_s", "s", "lower",
     ("self", ("simplicial.sab_tensor",))),
] + [(f"{layer}.self_s", "s", "lower", layer) for layer in LAYERS[:-1]]

COUNT_METRICS = [m for m, unit, _, _ in PER_LAYER if unit == "count"]


def layer_metrics(tracer):
    """Every PER_LAYER metric as {name: (value, unit)}."""
    stats = tracer.by_name()
    field = {"calls": 0, "self": 1, "incl": 2}
    union_find = set(FIND + UNION + CLASSES)
    out = {}
    for metric, unit, _, source in PER_LAYER:
        if source == "repeat_ratio":
            calls = stats.get(NORMALIZE[0], [0])[0]
            value = tracer.counts["normalize.repeats"] / calls if calls else 0.0
        elif source == "checks":
            value = sum(row[1] for n, row in stats.items()
                        if n.startswith("promonoidal.") and n not in union_find)
        elif isinstance(source, str):
            value = sum(row[1] for n, row in stats.items()
                        if n.startswith(source + "."))
        elif source[0] == "count":
            value = tracer.counts[source[1]]
        else:
            value = sum(stats[n][field[source[0]]] for n in source[1] if n in stats)
        out[metric] = (value, unit)
    return out
