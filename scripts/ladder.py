#!/usr/bin/env python3
"""Run the scale ladder of CLI pipelines and write a BENCH file.

    python scripts/ladder.py [--checkout LABEL=DIR ...] --out BENCH_<n>.json

Each row is one ``zilber`` invocation at a large dimension bound (or b),
run as ``python -m zilber.cli`` in a child process with ``PYTHONPATH``
set to the checkout's ``src`` and ``ZILBER_MAX_DIM`` raised to 20.  A
child gets its own wall-time limit of TIMEOUT_S seconds (it is killed
past it) and its own ``RLIMIT_AS`` address-space limit of MEM_MB MB, so
a blowup is recorded as a number and an exit code, not as an
out-of-memory kill of the host.  For each run it records the wall time,
the child's peak RSS (``ru_maxrss`` from ``os.wait4``), the exit code
(negative: killed by that signal) and the host factor around the
child: the median of PROBES calls of certbench's host-speed probe just
before the child starts and PROBES just after it ends, over the probe's
reference time (``certbench/hostspeed.py``, imported read-only), so that
a slow phase of a shared host shows next to the wall time it slowed.
One probe takes about 0.5 ms and reads 0.85-1.51 on consecutive runs of
a noisy host, so a single probe says little about a child that runs for
seconds.

The ``ez`` rows run ℤ[X] for simplicial sets X, whose pairs are built
from the nondegenerate simplices.  On the matrix path (the tests'
oracle, which the library used before it read ℤ[X] off its simplices)
the ``ez-aw`` and ``ez-assoc`` rows mostly time degenerate levels: Δ³×Δ³
has no nondegenerate simplex above degree 6, yet the matrix path builds
all of its levels up to the bound.  ``ez-aw-d4-8`` and ``ez-aw-d5-8`` are rows
whose normalized side does grow with the bound.  ``ez-unital-11`` reads
only the shuffles of the edge blocks, so it times loading the spaces.

``ez-assoc-d3-9`` is associativity on Δ³×Δ³×Δ³, whose normalized side
does grow with the bound (Δ²×Δ²×Δ² has no nondegenerate simplex above
degree 6); at this scale the d∘d checks of its chain complexes take
about half its time.

``ez-kunneth-d3-9`` is the Künneth check on Δ³×Δ³ at bound 9, above its
top nondegenerate degree 6: the homology of both sides and of the
mapping cone of ∇, one Smith diagonal per differential.

``ss-pairing-d3-6`` is the filtered shuffle pairing on Δ³×Δ³.  Its
skeletal stage spans, each 0 or an identity, answer without a solve; the
Smith normal forms of the pages' kernels, images and quotients (143 in
one run) take most of its time.

``ss-random-p4`` checks d_r² = 0, page recursion and convergence on 300
seeded random filtrations of length 4: many small Smith normal forms,
as in the certbench ``spectral`` pages, where the other ``ss`` rows time
the large free complexes of ℤ[X].

``day-assoc-400`` checks (F ⊛ G) ⊛ H ≅ F ⊛ (G ⊛ H) stagewise on 400
seeded random triples: four Day convolutions and one stagewise
comparison per triple, most of whose stage slots have no columns.
``filtered-ez-d5-10`` is the filtered shuffle pairing of the skeletal
filtrations of Δ⁵ and Δ⁵ at bound 10: the validation of each skeletal
filtration, the containment walk over every (p, q) and the stage-0
isomorphism, on the nondegenerate basis of Δ⁵×Δ⁵.

``product-colimit-k6`` is ``product-colimit`` up to level 6 = Σ nᵢ,
whose colimit coend has 958,239 elements, against 340,836 at level 4.

``left-kan-neg`` is a negative control that exits 1: the left Kan
comparison for ([3], [3]) along Δ≤5 holds at m <= 5 and fails at m = 6,
where [6] is not in Δ≤5 and the coend has 6.8 M elements in 14,380
classes.  ``left-kan-pos`` is its passing twin: ([2], [3]) along Δ≤5,
Σ nᵢ = 5, holds at every m up to 6.

With several checkouts (default: ``change=`` this script's checkout),
every row runs REPEAT times per checkout, and the checkout that runs
first alternates from round to round, so a drift of the host speed
favours none.  The BENCH file also records, per checkout, the source
lines of each module of ``src/zilber`` and the total of ``tests``
(``scripts/sloc.py``), plus the Python version and the CPU count.
Nothing under a checkout is written but the output file.  The exit status is 1 if some run did not exit as
its row should: 0, or the code FAILING gives a negative control.
"""

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostspeed = _load("hostspeed", ROOT / "certbench" / "hostspeed.py")
TIMEOUT_S = 300   # wall-time limit of one child, in seconds
MEM_MB = 2048     # RLIMIT_AS of one child, in MB
REPEAT = 2        # runs of each row per checkout
PROBES = 5        # host-speed probes before and after each child

ROWS = {  # name -> zilber argv
    "ez-assoc-7": ["ez", "delta2", "delta2", "--third", "delta2",
                   "--check", "assoc", "--dim-bound", "7"],
    "ez-assoc-9": ["ez", "delta2", "delta2", "--third", "delta2",
                   "--check", "assoc", "--dim-bound", "9"],
    "ez-assoc-d3-9": ["ez", "delta3", "delta3", "--third", "delta3",
                      "--check", "assoc", "--dim-bound", "9"],
    "ez-aw-9": ["ez", "delta3", "delta3", "--check", "aw", "--dim-bound", "9"],
    "ez-aw-11": ["ez", "delta3", "delta3", "--check", "aw",
                 "--dim-bound", "11"],
    "ez-aw-d4-8": ["ez", "delta4", "delta4", "--check", "aw",
                   "--dim-bound", "8"],
    "ez-aw-d5-8": ["ez", "delta5", "delta5", "--check", "aw",
                   "--dim-bound", "8"],
    "ez-unital-11": ["ez", "delta3", "delta3", "--check", "unital",
                     "--dim-bound", "11"],
    "ez-kunneth-d3-9": ["ez", "delta3", "delta3", "--check", "kunneth",
                        "--dim-bound", "9"],
    "ss-pairing-9": ["ss", "ez:delta2,delta2", "--pairing", "--dim-bound", "9"],
    "ss-pairing-11": ["ss", "ez:delta2,delta2", "--pairing",
                      "--dim-bound", "11"],
    "ss-pairing-d3-6": ["ss", "ez:delta3,delta3", "--pairing",
                        "--dim-bound", "6"],
    "ss-heart-9": ["ss", "sk:torus", "--heart", "--dim-bound", "9"],
    "ss-heart-11": ["ss", "sk:torus", "--heart", "--dim-bound", "11"],
    "ss-random-p4": ["ss", "random", "--trials", "300", "--p-max", "4"],
    "day-assoc-400": ["skeleta", "--day-assoc", "--trials", "400"],
    "filtered-ez-d5-10": ["skeleta", "delta5", "delta5", "--filtered-ez",
                          "--dim-bound", "10"],
    "unit-8": ["promonoidal", "--check", "unit", "--b", "8"],
    "coyoneda-5": ["promonoidal", "--check", "coyoneda", "--b", "5"],
    "mu-assoc-6": ["promonoidal", "--check", "mu-assoc", "--entries", "2,2,2",
                   "--b", "6"],
    "product-colimit": ["promonoidal", "--check", "product-colimit",
                        "--ns", "2,2,2", "--k-max", "4"],
    "product-colimit-k6": ["promonoidal", "--check", "product-colimit",
                           "--ns", "2,2,2", "--k-max", "6"],
    "operator-frag": ["promonoidal", "--check", "operator-frag", "--b", "4",
                      "--length", "4"],
    "left-kan-pos": ["promonoidal", "--check", "left-kan", "--ns", "2,3",
                     "--b", "5", "--m", "6"],
    "left-kan-neg": ["promonoidal", "--check", "left-kan", "--ns", "3,3",
                     "--b", "5", "--m", "6"],
}
FAILING = {"left-kan-neg": 1}  # rows whose check fails: name -> exit code


def sloc_per_module(checkout):
    """module file name -> source lines, and 'total', for checkout's
    src/zilber, counted by scripts/sloc.py."""
    sloc = _load("sloc", ROOT / "scripts" / "sloc.py")
    out = {path.name: sloc.sloc(path)
           for path in sorted((checkout / "src" / "zilber").glob("*.py"))}
    out["total"] = sum(out.values())
    return out


def sloc_of_tests(checkout):
    """The source lines of checkout's tests/*.py, by scripts/sloc.py."""
    sloc = _load("sloc", ROOT / "scripts" / "sloc.py")
    return sum(map(sloc.sloc, sorted((checkout / "tests").glob("*.py"))))


def run_child(argv, cwd, env, timeout_s, mem_mb):
    """Run argv as a child with an address-space limit of mem_mb MB and a
    wall-time limit of timeout_s seconds: {wall_s, peak_rss_mb, exit,
    timed_out}.  stdout is discarded."""
    limit = mem_mb * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            preexec_fn=limit_memory)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    return {"wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode,
            "timed_out": wall >= timeout_s and proc.returncode < 0}


def run_row(checkout, argv):
    """One ladder run of the zilber argv in checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               ZILBER_MAX_DIM="20")
    return run_child([sys.executable, "-m", "zilber.cli", *argv],
                     checkout, env, TIMEOUT_S, MEM_MB)


def probed_run(checkout, argv):
    """run_row with its host factor: the median of PROBES probes before
    the child and PROBES after it, over the reference time."""
    before = [hostspeed.probe() for _ in range(PROBES)]
    run = run_row(checkout, argv)
    after = [hostspeed.probe() for _ in range(PROBES)]
    factor = statistics.median(before + after) / hostspeed.REFERENCE_S
    return {**run, "host_factor": round(factor, 3)}


def parse_checkout(text):
    """'LABEL=DIR' as (label, resolved path)."""
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"not LABEL=DIR: {text!r}")
    return label, pathlib.Path(path).resolve()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", type=parse_checkout,
                    help="LABEL=DIR, repeatable (default: change=this "
                         "checkout)")
    ap.add_argument("--out", type=pathlib.Path, required=True,
                    help="the BENCH file to write, BENCH_<n>.json for "
                         "change n")
    args = ap.parse_args(argv)
    checkouts = args.checkout or [("change", ROOT)]
    rows, ok = [], True
    for name, row in ROWS.items():
        runs = {label: [] for label, _ in checkouts}
        for i in range(REPEAT):
            for label, path in checkouts if i % 2 == 0 else checkouts[::-1]:
                run = probed_run(path, row)
                runs[label].append(run)
                ok = ok and run["exit"] == FAILING.get(name, 0)
                print(f"{name:16s} {label:8s} {run['wall_s']:8.2f} s "
                      f"{run['peak_rss_mb']:8.1f} MB  exit {run['exit']}  "
                      f"host x{run['host_factor']:.2f}",
                      file=sys.stderr)
        rows.append({"name": name, "argv": row, "runs": runs})
    bench = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "limits": {"timeout_s": TIMEOUT_S, "mem_mb": MEM_MB},
        "sloc": {label: sloc_per_module(path) for label, path in checkouts},
        "sloc_tests": {label: sloc_of_tests(path)
                       for label, path in checkouts},
        "rows": rows,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
