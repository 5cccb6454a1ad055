"""Checks of the benchmark itself, not of the library.

    python3 certbench/selfcheck.py

1. The correctness gate is not vacuous: flipping one expected outcome makes
   a run report correct=false and exit nonzero.
2. Determinism: two traced runs with the same seed report identical count
   metrics and identical input digests.
3. Another seed changes the spectral inputs but not the item family of ez
   or coend.
4. Every traced run is correct, which includes its outcomes matching the
   untraced passes, and coend makes no Smith-normal-form call.
5. Without the library sources next to it, the benchmark exits nonzero
   and prints no result.

Prints one PASS/FAIL line per check; exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import tracing

SECONDS = 1.0  # --seconds of each traced run; no check depends on it
FAILED = []


def check(ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    if not ok:
        FAILED.append(text)


def bench(workload, seed):
    """One traced run in its own process: (exit code, meta, result)."""
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) < 2:
        return done.returncode, None, None
    meta = json.loads(lines[0])["meta"]
    result = json.loads(lines[-1])
    return done.returncode, meta, result


def flipped_gate():
    sys.path.insert(0, str(run.SRC))
    import workloads
    original = workloads.WORKLOADS["coend"]

    def flipped(seed):
        fam = original(seed)
        first = fam.items[0]
        fam.items[0] = first._replace(expect_pass=not first.expect_pass)
        return fam

    workloads.WORKLOADS["coend"] = flipped
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "coend", "--seed", "1", "--seconds", "0.1"])
    finally:
        workloads.WORKLOADS["coend"] = original
    result = json.loads(out.getvalue().splitlines()[-1])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          f"flipping one expectation fails the gate (exit {code}, "
          f"failed {result['failed']}/{result['attempted']})")


def bare_directory():
    bare = run.ROOT / ".certbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "ez",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"without src/ the benchmark exits {done.returncode} and prints no result")


def main():
    flipped_gate()
    bare_directory()
    digests = {}
    for w in run.WORKLOADS:
        runs = [bench(w, seed) for seed in (1, 1, 2)]
        ok = all(code == 0 and res and res["correct"] for code, _, res in runs)
        check(ok, f"{w}: three traced runs are correct "
                  "(traced outcomes equal untraced outcomes)")
        if not ok:
            continue
        (_, m1, r1), (_, m2, r2), (_, m3, _) = runs
        counts = [k for k in tracing.COUNT_METRICS
                  if r1["metrics"][k] != r2["metrics"][k]]
        check(not counts, f"{w}: count metrics repeat exactly for one seed"
                          + (f" (differ: {counts})" if counts else ""))
        check(m1["inputs_digest"] == m2["inputs_digest"],
              f"{w}: one seed gives one input digest")
        digests[w] = (m1, m3)
        if w == "coend":
            snf = r1["metrics"]["intlinalg.snf.calls"]["value"]
            check(snf == 0, f"coend: intlinalg.snf.calls = {snf}")
        missing = [m for m, *_ in tracing.PER_LAYER if m not in r1["metrics"]]
        check(not missing and "trace.overhead_ratio" in r1["metrics"],
              f"{w}: traced run reports every per-layer metric")
    if "spectral" in digests:
        m1, m3 = digests["spectral"]
        check(m1["inputs_digest"] != m3["inputs_digest"],
              "spectral: another seed gives other inputs")
    for w in ("ez", "coend"):
        if w in digests:
            m1, m3 = digests[w]
            check(m1["family_digest"] == m3["family_digest"],
                  f"{w}: another seed keeps the item family")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
