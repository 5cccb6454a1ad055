"""Certificate-throughput benchmark for the zilber library.

    python3 certbench/run.py --workload ez|coend|spectral|all --seed N \
        --seconds S --trace 0|1

One closed-loop caller, no threads: each certificate call starts when the
previous one returns.  A run makes a fixed number of whole passes over the
workload's certificate family, each pass on inputs freshly built from the
seed: S seconds over the pass time of the baseline code (PASS_SECONDS), so
that every commit is measured on the same number of samples.  Between the
passes it times SETUP_REPS set-ups (import plus input build), each in a
fresh process.  Every time is taken at the reference host speed (see
hostspeed.py), and a certificate's latency is the median over its passes.
Every outcome is checked against its expectation; the last line of stdout
is the JSON result, and the exit code is nonzero when any outcome was
unexpected.

--trace 0 reports the end-to-end metrics.  --trace 1 makes the same
untraced passes, then one more pass with timing wrappers installed over
the library (see tracing.py) and reports the per-layer metrics; its spans
are written to .certbench/ at the root of the checkout.

--workload all runs each workload in its own process and prints them all.
The library is imported from src/ next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".certbench"
WORKLOADS = ("ez", "coend", "spectral")
SETUP_REPS = 9     # fresh processes that each time one set-up
# Certificate seconds of one pass of the baseline code (the parent commit of
# the benchmark) in a slow phase of a 2-vCPU Xeon guest.  A run makes
# round(S / this) passes whatever the speed of the code under test, so that
# every commit is measured on the same number of samples.
PASS_SECONDS = {"ez": 5.4, "coend": 1.9, "spectral": 3.3}
MIN_CERTS = 100    # per pass, so that p90 has at least ten certificates above it

END_TO_END = (("setup_s", "s"), ("certs_per_s", "1/s"), ("cert_p50_ms", "ms"),
              ("cert_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata (not metrics)


def sloc(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.lstrip().startswith("#"))


def metadata():
    files = sorted((SRC / "zilber").glob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "sloc": {f.stem: sloc(f) for f in files},
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(workloads, items, tracer=None):
    """Run every item once, with a host-speed probe before each and after
    the last.  Returns (latencies, factors, outcomes, failures): latencies
    are raw seconds, factors the host factor of each item; an outcome is
    (key, passed, evidence repr); a failure is (key, reason, evidence repr)
    for each outcome its item did not expect."""
    latencies, probes, outcomes, failures = [], [], [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.cert = i
        probes.append(hostspeed.probe())
        t0 = perf_counter()
        try:
            passed, evidence = item.run()
            why = None
        except Exception as exc:  # a certificate that raises has failed
            passed, evidence = None, f"{type(exc).__name__}: {exc}"
            why = "raised"
        latencies.append(perf_counter() - t0)
        why = why or workloads.unexpected(item, passed, evidence)
        outcomes.append((item.key, passed, repr(evidence)))
        if why:
            failures.append((item.key, why, repr(evidence)[:300]))
    probes.append(hostspeed.probe())
    return latencies, hostspeed.factors(probes), outcomes, failures


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, workloads, name, seed):
        self.workloads = workloads
        self.build = workloads.WORKLOADS[name]
        self.seed = seed
        self.latencies = {}     # item key -> reference seconds per untraced pass
        self.raw_latencies = {}  # item key -> raw seconds per untraced pass
        self.pass_times = []    # reference certificate seconds per untraced pass
        self.pass_factors = []  # median host factor per untraced pass
        self.failures = []
        self.problems = []      # broken run invariants (not certificates)
        self.attempted = 0
        self.outcomes = None
        self.digest = None

    def fresh(self):
        fam = self.build(self.seed)
        digest = fam.inputs_digest()
        if self.digest is None:
            self.digest, self.family_digest = digest, fam.family_digest()
            self.certs_per_pass = len(fam.items)
        elif digest != self.digest:
            self.problems.append("inputs differ between builds of one seed")
        return fam

    def record(self, latencies, outcomes, failures):
        self.attempted += len(latencies)
        self.failures += failures
        if self.outcomes is None:
            self.outcomes = outcomes
        elif outcomes != self.outcomes:
            self.problems.append("certificate outcomes differ between passes "
                                 "(traced or not)")

    def timed_passes(self, passes, setup=None):
        """Run ``passes`` whole passes, each on fresh inputs.  Between them,
        call ``setup`` SETUP_REPS times in all, spread evenly over the run,
        and return its results."""
        setups = []
        fam = self.fresh()
        if self.certs_per_pass < MIN_CERTS:
            self.problems.append(f"{self.certs_per_pass} certificates per pass, "
                                 f"fewer than {MIN_CERTS}")
        for k in range(passes):
            while setup and len(setups) < SETUP_REPS * (k + 1) // passes:
                setups.append(setup())
            if k:
                fam = self.fresh()
            gc.collect()
            lat, fac, out, fail = run_pass(self.workloads, fam.items)
            self.record(lat, out, fail)
            ref = [t / f for t, f in zip(lat, fac)]
            for item, t, r in zip(fam.items, lat, ref):
                self.raw_latencies.setdefault(item.key, []).append(t)
                self.latencies.setdefault(item.key, []).append(r)
            self.pass_times.append(sum(ref))
            self.pass_factors.append(statistics.median(fac))
        return setups


def setup_seconds(name, seed):
    """One set-up in a fresh process: seconds from before ``import zilber``
    until the workload's inputs are built, as (at the reference host speed,
    raw).  The host factor is the median of 2 * WINDOW + 2 probes made
    right after the set-up, in the same process."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}]({seed})\n"
        "t = time.perf_counter() - t0\n"
        "import hostspeed, statistics\n"
        "probes = [hostspeed.probe() for _ in range(2 * hostspeed.WINDOW + 2)]\n"
        "print(t, statistics.median(probes) / hostspeed.REFERENCE_S)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    raw, factor = map(float, done.stdout.split())
    return raw / factor, raw


def end_to_end(latencies, setups):
    """A certificate's latency is the median of its passes.  Throughput and
    percentiles are taken over these per-certificate values; ``setup_s`` is
    the median set-up."""
    typical = [statistics.median(v) for v in latencies.values()]
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "certs_per_s": len(typical) / sum(typical),
        "cert_p50_ms": deciles[4] * 1e3,
        "cert_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    return {m: (values[m], unit) for m, unit in END_TO_END}


def traced_pass(run, tracing):
    """One pass on fresh inputs with the tracer installed, input build
    included.  Returns (tracer, certificate seconds at the reference host
    speed)."""
    tracer = tracing.Tracer()
    tracer.install(callers=[run.workloads])
    try:
        fam = run.fresh()
        gc.collect()
        lat, fac, out, fail = run_pass(run.workloads, fam.items, tracer)
    finally:
        tracer.uninstall()
    run.record(lat, out, fail)
    return tracer, sum(t / f for t, f in zip(lat, fac))


def run_one(args):
    sys.path.insert(0, str(SRC))
    import workloads
    import zilber
    if not Path(zilber.__file__).resolve().is_relative_to(SRC):
        print(f"certbench: zilber imported from {zilber.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run = Run(workloads, args.workload, args.seed)
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    raw = {}
    if args.trace:
        import tracing
        setups = run.timed_passes(passes)
        tracer, traced_s = traced_pass(run, tracing)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (
            traced_s / statistics.median(run.pass_times), "ratio")
    else:
        setups = run.timed_passes(
            passes, lambda: setup_seconds(args.workload, args.seed))
        metrics = end_to_end(run.latencies, [s for s, _ in setups])
        raw = {m: v for m, (v, _) in
               end_to_end(run.raw_latencies, [r for _, r in setups]).items()}

    failed = len(run.failures)
    samples = sum(map(len, run.latencies.values()))
    meta = dict(metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                passes=len(run.pass_times), certs_per_pass=run.certs_per_pass,
                samples=samples, fail_ratio=failed / run.attempted,
                setup_s=setups, pass_s=run.pass_times,
                pass_host_factor=run.pass_factors, raw_metrics=raw,
                inputs_digest=run.digest, family_digest=run.family_digest,
                failures=run.failures[:20], problems=run.problems)
    if args.trace:
        meta["missing_hooks"] = tracer.missing
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path, dict(meta, names=tracer.names))
        meta["spans_file"] = str(path.relative_to(ROOT))
    correct = failed == 0 and not run.problems
    print(json.dumps({"meta": meta}, sort_keys=True))
    for key, why, evidence in run.failures[:20]:
        print(f"UNEXPECTED {key}: {why} ({evidence})", file=sys.stderr)
    for problem in run.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:36s} {value:>16.6f} {unit}")
    print(f"{args.workload:9s} {'fail_ratio':36s} {failed / run.attempted:>16.6f} "
          f"({failed}/{run.attempted})")
    print(f"{args.workload:9s} latency samples: {samples} untraced, {run.certs_per_pass} "
          f"certificates x {len(run.pass_times)} passes; each certificate "
          f"counts its median pass at the reference host speed")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process; prints every child's lines, then
    one combined result with workload-prefixed metric names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"certbench: workload {name} printed no result", file=sys.stderr)
            return 2
        status = status or done.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zilber" / "__init__.py").is_file():
        print(f"certbench: no zilber sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
