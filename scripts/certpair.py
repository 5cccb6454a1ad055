#!/usr/bin/env python3
"""Paired certbench runs of two checkouts: a parent and a change.

    python scripts/certpair.py PARENT CHANGE [--workloads ez,coend,spectral]
        [--seeds 711-720] [--seconds 10]

For each workload and seed it runs ``certbench/run.py`` of both
checkouts, one after the other, each as a subprocess in its own
checkout.  The side that runs first alternates from seed to seed, so
that a drift of the host speed favours neither side.  It parses the JSON
result on the last line of each run and exits 1 if any run is not
``correct`` (or printed no result).  Then it prints, per workload and
metric, the median of each side, the parent's quartiles, the median
change and how many pairs moved the better way.  Which way is better
comes from ``BENCHMARK.json`` at the root of this script's checkout
(lower when a metric is not listed there).  Nothing under either checkout is written.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """'711-720' or '711,712' as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def directions():
    """metric -> 'higher' or 'lower', from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def quartiles(values):
    """(q1, q3) of values; both the value itself for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, better):
    """One row per metric of the (parent, change) pairs, each side a dict
    metric -> value: the medians, the parent's quartiles, the relative
    change of the medians and the number of pairs that moved the better
    way (``better`` maps a metric to 'higher' or 'lower', default lower)."""
    rows = []
    for name in pairs[0][0]:
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        q1, q3 = quartiles(old)
        before, after = statistics.median(old), statistics.median(new)
        rows.append({
            "metric": name, "parent_median": before, "change_median": after,
            "parent_q1": q1, "parent_q3": q3,
            "change_pct": 100 * (after - before) / before if before else 0.0,
            "better_pairs": sum(1 for a, b in zip(old, new)
                                if sign * (b - a) > 0),
            "pairs": len(pairs)})
    return rows


def run_one(checkout, workload, seed, seconds):
    """The JSON result of one certbench run, or None if it printed none."""
    done = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workloads", default="ez,coend,spectral")
    ap.add_argument("--seeds", default="711-720", type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    better, ok = directions(), True
    for workload in args.workloads.split(","):
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = {}
            order = ("parent", "change")
            for side in order if i % 2 == 0 else order[::-1]:
                result = run_one(getattr(args, side), workload, seed,
                                 args.seconds)
                if result is None or not result.get("correct"):
                    print(f"{workload} seed {seed}: {side} run not correct",
                          file=sys.stderr)
                    ok = False
                sides[side] = result
            if all(r and r.get("metrics") for r in sides.values()):
                pairs.append(tuple({k: v["value"] for k, v in
                                    sides[s]["metrics"].items()}
                                   for s in ("parent", "change")))
        if not pairs:
            continue
        print(f"{workload}: {len(pairs)} pairs, seeds {args.seeds[0]}"
              f"..{args.seeds[-1]}, {args.seconds:g} s each")
        for row in summarize(pairs, better):
            print(f"  {row['metric']:14s} parent {row['parent_median']:10.3f}"
                  f" [{row['parent_q1']:.3f}, {row['parent_q3']:.3f}]"
                  f"  change {row['change_median']:10.3f}"
                  f" ({row['change_pct']:+.1f}%)"
                  f"  better in {row['better_pairs']}/{row['pairs']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
