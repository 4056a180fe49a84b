#!/usr/bin/env python3
"""Compares two result sets of the lbbench benchmark, parent against change.

Run interleaved pairs in two checkouts (each must hold lbbench/):

    python3 lbbench/compare.py --parent ../parent --change . \
        --workload sim_saturated --pairs 10 --save /tmp/sat.json

or compare result sets saved earlier by --save:

    python3 lbbench/compare.py --load /tmp/sat.json

Pair k runs seed k (or the k-th of --seeds) on both sides, parent first on
even k and change first on odd k.  For every (workload, end-to-end metric)
it prints each side's median and quartiles, the change's win share over all
pairs (ties count for neither), and a verdict by the rule in lbbench/README.md:

  gain          the change wins >= 9/10 of pairs and the medians differ by
                more than the parent's own quartile spread
  regression    the change's median is worse than the parent's by more than
                the metric's bound from BENCHMARK.json
  unresolved    the parent's spread exceeds the bound (unless every change
                run beats every parent run)
  no regression otherwise

A gain does not count when the change failed more operations.  Exit code 1
when any metric regresses or any run reported incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "lbbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no output from {checkout} seed {seed}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, parent_failed, change_failed):
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.25)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    share = wins / len(parent)
    spread = (p3 - p1) / pm if pm else float("inf")
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if share >= 0.9 and abs(cm - pm) > (p3 - p1) and worse < 0 \
            and change_failed <= parent_failed:
        text = "gain"
    elif spread > bound and not all_better:
        text = "unresolved"
    elif worse > bound:
        text = "regression"
    else:
        text = "no regression"
    return (p1, pm, p3), (c1, cm, c3), share, spread, text


def report(sets, spec):
    bad = False
    for workload, pairs in sets.items():
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        pf = sum(r["failed"] for r in parent)
        cf = sum(r["failed"] for r in change)
        incorrect = sum(1 for r in parent + change if not r["correct"])
        print(f"{workload}: {len(pairs)} pairs; failed ops parent={pf} "
              f"change={cf}; incorrect runs={incorrect}")
        bad = bad or incorrect > 0
        print(f"  {'metric':16} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'win':>5} {'spread':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pq, cq, share, spread, text = verdict(metric, pv, cv, pf, cf)
            bad = bad or text == "regression"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"  {name:16} {fmt(pq):>30} {fmt(cq):>30} "
                  f"{share:5.2f} {spread:7.3f}  {text}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    help="workload(s); default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds, one per pair")
    ap.add_argument("--seconds", type=int,
                    help="run length; default: BENCHMARK.json run_seconds")
    ap.add_argument("--save", help="write the result sets here (JSON)")
    ap.add_argument("--load", help="compare result sets saved by --save")
    args = ap.parse_args()
    spec = load_spec()

    if args.load:
        with open(args.load) as f:
            sets = json.load(f)
    else:
        if not (args.parent and args.change):
            ap.error("--parent and --change are required without --load")
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
            else list(range(args.pairs))
        seconds = args.seconds or spec["run_seconds"]
        sets = {}
        for workload in workloads:
            pairs = []
            for k, seed in enumerate(seeds):
                order = [args.parent, args.change]
                if k % 2:
                    order.reverse()
                out = {d: run_once(d, workload, seed, seconds) for d in order}
                pairs.append((out[args.parent], out[args.change]))
                print(f"{workload} pair {k + 1}/{len(seeds)} seed {seed} done",
                      file=sys.stderr)
            sets[workload] = pairs
        if args.save:
            with open(args.save, "w") as f:
                json.dump(sets, f)
    return 1 if report(sets, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
