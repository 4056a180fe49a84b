#!/usr/bin/env python3
"""The benchmark's own test.

    python3 lbbench/test_lbbench.py            # everything (several minutes)
    python3 lbbench/test_lbbench.py --variants 0,31

1. Cross-checks the pinned digests against kernel_mode "naive", the
   independent oracle: every pinned sim scenario is re-run on the naive
   kernel and its result digest must equal the pinned one.
2. Runs every workload of BENCHMARK.json briefly, untraced and traced, and
   checks the result line: the four keys, the declared metric names and
   units, correct output and nothing failed.

Exit code 0 when everything holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (lbbench/run.py: build())


def check_oracle(variants):
    cmd = [run.BINARY, "--check-naive", "--pins", run.PINS]
    if variants:
        cmd += ["--variants", variants]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout.strip().splitlines()[-1] if proc.stdout else
          proc.stderr.strip())
    return proc.returncode == 0


def check_contract(spec):
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            proc = subprocess.run(
                [run.BINARY, "--pins", run.PINS, "--workload", workload,
                 "--seed", "31", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            problems = []
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(line)}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"metrics differ: {set(got) ^ set(want)}")
            if not line["correct"] or line["failed"] or proc.returncode:
                problems.append(f"correct={line['correct']} "
                                f"failed={line['failed']} "
                                f"exit={proc.returncode}")
            if line["attempted"] < 1:
                problems.append("nothing attempted")
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--variants", help="comma-separated input variants for "
                    "the oracle check (default: all)")
    args = ap.parse_args()
    if not run.build():
        print("build failed")
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    oracle = check_oracle(args.variants)
    contract = check_contract(spec)
    return 0 if oracle and contract else 1


if __name__ == "__main__":
    sys.exit(main())
