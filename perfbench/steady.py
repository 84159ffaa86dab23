#!/usr/bin/env python3
"""Run one workload several times and report how steady each metric is.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the script prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. With --trace 0
it also prints each end-to-end metric's bound from BENCHMARK.json and
flags a spread above a third of it. Exits non-zero if any run fails or
reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady.py: seed {seed} failed with exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"steady.py: seed {seed} reported wrong outputs: {lines[-1]}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units = {}, {}
    for i in range(args.runs):
        result = run_once(args.workload, args.first_seed + i, seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {args.first_seed + i}: " +
              ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {seconds}s, trace={args.trace}")
    print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name) if args.trace == "0" else None
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print(f"{name:28} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
