#!/usr/bin/env python3
"""Smoke test of the benchmark driver at a tiny duration.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second with --trace 0 and
with --trace 1, and asserts that each run exits 0 and ends with a result
line that is correct, has no failures, and names exactly the
end-to-end (trace 0) or per-layer (trace 1) metrics, each with its
unit. Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.exit(f"smoke.py: FAIL: {msg}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", trace]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                fail(f"{where} exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} attempted={result['attempted']}"
                     f" failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics differ from BENCHMARK.json {section}: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    fail(f"{where}: {name} has no numeric value")
            print(f"ok  {where}: {len(got)} metrics", flush=True)


if __name__ == "__main__":
    main()
