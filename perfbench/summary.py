"""Print every metric of every workload by name and unit.

    python3 perfbench/summary.py --seed 1 --seconds 24 [--trace 1]

Runs ``perfbench/run.py`` once per workload listed in BENCHMARK.json, one
after the other, from the repository root, and tabulates the JSON result
lines: one row per metric, one column per workload, and the operation
counts (``fail_frac`` = failed / attempted) at the bottom.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        argv = [*spec["command"], "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print("%s failed (exit %d):\n%s" % (name, done.returncode, done.stderr), file=sys.stderr)
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("%-40s %-6s" % ("metric", "unit") + "".join("%16s" % n for n in names))
    for metric in metrics:
        cells = "".join("%16.6g" % results[n]["metrics"][metric["name"]]["value"] for n in names)
        print("%-40s %-6s" % (metric["name"], metric["unit"]) + cells)
    for key in ("attempted", "failed"):
        print("%-47s" % key + "".join("%16d" % results[n][key] for n in names))
    print("%-47s" % "fail_frac" + "".join("%16.6g" % (results[n]["failed"] / results[n]["attempted"]) for n in names))
    print("%-47s" % "correct" + "".join("%16s" % results[n]["correct"] for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
