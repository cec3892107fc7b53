"""Run a workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload fine-wavefront --seeds 1-10 [--seconds 20] [--trace 0]

For each metric: the values, their median, and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
A run that fails or prints no result line stops the sweep with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        rows.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in rows[-1]["metrics"].items()), flush=True)
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q = statistics.quantiles(values, n=4)
            spread = f"{(q[2] - q[0]) / abs(med):.3f}"
        else:
            spread = "n/a"
        print(f"{name:36s} median={med:.6g} spread={spread} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
