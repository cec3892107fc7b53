"""Run one benchmark workload and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-kernels --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload paper-kernels --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json
    python3 perfbench/run.py --describe

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the per-layer tracing suite on the same inputs and
writes its spans to ``perfbench/out/``. Every metric is printed by name
with its unit and sample count, then the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 all outputs correct; 1 a wrong output or failed operation
(the result is still printed); 2 the program under test cannot be
imported (nothing is printed); 3 ``--compare`` refused unlike hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.common import OUT, host_fingerprint, unlike_hosts  # noqa: E402
from perfbench.metric_map import END_TO_END, PER_LAYER, describe  # noqa: E402


def _fmt(entry: dict) -> str:
    parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
             for k, v in entry.items() if k not in ("unit",)]
    return " ".join(parts)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    unlike = unlike_hosts(a["host"], b["host"])
    if unlike:
        print(f"refusing to compare results from unlike hosts (differ on {', '.join(unlike)})",
              file=sys.stderr)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 3
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:.3f}x" if va else "n/a"
        print(f"{name:36s} {va:14.6g} {vb:14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    ap.add_argument("--describe", action="store_true",
                    help="print the layer-metric -> end-to-end-metric -> workload table")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.describe:
        print(describe())
        return 0
    try:
        from perfbench import layers, workloads
        import repro.runtime.system  # noqa: F401 — the program under test
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.runtime.system.__file__).startswith(os.path.join(ROOT, "src")):
        print("the program under test is not this checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    wanted = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            outcome = layers.traced_run(workload, args.seconds,
                                        os.path.join(OUT, f"spans-{tag}.json"))
        else:
            outcome = workload.run(args.seconds)
    except Exception:  # report the crash as a failed run, with a result line
        outcome = workloads.Outcome(inputs=workload.inputs(), attempted=1)
        outcome.fail(traceback.format_exc())
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {name: {"value": outcome.metrics[name], "unit": units[name]}
               for name in units if name in outcome.metrics}
    missing = sorted(set(units) - set(metrics))
    if missing:
        outcome.attempted += 1
        outcome.fail(f"metrics not measured: {', '.join(missing)}")

    host = host_fingerprint()
    print(f"host: {json.dumps(host)}")
    print(f"inputs: {json.dumps(outcome.inputs)}")
    for name in sorted(outcome.named):
        entry = outcome.named[name]
        print(f"named  {name:44s} [{entry.get('unit', '')}] {_fmt(entry)}")
    for name, m in metrics.items():
        n = outcome.counts.get(name, 1)
        print(f"metric {name:44s} [{m['unit']}] value={m['value']:.6g} n={n}")
    for msg in outcome.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": max(1, outcome.attempted),
        "failed": len(outcome.failures),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "host": host, "inputs": outcome.inputs,
                   "named": outcome.named, "failures": outcome.failures,
                   "elapsed_s": time.perf_counter() - started, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
