"""Performance-trajectory baseline: wall time and bytes on the wire.

One standard workload — the wavefront edit-distance instance defined in
:mod:`repro.analysis.trajectory` — measured on all four backends, with
the results committed to ``BENCH_BASELINE.json`` at the repo root. Each
entry in that file is one recorded revision, so the file accumulates the
project's performance trajectory over time instead of a single mutable
number.

Two verbs::

    python benchmarks/bench_baseline.py              # measure and print
    python benchmarks/bench_baseline.py --write --label <rev>   # append

The gate is ``repro perf --against BENCH_BASELINE.json --check`` (exit
code 3 on regression): the serial and simulated backends' byte/message
counters are deterministic and must equal the latest recorded entry,
makespans get ratio-normalized headroom. Both front-ends share
:mod:`repro.analysis.trajectory`.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.trajectory import (  # noqa: E402
    BACKENDS,
    DETERMINISTIC,
    SCHEMA,
    STANDARD,
    append_entry,
    format_measurement,
    git_describe_label,
    load_trajectory,
    measure,
    measure_backend,
)

__all__ = [
    "BACKENDS",
    "BASELINE_PATH",
    "DETERMINISTIC",
    "SCHEMA",
    "STANDARD",
    "load_baseline",
    "measure",
    "measure_backend",
]

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_BASELINE.json")


def load_baseline() -> dict:
    return load_trajectory(BASELINE_PATH)


def cmd_write(label: str) -> int:
    entry = append_entry(BASELINE_PATH, label=label)
    print(f"recorded entry {entry['label']!r} -> {os.path.normpath(BASELINE_PATH)}")
    print(format_measurement(entry["backends"]))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="append an entry to BENCH_BASELINE.json")
    ap.add_argument(
        "--label",
        default=None,
        help="entry label for --write (defaults to `git describe` output)",
    )
    args = ap.parse_args()
    if args.write:
        return cmd_write(args.label if args.label is not None else git_describe_label())
    print(format_measurement(measure()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
