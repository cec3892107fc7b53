"""The performance trajectory: appendable baselines and a regression gate.

``BENCH_BASELINE.json`` at the repo root accumulates one entry per
recorded revision — a measured run of the standard workload on all four
backends. This module owns that file's schema and the two operations on
it:

- :func:`append_entry` — measure and append (the ``--write`` path),
  labelling the entry with ``git describe`` output by default so
  entries map to revisions without manual bookkeeping;
- :func:`check_against` — the **regression gate** (``repro perf
  --against BENCH_BASELINE.json --check``): compare a fresh measurement
  against the latest recorded entry with configurable tolerances.

What is gated, and how, follows what is actually stable:

- *Deterministic wire counters* (serial + simulated backends): message
  and byte counts reproduce bit-for-bit, so any change fails — even a
  decrease is a protocol change the next ``--write`` must record.
- *Simulated makespan*: sim-time is deterministic; gated directly
  against ``max_makespan_regress``.
- *Real-backend makespans* (threads/processes): wall time depends on
  the machine, so the gate compares the **ratio to the serial backend's
  makespan from the same measurement session** — a machine-portable
  proxy — against the baseline's ratio, with the same tolerance.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.errors import ConfigError

SCHEMA = "repro-bench-baseline-1"

#: The standard workload: small enough for CI, large enough that the
#: dispatch/commit path dominates interpreter startup.
STANDARD = dict(
    algorithm="edit-distance",
    size=240,
    seed=0,
    nodes=3,
    threads_per_node=2,
    process_partition=40,
    thread_partition=10,
)

BACKENDS = ("serial", "threads", "processes", "simulated")

#: Deterministic backends: wire counters must reproduce bit-for-bit.
DETERMINISTIC = ("serial", "simulated")

#: Default headroom for makespan comparisons. Generous by design: CI
#: machines are noisy, and the ratio-to-serial normalization only
#: removes the *linear* part of machine variation.
DEFAULT_MAKESPAN_REGRESS = 0.75


def measure_backend(backend: str) -> Dict[str, object]:
    """Run the standard workload once on ``backend`` and digest it."""
    from repro import EasyHPS, RunConfig
    from repro.algorithms import EditDistance

    problem = EditDistance.random(STANDARD["size"], seed=STANDARD["seed"])
    config = RunConfig(
        nodes=STANDARD["nodes"],
        threads_per_node=STANDARD["threads_per_node"],
        backend=backend,
        process_partition=STANDARD["process_partition"],
        thread_partition=STANDARD["thread_partition"],
    )
    t0 = time.perf_counter()
    run = EasyHPS(config).run(problem)
    wall = time.perf_counter() - t0
    rep = run.report
    return {
        "wall_time_s": round(wall, 6),
        "makespan_s": round(rep.makespan, 6),
        "messages": rep.messages,
        "bytes_to_slaves": rep.bytes_to_slaves,
        "bytes_to_master": rep.bytes_to_master,
    }


def measure() -> Dict[str, Dict[str, object]]:
    """The standard workload on every backend."""
    return {backend: measure_backend(backend) for backend in BACKENDS}


def git_describe_label(cwd: Optional[str] = None) -> str:
    """A revision label from ``git describe`` (tags or short hash, with
    ``-dirty``); falls back to ``"dev"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "dev"
    label = out.stdout.strip()
    return label if out.returncode == 0 and label else "dev"


def load_trajectory(path: str) -> Dict[str, object]:
    """The baseline document, or an empty skeleton when absent."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "workload": dict(STANDARD), "entries": []}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ConfigError(
            f"{path}: unknown baseline schema {doc.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return doc


def append_entry(
    path: str,
    label: Optional[str] = None,
    measured: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Measure (unless given) and append one trajectory entry; returns it."""
    doc = load_trajectory(path)
    doc["schema"] = SCHEMA
    doc["workload"] = dict(STANDARD)
    entry = {
        "label": label or git_describe_label(os.path.dirname(path) or None),
        "backends": measured if measured is not None else measure(),
    }
    doc.setdefault("entries", []).append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


@dataclass(frozen=True)
class GateCheck:
    """One gate comparison: ``got`` must stay within ``tol`` of ``want``
    (``tol`` None: must equal it)."""

    name: str
    want: float
    got: float
    tol: Optional[float]

    @property
    def ok(self) -> bool:
        if self.tol is None:
            return self.got == self.want
        return self.got <= self.want * (1.0 + self.tol)

    def describe(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        allowed = "must equal" if self.tol is None else f"allowed +{self.tol:.0%}"
        return (
            f"{self.name}: baseline {self.want:.6g}, current {self.got:.6g} "
            f"({allowed}) — {verdict}"
        )


@dataclass
class GateResult:
    """Outcome of one gate run against the latest trajectory entry."""

    baseline_label: str
    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def describe(self) -> str:
        lines = [f"perf gate vs baseline entry {self.baseline_label!r}:"]
        lines += [f"  {c.describe()}" for c in self.checks]
        lines.append(
            f"  => {'PASS' if self.ok else f'FAIL ({len(self.failures)} regressions)'}"
        )
        return "\n".join(lines)


def check_against(
    path: str,
    *,
    max_makespan_regress: float = DEFAULT_MAKESPAN_REGRESS,
    measured: Optional[Dict[str, Dict[str, object]]] = None,
) -> GateResult:
    """Gate a fresh measurement against the latest trajectory entry.

    Raises :class:`~repro.utils.errors.ConfigError` when the trajectory
    has no entries (nothing to gate against) — that is a setup error,
    not a regression.
    """
    doc = load_trajectory(path)
    entries = doc.get("entries", [])
    if not entries:
        raise ConfigError(f"{path}: no baseline entries; record one with --write first")
    latest = entries[-1]
    base = latest["backends"]
    current = measured if measured is not None else measure()
    result = GateResult(baseline_label=str(latest.get("label", "?")))

    for backend in DETERMINISTIC:
        if backend not in base or backend not in current:
            continue
        for key in ("messages", "bytes_to_slaves", "bytes_to_master"):
            result.checks.append(
                GateCheck(
                    name=f"{backend}.{key}",
                    want=float(base[backend][key]),
                    got=float(current[backend][key]),
                    tol=None,
                )
            )
    if "simulated" in base and "simulated" in current:
        result.checks.append(
            GateCheck(
                name="simulated.makespan_s",
                want=float(base["simulated"]["makespan_s"]),
                got=float(current["simulated"]["makespan_s"]),
                tol=max_makespan_regress,
            )
        )
    base_serial = float(base.get("serial", {}).get("makespan_s", 0.0))
    cur_serial = float(current.get("serial", {}).get("makespan_s", 0.0))
    if base_serial > 0 and cur_serial > 0:
        for backend in ("threads", "processes"):
            if backend not in base or backend not in current:
                continue
            result.checks.append(
                GateCheck(
                    name=f"{backend}.makespan_vs_serial",
                    want=float(base[backend]["makespan_s"]) / base_serial,
                    got=float(current[backend]["makespan_s"]) / cur_serial,
                    tol=max_makespan_regress,
                )
            )
    return result


def format_measurement(measured: Dict[str, Dict[str, object]]) -> str:
    """One line per backend, aligned (shared by the CLI and the script)."""
    lines = []
    for backend, m in measured.items():
        lines.append(
            f"  {backend:10s} wall={m['wall_time_s']:8.3f}s "
            f"makespan={m['makespan_s']:8.3f}s msgs={m['messages']:6d} "
            f"out={m['bytes_to_slaves']:9d}B back={m['bytes_to_master']:9d}B"
        )
    return "\n".join(lines)
