"""Which layer metric should move which end-to-end metric, on which workload.

Later performance changes cite these names: a change to one layer states
beforehand which row it expects to move and which workloads should not
change (the control). The metric lists themselves live in
``BENCHMARK.json``; this module reads them from there.

End-to-end metrics come in two forms. The gated JSON metrics
(``latency_ref_s``, ``throughput_ref_per_s``, ``setup_s``,
``peak_rss_mb``) are reported by every workload; the first two are in
reference-host seconds (``perfbench.common.SpeedMeter``). The named
metrics (``solve_s.<backend>``, ``sim_wall_s``, ``sim_makespan_s``,
``failed_frac``) are printed in wall seconds next to their
reference-host twins (``solve_ref_s.<backend>``, ``sim_ref_s``);
``NAMED_TO_JSON`` says which JSON metric each one feeds.

Serving has no gated end-to-end metric: the open-loop ``serve-mix``
workload was dropped because its job latency spread by 0.3 of its median
across seeds. The ``serve`` and ``durable`` layers are still measured,
in the serve phase of every traced run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCHMARK.json")


def _load() -> Dict[str, object]:
    with open(_BENCHMARK) as fh:
        return json.load(fh)


_SPEC = _load()
END_TO_END: List[Dict[str, object]] = _SPEC["end_to_end"]  # type: ignore[assignment]
PER_LAYER: List[Dict[str, object]] = _SPEC["per_layer"]  # type: ignore[assignment]
WORKLOAD_WHY: Dict[str, str] = {w["name"]: w["why"] for w in _SPEC["workloads"]}  # type: ignore[index]

#: Named end-to-end metric -> (JSON metric it feeds, workload).
NAMED_TO_JSON: Tuple[Tuple[str, str, str], ...] = (
    ("solve_s.serial", "latency_ref_s, throughput_ref_per_s", "paper-kernels, fine-wavefront"),
    ("solve_s.threads", "latency_ref_s, throughput_ref_per_s", "paper-kernels, fine-wavefront"),
    ("solve_s.processes", "latency_ref_s, throughput_ref_per_s", "paper-kernels, fine-wavefront"),
    ("sim_wall_s", "latency_ref_s, throughput_ref_per_s", "paper-sim"),
    ("sim_makespan_s", "(printed; deterministic per input)", "paper-sim"),
    ("failed_frac", "JSON failed / attempted", "all"),
    ("setup_s", "setup_s", "all"),
    ("peak_rss_mb", "peak_rss_mb", "all"),
)

#: (layer metric, end-to-end metric it should move, workload where it shows).
#: The serve and durable rows name the traced serve phase's own job
#: times, which no gated metric carries.
LAYER_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("algorithms.kernel_s", "solve_s.*", "paper-kernels; partly fine-wavefront"),
    ("algorithms.cells_per_s (.swgg/.nussinov/.edit-distance printed)", "solve_s.*", "paper-kernels; partly fine-wavefront"),
    ("algorithms.us_per_subtask", "solve_s.*", "paper-kernels; partly fine-wavefront"),
    ("algorithms.extract_s", "solve_s.threads, solve_s.processes", "fine-wavefront"),
    ("algorithms.apply_s", "solve_s.threads, solve_s.processes", "fine-wavefront"),
    ("dag.partition_s", "sim_wall_s", "paper-sim"),
    ("dag.parser_ops_per_s", "sim_wall_s", "paper-sim"),
    ("comm.digest_mb_per_s", "solve_s.processes", "fine-wavefront"),
    ("comm.serialize_mb_per_s", "solve_s.processes", "fine-wavefront"),
    ("comm.pipe_rtt_us", "solve_s.processes", "fine-wavefront"),
    ("comm.bytes_per_task", "solve_s.processes", "fine-wavefront"),
    ("comm.messages_per_task", "solve_s.processes", "fine-wavefront"),
    ("runtime.tasks_per_s.<backend>", "solve_s.<backend>", "fine-wavefront"),
    ("runtime.overhead_s.<backend> (derived)", "solve_s.<backend>", "fine-wavefront"),
    ("runtime.useful_dispatch_frac (runtime.retries printed)", "failed_frac, solve_s.*", "all real backends"),
    ("sim.tasks_per_s", "sim_wall_s", "paper-sim"),
    ("sim.level_s", "sim_wall_s", "paper-sim"),
    ("sim.utilization", "sim_makespan_s", "paper-sim"),
    ("sim.idle_while_ready_frac", "sim_makespan_s", "paper-sim"),
    ("sim.speedup", "sim_makespan_s", "paper-sim"),
    ("durable.commit_us", "serve.run_p50_s (traced serve phase)", "all, traced run"),
    ("durable.bytes_per_commit", "serve.run_p50_s (traced serve phase)", "all, traced run"),
    ("serve.submit_us", "serve.queue_wait_p50_s (traced serve phase)", "all, traced run"),
    ("serve.run_p50_s", "(job run time in the traced serve phase)", "all, traced run"),
    ("serve.queue_wait_p50_s", "(job wait in the traced serve phase)", "all, traced run"),
    ("serve.queue_wait_p90_s", "(job wait in the traced serve phase)", "all, traced run"),
    ("serve.busy_frac", "serve.queue_wait_p90_s", "all, traced run"),
    ("serve.generator_lag_p90_s", "recorded alongside", "all, traced run"),
    ("obs.overhead_frac", "traced vs untraced solve wall", "paper-kernels, fine-wavefront"),
    ("obs.lane_s.{compute,serialize,wire,journal,digest,idle}", "solve_s.*", "paper-kernels, fine-wavefront"),
    ("obs.replay_unattributed_s", "reconciles replay spans with obs lanes", "all"),
)


def describe() -> str:
    lines = ["workloads:"]
    lines += [f"  {name:16s} {why}" for name, why in WORKLOAD_WHY.items()]
    lines.append("named end-to-end metric -> JSON metric -> workload:")
    lines += [f"  {a:20s} -> {b:48s} on {c}" for a, b, c in NAMED_TO_JSON]
    lines.append("layer metric -> end-to-end metric -> workload:")
    lines += [f"  {a:58s} -> {b:40s} on {c}" for a, b, c in LAYER_TABLE]
    return "\n".join(lines)
