"""Serial reference backend.

Drains the process-level DAG in topological order, computing each block's
inner DAG serially too. This is the correctness oracle for the parallel
backends and the wall-time baseline for measured speedups. Every block
commits through the same :class:`~repro.runtime.core.MasterCore` as the
parallel backends (journal write-ahead, merge, digest fold, checkpoint),
and ``verify`` runs the same happens-before check on its trace.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.comm.serialization import MESSAGE_ENVELOPE_BYTES, payload_nbytes
from repro.obs import EventRecorder, MetricsRegistry, ScheduleTracer, to_gantt_trace
from repro.runtime.config import RunConfig
from repro.runtime.core import MasterCore


def run_serial(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[Dict[str, np.ndarray], RunReport]:
    """Execute ``problem`` serially under ``config``'s partition sizes.

    Journals through the same write-ahead path as the parallel backends
    when ``config.journal_path`` is set, and skips already-committed
    blocks when resuming (``resume`` is a
    :class:`~repro.durable.recovery.RecoveredRun`).
    """
    from repro.backends.threads import open_journal

    proc_size, thread_size = config.partitions_for(problem)
    partition = problem.build_partition(proc_size)
    state = problem.make_state() if resume is None else resume.state
    # The oracle emits the same task lifecycle as the parallel backends
    # (one virtual worker, node 0) so traces are structurally comparable.
    recorder = EventRecorder() if config.observing else None
    metrics = MetricsRegistry() if config.observing else None
    sched = ScheduleTracer(verify=config.verify, obs=recorder, node=0)
    journal = open_journal(config, problem, resume, obs=recorder)
    # The oracle folds the same rolling run digest as the parallel
    # backends (epoch-free, so the folds compare directly); resumed runs
    # continue from the journal's fold.
    digest_on = config.integrity != "off"
    core = MasterCore(
        partition.abstract,
        n_workers=1,
        sched=sched,
        fold_digests=digest_on,
        journal=sched.timed(journal),
        merge=lambda bid, outputs: problem.apply_result(state, partition, bid, outputs),
        snapshot=lambda: {k: np.array(v, copy=True) for k, v in state.items()},
        committed=resume.committed if resume is not None else None,
        attempts=resume.attempts if resume is not None else None,
        run_digest=resume.run_digest if digest_on and resume is not None else None,
        commit_digests=(
            resume.scan.commit_digests if digest_on and resume is not None else None
        ),
    )
    core.replay(sched.now())
    started = time.perf_counter()
    n_subtasks = 0
    try:
        n_subtasks = _drain(problem, partition, state, core, metrics, thread_size)
        core.finish()
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started
    sched.check(partition.abstract, title=f"serial-trace({problem.name})")
    report = RunReport(
        backend="serial",
        scheduler="none",
        algorithm=problem.name,
        nodes=1,
        threads_per_node=1,
        makespan=elapsed,
        wall_time=elapsed,
        n_tasks=partition.n_blocks,
        n_subtasks=n_subtasks,
        total_flops=problem.total_flops(partition),
        run_digest=core.run_digest,
    )
    if recorder is not None:
        report.events = recorder.events()
        if metrics is not None:
            report.metrics = metrics.snapshot()
        if config.trace:
            report.trace = to_gantt_trace(report.events)
    return state, report


def _drain(problem, partition, state, core, metrics, thread_size) -> int:
    """Topological drain of the remaining (uncommitted) blocks."""
    sched = core.sched
    observing = sched.observing
    n_subtasks = 0
    for bid in partition.abstract.topological_order():
        if bid in core.committed:
            continue  # recovered from the journal; already in state
        epoch = core.register.register(bid, 0)
        inputs = problem.extract_inputs(state, partition, bid)
        if sched.enabled:
            core.assigned(bid, epoch, 0, sched.now())
        if observing:
            sched.record(
                "send", bid, epoch, 0,
                nbytes=MESSAGE_ENVELOPE_BYTES + payload_nbytes(inputs),
            )
        evaluator = problem.evaluator(partition, bid, inputs)
        inner = partition.sub_partition(bid, thread_size)
        n_subtasks += inner.n_blocks
        t0 = sched.now() if observing else 0.0
        outputs = evaluator.run_serial(inner)
        if observing:
            t1 = sched.now()
            sched.record("compute", bid, epoch, 0, t0=t0, t1=t1)
            sched.record(
                "result", bid, epoch, 0,
                nbytes=MESSAGE_ENVELOPE_BYTES + payload_nbytes(outputs),
                elapsed=t1 - t0,
            )
            if metrics is not None:
                metrics.counter("serial.tasks_completed").inc()
        digest = sched.digest(outputs, bid, epoch, 0, "commit") if core.fold_digests else None
        core.accept(bid, epoch, 0)
        core.commit(bid, epoch, 0, outputs, digest)
    return n_subtasks
