"""Processes backend: slave parts as OS processes — the MPI stand-in.

Each slave is a ``multiprocessing.Process`` running
:func:`repro.runtime.slave.slave_process_main`; messages pickle across OS
pipes exactly where MPI messages would flow. Problems must therefore be
picklable (all bundled algorithms are). This backend achieves real
parallel speedup for compute-heavy instances but exists primarily to
prove the distributed protocol; timing figures come from the simulator.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Dict, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.backends.threads import open_journal
from repro.chaos.channel import ChaosChannel
from repro.cluster.faults import IoPolicy
from repro.comm.shm import (
    BlockStore,
    ShmChannel,
    drain_shm_errors,
    run_prefix,
    sweep_segments,
)
from repro.comm.transport import PipeChannel
from repro.obs import EventRecorder, MetricsRegistry, to_gantt_trace
from repro.runtime.config import RunConfig
from repro.runtime.master import MasterPart
from repro.runtime.slave import slave_process_main
from repro.schedulers.policy import make_policy


def _slave_entry(inherited, *args) -> None:
    """Slave process body: close the inherited pipe ends of the master and
    the other slaves, then run the slave. With those closed, the slave's
    own pipe reaches EOF once the master is gone, even after ``kill -9``,
    and the slave exits instead of lingering as an orphan."""
    for conn in inherited:
        conn.close()
    slave_process_main(*args)


def run_processes(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[Dict[str, np.ndarray], RunReport]:
    """Execute ``problem`` with ``config.n_slaves`` slave processes.

    ``resume`` (a :class:`~repro.durable.recovery.RecoveredRun`) continues
    a journaled run after a master crash — including a real ``kill -9``:
    orphaned slave processes of the dead master self-terminate on pipe
    EOF, and this call starts a fresh slave fleet.
    """
    proc_size, thread_size = config.partitions_for(problem)
    partition = problem.build_partition(proc_size)
    policy = make_policy(
        config.scheduler,
        config.n_slaves,
        partition.grid.n_block_cols,
        block_cols=config.bcw_block_cols,
    )

    # Telemetry lives master-side only: the recorder holds a lock and
    # cannot pickle into slave processes. Task-scope compute spans are
    # synthesized at the master from TaskResult.elapsed, so the lifecycle
    # stream matches the in-process backends anyway.
    recorder = EventRecorder() if config.observing else None
    metrics = MetricsRegistry() if config.observing else None

    # fork is faster and keeps the problem object shared copy-on-write;
    # fall back to spawn where fork is unavailable (macOS default, Windows).
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")

    # Zero-copy data plane (``config.shm``): one run-wide segment prefix,
    # one master-side block store (assign payloads), one store per slave
    # process (result payloads, built inside slave_process_main). The
    # master sweeps the prefix at teardown as the leak backstop.
    shm_prefix = run_prefix(config.run_id) if config.shm else None
    store = (
        BlockStore(
            shm_prefix,
            io_policy=IoPolicy(config.io_fault_plan, "shm-master")
            if config.io_fault_plan
            else None,
        )
        if shm_prefix is not None
        else None
    )

    master_channels = []
    conns = []
    options = dict(
        thread_scheduler=config.thread_scheduler,
        subtask_timeout=config.subtask_timeout,
        max_retries=config.max_retries,
        poll_interval=config.poll_interval,
        fault_plan=config.fault_plan,
        thread_fault_plan=config.thread_fault_plan,
        worker_fault_plan=config.worker_fault_plan,
        hang_duration=config.hang_duration,
        verify=config.verify,
        heartbeat_interval=config.heartbeat_interval,
        integrity=config.integrity,
        shm_prefix=shm_prefix,
        io_fault_plan=config.io_fault_plan if config.io_fault_plan else None,
    )
    for k in range(config.n_slaves):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        conns.append((parent_conn, child_conn))
        channel = PipeChannel(parent_conn)
        if store is not None:
            # The shm wrapper sits directly on the pipe; chaos (below)
            # wraps *outside* it, so injected faults mutate the decoded
            # arrays the runtime sees, never the opaque segment refs.
            # Instrumented on its own: per-message telemetry accrues on
            # the outermost wrapper, but the ``shm-attach`` span is
            # emitted by this layer regardless of what wraps it.
            channel = ShmChannel(channel, store)
            if recorder is not None:
                channel.instrument(recorder, endpoint=f"slave{k}")
        if config.message_fault_plan:
            # Chaos wraps the master-side endpoint only — the plan never
            # crosses the pipe, and both directions are still covered.
            channel = ChaosChannel(
                channel, config.message_fault_plan, endpoint_index=k
            )
        if recorder is not None:
            channel.instrument(recorder, endpoint=f"slave{k}")
        master_channels.append(channel)
    procs = [
        ctx.Process(
            target=_slave_entry,
            args=(
                # Every pipe end but its own: a forked slave inherits them
                # all, and would hold its own pipe open past the master.
                [c for pair in conns for c in pair if c is not child_conn],
                k, child_conn, problem, proc_size, thread_size,
                config.threads_per_node, options,
            ),
            daemon=True,
            name=f"slave{k}",
        )
        for k, (_, child_conn) in enumerate(conns)
    ]

    journal = open_journal(config, problem, resume, obs=recorder)
    master = MasterPart(
        problem,
        partition,
        master_channels,
        policy,
        task_timeout=config.task_timeout,
        max_retries=config.max_retries,
        poll_interval=config.poll_interval,
        retry_backoff=config.retry_backoff,
        retry_backoff_max=config.retry_backoff_max,
        speculate=config.speculate,
        speculative_factor=config.speculative_factor,
        speculative_quantile=config.speculative_quantile,
        blacklist_threshold=config.blacklist_threshold,
        stall_timeout=config.effective_stall_timeout,
        verify=config.verify,
        obs=recorder,
        metrics=metrics,
        journal=journal,
        completed=resume.committed if resume is not None else None,
        initial_state=resume.state if resume is not None else None,
        attempts=resume.attempts if resume is not None else None,
        heartbeat_interval=config.heartbeat_interval,
        lease_factor=config.lease_factor,
        integrity=config.integrity,
        audit_fraction=config.audit_fraction,
        vote_k=config.vote_k,
        quarantine_threshold=config.quarantine_threshold,
        run_digest=resume.run_digest if resume is not None else None,
        commit_digests=resume.scan.commit_digests if resume is not None else None,
        batch_wave=config.batch_wave,
        max_batch=config.max_batch,
        block_store=store,
        job_id=config.run_id,
    )

    started = time.perf_counter()
    for p in procs:
        p.start()
    try:
        state = master.run()
    finally:
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for ch in master_channels:
            ch.close()
        if shm_prefix is not None:
            # Backstop after the fleet is gone: unlink any segment of this
            # run still in /dev/shm (undelivered assigns were already
            # released as their dispatches settled; this catches orphans
            # from slaves killed mid-park).
            sweep_segments(shm_prefix)
            # Surface every OSError the reclamation hooks swallowed for
            # this run — resource failures must never be invisible.
            drain_shm_errors(shm_prefix, metrics=metrics, obs=recorder)
    elapsed = time.perf_counter() - started

    report = RunReport(
        backend="processes",
        scheduler=config.scheduler,
        algorithm=problem.name,
        nodes=config.nodes,
        threads_per_node=config.threads_per_node,
        makespan=elapsed,
        wall_time=elapsed,
        n_tasks=partition.n_blocks,
        messages=master.stats.messages,
        bytes_to_slaves=master.stats.bytes_to_slaves,
        bytes_to_master=master.stats.bytes_to_master,
        faults_recovered=master.stats.faults_recovered,
        stale_results=master.stats.stale_results,
        tasks_per_worker=dict(master.stats.tasks_per_worker),
        total_flops=problem.total_flops(partition),
        speculative_redispatches=master.stats.speculative_redispatches,
        blacklisted_workers=tuple(master.stats.blacklisted_workers),
        worker_leaks=master.stats.worker_leaks,
        faults_injected=sum(
            getattr(ch, "faults_injected", 0) for ch in master_channels
        ),
        run_digest=master.stats.run_digest,
        digest_rejects=master.stats.digest_rejects,
        audits_convicted=master.stats.audits_convicted,
        tainted_recomputes=master.stats.tainted_recomputes,
        quarantined_workers=tuple(master.stats.quarantined_workers),
    )
    if recorder is not None:
        report.events = recorder.events()
        if metrics is not None:
            report.metrics = metrics.snapshot()
        if config.trace:
            report.trace = to_gantt_trace(report.events)
    return state, report
