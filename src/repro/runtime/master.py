"""Master part: processor-level scheduling and fault tolerance (Figs 9, 10).

Thread layout follows the paper:

- one *worker thread per slave node* services that slave's channel —
  answering idle signals with computable sub-tasks (or the end signal)
  and collecting results onto the finished sub-task stack;
- the *master scheduling thread* (the caller of :meth:`MasterPart.run`)
  drains the finished stack, commits, and pushes newly computable
  sub-tasks onto the computable stack;
- the *fault-tolerance thread* watches the overtime queue and the
  liveness leases, holds backoff-delayed re-dispatches, speculatively
  re-dispatches stragglers (``speculate``; never charged to the retry
  budget), and aborts cleanly when nothing progressed for
  ``stall_timeout`` seconds instead of hanging.

Every decision these threads act on — stale-epoch drops, commits, the
budgeted requeue and its backoff, blacklisting, audits, quarantine,
taint invalidation, journal replay — is made by the shared
:class:`~repro.runtime.core.MasterCore`. This module is the threaded
shell around it: channels, leases, speculation, batched dispatch, the
duplicate-dispatch vote ledger (``integrity='vote'``), the master's own
audit recomputes, and shm block release.

Note that a taint recompute legitimately commits a task twice; the
strict happens-before trace validator (``verify=True``) flags the second
commit as a duplicate, so verification and audit-mode convictions are
not meant to be combined — chaos campaigns run with ``observe`` instead.
"""

from __future__ import annotations

import heapq
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.check.lock_lint import make_lock
from repro.comm.messages import (
    BatchAssign,
    BatchResult,
    EndSignal,
    Heartbeat,
    IdleSignal,
    TaskAssign,
    TaskId,
    TaskResult,
    WorkerLeave,
)
from repro.comm.serialization import message_nbytes
from repro.comm.shm import BlockStore
from repro.comm.transport import Channel, ChannelClosed, ChannelTimeout
from repro.dag.partition import Partition
from repro.durable.journal import CommitJournal
from repro.integrity import IntegrityPolicy
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import EventRecorder
from repro.obs.schedule import ScheduleTracer
from repro.runtime.core import Actions, CoreStats, MasterCore
from repro.runtime.worker_pool import (
    ComputableStack,
    FinishedStack,
    LeaseTable,
    OvertimeEntry,
    OvertimeQueue,
)
from repro.schedulers.policy import SchedulingPolicy
from repro.utils.errors import (
    FaultToleranceExhausted,
    SchedulerError,
    WorkerLeakWarning,
)


#: Sentinel returned by :meth:`MasterPart._prepare_assign` when the worker
#: was retired (blacklist/leave/quarantine) between the pop and the
#: registration re-check — distinct from None, which means "no eligible
#: task right now".
_RETIRED = object()


@dataclass
class MasterStats(CoreStats):
    """Counters gathered while the master ran (the core's included)."""

    stale_results: int = 0
    tasks_per_worker: Dict[int, int] = field(default_factory=dict)
    messages: int = 0
    bytes_to_slaves: int = 0
    bytes_to_master: int = 0
    #: Straggler dispatches cancelled and re-queued before their timeout.
    speculative_redispatches: int = 0
    #: Service/fault-tolerance threads that outlived their join timeout.
    worker_leaks: int = 0
    #: Workers that joined mid-run (elastic membership).
    workers_joined: int = 0
    #: Rolling run digest (hex) after the last commit; None when
    #: integrity is off.
    run_digest: Optional[str] = None
    #: Journal write failures absorbed by the retry/rescue ladder
    #: (``RunConfig.journal_degrade``) without aborting the run.
    journal_errors_absorbed: int = 0
    #: True when a journal write failure degraded the run to
    #: in-memory-only (``journal_degrade="memory"``): the result is still
    #: correct but the run is no longer crash-resumable.
    journal_degraded: bool = False


class MasterPart:
    """Processor-level scheduler over a set of slave channels."""

    def __init__(
        self,
        problem: DPProblem,
        partition: Partition,
        channels: Sequence[Channel],
        policy: SchedulingPolicy,
        *,
        task_timeout: float = 30.0,
        max_retries: int = 3,
        poll_interval: float = 0.02,
        retry_backoff: float = 0.0,
        retry_backoff_max: float = 2.0,
        speculate: bool = False,
        speculative_factor: float = 2.0,
        speculative_quantile: float = 0.95,
        blacklist_threshold: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        verify: bool = False,
        clock: Optional[Clock] = None,
        obs: Optional[EventRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[CommitJournal] = None,
        completed: Optional[Dict[TaskId, int]] = None,
        initial_state: Optional[Dict[str, np.ndarray]] = None,
        attempts: Optional[Dict[TaskId, int]] = None,
        heartbeat_interval: Optional[float] = None,
        lease_factor: float = 3.0,
        integrity: str = "digest",
        audit_fraction: float = 0.125,
        vote_k: int = 2,
        quarantine_threshold: int = 2,
        run_digest: Optional[str] = None,
        commit_digests: Optional[Dict[TaskId, Optional[str]]] = None,
        batch_wave: bool = False,
        max_batch: int = 8,
        block_store: Optional[BlockStore] = None,
        job_id: Optional[str] = None,
    ) -> None:
        if not channels:
            raise SchedulerError("master needs at least one slave channel")
        if policy.n_workers != len(channels):
            raise SchedulerError(
                f"policy sized for {policy.n_workers} workers but {len(channels)} slaves given"
            )
        self.problem = problem
        self.partition = partition
        self.channels = list(channels)
        self.policy = policy
        self.task_timeout = task_timeout
        self.poll_interval = poll_interval
        self.speculate = speculate
        self.speculative_factor = speculative_factor
        self.speculative_quantile = speculative_quantile
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else 2.0 * task_timeout + 1.0
        )
        #: Batched wavefront dispatch (``RunConfig.batch_wave``): answer an
        #: idle announcement with up to ``max_batch`` computable sub-tasks
        #: in ONE BatchAssign envelope. Each sub-task is registered,
        #: leased, overtime-watched, and digest-stamped individually, so
        #: retry/lease/journal semantics are unchanged — only the message
        #: count (the α term) is amortized.
        self.batch_wave = batch_wave
        self.max_batch = max(1, int(max_batch))
        #: Shared-memory block store of the zero-copy data plane (processes
        #: backend with ``RunConfig.shm``; None elsewhere). The master
        #: releases a task's parked segments whenever its dispatch settles
        #: — commit, requeue, worker retirement — and sweeps the rest at
        #: teardown, so undelivered assigns never leak segments.
        self.block_store = block_store
        #: Run identity within a multi-run process (``RunConfig.run_id``;
        #: the serve daemon sets it to the job id). Stamped onto every
        #: :class:`FaultToleranceExhausted` this master raises and onto
        #: the ``abort`` telemetry event, so multi-job traces and
        #: ``repro stats`` attribute aborts to the right tenant.
        self.job_id = job_id

        self.verify = verify
        #: Unified scheduling instrumentation: the happens-before trace
        #: (``verify``), the telemetry event stream (``obs``), and the
        #: injected clock — see :mod:`repro.obs.schedule`.
        self.sched = ScheduleTracer(
            clock=clock, verify=verify, obs=obs, node=-1, scope="task"
        )
        self.clock = self.sched.clock
        self.metrics = metrics

        self.state: Dict[str, np.ndarray] = {}
        self._initial_state = initial_state
        self.stats = MasterStats()
        self._state_lock = make_lock("master.state")
        self._results_lock = make_lock("master.results")
        #: task -> (outputs, epoch, worker_id, digest) awaiting commit.
        self._result_buffer: Dict[TaskId, tuple] = {}
        #: task -> clock reading when it became dispatchable (pushed on
        #: the computable stack); consumed at assign time to emit the
        #: ``queue-wait`` profiling span. Only stamped while observing.
        self._ready_at: Dict[TaskId, float] = {}
        self._stack = ComputableStack(
            depth_observer=self._make_depth_observer(),
            push_observer=self._note_ready if self.sched.observing else None,
        )
        self._finished = FinishedStack()
        self._overtime = OvertimeQueue()
        self._end = threading.Event()
        self._failure: List[BaseException] = []
        #: Tasks already speculated once (speculation is capped at one
        #: early re-dispatch per task).
        self._speculated: set = set()
        #: Completed compute durations (seconds) feeding the speculation
        #: quantile. Appends are GIL-atomic; the scanner copies.
        self._durations: List[float] = []
        #: Clock reading of the last dispatch or accepted result; the
        #: stall watchdog aborts when this goes quiet too long. Float
        #: assignment is GIL-atomic.
        self._last_progress: float = self.clock.now()

        #: Result-integrity policy (:mod:`repro.integrity`): receive-side
        #: digest verification plus the audit/vote SDC defenses.
        self.integrity = IntegrityPolicy(
            mode=integrity,
            audit_fraction=audit_fraction,
            vote_k=vote_k,
            quarantine_threshold=quarantine_threshold,
        )
        self._digest_on = self.integrity.digest_on
        #: Write-ahead commit journal (:mod:`repro.durable`).
        self.journal = journal
        #: The decision core (:mod:`repro.runtime.core`). Its retired-
        #: worker set is read by the service threads by membership only,
        #: which is GIL-safe.
        self.core = MasterCore(
            partition.abstract,
            n_workers=len(self.channels),
            sched=self.sched,
            max_retries=max_retries,
            task_timeout=task_timeout,
            retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max,
            blacklist_threshold=blacklist_threshold,
            integrity=self.integrity,
            fold_digests=self._digest_on,
            journal=self.sched.timed(journal),
            merge=self._merge,
            snapshot=self._snapshot,
            committed=completed,
            attempts=attempts,
            run_digest=run_digest,
            commit_digests=commit_digests,
            stats=self.stats,
        )
        self._register = self.core.register

        #: Heartbeat/lease liveness (None = the paper's inference-only
        #: liveness): leases span ``heartbeat_interval * lease_factor``
        #: and are renewed by *any* message from the holding worker.
        self._lease_duration: Optional[float] = (
            None if heartbeat_interval is None else heartbeat_interval * lease_factor
        )
        self._leases = LeaseTable()

        #: TaskResults that passed receive-side digest verification
        #: (guarded by ``_results_lock`` — service threads share it).
        self._digests_verified = 0
        #: Vote ledger (``integrity='vote'``): task -> worker ->
        #: ``(digest, outputs, epoch)``. Worker -1 is the master's own
        #: arbiter recompute. Scheduling-thread only.
        self._votes: Dict[TaskId, Dict[int, tuple]] = {}
        #: Votes a task needs before tallying (escalates on divergence).
        self._vote_need: Dict[TaskId, int] = {}

        #: Service threads for workers attached mid-run; guarded by the
        #: membership lock together with ``channels`` growth.
        self._extra_threads: List[threading.Thread] = []
        self._membership_lock = make_lock("master.membership")

    def _make_depth_observer(self):
        """Queue-depth instrumentation for the computable stack (None —
        hence zero per-push cost — unless metrics are on)."""
        if self.metrics is None:
            return None
        gauge = self.metrics.gauge("master.queue_depth")
        hist = self.metrics.histogram("master.queue_depth_hist")

        def observe(depth: int) -> None:
            gauge.set(depth)
            hist.observe(depth)

        return observe

    def _note_ready(self, task_id: TaskId) -> None:
        """Stamp the instant a task became dispatchable (stack push).

        Consumed at assign time to emit the ``queue-wait`` span; only
        wired as the stack's push observer while observing, so the
        disabled path takes no stamps and keeps no table.
        """
        self._ready_at[task_id] = self.clock.now()

    def _release_blocks(self, task_id: TaskId) -> None:
        """Unlink the shm segments parked for a settled dispatch (no-op
        without a block store). Called before any re-queue push, so a
        fresh dispatch can never park new segments that this release
        would then tear out from under it."""
        if self.block_store is not None:
            self.block_store.release_owner(task_id)

    def _merge(self, task_id: TaskId, outputs) -> None:
        with self._state_lock:
            self.problem.apply_result(self.state, self.partition, task_id, outputs)

    def _snapshot(self) -> Dict[str, np.ndarray]:
        with self._state_lock:
            return {k: np.array(v, copy=True) for k, v in self.state.items()}

    def _apply(self, acts: Actions) -> bool:
        """Carry out the core's verdict on one event (any thread):
        settle cancelled dispatches, drop work computed from revoked
        blocks, and put re-queued tasks back on offer. Returns False when
        the verdict aborted the run. Delayed re-queues are the
        fault-tolerance thread's to schedule."""
        for task_id, epoch in acts.cancelled:
            self._leases.drop(task_id, epoch)
            self._release_blocks(task_id)
        if acts.invalidated:
            # Queued-but-uncommitted results, half-gathered votes and
            # stacked tasks that consumed revoked inputs are stale; they
            # re-surface as the closure recommits.
            fresh = self.core.inputs_committed
            with self._results_lock:
                for task_id in [t for t in self._result_buffer if not fresh(t)]:
                    del self._result_buffer[task_id]
            for task_id in [t for t in self._votes if not fresh(t)]:
                self._votes.pop(task_id)
                self._vote_need.pop(task_id, None)
            self._stack.retain(fresh)
        if acts.ready:
            self._stack.push_many(acts.ready)
        if acts.abort is not None:
            self._abort(acts.abort)
            return False
        return True

    # -- public entry ----------------------------------------------------------

    def run(self) -> Dict[str, np.ndarray]:
        """Execute the whole schedule; returns the completed global state."""
        self.state = (
            self.problem.make_state()
            if self._initial_state is None
            else self._initial_state
        )
        core = self.core
        core.replay(self.clock.now())
        self._stack.push_many(core.parser.computable())

        workers = [
            threading.Thread(
                target=self._serve_slave, args=(k,), daemon=True, name=f"master-worker{k}"
            )
            for k in range(len(self.channels))
        ]
        ft = threading.Thread(target=self._fault_tolerance, daemon=True, name="master-ft")
        for t in workers:
            t.start()
        ft.start()

        try:
            # Master scheduling thread (Fig 9 steps c & h). The loop only
            # ends once the parser is drained AND every deferred audit ran
            # — a late conviction re-opens the parser via taint recompute.
            while True:
                if self._failure:
                    break
                if core.audit_pending:
                    self._run_due_audits(force=core.done)
                    if self._failure:
                        break
                if core.done and not core.audit_pending:
                    break
                task_id = self._finished.pop(timeout=self.poll_interval)
                if task_id is None:
                    continue
                with self._results_lock:
                    entry = self._result_buffer.pop(task_id, None)
                if entry is None:
                    continue  # purged by a taint invalidation while queued
                outputs, epoch, worker_id, digest = entry
                if task_id in core.committed:
                    continue  # late duplicate of an already-committed task
                if self.integrity.vote_on:
                    decision = self._record_vote(
                        task_id, outputs, epoch, worker_id, digest
                    )
                    if decision is None:
                        continue  # quorum not reached yet
                    outputs, epoch, worker_id, digest = decision
                    if self._failure:
                        break  # the deciding tally quarantined the pool
                ready = core.commit(task_id, epoch, worker_id, outputs, digest)
                self._release_blocks(task_id)
                self._stack.push_many(ready)
            if not self._failure and core.done:
                core.finish()
        finally:
            # Fig 9 step i: tear down pools and signal every slave to end.
            self._end.set()
            self._stack.close()
            self._finished.close()
            if self.journal is not None:
                self.journal.close()
            with self._membership_lock:
                channels = list(self.channels)
                workers = [*workers, *self._extra_threads]
            for t in workers:
                t.join(timeout=10.0)
            ft.join(timeout=10.0)
            self._surface_leaks([*workers, ft])
            if self.journal is not None:
                self.stats.journal_degraded = bool(
                    getattr(self.journal, "degraded", False)
                )
                self.stats.journal_errors_absorbed = int(
                    getattr(self.journal, "errors_absorbed", 0)
                )
            if self.block_store is not None:
                # Backstop for segments whose dispatch never settled (e.g.
                # an abort mid-wave); the processes backend additionally
                # prefix-sweeps /dev/shm after the slaves exit.
                self.block_store.sweep()
            for ch in channels:
                self.stats.messages += ch.sent_messages + ch.received_messages
                self.stats.bytes_to_slaves += ch.sent_bytes
                self.stats.bytes_to_master += ch.received_bytes
            self.stats.run_digest = core.run_digest
            if self.metrics is not None:
                self._publish_metrics()
        if self._failure:
            raise self._failure[0]
        self.sched.check(
            self.partition.abstract, title=f"master-trace({self.problem.name})"
        )
        return self.state

    # -- result integrity (audit / vote recomputes) --------------------------------------

    def _run_due_audits(self, force: bool) -> None:
        """Run every pending audit old enough (all of them when forced).

        The inputs re-extracted by the recompute are the committed
        predecessor blocks — a successor never overwrites them — so the
        recompute sees what the worker saw. A lying *predecessor* makes
        both sides agree and is caught by its own audit, not this one.
        """
        while not self._failure:
            due = self.core.next_audit(force)
            if due is None:
                return
            task_id, epoch, worker_id, outputs = due
            expected = self.sched.digest(
                self._recompute(task_id), task_id, epoch, worker_id, "audit"
            )
            got = self.sched.digest(outputs, task_id, epoch, worker_id, "audit")
            acts = self.core.audited(task_id, epoch, worker_id, expected == got)
            if acts is not None:
                self._apply(acts)

    def _recompute(self, task_id: TaskId):
        """The master's own serial evaluation of one sub-task, from the
        current committed state, as a single monolithic inner block (the
        outputs are partition-invariant, so the cheapest shape wins)."""
        with self._state_lock:
            inputs = self.problem.extract_inputs(self.state, self.partition, task_id)
        evaluator = self.problem.evaluator(self.partition, task_id, inputs)
        rows, cols = self.partition.block_ranges(task_id)
        inner = self.partition.sub_partition(task_id, (len(rows), len(cols)))
        return evaluator.run_serial(inner)

    # -- duplicate-dispatch voting -----------------------------------------------------

    def _record_vote(
        self, task_id: TaskId, outputs, epoch: int, worker_id: int, digest: Optional[str]
    ) -> Optional[tuple]:
        """Record one worker's result as a vote; returns the winning
        ``(outputs, epoch, worker, digest)`` once a quorum decides, else
        None (the task was re-queued for another voter)."""
        if digest is None:
            digest = self.sched.digest(outputs, task_id, epoch, worker_id, "vote")
        votes = self._votes.setdefault(task_id, {})
        votes[worker_id] = (digest, outputs, epoch)
        self.stats.votes_cast += 1
        if self.sched.observing:
            self.sched.record("vote-cast", task_id, epoch, worker_id, n_votes=len(votes))
        return self._tally_votes(task_id)

    def _tally_votes(self, task_id: TaskId) -> Optional[tuple]:
        votes = self._votes[task_id]
        need = self._vote_need.get(task_id, self.integrity.vote_k)
        if len(votes) >= need:
            counts: Dict[str, int] = {}
            for d, _, _ in votes.values():
                counts[d] = counts.get(d, 0) + 1
            winner, top = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
            if top * 2 > len(votes):
                return self._decide_vote(task_id, winner)
            if -1 in votes:
                # Even the master's arbiter recompute found no majority
                # (every voter lied differently); the arbiter is ground
                # truth by construction — decide by it.
                return self._decide_vote(task_id, votes[-1][0])
            self.stats.vote_divergences += 1
            if self.sched.observing:
                self.sched.record("vote-divergence", task_id, -1, n_votes=len(votes))
            self._vote_need[task_id] = len(votes) + 1
        # Solicit one more vote from a worker that has not voted yet and
        # may actually take the task (a static policy pins each task to
        # one owner, so voting there degenerates to master arbitration).
        eligible = [
            k
            for k in range(len(self.channels))
            if k not in self.core.retired
            and k not in votes
            and self.policy.eligible(k, task_id)
        ]
        if eligible:
            self.core.exempt(task_id, max(v[2] for v in votes.values()))
            self._stack.push(task_id)
            return None
        # No fresh worker can break the tie: the master evaluates the
        # block itself and casts the arbiter vote as worker -1.
        outputs = self._recompute(task_id)
        arbiter_epoch = max(v[2] for v in votes.values())
        return self._record_vote(task_id, outputs, arbiter_epoch, -1, None)

    def _decide_vote(self, task_id: TaskId, winner: str) -> tuple:
        votes = self._votes.pop(task_id)
        self._vote_need.pop(task_id, None)
        for wid, (d, _, _) in votes.items():
            if d != winner:
                self._apply(self.core.diverged(wid))
        for wid, (d, outputs, epoch) in sorted(votes.items()):
            if d == winner:
                return (outputs, epoch, wid, d)
        raise SchedulerError(f"vote for {task_id!r} decided on a digest nobody cast")

    def _surface_leaks(self, threads: Sequence[threading.Thread]) -> None:
        """Warn about (and count) threads that outlived their join timeout.

        The join results used to be silently discarded; a hung service
        thread now produces a :class:`WorkerLeakWarning`, a ``worker-leak``
        telemetry event, and a nonzero ``stats.worker_leaks``.
        """
        for t in threads:
            if not t.is_alive():
                continue
            self.stats.worker_leaks += 1
            warnings.warn(
                f"master thread {t.name!r} did not exit within its join "
                "timeout and was abandoned (daemon)",
                WorkerLeakWarning,
                stacklevel=3,
            )
            if self.sched.observing:
                self.sched.record("worker-leak", None, -1, thread=t.name)

    def _publish_metrics(self) -> None:
        """Fold end-of-run counters into the metrics registry."""
        assert self.metrics is not None
        for ch in self.channels:
            ch.publish_metrics(self.metrics)
        self.metrics.counter("master.faults_recovered").inc(self.stats.faults_recovered)
        self.metrics.counter("master.stale_results").inc(self.stats.stale_results)
        self.metrics.counter("master.speculative_redispatches").inc(
            self.stats.speculative_redispatches
        )
        self.metrics.counter("master.blacklisted_workers").inc(
            len(self.stats.blacklisted_workers)
        )
        self.metrics.counter("master.worker_leaks").inc(self.stats.worker_leaks)
        for worker_id, n in sorted(self.stats.tasks_per_worker.items()):
            self.metrics.counter("master.tasks_completed", worker=worker_id).inc(n)
        if self._digest_on:
            # Integrity counters exist only when integrity is on, so the
            # disabled path stays metric-free (zero-cost invariant).
            self.metrics.counter("integrity.digests_verified").inc(self._digests_verified)
            self.stats.publish_integrity(self.metrics)

    # -- per-slave worker thread (Fig 9 steps d-f) ------------------------------------

    def _prepare_assign(self, worker_id: int, block: bool):
        """Pop one eligible task and build its fully-dressed TaskAssign.

        "Fully dressed" means everything a single dispatch gets: a fresh
        registration epoch, the queue-wait/assign records, the overtime
        entry, the lease, the extracted inputs, and the content digest —
        batching amortizes only the envelope, never the semantics.

        Returns the assign; None when no task is currently eligible
        (``block=False`` polls, ``block=True`` waits for work or close);
        or :data:`_RETIRED` when the worker was retired during the pop.
        """
        task_id = self._stack.pop_eligible(
            worker_id, self.policy, timeout=None if block else 0
        )
        if task_id is None:
            return None
        epoch = self._register.register(task_id, worker_id, self.clock.now())
        if worker_id in self.core.retired:
            # Retired while we were popping: registering first and
            # re-checking closes the race with the eviction scan —
            # whichever side wins the cancel re-queues the task exactly
            # once, and this worker never runs it (the
            # no-commit-after-blacklist invariant).
            if self._register.cancel(task_id, epoch):
                self._stack.push(task_id)
            return _RETIRED
        if self.sched.enabled:
            self.core.assigned(
                task_id, epoch, worker_id, self.clock.now(), self._ready_at.pop(task_id, None)
            )
        with self._state_lock:
            inputs = self.problem.extract_inputs(self.state, self.partition, task_id)
        self._overtime.push(
            OvertimeEntry(
                deadline=self.clock.now() + self.task_timeout,
                task_id=task_id,
                epoch=epoch,
            )
        )
        lease = 0.0
        if self._lease_duration is not None:
            lease = self._lease_duration
            self._leases.grant(task_id, epoch, worker_id, self.clock.now(), lease)
        return TaskAssign(
            task_id=task_id,
            epoch=epoch,
            inputs=inputs,
            lease=lease,
            digest=(
                self.sched.digest(inputs, task_id, epoch, worker_id, "assign")
                if self._digest_on
                else None
            ),
        )

    def _unwind_assign(self, assign: TaskAssign) -> None:
        """Undo one prepared-but-never-sent assign (mid-gather retirement):
        cancel its registration, drop its lease, and re-queue the task
        budget-free — the task did nothing wrong, its wave fell apart."""
        if not self.core.cancel_exempt(assign.task_id, assign.epoch):
            return
        self._leases.drop(assign.task_id, assign.epoch)
        self._stack.push(assign.task_id)

    def _gather_wave(self, worker_id: int, first: TaskAssign):
        """Grow one dispatch into a whole computable wave (``batch_wave``).

        Non-blocking pops drain whatever is computable *right now*, up to
        ``max_batch`` — the anti-diagonal the DAG currently exposes to
        this worker. Returns a BatchAssign (single-task waves still ship
        as a batch so the wire shape is knob-determined, not size-
        determined), or None when the worker was retired mid-gather and
        the whole wave was unwound.
        """
        t0 = self.clock.now() if self.sched.observing else 0.0
        assigns = [first]
        while len(assigns) < self.max_batch:
            nxt = self._prepare_assign(worker_id, block=False)
            if nxt is None:
                break
            if nxt is _RETIRED:
                for a in assigns:
                    self._unwind_assign(a)
                return None
            assigns.append(nxt)
        if self.sched.observing:
            t1 = self.clock.now()
            self.sched.record(
                "batch-assemble", None, -1, worker_id,
                ts=t1, t0=t0, t1=t1, n_tasks=len(assigns),
            )
        return BatchAssign(assigns=tuple(assigns))

    def _serve_slave(self, worker_id: int) -> None:
        channel = self.channels[worker_id]
        ended = False
        while not (self._end.is_set() and ended):
            try:
                msg = channel.recv(timeout=self.poll_interval)
            except ChannelTimeout:
                if self._end.is_set():
                    # The slave is quiet (possibly hung); deliver the end
                    # signal on our way out so a live slave can exit.
                    self._try_send_end(channel)
                    return
                continue
            except ChannelClosed:
                return
            now = self.clock.now()
            self.core.heard(worker_id, now)
            if self._lease_duration is not None:
                # Any message from a worker proves liveness: renew every
                # lease it holds (heartbeats are just the guaranteed-
                # periodic case of this).
                self._leases.renew_worker(worker_id, now, self._lease_duration)
            if isinstance(msg, Heartbeat):
                if self.sched.observing:
                    self.sched.record("heartbeat", msg.task_id, msg.epoch, worker_id)
                continue
            if isinstance(msg, WorkerLeave):
                # Elastic departure: retire the worker, re-queue its
                # in-flight work budget-free, and let it exit cleanly.
                self._apply(self.core.worker_left(worker_id))
                self._try_send_end(channel)
                ended = True
                continue
            if isinstance(msg, IdleSignal):
                if worker_id in self.core.retired:
                    # Retired worker: no further assignments; let it exit.
                    self._try_send_end(channel)
                    ended = True
                    continue
                if any(
                    reg.worker_id == worker_id
                    for _, reg in self._register.live_snapshot()
                ):
                    # Duplicate idle announcement (slaves re-announce when
                    # a reply is slow or lost) while this worker still owns
                    # a live dispatch. Admitting it would backlog the
                    # worker and turn one slow reply into a timeout storm;
                    # swallow it instead — either the dispatch resolves or
                    # the overtime check cancels it, and the next
                    # announcement is admitted.
                    continue
                first = self._prepare_assign(worker_id, block=True)
                if first is None or first is _RETIRED:
                    # Pool closed (end of schedule) or the worker retired
                    # mid-pop; either way this worker gets no more work.
                    self._try_send_end(channel)
                    ended = True
                    continue
                outgoing = (
                    self._gather_wave(worker_id, first) if self.batch_wave else first
                )
                if outgoing is None:
                    # Retired mid-gather; the whole wave was unwound.
                    self._try_send_end(channel)
                    ended = True
                    continue
                self._last_progress = self.clock.now()
                try:
                    channel.send(outgoing)
                except ChannelClosed:
                    return
                if self.sched.observing:
                    parts = (
                        outgoing.assigns
                        if isinstance(outgoing, BatchAssign)
                        else (outgoing,)
                    )
                    for a in parts:
                        self.sched.record(
                            "send", a.task_id, a.epoch, worker_id,
                            nbytes=message_nbytes(a),
                        )
            elif isinstance(msg, BatchResult):
                for part in msg.results:
                    if not self._handle_result(part, worker_id):
                        return
            elif isinstance(msg, TaskResult):
                if not self._handle_result(msg, worker_id):
                    return

    def _handle_result(self, msg: TaskResult, worker_id: int) -> bool:
        """Verify and buffer one TaskResult (possibly one element of a
        BatchResult envelope — identical semantics either way). Returns
        False when the run was aborted by a budget-exhausted reject."""
        if (
            self._digest_on
            and msg.digest is not None
            and self.sched.digest(
                msg.outputs, msg.task_id, msg.epoch, worker_id, "verify"
            ) != msg.digest
        ):
            # The payload no longer matches the digest the slave
            # stamped: in-transit corruption. Reject the result
            # and re-queue the task — never merge corrupt data
            # into state. The retry is charged like a timeout, so
            # a link that corrupts the same task every time ends
            # in a clean budget-exhausted abort, not a livelock.
            with self._results_lock:
                self.stats.digest_rejects += 1
            if self.sched.observing:
                self.sched.record(
                    "digest-reject", msg.task_id, msg.epoch, worker_id,
                    hop="result",
                )
            acts = self.core.rejected(msg.task_id, msg.epoch)
            return acts is None or self._apply(acts)
        if self.core.accept(msg.task_id, msg.epoch, worker_id):
            self._leases.drop(msg.task_id, msg.epoch)
            if self.sched.observing:
                # The compute span is synthesized on the master's
                # clock from the slave-reported duration, so the
                # same events exist whether the slave was a thread
                # or a separate OS process.
                now = self.sched.now()
                self.sched.record(
                    "compute",
                    msg.task_id,
                    msg.epoch,
                    node=worker_id,
                    ts=now,
                    t0=now - max(0.0, msg.elapsed),
                    t1=now,
                )
                self.sched.record(
                    "result",
                    msg.task_id,
                    msg.epoch,
                    worker_id,
                    nbytes=message_nbytes(msg),
                    elapsed=msg.elapsed,
                )
            with self._results_lock:
                if self._digest_on and msg.digest is not None:
                    self._digests_verified += 1
                self._result_buffer[msg.task_id] = (
                    msg.outputs,
                    msg.epoch,
                    worker_id,
                    msg.digest if self._digest_on else None,
                )
            self._finished.push(msg.task_id)
            self._last_progress = self.clock.now()
            self._durations.append(max(0.0, msg.elapsed))
            self.stats.tasks_per_worker[worker_id] = (
                self.stats.tasks_per_worker.get(worker_id, 0) + 1
            )
        else:
            self.stats.stale_results += 1
        return True

    def _try_send_end(self, channel: Channel) -> None:
        try:
            channel.send(EndSignal())
        except ChannelClosed:
            pass

    # -- fault-tolerance thread (Fig 10) ------------------------------------------------

    def _abort(self, exc: BaseException) -> None:
        """Record a fatal failure and wake every blocked thread."""
        if isinstance(exc, FaultToleranceExhausted) and exc.job_id is None:
            exc.job_id = self.job_id
        if self.sched.observing:
            self.sched.record(
                "abort", None, -1,
                reason=str(exc)[:300],
                exc_type=type(exc).__name__,
                job_id=self.job_id,
            )
        self._failure.append(exc)
        self._end.set()
        self._stack.close()
        self._finished.close()

    def request_abort(self, reason: str) -> bool:
        """Cancel the run from outside the scheduling threads.

        The serve daemon's deadline watchdog and ``repro cancel`` use
        this: the run ends in a clean, attributed
        :class:`FaultToleranceExhausted` raised out of :meth:`run` — the
        same contract as an exhausted retry budget, never a hang and
        never a half-merged state (the scheduling thread observes
        ``_failure`` before its next commit). Returns False when the run
        had already ended (or aborted) — cancelling a finished run is a
        no-op, not an error.
        """
        if self._end.is_set() or self._failure:
            return False
        self._abort(FaultToleranceExhausted(reason, job_id=self.job_id))
        return True

    def _fault_tolerance(self) -> None:
        # (ready_at, tiebreak, task_id) re-dispatches held by backoff.
        # Only this thread touches the heap, so no lock is needed.
        pending: List[Tuple[float, int, TaskId]] = []
        seq = 0
        while not self._end.is_set():
            now = self.clock.now()
            while pending and pending[0][0] <= now:
                self._stack.push(heapq.heappop(pending)[2])
            leases = self._leases.expired(now) if self._lease_duration is not None else ()
            expired = [(lease.task_id, lease.epoch, True) for lease in leases]
            expired += [(e.task_id, e.epoch, False) for e in self._overtime.due(now)]
            for task_id, epoch, lease in expired:
                acts = self.core.timed_out(task_id, epoch, now, lease=lease)
                if acts is None:
                    continue  # finished/cancelled already; lazy removal
                for delay, delayed in acts.delayed:
                    seq += 1
                    heapq.heappush(pending, (now + delay, seq, delayed))
                if not self._apply(acts):
                    return
            if self.speculate:
                self._scan_stragglers(now)
            if (
                not pending
                and len(self._register) == 0
                and now - self._last_progress > self.stall_timeout
            ):
                # Nothing live, nothing queued for retry, and nothing has
                # moved for a whole stall window: every worker is presumed
                # lost. Abort cleanly instead of hanging.
                self._abort(
                    FaultToleranceExhausted(
                        f"no scheduling progress for {self.stall_timeout:.1f}s "
                        "with no live dispatches (all workers presumed lost)"
                    )
                )
                return
            time.sleep(self.poll_interval)

    # -- elastic membership -----------------------------------------------------

    def attach_worker(self, channel: Channel) -> int:
        """Join a new worker mid-run (elastic membership); returns its id.

        Only dynamic-family policies accept joiners — static wavefront
        policies fixed their column ownership at construction and a new
        worker would own nothing. The new worker is served by its own
        service thread, joins the admission flow like any other slave, and
        is joined/accounted at teardown with the founding workers.
        """
        if not getattr(self.policy, "elastic", False):
            raise SchedulerError(
                f"policy {self.policy.name!r} is static; mid-run worker "
                "join requires a dynamic-family policy"
            )
        with self._membership_lock:
            if self._end.is_set():
                raise SchedulerError("cannot attach a worker: the run is over")
            worker_id = len(self.channels)
            self.channels.append(channel)
            # Int assignment is GIL-atomic; eligibility checks racing this
            # see either the old or new count, both consistent.
            self.policy.n_workers = worker_id + 1
            self.core.n_workers = worker_id + 1
            thread = threading.Thread(
                target=self._serve_slave, args=(worker_id,), daemon=True,
                name=f"master-worker{worker_id}",
            )
            self._extra_threads.append(thread)
        self.stats.workers_joined += 1
        if self.sched.observing:
            self.sched.record("worker-join", None, -1, worker_id)
        thread.start()
        return worker_id

    def _scan_stragglers(self, now: float) -> None:
        """Speculative re-dispatch: cancel live dispatches that have aged
        past a multiple of the observed duration quantile and re-queue
        them immediately (at most once per task; never charged against the
        retry budget)."""
        durations = self._durations
        if len(durations) < 8:
            return  # not enough signal for a stable quantile yet
        cutoff = max(
            self.speculative_factor
            * float(np.quantile(np.asarray(durations, dtype=float), self.speculative_quantile)),
            10.0 * self.poll_interval,
        )
        for task_id, reg in self._register.live_snapshot():
            if task_id in self._speculated:
                continue
            age = now - reg.registered_at
            if age <= cutoff or not self.core.cancel_exempt(
                task_id, reg.epoch, "speculate", reg.worker_id, age=age
            ):
                continue
            self._leases.drop(task_id, reg.epoch)
            self._release_blocks(task_id)
            self._speculated.add(task_id)
            self.stats.speculative_redispatches += 1
            self._stack.push(task_id)
