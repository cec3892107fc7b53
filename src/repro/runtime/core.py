"""The master's decision core: one state machine under every backend.

The paper's master part (Figs 9-10) is a register table, a computable
stack and a fault-tolerance loop. Its decisions live here, once, in
:class:`MasterCore`: stale-epoch drops; commits (journal write-ahead,
then the state merge, then the run-digest fold, then the checkpoint
trigger); the budgeted requeue with its capped exponential backoff;
blacklisting (never the last worker, never one heard from within a task
timeout); deferred audits and quarantine; taint invalidation of a
convicted block's committed dependent closure; and journal replay.

The backends are shells that keep only their clocks and I/O (see
``docs/fault_tolerance.md``). The core takes events — result arrived,
dispatch timed out, worker failed or left, audit verdict — and returns
:class:`Actions`. It reads no clock (time is an argument), holds no
channel and no thread, and records its events through the shell's
:class:`~repro.obs.schedule.ScheduleTracer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.comm.messages import TaskId
from repro.dag.parser import DAGParser
from repro.dag.pattern import DAGPattern
from repro.integrity import IntegrityPolicy, fold_commit, run_digest_hex
from repro.obs.schedule import ScheduleTracer
from repro.runtime.worker_pool import RegisterTable
from repro.utils.errors import FaultToleranceExhausted


@dataclass
class CoreStats:
    """Counters of the decisions the core made (shells extend this)."""

    faults_recovered: int = 0
    #: Workers retired for exceeding the failure threshold, in order.
    blacklisted_workers: List[int] = field(default_factory=list)
    #: Workers retired for divergent results (SDC quarantine), in order.
    quarantined_workers: List[int] = field(default_factory=list)
    #: Compacted journal checkpoints written during the run.
    checkpoints: int = 0
    #: Sub-tasks skipped on resume because the journal already held them.
    resumed_commits: int = 0
    #: Dispatches cancelled because their liveness lease expired.
    lease_expirations: int = 0
    #: Workers that left cleanly mid-run (WorkerLeave).
    workers_left: int = 0
    #: Sampled audit recomputes that matched the committed outputs.
    audits_passed: int = 0
    #: Sampled audit recomputes that convicted a committed block.
    audits_convicted: int = 0
    #: Commits revoked for recompute by taint invalidation (closures
    #: included — one conviction may revoke many commits).
    tainted_recomputes: int = 0
    #: Results whose payload failed receive-side digest verification.
    digest_rejects: int = 0
    #: Votes recorded in ``integrity='vote'`` mode (arbiter included).
    votes_cast: int = 0
    #: Vote rounds that ended without a strict majority and escalated.
    vote_divergences: int = 0

    def publish_integrity(self, metrics: Any) -> None:
        """Fold the integrity counters into ``metrics`` (callers do this
        only with integrity on, so the disabled path stays metric-free)."""
        for name in (
            "digest_rejects", "audits_passed", "audits_convicted",
            "tainted_recomputes", "votes_cast", "vote_divergences",
        ):
            metrics.counter(f"integrity.{name}").inc(getattr(self, name))
        metrics.counter("integrity.quarantined_workers").inc(
            len(self.quarantined_workers)
        )


@dataclass
class Actions:
    """What the shell must do after one event."""

    #: Tasks to put back on offer now, in order.
    ready: List[TaskId] = field(default_factory=list)
    #: ``(delay, task)`` re-dispatches held back by the retry backoff.
    delayed: List[Tuple[float, TaskId]] = field(default_factory=list)
    #: ``(task, epoch)`` live dispatches the core cancelled; the shell
    #: drops whatever it attached to them (leases, shm segments).
    cancelled: List[Tuple[TaskId, int]] = field(default_factory=list)
    #: Workers retired by this event (blacklist or quarantine).
    retired: List[int] = field(default_factory=list)
    #: Commits a taint invalidation revoked, in topological order;
    #: queued work computed from any of them is stale.
    invalidated: List[TaskId] = field(default_factory=list)
    #: Set when the run must end cleanly; the shell raises it.
    abort: Optional[FaultToleranceExhausted] = None


class MasterCore:
    """The master's commit / requeue / integrity state machine.

    ``merge(task_id, outputs)`` folds a committed result into the shell's
    state and ``snapshot()`` copies it for a checkpoint (both None in the
    simulator, which keeps no values). ``n_workers`` is what retirement
    is measured against; shells grow it on a mid-run join.
    """

    #: Commits an enqueued audit waits for before running, so convicted
    #: blocks usually have committed dependents and the taint closure is
    #: exercised. Audits still drain fully before the run ends.
    AUDIT_LAG = 4

    def __init__(
        self,
        pattern: DAGPattern,
        *,
        n_workers: int,
        sched: ScheduleTracer,
        max_retries: int = 3,
        task_timeout: float = 30.0,
        retry_backoff: float = 0.0,
        retry_backoff_max: float = 2.0,
        blacklist_threshold: Optional[int] = None,
        integrity: Optional[IntegrityPolicy] = None,
        fold_digests: bool = False,
        journal: Any = None,
        merge: Optional[Callable[[TaskId, Any], None]] = None,
        snapshot: Optional[Callable[[], Any]] = None,
        committed: Optional[Dict[TaskId, int]] = None,
        attempts: Optional[Dict[TaskId, int]] = None,
        run_digest: Optional[str] = None,
        commit_digests: Optional[Dict[TaskId, Optional[str]]] = None,
        stats: Optional[CoreStats] = None,
    ) -> None:
        self.pattern = pattern
        self.n_workers = n_workers
        self.sched = sched
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.blacklist_threshold = blacklist_threshold
        self.integrity = integrity if integrity is not None else IntegrityPolicy("off")
        self.fold_digests = fold_digests
        self.journal = journal
        self.merge = merge
        self.snapshot = snapshot
        self.stats = stats if stats is not None else CoreStats()

        self.parser = DAGParser(pattern)
        #: Live dispatches and per-task dispatch counts (epochs).
        self.register = RegisterTable()
        if attempts:
            # Retry budgets continue across a crash: epochs must outpace
            # any result a surviving slave still holds from before it.
            self.register.prime(attempts)
        #: task -> epoch of every commit of this run: those recovered from
        #: a journal (replayed by :meth:`replay`) plus the live ones.
        self.committed: Dict[TaskId, int] = dict(committed) if committed else {}
        #: Per-task count of cancels that do NOT charge the retry budget
        #: (speculation, retirement evictions, taint, vote solicitation):
        #: the exhaustion check uses ``attempts - exempt``.
        self.budget_exempt: Dict[TaskId, int] = {}

        #: Rolling run digest: an order-independent fold over every live
        #: commit's ``(task_id, outputs digest)``, continued from the
        #: journal on resume.
        self.run_digest_acc: int = int(run_digest, 16) if run_digest else 0
        #: task -> outputs digest of every folded commit, needed to fold
        #: a taint invalidation back *out* and persisted in checkpoints.
        self.commit_digests: Dict[TaskId, Optional[str]] = (
            dict(commit_digests) if commit_digests else {}
        )
        self.commit_count = 0
        #: Deferred audits: ``(commit_count, task, epoch, worker, outputs)``.
        self.audit_pending: List[tuple] = []
        #: Per-worker count of convicted divergences.
        self.divergence: Dict[int, int] = {}
        self.quarantined: Set[int] = set()
        #: Per-worker count of attributed dispatch failures.
        self.worker_failures: Dict[int, int] = {}
        self.blacklisted: Set[int] = set()
        self.left: Set[int] = set()
        #: blacklisted | left | quarantined — workers that get no work.
        self.retired: Set[int] = set()
        #: Last time each worker was heard from (kept only when a
        #: blacklist threshold is set — it is the blacklist's liveness
        #: oracle and nothing else reads it).
        self.last_heard: Dict[int, float] = {}

        bind_rescue = getattr(journal, "bind_rescue", None)
        if bind_rescue is not None:
            # ``journal_degrade="checkpoint"``: a failed record write may
            # be rescued by compacting around a full checkpoint.
            bind_rescue(self.checkpoint)

    # -- resume ------------------------------------------------------------------

    def replay(self, now: float) -> None:
        """Prime the DAG parser (and the happens-before trace) with the
        commits recovered from the journal; call before any live commit.

        The committed set is downward-closed — a task only commits after
        its predecessors — so completing it in topological order never
        hits a blocked vertex. The trace gets synthetic commit records
        (the telemetry stream does NOT: resume invariants distinguish
        journaled commits from live ones) so the validator sees resumed
        tasks' dependencies as satisfied.
        """
        prior = self.committed
        if not prior:
            return
        trace = self.sched.trace
        for task_id in self.pattern.topological_order():
            if task_id in prior:
                self.parser.complete(task_id)
                if trace is not None:
                    trace.record("commit", task_id, prior[task_id], -1, now)
        self.stats.resumed_commits = len(prior)
        if self.sched.observing:
            self.sched.record("resume", None, -1, n_committed=len(prior))

    # -- dispatch and results -----------------------------------------------------

    def assigned(
        self,
        task_id: TaskId,
        epoch: int,
        worker_id: int,
        now: float,
        ready_at: Optional[float] = None,
    ) -> None:
        """Record a registered dispatch, preceded by its ``queue-wait``
        span when the task sat ready since ``ready_at``."""
        if ready_at is not None and self.sched.observing:
            self.sched.record(
                "queue-wait", task_id, epoch, worker_id, ts=now, t0=ready_at, t1=now
            )
        self.sched.record("assign", task_id, epoch, worker_id, ts=now)

    def accept(self, task_id: TaskId, epoch: int, worker_id: int) -> bool:
        """A result arrived: True when its dispatch is live at ``epoch``
        (deregistered, ready to commit); False for a stale epoch, which
        is dropped — the register-table check of Fig 9 step h."""
        if self.register.finish(task_id, epoch):
            return True
        if self.sched.enabled:
            self.sched.record("stale-drop", task_id, epoch, worker_id)
        return False

    def commit(
        self,
        task_id: TaskId,
        epoch: int,
        worker_id: int,
        outputs: Any = None,
        digest: Optional[str] = None,
    ) -> List[TaskId]:
        """Commit one accepted result; returns the tasks it made ready."""
        if self.journal is not None:
            # Write-ahead: the record lands (and fsyncs) before the merge,
            # so a crash between the two replays this commit.
            self.journal.commit(task_id, epoch, outputs, digest=digest)
        if self.merge is not None:
            self.merge(task_id, outputs)
        self.committed[task_id] = epoch
        if self.fold_digests:
            self.run_digest_acc = fold_commit(self.run_digest_acc, task_id, digest)
            self.commit_digests[task_id] = digest
        if self.sched.enabled:
            # Recorded before the successors are released, so their
            # "assign" always serializes after this commit.
            self.sched.record("commit", task_id, epoch, worker_id)
        self.commit_count += 1
        if self.integrity.should_audit(task_id):
            self.audit_pending.append(
                (self.commit_count, task_id, epoch, worker_id, outputs)
            )
        ready = self.parser.complete(task_id)
        if self.journal is not None and self.journal.should_checkpoint():
            self.checkpoint()
        return ready

    def checkpoint(self) -> int:
        """Compact the journal around the committed state; returns bytes."""
        nbytes = self.journal.checkpoint(
            self.snapshot() if self.snapshot is not None else None,
            self.committed,
            self.register.attempts_snapshot(),
            run_digest=self.run_digest,
            commit_digests=dict(self.commit_digests) if self.fold_digests else None,
        )
        self.stats.checkpoints += 1
        return nbytes

    def finish(self) -> None:
        """Mark the journal complete (resume becomes a pure replay)."""
        if self.journal is not None:
            self.journal.end(run_digest=self.run_digest)

    @property
    def run_digest(self) -> Optional[str]:
        """Hex run digest; None when digests are not folded."""
        return run_digest_hex(self.run_digest_acc) if self.fold_digests else None

    @property
    def done(self) -> bool:
        return self.parser.is_done()

    def inputs_committed(self, task_id: TaskId) -> bool:
        """Whether every predecessor of ``task_id`` is committed (queued
        work failing this was computed from revoked data)."""
        return all(p in self.committed for p in self.pattern.predecessors(task_id))

    # -- budgeted requeue ----------------------------------------------------------

    def _charge(
        self, task_id: TaskId, epoch: int, acts: Actions, what: str, backoff: bool
    ) -> None:
        """Charge one cancelled dispatch to the retry budget: requeue
        (after a backoff delay when ``backoff``) or abort."""
        charged = self.register.attempts(task_id) - self.budget_exempt.get(task_id, 0)
        if charged > self.max_retries + 1:
            acts.abort = FaultToleranceExhausted(
                f"sub-task {task_id} {what} {charged} budgeted dispatches"
            )
            return
        self.stats.faults_recovered += 1
        if self.sched.enabled:
            self.sched.record("redistribute", task_id, epoch)
        delay = 0.0
        if backoff and self.retry_backoff > 0:
            # Exponential in the charged count, capped.
            delay = min(
                self.retry_backoff * 2.0 ** max(0, charged - 1), self.retry_backoff_max
            )
        if delay > 0:
            if self.sched.observing:
                self.sched.record("backoff", task_id, epoch, delay=delay)
            acts.delayed.append((delay, task_id))
        else:
            acts.ready.append(task_id)

    def timed_out(
        self, task_id: TaskId, epoch: int, now: float, *, lease: bool = False
    ) -> Optional[Actions]:
        """A dispatch missed its deadline (``lease``: its liveness lease
        expired). None when it already finished or was cancelled."""
        reg = self.register.cancel(task_id, epoch)
        if reg is None:
            return None
        acts = Actions(cancelled=[(task_id, epoch)])
        if lease:
            self.stats.lease_expirations += 1
            if self.sched.observing:
                self.sched.record("lease-expired", task_id, epoch, reg.worker_id)
        self.worker_failed(reg.worker_id, now, acts)
        self._charge(task_id, epoch, acts, "failed", backoff=True)
        return acts

    def rejected(self, task_id: TaskId, epoch: int) -> Optional[Actions]:
        """A result failed receive-side digest verification: cancel and
        requeue at once on the charged budget, so a link corrupting the
        same task forever aborts instead of livelocking. None when the
        epoch was already stale."""
        if self.register.cancel(task_id, epoch) is None:
            return None
        acts = Actions(cancelled=[(task_id, epoch)])
        self._charge(
            task_id, epoch, acts, "rejected for digest mismatch on", backoff=False
        )
        return acts

    def cancel_exempt(
        self,
        task_id: TaskId,
        epoch: int,
        kind: str = "redistribute",
        worker_id: int = -1,
        **data: object,
    ) -> bool:
        """Cancel a live dispatch without charging the retry budget (the
        task did nothing wrong). False when it was no longer live."""
        if self.register.cancel(task_id, epoch) is None:
            return False
        self.exempt(task_id, epoch, kind, worker_id, **data)
        return True

    def exempt(
        self,
        task_id: TaskId,
        epoch: int,
        kind: str = "redistribute",
        worker_id: int = -1,
        **data: object,
    ) -> None:
        """Mark one re-dispatch of ``task_id`` budget-free."""
        self.budget_exempt[task_id] = self.budget_exempt.get(task_id, 0) + 1
        if self.sched.enabled:
            self.sched.record(kind, task_id, epoch, worker_id, **data)

    def _evict(self, worker_id: int, acts: Actions) -> None:
        """Cancel and requeue, budget-free, every live dispatch a retiring
        worker holds; late replies then hit a stale epoch."""
        for task_id, reg in self.register.live_snapshot():
            if reg.worker_id != worker_id or not self.cancel_exempt(task_id, reg.epoch):
                continue
            self.stats.faults_recovered += 1
            acts.cancelled.append((task_id, reg.epoch))
            acts.ready.append(task_id)

    # -- worker liveness ------------------------------------------------------------

    def heard(self, worker_id: int, now: float) -> None:
        """Any message from ``worker_id`` proves it alive at ``now``."""
        if self.blacklist_threshold is not None:
            self.last_heard[worker_id] = now

    def worker_failed(
        self, worker_id: int, now: float, acts: Optional[Actions] = None
    ) -> Actions:
        """Attribute one dispatch failure to ``worker_id``; blacklist past
        the threshold — never the last healthy worker (graceful
        degradation) and never one heard from within a task timeout (its
        timeouts are message loss, not death)."""
        acts = acts if acts is not None else Actions()
        if self.blacklist_threshold is None:
            return acts
        n = self.worker_failures.get(worker_id, 0) + 1
        self.worker_failures[worker_id] = n
        if (
            n < self.blacklist_threshold
            or worker_id in self.blacklisted
            or worker_id in self.left
        ):
            return acts
        if self.n_workers - len(self.blacklisted) - len(self.left) <= 1:
            return acts  # degradation floor: keep the last worker
        heard = self.last_heard.get(worker_id)
        if heard is not None and now - heard < self.task_timeout:
            return acts  # alive and reachable; persistent silence trips later
        self.blacklisted.add(worker_id)
        self.retired.add(worker_id)
        self.stats.blacklisted_workers.append(worker_id)
        acts.retired.append(worker_id)
        if self.sched.observing:
            self.sched.record("blacklist", None, -1, worker_id, failures=n)
        self._evict(worker_id, acts)
        return acts

    def worker_left(self, worker_id: int) -> Actions:
        """A worker announced a clean departure (elastic membership)."""
        acts = Actions()
        if worker_id in self.left:
            return acts
        self.left.add(worker_id)
        self.retired.add(worker_id)
        self.stats.workers_left += 1
        if self.sched.observing:
            self.sched.record("worker-leave", None, -1, worker_id)
        self._evict(worker_id, acts)
        return acts

    # -- integrity: audits, convictions, quarantine, taint ---------------------------

    def next_audit(self, force: bool) -> Optional[tuple]:
        """Pop the next due audit ``(task, epoch, worker, outputs)`` —
        one old enough, or any when ``force`` — skipping commits an
        earlier conviction's closure already revoked."""
        while self.audit_pending:
            stamped, task_id, epoch, worker_id, outputs = self.audit_pending[0]
            if not force and self.commit_count - stamped < self.AUDIT_LAG:
                return None
            self.audit_pending.pop(0)
            if self.committed.get(task_id) == epoch:
                return task_id, epoch, worker_id, outputs
        return None

    def audited(
        self, task_id: TaskId, epoch: int, worker_id: int, ok: bool
    ) -> Optional[Actions]:
        """Record an audit verdict; a conviction returns its actions."""
        if ok:
            self.stats.audits_passed += 1
            if self.sched.observing:
                self.sched.record("audit-pass", task_id, epoch, worker_id)
            return None
        self.stats.audits_convicted += 1
        if self.sched.observing:
            self.sched.record("audit-convict", task_id, epoch, worker_id)
        return self.convict(task_id, worker_id)

    def convict(self, task_id: TaskId, worker_id: int) -> Actions:
        """A committed block is proven wrong: revoke it and its committed
        dependent closure, and count the divergence against its worker."""
        acts = Actions()
        self._invalidate(task_id, acts)
        return self.diverged(worker_id, acts)

    def diverged(self, worker_id: int, acts: Optional[Actions] = None) -> Actions:
        """Attribute one convicted divergence (a conviction or a losing
        vote); quarantine past the threshold. No degradation floor here —
        a lying last worker is strictly worse than a clean abort."""
        acts = acts if acts is not None else Actions()
        if worker_id < 0:
            return acts  # the master's own arbiter/audit recompute
        n = self.divergence.get(worker_id, 0) + 1
        self.divergence[worker_id] = n
        if worker_id in self.quarantined or n < self.integrity.quarantine_threshold:
            return acts
        self.quarantined.add(worker_id)
        self.retired.add(worker_id)
        self.stats.quarantined_workers.append(worker_id)
        acts.retired.append(worker_id)
        if self.sched.observing:
            self.sched.record("quarantine", None, -1, worker_id, divergences=n)
        self._evict(worker_id, acts)
        if len(self.retired) >= self.n_workers:
            acts.abort = FaultToleranceExhausted(
                "every worker quarantined for divergent results "
                f"(last: worker {worker_id} after {n} convictions)"
            )
        return acts

    def _invalidate(self, root: TaskId, acts: Actions) -> None:
        """Revoke ``root`` and its committed dependent closure.

        Durable first: the journal's invalidation record lands before any
        in-memory rewind, so a crash mid-taint resumes post-invalidation.
        Live dispatches computed from a revoked block are cancelled
        budget-free; the parser re-opens the region and the recompute
        frontier comes back in ``acts.ready``.
        """
        pattern = self.pattern
        tainted = {root}
        frontier = [root]
        while frontier:
            vid = frontier.pop()
            for succ in pattern.successors(vid):
                if succ not in tainted and succ in self.committed:
                    tainted.add(succ)
                    frontier.append(succ)
        order = [vid for vid in pattern.topological_order() if vid in tainted]
        if self.journal is not None:
            self.journal.invalidate(order)
        for vid in order:
            epoch = self.committed.pop(vid)
            self.stats.tainted_recomputes += 1
            if self.fold_digests:
                # XOR the revoked commit back out of the run digest.
                self.run_digest_acc = fold_commit(
                    self.run_digest_acc, vid, self.commit_digests.pop(vid, None)
                )
            if self.sched.observing:
                self.sched.record(
                    "taint-invalidate", vid, epoch, root=repr(root), n_tainted=len(order)
                )
        for task_id, reg in self.register.live_snapshot():
            if any(p in tainted for p in pattern.predecessors(task_id)) and (
                self.cancel_exempt(task_id, reg.epoch)
            ):
                acts.cancelled.append((task_id, reg.epoch))
        acts.invalidated.extend(order)
        acts.ready.extend(self.parser.invalidate(order))
