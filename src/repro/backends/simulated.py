"""Simulated backend: the two-level EasyHPS schedule on a modeled cluster.

This backend replays the paper's experiments without Tianhe-1A. Every
master decision — stale drops, commits, budgeted requeues, blacklist,
audits, quarantine, taint invalidation, journal replay — is made by the
same :class:`~repro.runtime.core.MasterCore` the real backends ship; the
simulator supplies only the clock (a discrete-event queue) and the
modelled costs around it:

- a sub-task's compute time is the makespan of its thread-level DAG under
  the node's computing threads (:func:`simulate_level`), charged from the
  algorithm's ``region_flops`` and the node's contention-aware rate;
- every master<->slave message occupies both endpoints' NICs for
  ``latency + bytes/bandwidth``;
- the master serializes a per-dispatch overhead, each journal write
  ``journal_latency`` and each audit recompute one inner makespan, and
  each node handles one dispatch (or batched wave) at a time.

Determinism: all decisions depend only on event order, which the event
queue makes reproducible. Inner makespans are memoized on (pattern,
cost-signature, threads), which collapses the many identical blocks of a
regular DP grid.

Faults are modelled in sim-time: a "crash" costs the node half the
compute and never answers, a "hang" occupies it for twice the timeout;
message faults hit the modelled transfers, worker faults kill, slow or
corrupt whole nodes. A run that can no longer finish (every node dead)
ends in a clean :class:`FaultToleranceExhausted` — the event queue
drains, so the simulator cannot hang. Speculation is not modelled:
stragglers are deterministic and the plain timeout recovers them.

Silent data corruption is modeled as *taint*: the simulator computes no
cell values, so it tracks which commits would be wrong instead. A live
dispatch becomes tainted by an undetected message mutation (``corrupt``
with digests off, ``bitflip`` always — its digest is restamped) or by a
lying node past its ``lie_point``; a commit whose predecessor commit is
tainted inherits the taint ("garbage in"). The modelled verdicts feed
the core: an audit convicts exactly the own-fault taints (it recomputes
from committed inputs, so inherited taint passes — hence the closure
invalidation), and voting is modelled as full-coverage divergence
detection at ``(vote_k - 1)`` extra round trips per commit. Taint that
survives to the end is counted in ``sim.undetected_corruptions`` — the
simulator's omniscient stand-in for a wrong answer, which chaos
campaigns classify on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.cluster.machine import NodeSpec
from repro.cluster.simcore import EventQueue
from repro.cluster.topology import ClusterSpec
from repro.comm.messages import TaskId
from repro.comm.serialization import MESSAGE_ENVELOPE_BYTES
from repro.dag.parser import DAGParser
from repro.dag.partition import Partition
from repro.dag.pattern import DAGPattern
from repro.obs import EventRecorder, MetricsRegistry, ScheduleTracer, to_gantt_trace
from repro.runtime.config import RunConfig
from repro.runtime.core import Actions, MasterCore
from repro.schedulers.policy import SchedulingPolicy, make_policy
from repro.utils.errors import FaultToleranceExhausted, SchedulerError


def simulate_level(
    pattern: DAGPattern,
    costs: Dict[TaskId, float],
    n_workers: int,
    policy: SchedulingPolicy,
    overhead: float = 0.0,
) -> Tuple[float, float, float]:
    """Event-driven list schedule of one DAG level.

    Returns ``(makespan, busy_time, idle_while_ready)``: total schedule
    length, summed worker busy seconds, and summed worker-seconds spent
    idle while at least one ready task existed that the worker's policy
    forbade (zero under the dynamic policy by construction).
    """
    import heapq

    parser = DAGParser(pattern)
    ready: List[TaskId] = list(parser.computable())
    idle_workers: List[int] = list(range(n_workers))
    running: List[Tuple[float, int, TaskId]] = []  # (finish, worker, task)
    now = 0.0
    busy = 0.0
    idle_while_ready = 0.0

    def assign() -> None:
        nonlocal busy
        # Scan order is the policy's business: LIFO over the computable
        # stack by default, cost-ordered for dynamic-lcf.
        w = 0
        while w < len(idle_workers):
            worker = idle_workers[w]
            idx = policy.select_index(worker, ready)
            picked: Optional[TaskId] = None if idx is None else ready.pop(idx)
            if picked is None:
                w += 1
                continue
            idle_workers.pop(w)
            duration = costs[picked] + overhead
            busy += duration
            heapq.heappush(running, (now + duration, worker, picked))

    assign()
    while running:
        finish, worker, task = heapq.heappop(running)
        if ready and idle_workers:
            # Workers idling next to ready-but-ineligible tasks: the
            # static schedulers' pathology, accounted per interval.
            idle_while_ready += len(idle_workers) * (finish - now)
        now = finish
        idle_workers.append(worker)
        idle_workers.sort()
        ready.extend(parser.complete(task))
        assign()
    if not parser.is_done():
        raise SchedulerError(
            f"level schedule stalled with {parser.n_remaining} tasks left "
            f"(policy {policy.name!r} starved a task)"
        )
    return now, busy, idle_while_ready


@dataclass
class _Node:
    """Runtime state of one simulated computing node."""

    spec: NodeSpec
    nic_free: float = 0.0
    busy_until: float = 0.0
    parked_since: Optional[float] = None
    tasks_done: int = 0
    #: Prefetched-but-not-yet-computing task (prefetch mode):
    #: (bid, epoch, transfer_done).
    pending: Optional[Tuple[TaskId, int, float]] = None
    #: Permanently out of service (worker death, blacklist, quarantine).
    dead: bool = False
    #: Per-node message counters keying the message-fault plan.
    sent_index: int = 0
    recv_index: int = 0
    #: Whether the slow-node fault was already reported for this node.
    slow_noted: bool = False


class _ModelledJournal:
    """The run's commit journal, charged in sim-time: each write is real
    (``repro resume`` works on simulated runs) and occupies the master
    CPU for ``journal_latency``, recorded as a modelled span."""

    __slots__ = ("_journal", "_run")

    def __init__(self, journal, run: "_SimulatedRun") -> None:
        self._journal = journal
        self._run = run

    def _charge(self, kind: Optional[str], task_id, start: float, **data) -> None:
        run = self._run
        run.master_cpu_free = start + run.config.journal_latency
        if kind is not None and run.obs is not None:
            run.obs.emit(
                kind, task_id, node=-1, scope="task",
                t0=start, t1=run.master_cpu_free, **data,
            )

    def commit(self, task_id: TaskId, epoch: int, outputs, digest=None) -> int:
        nbytes = self._journal.commit(task_id, epoch, outputs, digest=digest)
        start = max(self._run.master_cpu_free, self._run.evq.now)
        self._charge("journal-write", task_id, start, epoch=epoch, nbytes=nbytes)
        return nbytes

    def checkpoint(self, state, committed, attempts, **kw) -> int:
        nbytes = self._journal.checkpoint(state, committed, attempts, **kw)
        self._charge(
            "checkpoint", None, self._run.master_cpu_free,
            n_committed=len(committed), nbytes=nbytes,
        )
        return nbytes

    def invalidate(self, task_ids) -> None:
        self._journal.invalidate(task_ids)
        self._charge(None, None, max(self._run.master_cpu_free, self._run.evq.now))

    def __getattr__(self, name: str):
        return getattr(self._journal, name)


class _SimulatedRun:
    """One end-to-end simulated schedule."""

    #: The decision core class (the explorer's seeded defects swap it).
    core_class = MasterCore

    def __init__(
        self,
        problem: DPProblem,
        config: RunConfig,
        resume=None,
        evq: Optional[EventQueue] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        proc_size, thread_size = config.partitions_for(problem)
        self.partition: Partition = problem.build_partition(proc_size)
        self.thread_size = thread_size
        self.cluster: ClusterSpec = config.cluster_spec()
        #: Per-node sets of completed task ids (affinity + cache model).
        self.node_done: List[set] = [set() for _ in self.cluster.compute_nodes]
        if config.scheduler == "dynamic-affinity":
            from repro.schedulers.policy import AffinityDynamicPolicy

            self.policy: SchedulingPolicy = AffinityDynamicPolicy(
                self.cluster.n_compute_nodes,
                neighbor_fn=self.partition.abstract.predecessors,
                history={k: s for k, s in enumerate(self.node_done)},
            )
        else:
            self.policy = make_policy(
                config.scheduler,
                self.cluster.n_compute_nodes,
                self.partition.grid.n_block_cols,
                block_cols=config.bcw_block_cols,
                cost_fn=lambda bid: problem.block_flops(self.partition, bid),
            )
        self.thread_policy_name = config.thread_scheduler

        #: Injectable for model checking: ``repro.check.explore`` passes a
        #: :class:`~repro.cluster.simcore.ControlledEventQueue` to
        #: enumerate message-delivery orders. Every event scheduled below
        #: carries a structural label for that purpose.
        self.evq = evq if evq is not None else EventQueue()
        self.nodes = [_Node(spec=s) for s in self.cluster.compute_nodes]
        self.master_nic_free = 0.0
        self.master_cpu_free = 0.0

        self._inner_memo: Dict[tuple, Tuple[float, float]] = {}
        self.makespan = 0.0
        self.busy_thread_seconds = 0.0
        self.n_subtasks = 0
        self.messages = 0
        self.bytes_to_slaves = 0
        self.bytes_to_master = 0
        self.idle_while_ready = 0.0
        self._last_account = 0.0
        self.failure: Optional[BaseException] = None
        #: Injected chaos faults (message, worker and task level).
        self.faults_injected = 0
        #: SDC model: live (bid, epoch) dispatches that would return wrong
        #: values and commits that are wrong. The simulator computes no
        #: cell values, so corruption is tracked as taint.
        self.integrity = config.integrity_policy
        self.live_taint: Dict[Tuple[TaskId, int], str] = {}
        self.tainted_commits: Dict[TaskId, str] = {}
        #: Telemetry stream stamped with *sim-time* (the event queue's
        #: clock) so exported traces draw the modeled schedule, and the
        #: happens-before log validated after the run (``verify``) — both
        #: behind the shared :class:`ScheduleTracer`.
        self.obs: Optional[EventRecorder] = (
            EventRecorder(self.evq.clock()) if config.observing else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.observing else None
        )
        self.sched = ScheduleTracer(
            clock=self.evq.clock(),
            verify=config.verify,
            obs=self.obs,
            node=-1,
            scope="task",
        )
        from repro.backends.threads import open_journal

        #: The write-ahead journal (None when journaling is off). The
        #: simulator checkpoints no DP state — it computes no cells — just
        #: the committed set and retry budgets.
        self.journal = open_journal(config, problem, resume, obs=self.obs)
        #: The master's decisions: the same core the real backends run.
        self.core: MasterCore = self.core_class(
            self.partition.abstract,
            n_workers=len(self.nodes),
            sched=self.sched,
            max_retries=config.max_retries,
            task_timeout=config.task_timeout,
            retry_backoff=config.retry_backoff,
            retry_backoff_max=config.retry_backoff_max,
            blacklist_threshold=config.blacklist_threshold,
            integrity=self.integrity,
            journal=(
                _ModelledJournal(self.journal, self) if self.journal is not None else None
            ),
            committed=resume.committed if resume is not None else None,
            attempts=resume.attempts if resume is not None else None,
        )
        self.core.replay(self.evq.now)
        self.ready: List[TaskId] = list(self.core.parser.computable())
        #: task -> sim-time when it became dispatchable; consumed at
        #: assign time for the ``queue-wait`` span. Only kept while
        #: observing so the disabled path stays allocation-free.
        self.ready_at: Dict[TaskId, float] = (
            {bid: self.evq.now for bid in self.ready} if self.obs is not None else {}
        )

    # -- cost helpers ----------------------------------------------------------

    def _inner(self, bid: TaskId, node: NodeSpec) -> Tuple[float, float, int]:
        """(compute_seconds, busy_thread_seconds, n_subtasks) of one sub-task.

        Memoized per (block cost class, node spec, thread policy): two
        blocks with identical shape and per-cell cost profile schedule
        identically, which collapses a regular grid's thousands of blocks
        into a handful of thread-level simulations.
        """
        t = node.threads
        key = (
            self.problem.block_cost_class(self.partition, bid),
            t,
            node.flops_per_second,
            node.contention,
            round(node.task_overhead, 12),
            self.thread_policy_name,
        )
        cached = self._inner_memo.get(key)
        if cached is not None:
            return cached
        inner = self.partition.sub_partition(bid, self.thread_size)
        costs: Dict[TaskId, float] = {}
        # Conservative model: all t threads contend while the node works.
        rate = node.flops_per_second * node.thread_efficiency(t)
        for sub in inner.abstract.vertices():
            lr, lc = inner.block_ranges(sub)
            costs[sub] = self.problem.subblock_flops(self.partition, bid, lr, lc) / rate
        policy = make_policy(self.thread_policy_name, t, inner.grid.n_block_cols)
        makespan, busy, _ = simulate_level(
            inner.abstract, costs, t, policy, overhead=node.task_overhead
        )
        result = (makespan, busy, inner.n_blocks)
        self._inner_memo[key] = result
        return result

    # -- accounting ---------------------------------------------------------------

    def _account(self) -> None:
        """Accumulate parked-while-ready time since the previous event."""
        now = self.evq.now
        dt = now - self._last_account
        if dt > 0 and self.ready:
            parked = sum(1 for n in self.nodes if n.parked_since is not None)
            self.idle_while_ready += parked * dt
        self._last_account = now

    # -- protocol events -----------------------------------------------------------

    def _note_msg_fault(
        self, kind: str, bid: TaskId, epoch: int, k: int, mtype: str
    ) -> None:
        self.faults_injected += 1
        if self.obs is not None:
            self.obs.emit(
                f"msg-{kind}", bid, epoch=epoch, node=k, scope="message",
                type=mtype, endpoint=f"node{k}",
            )

    def _node_idle(self, k: int) -> None:
        self._account()
        node = self.nodes[k]
        if node.dead:
            return
        death_point = self.config.worker_fault_plan.death_point(k)
        if death_point is not None and node.tasks_done >= death_point:
            # Worker-level fault: the node goes permanently silent between
            # tasks. Its live registrations (if any) time out and
            # redistribute; all nodes dead ends in a clean abort.
            self.faults_injected += 1
            node.dead, node.parked_since = True, None
            if self.obs is not None:
                self.obs.emit(
                    "worker-death", None, node=k, worker=k, scope="task",
                    after_tasks=death_point,
                )
            return
        # The idle announcement reaches the master: the node is alive.
        self.core.heard(k, self.evq.now)
        if node.pending is not None:
            # Promote the prefetched task (its input already transferred).
            bid, epoch, xfer_done = node.pending
            node.pending = None
            node.parked_since = None
            if self.core.register.is_registered(bid, epoch):
                self._begin_compute(k, [(bid, epoch)], max(self.evq.now, xfer_done))
                self._try_prefetch(k)
                return
            # Cancelled (timed out) while waiting: fall through to fresh work.
        wave: List[TaskId] = []
        while len(wave) < (self.config.max_batch if self.config.batch_wave else 1):
            idx = self.policy.select_index(k, self.ready)
            if idx is None:
                break
            wave.append(self.ready.pop(idx))
        if not wave:
            node.parked_since = self.evq.now
            return
        node.parked_since = None
        self._dispatch(k, wave)
        self._try_prefetch(k)

    def _reserve(self, k: int, wave: List[TaskId]) -> Tuple[List[Tuple[TaskId, int]], float]:
        """Register each dispatch of ``wave`` (its own epoch and overtime
        watch) and reserve ONE input transfer for the whole envelope;
        returns the ``(task, epoch)`` parts and the transfer's end.

        With ``batch_wave`` the wave is one BatchAssign: only the
        link-model α term (one envelope, one master dispatch overhead,
        2 messages instead of 2 per task) is amortized.
        """
        now = self.evq.now
        node = self.nodes[k]
        parts: List[Tuple[TaskId, int]] = []
        in_each: List[int] = []
        for bid in wave:
            epoch = self.core.register.register(bid, k, now)
            parts.append((bid, epoch))
            if self.sched.enabled:
                self.core.assigned(bid, epoch, k, now, self.ready_at.pop(bid, None))
            if self.config.data_reuse:
                nb = self.problem.cached_input_bytes(self.partition, bid, self.node_done[k])
            else:
                nb = self.problem.input_bytes(self.partition, bid)
            in_each.append(nb)
            # Overtime watch (Fig 10): fires relative to dispatch time.
            self.evq.at(
                now + self.config.task_timeout,
                lambda bid=bid, epoch=epoch: self._timeout(bid, epoch),
                label=("timeout", bid, epoch),
            )
        in_bytes = MESSAGE_ENVELOPE_BYTES + sum(in_each)
        self.master_cpu_free = max(self.master_cpu_free, now) + self.cluster.master_overhead
        start = max(self.master_cpu_free, self.master_nic_free, node.nic_free)
        xfer = self.cluster.link.transfer_time(in_bytes)
        self.master_nic_free = start + xfer
        node.nic_free = start + xfer
        self.messages += 2  # idle signal + assignment
        self.bytes_to_slaves += in_bytes
        if self.sched.observing:
            # The input transfer occupies [start, start + xfer) on the
            # link — recorded as a reserved span in sim-time.
            if self.config.batch_wave:
                self.sched.record(
                    "batch-assemble", None, -1, k, node=k, ts=now,
                    t0=now, t1=now, n_tasks=len(parts),
                )
            for (bid, epoch), nb in zip(parts, in_each):
                self.sched.record(
                    "send", bid, epoch, k, node=k, ts=start, t0=start, t1=start + xfer,
                    nbytes=nb if self.config.batch_wave else in_bytes,
                )
        return parts, start + xfer

    def _dispatch(self, k: int, wave: List[TaskId]) -> None:
        parts, xfer_done = self._reserve(k, wave)
        node = self.nodes[k]
        mtype = "BatchAssign" if self.config.batch_wave else "TaskAssign"
        rule = None
        if self.config.message_fault_plan:
            rule = self.config.message_fault_plan.decide(
                "send", mtype, wave[0], node.sent_index, endpoint=k
            )
            node.sent_index += 1
        if rule is not None:
            bid0, ep0 = parts[0]
            self._note_msg_fault(rule.kind, bid0, ep0, k, mtype)
            if rule.kind == "corrupt" and self.integrity.digest_on:
                # The slave verifies per-subtask digests and rejects only
                # the mutated element; the rest of the wave computes.
                if self.obs is not None:
                    self.obs.emit(
                        "digest-reject", bid0, epoch=ep0, node=k,
                        scope="message", hop="assign",
                    )
                parts = parts[1:]
            elif rule.kind in ("corrupt", "bitflip"):
                # Undetected input mutation: ``corrupt`` with digests off
                # is consumed unverified; ``bitflip`` restamps a
                # self-consistent digest either way. The node computes on
                # garbage — its result will be wrong.
                self.live_taint[(bid0, ep0)] = f"assign-{rule.kind}"
            if rule.kind == "drop" or not parts:
                # Nothing left to compute: the node stays free (idle again
                # once the wasted transfer slot passes) and every lost
                # registration rides the overtime check to redistribution.
                self.evq.at(xfer_done, lambda k=k: self._node_idle(k), label=("idle", k))
                return
            if rule.kind == "delay":
                xfer_done += rule.delay
            elif rule.kind == "duplicate":
                # The slave computes the copy too, but its second result
                # is epoch-stale; one extra message models it.
                self.messages += 1
        self._begin_compute(k, parts, xfer_done)

    def _try_prefetch(self, k: int) -> None:
        """Overlap the next task's transfer with the running compute
        (one-deep, prefetch mode only; batching already ships the whole
        computable wave at once, so the two modes do not compose)."""
        if not self.config.prefetch or self.config.batch_wave:
            return
        node = self.nodes[k]
        if node.pending is not None or node.busy_until <= self.evq.now:
            return
        idx = self.policy.select_index(k, self.ready)
        if idx is None:
            return
        parts, xfer_done = self._reserve(k, [self.ready.pop(idx)])
        node.pending = (*parts[0], xfer_done)

    def _begin_compute(
        self, k: int, parts: List[Tuple[TaskId, int]], compute_start: float
    ) -> None:
        """Sequentially compute one assigned wave (per-subtask faults): a
        "crash" costs half the compute and never answers, a "hang"
        occupies the node for twice the timeout; either way that element
        rides the overtime check while the rest of the wave computes."""
        node = self.nodes[k]
        slow = self.config.worker_fault_plan.slow_factor(k)
        t = compute_start
        survivors: List[Tuple[TaskId, int]] = []
        for bid, epoch in parts:
            fault = self.config.fault_plan.lookup(bid, epoch)
            compute, busy, nsub = self._inner(bid, node.spec)
            compute += self.cluster.slave_overhead
            if slow > 1.0:
                compute *= slow
                if not node.slow_noted:
                    node.slow_noted = True
                    self.faults_injected += 1
                    if self.obs is not None:
                        self.obs.emit(
                            "worker-slow", bid, epoch=epoch, node=k, worker=k,
                            scope="task", factor=slow,
                        )
            if fault is not None and fault.kind == "crash":
                t += 0.5 * compute
                continue
            if fault is not None and fault.kind == "hang":
                t += 2.0 * self.config.task_timeout
                continue
            if self.sched.observing:
                self.sched.record(
                    "compute", bid, epoch, k, node=k, ts=t + compute,
                    t0=t, t1=t + compute,
                )
            t += compute
            self.busy_thread_seconds += busy
            self.n_subtasks += nsub
            survivors.append((bid, epoch))
        node.busy_until = t
        if not survivors:
            self.evq.at(t, lambda k=k: self._node_idle(k), label=("idle", k))
            return
        # NIC reservation for the result transfer happens when compute
        # finishes, not now — reserving a future slot at dispatch time
        # would wrongly serialize every other node's input transfer
        # behind this task.
        bid0, ep0 = survivors[0]
        self.evq.at(
            t,
            lambda: self._computed(k, survivors),
            label=("wave-done", k, bid0, ep0)
            if self.config.batch_wave
            else ("compute-done", bid0, ep0, k),
        )

    def _computed(self, k: int, parts: List[Tuple[TaskId, int]]) -> None:
        """Compute finished on node ``k``: ship the results back in ONE
        envelope (Fig 11 g/h)."""
        self._account()
        node = self.nodes[k]
        bid0, ep0 = parts[0]
        lie_point = self.config.worker_fault_plan.lie_point(k)
        if lie_point is not None and node.tasks_done >= lie_point:
            # The lying node perturbs its outputs *before* digesting, so
            # every result stays self-consistent on the wire — only audit
            # or vote can convict it.
            self.faults_injected += 1
            for bid, epoch in parts:
                self.live_taint[(bid, epoch)] = "worker-liar"
            if self.obs is not None:
                self.obs.emit(
                    "worker-liar", bid0, epoch=ep0, node=k, worker=k,
                    scope="task", after_tasks=lie_point,
                )
        out_bytes = MESSAGE_ENVELOPE_BYTES + sum(
            self.problem.output_bytes(self.partition, bid) for bid, _ in parts
        )
        send_start = max(self.evq.now, node.nic_free, self.master_nic_free)
        out_xfer = self.cluster.link.transfer_time(out_bytes)
        node.nic_free = send_start + out_xfer
        self.master_nic_free = send_start + out_xfer
        node.busy_until = send_start + out_xfer
        self.messages += 1
        self.bytes_to_master += out_bytes
        arrive = send_start + out_xfer
        reject: Optional[Tuple[TaskId, int]] = None
        mtype = "BatchResult" if self.config.batch_wave else "TaskResult"
        rule = None
        if self.config.message_fault_plan:
            rule = self.config.message_fault_plan.decide(
                "recv", mtype, bid0, node.recv_index, endpoint=k
            )
            node.recv_index += 1
        if rule is not None:
            self._note_msg_fault(rule.kind, bid0, ep0, k, mtype)
            if rule.kind == "drop":
                # The envelope never reaches the master: every element
                # rides the overtime check while the node serves on.
                self.evq.at(arrive, lambda k=k: self._node_idle(k), label=("idle", k))
                return
            if rule.kind == "corrupt":
                if self.integrity.digest_on:
                    # The master verifies per-subtask digests: the mutated
                    # element is rejected (charged requeue at once, no
                    # overtime wait), the rest commits normally.
                    reject = parts[0]
                    parts = parts[1:]
                else:
                    self.live_taint[(bid0, ep0)] = "result-corrupt"
            elif rule.kind == "bitflip":
                self.live_taint[(bid0, ep0)] = "result-bitflip"
            if rule.kind == "delay":
                arrive += rule.delay
            elif rule.kind == "duplicate":
                self.messages += 1
                if not self.config.batch_wave:
                    # The echo lands epoch-stale (batch echoes are
                    # element-wise stale and not modelled).
                    self.evq.at(
                        arrive,
                        lambda: self._result_echo(bid0, ep0, k),
                        label=("result-echo", bid0, ep0, k),
                    )
        if self.config.batch_wave:
            label: tuple = ("batch-result", k, parts[0][0] if parts else None)
        else:
            label = ("digest-reject" if reject else "result", bid0, ep0, k)
        self.evq.at(arrive, lambda: self._arrival(k, parts, reject), label=label)

    def _arrival(
        self,
        k: int,
        parts: List[Tuple[TaskId, int]],
        reject: Optional[Tuple[TaskId, int]] = None,
    ) -> None:
        """The result envelope landed: commit every element, then the
        node serves on (also after a stale drop)."""
        self._account()
        if reject is not None:
            # The master rejects the result whose digest went stale.
            self.core.stats.digest_rejects += 1
            if self.obs is not None:
                self.obs.emit(
                    "digest-reject", reject[0], epoch=reject[1], node=k,
                    scope="message", hop="result",
                )
            self._apply(self.core.rejected(*reject))
        for bid, epoch in parts:
            self._commit_result(bid, epoch, k)
        self._node_idle(k)

    def _result_echo(self, bid: TaskId, epoch: int, k: int) -> None:
        """The second copy of a duplicated result: always epoch-stale by
        the time it lands (the first copy deregistered the task)."""
        if not self.core.register.is_registered(bid, epoch) and self.sched.enabled:
            self.sched.record("stale-drop", bid, epoch, k, node=k)

    def _commit_result(self, bid: TaskId, epoch: int, k: int) -> None:
        """Land one result at the master: stale-drop, or commit through
        the core plus the taint model, integrity checks and ready-wake.
        Shared between the single-result path and a batch arrival; the
        caller idles the node afterwards."""
        if not self.core.accept(bid, epoch, k):
            return
        taint = self.live_taint.pop((bid, epoch), None)
        if taint is None:
            for p in self.partition.abstract.predecessors(bid):
                if p in self.tainted_commits:
                    taint = "inherited"  # computed from wrong inputs
                    break
        if self.sched.observing:
            out_bytes = (
                self.problem.output_bytes(self.partition, bid) + MESSAGE_ENVELOPE_BYTES
            )
            self.sched.record("result", bid, epoch, k, node=k, nbytes=out_bytes)
        fresh = self.core.commit(bid, epoch, k)
        self.nodes[k].tasks_done += 1
        self.node_done[k].add(bid)
        self.makespan = max(self.makespan, self.evq.now)
        if taint is not None:
            self.tainted_commits[bid] = taint
        if fresh:
            self.ready.extend(fresh)
            if self.obs is not None:
                for nb in fresh:
                    self.ready_at[nb] = self.evq.now
        self._integrity_check(bid, epoch, k, taint)
        if self.ready:
            self._wake()

    # -- integrity (SDC model) ----------------------------------------------------

    def _integrity_check(self, bid: TaskId, epoch: int, k: int, taint) -> None:
        """Model the master's post-commit SDC defenses on one commit
        (both convict exactly the own-fault taints)."""
        pol = self.integrity
        if pol.vote_on:
            # Vote model: ``vote_k`` replicas from distinct nodes, paid as
            # (vote_k - 1) extra assign/result round trips per commit;
            # replicas disagree exactly when this result is own-fault
            # wrong. (The real master's escalation-to-arbiter dance is
            # collapsed into the divergence verdict.)
            self.messages += 2 * (pol.vote_k - 1)
            self.core.stats.votes_cast += pol.vote_k
            if taint is not None and taint != "inherited":
                self.core.stats.vote_divergences += 1
                if self.obs is not None:
                    self.obs.emit(
                        "vote-divergence", bid, epoch=epoch, node=k,
                        worker=k, scope="task",
                    )
                self._apply(self.core.convict(bid, k))
        elif pol.audit_on:
            self._run_due_audits()

    def _run_due_audits(self) -> None:
        """Run the core's due audits (all of them once the DAG is done).
        Each recompute occupies the master CPU for one inner makespan;
        the modelled verdict convicts exactly the own-fault taints."""
        force = self.core.done
        while self.failure is None:
            due = self.core.next_audit(force)
            if due is None:
                return
            bid, epoch, k, _ = due
            compute, _busy, _n = self._inner(bid, self.nodes[k].spec)
            self.master_cpu_free = max(self.master_cpu_free, self.evq.now) + compute
            taint = self.tainted_commits.get(bid)
            self._apply(
                self.core.audited(bid, epoch, k, taint is None or taint == "inherited")
            )

    # -- recovery --------------------------------------------------------------------

    def _timeout(self, bid: TaskId, epoch: int) -> None:
        self._account()
        self._apply(self.core.timed_out(bid, epoch, self.evq.now))

    def _apply(self, acts: Optional[Actions]) -> None:
        """Carry out the core's verdict on one event in sim-time."""
        if acts is None:
            return
        for k in acts.retired:
            self.nodes[k].dead, self.nodes[k].parked_since = True, None
        for bid in acts.invalidated:
            self.tainted_commits.pop(bid, None)
        if acts.invalidated:
            # Queued tasks whose inputs were just revoked re-surface as
            # the closure recommits.
            self.ready = [t for t in self.ready if self.core.inputs_committed(t)]
        if acts.abort is not None:
            self.failure = acts.abort
        for delay, bid in acts.delayed:
            self.evq.at(
                self.evq.now + delay,
                lambda bid=bid: self._requeue([bid]),
                label=("requeue", bid),
            )
        if acts.ready:
            self._requeue(acts.ready)

    def _requeue(self, bids: List[TaskId]) -> None:
        """Put recovered sub-tasks back on offer and wake parked nodes."""
        self.ready.extend(bids)
        if self.obs is not None:
            for bid in bids:
                self.ready_at[bid] = self.evq.now
        self._wake()

    def _wake(self) -> None:
        for j, node in enumerate(self.nodes):
            if node.parked_since is not None:
                self._node_idle(j)
            else:
                self._try_prefetch(j)

    # -- driver -------------------------------------------------------------------------

    def execute(self) -> RunReport:
        import time as _time

        wall_start = _time.perf_counter()
        for k in range(len(self.nodes)):
            self.evq.at(0.0, lambda k=k: self._node_idle(k), label=("idle", k))
        try:
            self.evq.run()
            if self.failure is None and self.core.done:
                self.core.finish()
        finally:
            # MasterCrash (the journal kill switch) and abort paths both
            # land here; the journal file must survive for `repro resume`.
            if self.journal is not None:
                self.journal.close()
        if self.failure is not None:
            raise self.failure
        parser = self.core.parser
        if not parser.is_done():
            if any(n.dead for n in self.nodes):
                # Every path forward died with the nodes; the event queue
                # drained, which is the simulator's version of "no
                # progress" — abort cleanly, never silently stall.
                raise FaultToleranceExhausted(
                    f"simulation out of workers with {parser.n_remaining} "
                    f"sub-tasks left ({sum(1 for n in self.nodes if n.dead)} "
                    f"of {len(self.nodes)} nodes lost)"
                )
            raise SchedulerError(
                f"simulation stalled with {parser.n_remaining} sub-tasks left"
            )
        self.sched.check(self.partition.abstract, title=f"simulated-trace({self.problem.name})")
        stats = self.core.stats
        if self.metrics is not None:
            self.metrics.counter("sim.messages").inc(self.messages)
            self.metrics.counter("sim.bytes_to_slaves").inc(self.bytes_to_slaves)
            self.metrics.counter("sim.bytes_to_master").inc(self.bytes_to_master)
            self.metrics.counter("sim.faults_recovered").inc(stats.faults_recovered)
            for k, n in enumerate(self.nodes):
                self.metrics.counter("sim.tasks_completed", node=k).inc(n.tasks_done)
            self.metrics.gauge("sim.idle_while_ready").set(self.idle_while_ready)
            # Omniscient SDC verdict: taint that survived to the end is a
            # wrong answer the run never noticed. Emitted in the sim.*
            # namespace (not integrity.*) because the simulator knows it
            # even with integrity off — campaigns classify on it.
            self.metrics.counter("sim.undetected_corruptions").inc(
                len(self.tainted_commits)
            )
            if self.integrity.digest_on:
                stats.publish_integrity(self.metrics)
        wall = _time.perf_counter() - wall_start
        total_threads = self.cluster.total_computing_threads
        events = self.obs.events() if self.obs is not None else None
        return RunReport(
            backend="simulated",
            scheduler=self.config.scheduler,
            algorithm=self.problem.name,
            nodes=self.cluster.total_nodes,
            threads_per_node=max(s.threads for s in self.cluster.compute_nodes),
            makespan=self.makespan,
            wall_time=wall,
            n_tasks=self.partition.n_blocks,
            n_subtasks=self.n_subtasks,
            messages=self.messages,
            bytes_to_slaves=self.bytes_to_slaves,
            bytes_to_master=self.bytes_to_master,
            faults_recovered=stats.faults_recovered,
            tasks_per_worker={k: n.tasks_done for k, n in enumerate(self.nodes)},
            idle_while_ready=self.idle_while_ready,
            utilization=(
                self.busy_thread_seconds / (self.makespan * total_threads)
                if self.makespan > 0
                else 0.0
            ),
            total_flops=self.problem.total_flops(self.partition),
            total_cores=self.cluster.total_cores,
            blacklisted_workers=tuple(stats.blacklisted_workers),
            faults_injected=self.faults_injected,
            digest_rejects=stats.digest_rejects,
            audits_convicted=stats.audits_convicted,
            tainted_recomputes=stats.tainted_recomputes,
            quarantined_workers=tuple(stats.quarantined_workers),
            trace=to_gantt_trace(events) if self.config.trace and events is not None else None,
            events=events,
            metrics=self.metrics.snapshot() if self.metrics is not None else None,
        )


def run_simulated(
    problem: DPProblem, config: RunConfig, resume=None
) -> Tuple[None, RunReport]:
    """Simulate ``problem`` on ``config``'s cluster; no values are computed.

    ``resume`` replays a journal's committed prefix into the DAG parser
    (no state rebuild — the simulator computes no values) and continues
    the modeled schedule from the recovered frontier.
    """
    return None, _SimulatedRun(problem, config, resume).execute()


def simulated_serial_makespan(problem: DPProblem, config: RunConfig) -> float:
    """Simulated single-thread makespan of the same instance — the paper's
    speedup baseline (sequential program, no partitioning overheads)."""
    spec = config.cluster_spec().compute_nodes[0]
    pattern = problem.pattern()
    shape = getattr(pattern, "shape", None)
    if shape is not None:
        rows, cols = range(shape[0]), range(shape[1])
        flops = problem.region_flops(rows, cols)
    else:
        n = pattern.n  # triangular / chain
        flops = problem.region_flops(range(n), range(n), diagonal=True)
    return flops / spec.flops_per_second


def experiment_series(
    problem: DPProblem,
    nodes: int,
    cores: Sequence[int],
    **config_overrides,
) -> List[Tuple[int, RunReport]]:
    """Run ``Experiment_<nodes>_<Y>`` for each Y in ``cores``; skip
    infeasible Y (fewer computing threads than nodes)."""
    out: List[Tuple[int, RunReport]] = []
    for y in cores:
        try:
            config = RunConfig.experiment(nodes, y, **config_overrides)
        except Exception:
            continue
        _, report = run_simulated(problem, config)
        out.append((y, report))
    return out


def paper_core_range(nodes: int, max_ct: int = 11) -> List[int]:
    """The paper's Y values for X nodes: Y = 2X - 1 + ct * (X - 1), ct = 1..max_ct."""
    return [2 * nodes - 1 + ct * (nodes - 1) for ct in range(1, max_ct + 1)]
