"""The shared scheduling-trace helper used by master and slave parts.

Before this module existed, ``runtime/master.py`` and
``runtime/slave.py`` each carried their own copy of the same three
blocks: build a :class:`~repro.check.trace_check.TraceRecorder` when
verifying, stamp every event with a hardcoded ``time.monotonic()``, and
run the ``check_trace(...).raise_if_failed()`` epilogue. A
:class:`ScheduleTracer` owns all three behind one ``record``/``check``
pair, with the clock injected — so the identical instrumentation records
wall-time on the real backends and sim-time on the simulated one.

One ``record`` call fans out to both consumers:

- the happens-before validator's :class:`TraceRecorder` (when
  ``verify`` is on) for the kinds it understands;
- the :mod:`repro.obs` event stream (when observing) for every kind,
  carrying the richer lifecycle taxonomy (``send``, ``compute``,
  ``result``, byte counts, span extents).
"""

from __future__ import annotations

from typing import Optional

from repro.check.trace_check import EVENT_KINDS, TraceRecorder, check_trace
from repro.comm.messages import TaskId
from repro.comm.serialization import content_digest
from repro.dag.pattern import DAGPattern
from repro.obs.clock import Clock, ensure_clock
from repro.obs.recorder import NULL_RECORDER, EventRecorder

#: obs kind -> validator kind, for kinds both understand.
_CHECK_KINDS = frozenset(EVENT_KINDS)


class ScheduleTracer:
    """Clock-injected scheduling instrumentation for one DAG level."""

    __slots__ = ("clock", "verify", "trace", "obs", "node", "scope")

    def __init__(
        self,
        *,
        clock: Optional[Clock] = None,
        verify: bool = False,
        trace: Optional[TraceRecorder] = None,
        obs: Optional[EventRecorder] = None,
        node: int = -1,
        scope: str = "task",
    ) -> None:
        self.clock = ensure_clock(clock)
        self.verify = verify
        #: Happens-before trace for :func:`check_trace`. Always present
        #: when verifying; callers may inject a shared recorder to merge
        #: traces across components.
        self.trace = trace if trace is not None else (TraceRecorder() if verify else None)
        #: Telemetry event stream; the shared null recorder when off.
        self.obs = obs if obs is not None else NULL_RECORDER
        self.node = node
        self.scope = scope

    # -- hot path --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any consumer wants events (guards arg building)."""
        return self.trace is not None or self.obs.enabled

    @property
    def observing(self) -> bool:
        """True when the telemetry stream is live (guards obs-only work,
        e.g. byte accounting for ``send``/``result`` events)."""
        return self.obs.enabled

    def now(self) -> float:
        return self.clock.now()

    def record(
        self,
        kind: str,
        task_id: TaskId,
        epoch: int,
        worker: int = -1,
        *,
        node: Optional[int] = None,
        ts: Optional[float] = None,
        **data: object,
    ) -> None:
        """Record one scheduling event in both consumers.

        ``node`` overrides the tracer's home node for events describing
        work elsewhere (the master synthesizing a slave's compute span);
        ``ts`` overrides the clock stamp (the simulator records reserved
        future spans).
        """
        stamp = self.clock.now() if ts is None else ts
        if self.trace is not None and kind in _CHECK_KINDS:
            self.trace.record(kind, task_id, epoch, worker, stamp)
        if self.obs.enabled:
            self.obs.emit(
                kind,
                task_id,
                epoch=epoch,
                node=self.node if node is None else node,
                worker=worker,
                scope=self.scope,
                ts=stamp,
                **data,
            )

    def digest(self, payload, task_id: TaskId, epoch: int, worker: int, hop: str) -> str:
        """``content_digest(payload)``, recorded as a ``digest-compute``
        span labelled ``hop`` when observing."""
        if not self.observing:
            return content_digest(payload)
        t0 = self.clock.now()
        digest = content_digest(payload)
        t1 = self.clock.now()
        self.record("digest-compute", task_id, epoch, worker, ts=t1, t0=t0, t1=t1, hop=hop)
        return digest

    def timed(self, journal):
        """``journal`` wrapped so its writes record ``journal-write`` and
        ``checkpoint`` spans on this tracer's clock (unchanged when not
        observing or when there is no journal)."""
        if journal is None or not self.observing:
            return journal
        return _TimedJournal(journal, self)

    # -- epilogue --------------------------------------------------------------

    def check(self, pattern: DAGPattern, title: str) -> None:
        """Run the happens-before validator when verifying (raises
        :class:`~repro.utils.errors.CheckError` on violations)."""
        if self.verify and self.trace is not None:
            check_trace(self.trace.events(), pattern, title=title).raise_if_failed()

    def __repr__(self) -> str:
        return (
            f"ScheduleTracer(scope={self.scope!r}, node={self.node}, "
            f"verify={self.verify}, observing={self.observing})"
        )


class _TimedJournal:
    """Commit-journal proxy that times its record writes (see
    :meth:`ScheduleTracer.timed`); everything else passes through."""

    __slots__ = ("_journal", "_sched")

    def __init__(self, journal, sched: ScheduleTracer) -> None:
        self._journal = journal
        self._sched = sched

    def commit(self, task_id: TaskId, epoch: int, outputs, digest=None) -> int:
        t0 = self._sched.now()
        nbytes = self._journal.commit(task_id, epoch, outputs, digest=digest)
        t1 = self._sched.now()
        self._sched.record(
            "journal-write", task_id, epoch, ts=t1, t0=t0, t1=t1, nbytes=nbytes
        )
        return nbytes

    def checkpoint(self, state, committed, attempts, **kw) -> int:
        t0 = self._sched.now()
        nbytes = self._journal.checkpoint(state, committed, attempts, **kw)
        t1 = self._sched.now()
        self._sched.record(
            "checkpoint", None, -1, ts=t1, t0=t0, t1=t1,
            n_committed=len(committed), nbytes=nbytes,
        )
        return nbytes

    def __getattr__(self, name: str):
        return getattr(self._journal, name)
