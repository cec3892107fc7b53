"""The shared elastic worker fleet behind the serve daemon.

A fixed pool of long-lived worker threads serves *all* tenants' jobs:
the daemon acquires ``k`` idle workers for a launch, hands each an
assignment (typically "run this :class:`~repro.runtime.slave.SlavePart`
to end-of-run"), and the workers return themselves to the idle pool
when the assignment finishes. Idle workers can also be attached to an
*already running* job through :meth:`MasterPart.attach_worker` — the
elastic-membership path from the standalone runtime, now exercised
continuously by a multi-job daemon.

Fault isolation is the fleet's one hard rule: an assignment is executed
under ``except BaseException``, so a poisoned job — a slave crash, a
corrupt message, an injected fault that escapes the runtime — kills at
most its own assignment. The worker logs the crash, returns to the idle
pool, and the next tenant's job gets a healthy worker.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.check.lock_lint import make_condition
from repro.utils.errors import ConfigError

#: An assignment: a no-argument callable run to completion on the worker
#: thread. Return value is ignored; exceptions are contained.
Assignment = Callable[[], None]

#: Contained crashes kept in :attr:`WorkerFleet.crash_log` (oldest drop
#: first); :attr:`WorkerFleet.crashes` keeps the exact total.
CRASH_LOG_SIZE = 64


class _FleetWorker:
    """One long-lived worker thread and its hand-off slot."""

    def __init__(self, worker_id: int, fleet: "WorkerFleet") -> None:
        self.worker_id = worker_id
        self._fleet = fleet
        self._cond = make_condition("serve.fleet.worker")
        self._task: Optional[Assignment] = None
        self._label = ""
        self._stop = False
        self.assignments = 0
        self.crashes = 0
        self.thread = threading.Thread(
            target=self._loop, daemon=True, name=f"fleet-worker{worker_id}"
        )

    def assign(self, task: Assignment, label: str) -> None:
        with self._cond:
            if self._task is not None:
                raise ConfigError(
                    f"fleet worker {self.worker_id} already has an assignment "
                    f"({self._label!r})"
                )
            self._task = task
            self._label = label
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while self._task is None and not self._stop:
                    self._cond.wait(0.2)
                if self._task is None and self._stop:
                    return
                task, label = self._task, self._label
            try:
                assert task is not None
                task()
            except BaseException as exc:  # noqa: B036 — isolation boundary
                # The whole point of the fleet: a poisoned assignment is
                # recorded and contained, never allowed to take the
                # worker thread (and every later tenant's job) with it.
                self.crashes += 1
                self._fleet._note_crash(self.worker_id, label, exc)
            finally:
                self.assignments += 1
                with self._cond:
                    self._task = None
                    self._label = ""
                self._fleet._release(self.worker_id)


class WorkerFleet:
    """A bounded pool of reusable worker threads shared across jobs."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self._cond = make_condition("serve.fleet.idle")
        self._workers: List[_FleetWorker] = [_FleetWorker(i, self) for i in range(size)]
        self._idle: List[int] = list(range(size))
        self._busy_label: Dict[int, str] = {}
        self._stopped = False
        #: ``(worker_id, label, repr(exc))`` of the most recent contained
        #: crashes; bounded so a long-lived daemon's memory stays flat.
        self.crash_log: Deque[Tuple[int, str, str]] = deque(maxlen=CRASH_LOG_SIZE)
        #: Every contained crash since start (the log keeps only the tail).
        self.crashes = 0

    def start(self) -> None:
        for worker in self._workers:
            worker.thread.start()

    # -- allocation ------------------------------------------------------

    def acquire(self, count: int, timeout: float = 0.0) -> Optional[Tuple[int, ...]]:
        """Reserve up to ``count`` idle workers (at least one).

        Returns their ids, or None when no worker frees up within
        ``timeout``. Deliberately *degrades* rather than blocks: a job
        asking for more workers than are idle gets what exists now, so
        one wide job cannot wedge the queue behind it.
        """
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        with self._cond:
            if not self._idle and timeout > 0:
                self._cond.wait(timeout)
            if not self._idle or self._stopped:
                return None
            take = min(count, len(self._idle))
            ids = tuple(self._idle[:take])
            del self._idle[:take]
            return ids

    def assign(self, worker_id: int, task: Assignment, label: str = "") -> None:
        """Hand an acquired worker its assignment."""
        self._busy_label[worker_id] = label
        self._workers[worker_id].assign(task, label)

    def unreserve(self, worker_ids: Tuple[int, ...]) -> None:
        """Return acquired-but-never-assigned workers to the idle pool."""
        with self._cond:
            for worker_id in worker_ids:
                if worker_id not in self._idle:
                    self._idle.append(worker_id)
            self._cond.notify_all()

    def _release(self, worker_id: int) -> None:
        with self._cond:
            self._busy_label.pop(worker_id, None)
            self._idle.append(worker_id)
            self._cond.notify_all()

    def _note_crash(self, worker_id: int, label: str, exc: BaseException) -> None:
        with self._cond:
            self.crash_log.append((worker_id, label, repr(exc)))
            self.crashes += 1

    # -- introspection ---------------------------------------------------

    @property
    def idle_count(self) -> int:
        with self._cond:
            return len(self._idle)

    @property
    def busy(self) -> Dict[int, str]:
        with self._cond:
            return dict(self._busy_label)

    def wait_idle(self, timeout: float) -> bool:
        """Block until every worker is idle (all assignments done)."""
        deadline_budget = timeout
        with self._cond:
            while len(self._idle) < self.size:
                if deadline_budget <= 0:
                    return False
                step = min(0.2, deadline_budget)
                self._cond.wait(step)
                deadline_budget -= step
            return True

    # -- teardown --------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> int:
        """Stop all workers; returns how many threads failed to join.

        Assignments are not interrupted — the owner of each running job
        must release its slaves (stop event / end signal) first; this
        only tells idle loops to exit and joins the threads.
        """
        with self._cond:
            self._stopped = True
        for worker in self._workers:
            worker.stop()
        leaked = 0
        for worker in self._workers:
            if worker.thread.is_alive():
                worker.thread.join(timeout=timeout)
            if worker.thread.is_alive():
                leaked += 1
        return leaked
