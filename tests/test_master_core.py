"""The master's decision core as a plain object: no threads, no DES.

Every backend commits, requeues, retires workers and revokes taint
through :class:`~repro.runtime.core.MasterCore`; these table-driven
cases pin its verdicts directly, with time passed in by hand.
"""

import pytest

from repro.dag.library import WavefrontPattern
from repro.integrity import IntegrityPolicy
from repro.obs import EventRecorder, ScheduleTracer
from repro.obs.clock import ManualClock
from repro.runtime.core import MasterCore
from repro.utils.errors import FaultToleranceExhausted


def make_core(rows=3, cols=3, *, observe=True, row_reversed=False, **kw):
    recorder = EventRecorder(ManualClock()) if observe else None
    sched = ScheduleTracer(clock=ManualClock(), obs=recorder)
    kw.setdefault("n_workers", 3)
    pattern = WavefrontPattern(rows, cols, row_reversed=row_reversed)
    core = MasterCore(pattern, sched=sched, **kw)
    return core, recorder


def kinds(recorder, kind):
    return [e for e in recorder.events() if e.kind == kind]


def commit_all(core, digest=lambda t: f"d{t}"):
    """Commit every task in parser order, as a fault-free run would."""
    ready = list(core.parser.computable())
    while ready:
        task = ready.pop(0)
        epoch = core.register.register(task, 0)
        assert core.accept(task, epoch, 0)
        ready += core.commit(task, epoch, 0, None, digest(task))


class TestStaleEpoch:
    @pytest.mark.parametrize("stale", [1, 7, -1])
    def test_stale_epoch_is_dropped(self, stale):
        core, rec = make_core()
        epoch = core.register.register((0, 0), 0)
        assert not core.accept((0, 0), epoch + stale, 0)
        assert core.register.is_registered((0, 0), epoch)
        assert [(e.task_id, e.epoch) for e in kinds(rec, "stale-drop")] == [
            ((0, 0), epoch + stale)
        ]
        assert core.accept((0, 0), epoch, 0)

    def test_result_after_its_timeout_is_dropped(self):
        core, _ = make_core()
        epoch = core.register.register((0, 0), 0)
        assert core.timed_out((0, 0), epoch, now=1.0) is not None
        assert not core.accept((0, 0), epoch, 0)
        assert core.timed_out((0, 0), epoch, now=2.0) is None


class TestRetryBudget:
    @pytest.mark.parametrize("max_retries", [0, 1, 3])
    def test_aborts_on_the_max_retries_plus_2th_charged_dispatch(self, max_retries):
        core, _ = make_core(max_retries=max_retries)
        for dispatch in range(1, max_retries + 3):
            epoch = core.register.register((0, 0), 0)
            acts = core.timed_out((0, 0), epoch, now=float(dispatch))
            if dispatch < max_retries + 2:
                assert acts.abort is None and acts.ready == [(0, 0)]
            else:
                assert isinstance(acts.abort, FaultToleranceExhausted)
                assert acts.ready == []
        assert core.stats.faults_recovered == max_retries + 1

    @pytest.mark.parametrize("how", ["cancel_exempt", "worker_left"])
    def test_exempt_requeue_is_not_charged(self, how):
        core, _ = make_core(max_retries=1)
        for w in range(5):
            epoch = core.register.register((0, 0), w % 3)
            if how == "cancel_exempt":
                assert core.cancel_exempt((0, 0), epoch)
            else:
                core.left.discard(w % 3)
                assert core.worker_left(w % 3).ready == [(0, 0)]
        assert core.budget_exempt[(0, 0)] == 5
        # Five exempt dispatches later the first charged failure still
        # requeues (charged = 6 attempts - 5 exempt = 1).
        epoch = core.register.register((0, 0), 0)
        assert core.timed_out((0, 0), epoch, now=1.0).ready == [(0, 0)]

    def test_digest_reject_is_charged_and_never_backs_off(self):
        core, _ = make_core(max_retries=0, retry_backoff=1.0)
        epoch = core.register.register((0, 0), 0)
        acts = core.rejected((0, 0), epoch)
        assert acts.ready == [(0, 0)] and acts.delayed == []
        epoch = core.register.register((0, 0), 0)
        assert "digest mismatch" in str(core.rejected((0, 0), epoch).abort)
        assert core.rejected((0, 0), epoch) is None  # already cancelled

    @pytest.mark.parametrize(
        "charged,delay",
        [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.5), (5, 0.5)],
    )
    def test_backoff_doubles_up_to_the_cap(self, charged, delay):
        core, _ = make_core(max_retries=10, retry_backoff=0.1, retry_backoff_max=0.5)
        for n in range(charged):
            epoch = core.register.register((0, 0), 0)
            acts = core.timed_out((0, 0), epoch, now=float(n))
        assert acts.ready == []
        assert acts.delayed == [(pytest.approx(delay), (0, 0))]


class TestBlacklist:
    """Failure attribution and the blacklist policy."""

    def test_below_threshold_keeps_worker(self):
        core, _ = make_core(blacklist_threshold=3)
        core.worker_failed(0, now=100.0)
        core.worker_failed(0, now=100.0)
        assert core.blacklisted == set()

    def test_silent_worker_blacklisted_and_evicted_at_threshold(self):
        core, rec = make_core(blacklist_threshold=2)
        epoch = core.register.register((0, 0), 0, now=99.0)
        core.worker_failed(0, now=100.0)
        acts = core.worker_failed(0, now=100.0)
        assert core.blacklisted == {0} and acts.retired == [0]
        assert core.stats.blacklisted_workers == [0]
        # The worker's live dispatch was cancelled, exempted from the
        # retry budget, and re-queued.
        assert not core.register.is_registered((0, 0), epoch)
        assert acts.cancelled == [((0, 0), epoch)] and acts.ready == [(0, 0)]
        assert core.budget_exempt[(0, 0)] == 1
        assert core.stats.faults_recovered == 1
        assert [e.worker for e in kinds(rec, "blacklist")] == [0]

    def test_recently_heard_worker_is_vetoed(self):
        # A worker heard from inside a timeout window is alive — its
        # timeouts are message loss, and blacklisting it would shoot a
        # survivor.
        core, _ = make_core(blacklist_threshold=2, task_timeout=0.3)
        core.heard(0, 99.9)
        core.worker_failed(0, now=100.0)
        core.worker_failed(0, now=100.0)
        assert core.blacklisted == set()
        # Once it goes silent past the window, the next failure retires it.
        core.worker_failed(0, now=101.0)
        assert core.blacklisted == {0}

    def test_degradation_floor_keeps_last_worker(self):
        core, _ = make_core(n_workers=2, blacklist_threshold=1)
        core.worker_failed(0, now=100.0)
        assert core.blacklisted == {0}
        for _ in range(5):
            core.worker_failed(1, now=100.0)
        assert core.blacklisted == {0}  # worker 1 survives, come what may

    def test_disabled_when_threshold_none(self):
        core, _ = make_core(blacklist_threshold=None)
        for _ in range(10):
            core.worker_failed(0, now=100.0)
        core.heard(0, 100.0)
        assert core.blacklisted == set() and core.worker_failures == {}
        assert core.last_heard == {}


class TestQuarantine:
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_quarantine_exactly_at_threshold(self, threshold):
        core, _ = make_core(
            integrity=IntegrityPolicy("audit", quarantine_threshold=threshold)
        )
        for _ in range(threshold - 1):
            assert core.diverged(1).retired == []
        assert core.quarantined == set()
        assert core.diverged(1).retired == [1]
        assert core.quarantined == {1} and 1 in core.retired
        assert core.diverged(1).retired == []  # once only

    def test_master_recompute_is_never_counted(self):
        core, _ = make_core(integrity=IntegrityPolicy("audit", quarantine_threshold=1))
        assert core.diverged(-1).retired == [] and core.divergence == {}

    def test_quarantining_every_worker_aborts(self):
        core, _ = make_core(
            n_workers=2, integrity=IntegrityPolicy("audit", quarantine_threshold=1)
        )
        assert core.diverged(0).abort is None
        assert isinstance(core.diverged(1).abort, FaultToleranceExhausted)


class TestTaint:
    @pytest.mark.parametrize(
        "root,closure",
        [
            ((0, 0), [(i, j) for i in range(3) for j in range(3)]),
            ((1, 1), [(1, 1), (1, 2), (2, 1), (2, 2)]),
            ((2, 2), [(2, 2)]),
            ((0, 2), [(0, 2), (1, 2), (2, 2)]),
        ],
    )
    def test_closure_comes_back_in_topological_order(self, root, closure):
        core, rec = make_core()
        commit_all(core)
        acts = core.convict(root, 0)
        topo = [t for t in core.pattern.topological_order() if t in set(closure)]
        assert acts.invalidated == topo and set(topo) == set(closure)
        assert acts.ready == [root]  # the only re-computable vertex
        assert not any(t in core.committed for t in closure)
        assert core.stats.tainted_recomputes == len(closure)
        assert [e.task_id for e in kinds(rec, "taint-invalidate")] == topo

    @pytest.mark.parametrize("root", [(2, 0), (1, 0), (2, 1)])
    def test_closure_order_respects_dependencies(self, root):
        # Upward wavefront: row-major order is NOT a topological order
        # here, so only a dependency-respecting closure passes.
        core, _ = make_core(row_reversed=True)
        commit_all(core)
        acts = core.convict(root, 0)
        seen = set()
        for vid in acts.invalidated:
            assert all(
                p in seen for p in core.pattern.predecessors(vid)
                if p in acts.invalidated
            ), (vid, acts.invalidated)
            seen.add(vid)
        assert acts.ready == [root]

    def test_live_dispatches_on_tainted_inputs_are_cancelled_budget_free(self):
        core, _ = make_core()
        ready = list(core.parser.computable())
        epoch = core.register.register((0, 0), 0)
        core.accept((0, 0), epoch, 0)
        ready = core.commit((0, 0), epoch, 0)
        live = {t: core.register.register(t, 1) for t in ready}
        acts = core.convict((0, 0), 0)
        assert sorted(acts.cancelled) == sorted(live.items())
        assert all(core.budget_exempt[t] == 1 for t in live)
        assert not core.inputs_committed((0, 1))

    def test_run_digest_after_recommit_equals_a_clean_run(self):
        clean, _ = make_core(fold_digests=True, observe=False)
        commit_all(clean)
        core, _ = make_core(fold_digests=True, observe=False)
        commit_all(core)
        assert core.run_digest == clean.run_digest
        acts = core.convict((1, 1), 0)
        assert core.run_digest != clean.run_digest
        ready = list(acts.ready)
        while ready:
            task = ready.pop(0)
            epoch = core.register.register(task, 1)
            core.accept(task, epoch, 1)
            ready += core.commit(task, epoch, 1, None, f"d{task}")
        assert core.done
        assert core.run_digest == clean.run_digest
        assert core.commit_digests == clean.commit_digests


class TestAuditQueue:
    def test_audits_lag_then_drain_when_forced(self):
        core, _ = make_core(
            integrity=IntegrityPolicy("audit", audit_fraction=1.0), observe=False
        )
        commit_all(core)
        due = []
        while (item := core.next_audit(force=False)) is not None:
            due.append(item[0])
        assert len(due) == 9 - core.AUDIT_LAG
        while (item := core.next_audit(force=True)) is not None:
            due.append(item[0])
        assert len(due) == 9

    def test_revoked_commit_is_not_audited(self):
        core, _ = make_core(
            integrity=IntegrityPolicy("audit", audit_fraction=1.0), observe=False
        )
        commit_all(core)
        task, epoch, worker, _ = core.next_audit(force=True)
        acts = core.audited(task, epoch, worker, ok=False)
        assert core.stats.audits_convicted == 1
        assert acts.invalidated[0] == task
        assert core.next_audit(force=True) is None  # whole closure revoked


class TestReplay:
    def test_prior_commits_complete_the_parser_once(self):
        prior = {(0, 0): 0, (0, 1): 2, (1, 0): 0}
        core, rec = make_core(committed=prior, attempts={(0, 1): 3})
        core.replay(now=0.0)
        assert set(core.parser.computable()) == {(0, 2), (1, 1), (2, 0)}
        assert core.stats.resumed_commits == 3
        assert kinds(rec, "resume")[0].data["n_committed"] == 3
        # Epochs continue past the primed attempt count.
        assert core.register.register((0, 1), 0) == 3
