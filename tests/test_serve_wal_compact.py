"""ServeJournal compaction, I/O fault injection, and daemon WAL bounds."""

import os
import time

import pytest

from repro.cluster.faults import IoFaultPlan, IoFaultRule, IoPolicy
from repro.serve import JobSpec, ServeDaemon
from repro.serve.job import JobRecord
from repro.serve.wal import ServeJournal, scan_serve_journal
from repro.utils.errors import JournalIOError


def _spec(tenant="t", seed=0):
    return JobSpec(tenant=tenant, algo="lcs", size=16, seed=seed)


def _filled_wal(path, n_finished, n_pending=1):
    wal = ServeJournal.create(str(path), fsync=False)
    for i in range(n_finished):
        wal.submit(f"job-{i}", _spec(seed=i))
        wal.start(f"job-{i}", f"/tmp/job-{i}.walj")
        wal.finish(f"job-{i}", "done", f"digest {i}", "")
    for i in range(n_finished, n_finished + n_pending):
        wal.submit(f"job-{i}", _spec(seed=i))
    return wal


class TestCompaction:
    def test_compact_bounds_history_keeps_pending(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=10, n_pending=2)
        before = os.path.getsize(path)
        dropped = wal.compact(scan_serve_journal(str(path)).entries.values(),
                              keep_history=3)
        wal.close()
        assert dropped == 7
        assert os.path.getsize(path) < before
        scan = scan_serve_journal(str(path))
        # The 3 newest finished jobs survive with outcomes intact; every
        # pending job survives regardless of the history bound.
        assert scan.order == ["job-7", "job-8", "job-9", "job-10", "job-11"]
        assert scan.entries["job-9"].status == "done"
        assert scan.entries["job-9"].detail == "digest 9"
        assert scan.entries["job-9"].run_journal == "/tmp/job-9.walj"
        assert [e.job_id for e in scan.pending()] == ["job-10", "job-11"]

    def test_compacted_log_accepts_further_appends(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=5)
        wal.compact(scan_serve_journal(str(path)).entries.values(), keep_history=1)
        wal.finish("job-5", "done", "after compact", "")
        wal.close()
        scan = scan_serve_journal(str(path))
        assert not scan.truncated
        assert scan.entries["job-5"].status == "done"
        assert scan.entries["job-5"].detail == "after compact"

    def test_reason_round_trips_through_compaction(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = ServeJournal.create(str(path), fsync=False)
        wal.submit("job-1", _spec())
        wal.finish("job-1", "aborted", "disk full",
                   "resource-exhausted:disk:journal-write")
        wal.compact(scan_serve_journal(str(path)).entries.values())
        wal.close()
        entry = scan_serve_journal(str(path)).entries["job-1"]
        assert entry.reason == "resource-exhausted:disk:journal-write"

    def test_callable_entries_snapshot_under_lock(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=2)
        wal.compact(lambda: scan_serve_journal(str(path)).entries.values(),
                    keep_history=1)
        wal.close()
        assert scan_serve_journal(str(path)).order == ["job-1", "job-2"]

    def test_failed_compaction_leaves_old_log_intact(self, tmp_path):
        path = tmp_path / "serve.srvj"
        wal = _filled_wal(path, n_finished=3)
        # Every WAL append so far consumed write indices 0..8; the
        # compaction's tmp write is the next one.
        wal.io_policy = IoPolicy(
            IoFaultPlan([IoFaultRule("write", "enospc", after=0)]), "serve-wal"
        )
        with pytest.raises(JournalIOError) as err:
            wal.compact(scan_serve_journal(str(path)).entries.values())
        assert err.value.op == "compact"
        wal.io_policy = None
        wal.close()
        assert not list(tmp_path.glob("*.tmp"))
        scan = scan_serve_journal(str(path))
        assert not scan.truncated and len(scan.order) == 4


class TestWalFaults:
    def test_write_fault_repairs_to_good_prefix(self, tmp_path):
        path = tmp_path / "serve.srvj"
        policy = IoPolicy(
            IoFaultPlan([IoFaultRule("write", "partial", index=1)]), "serve-wal"
        )
        wal = ServeJournal.create(str(path), fsync=False, io_policy=policy)
        wal.submit("job-1", _spec())
        with pytest.raises(JournalIOError):
            wal.submit("job-2", _spec(seed=1))
        assert wal.write_errors == 1
        wal.submit("job-3", _spec(seed=2))  # index 2: clean again
        wal.close()
        scan = scan_serve_journal(str(path))
        assert not scan.truncated  # torn frame truncated away by repair
        assert scan.order == ["job-1", "job-3"]

    def test_fsync_fault_surfaces_with_op(self, tmp_path):
        policy = IoPolicy(
            IoFaultPlan([IoFaultRule("fsync", "fsync-fail", index=0)]), "serve-wal"
        )
        wal = ServeJournal.create(
            str(tmp_path / "s.srvj"), fsync=True, io_policy=policy
        )
        with pytest.raises(JournalIOError) as err:
            wal.submit("job-1", _spec())
        assert err.value.op == "fsync"
        wal.close()


class TestDaemonIntegration:
    def test_auto_compaction_bounds_a_long_lived_wal(self, tmp_path):
        daemon = ServeDaemon(
            workers=2, queue_cap=32, task_timeout=5.0,
            wal_path=str(tmp_path / "serve.srvj"),
            wal_compact_interval=4, wal_keep_history=2,
        )
        daemon.start()
        try:
            for i in range(8):
                decision = daemon.submit(
                    JobSpec(algo="lcs", size=16, seed=i, nodes=2)
                )
                assert decision.accepted
            assert daemon.wait_idle(60.0)
        finally:
            daemon.drain(20.0)
        assert daemon._wal.compactions >= 1
        scan = scan_serve_journal(str(tmp_path / "serve.srvj"))
        assert not scan.truncated
        # Bounded: far fewer than the 8 submitted jobs remain, and the
        # survivors all carry their terminal outcome.
        assert len(scan.order) <= 2 + 4  # keep_history + one interval
        assert all(scan.entries[j].finished for j in scan.order)

    def test_wal_submit_failure_sheds_instead_of_acking(self, tmp_path):
        daemon = ServeDaemon(
            workers=1, queue_cap=8,
            wal_path=str(tmp_path / "serve.srvj"),
            io_fault_plan=IoFaultPlan([IoFaultRule("write", "enospc", after=0)]),
        )
        daemon.start()
        try:
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert not decision.accepted
            assert decision.reason.startswith("resource-pressure:wal-write")
            stats = daemon.tenant_stats()
            assert stats["counters"]["serve.resource_sheds{tenant=default}"] == 1
            # The revoked record is terminal, never silently queued.
            records = daemon.jobs()
            assert all(r["status"] == "cancelled" for r in records)
        finally:
            daemon.drain(10.0)

    def test_job_is_invisible_to_the_scheduler_until_its_wal_write_lands(
        self, tmp_path
    ):
        """Hold the failing WAL write open while the scheduler polls: the
        job must never reach the queue, so a revoked job cannot start."""
        daemon = ServeDaemon(
            workers=1, queue_cap=1, poll_interval=0.01,
            wal_path=str(tmp_path / "serve.srvj"),
            io_fault_plan=IoFaultPlan([IoFaultRule("write", "enospc", after=0)]),
        )
        daemon.start()
        real_submit = daemon._wal.submit
        visible = []

        def held_submit(job_id, spec):
            visible.append([r.job_id for r in daemon.admission.snapshot()])
            # Many scheduler polls pass while the write is "in flight".
            time.sleep(0.2)
            visible.append([r.job_id for r in daemon.admission.snapshot()])
            return real_submit(job_id, spec)

        daemon._wal.submit = held_submit
        try:
            decision = daemon.submit(JobSpec(algo="lcs", size=16, nodes=2))
            assert not decision.accepted
            assert decision.reason.startswith("resource-pressure:wal-write")
            assert visible == [[], []]
            time.sleep(0.2)
            records = daemon.jobs()
            assert len(records) == 1
            assert records[0]["status"] == "cancelled"
            assert daemon.admission.depth == 0
            # The reserved slot was given back: the only slot is free.
            probe = JobRecord("probe", _spec())
            assert daemon.admission.reserve(probe).accepted
            daemon.admission.release(probe)
        finally:
            daemon.drain(10.0)
