"""End-to-end kill -9 smoke: start a journaled processes-backend run as a
real subprocess, SIGKILL it mid-flight, check its slave processes exit,
then `repro resume --check-oracle` and demand exit 0. This is the same
scenario the CI kill-resume job runs."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.durable import scan_journal

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def repro_cmd(*args):
    return [sys.executable, "-m", "repro", *args]


def forked_children(pid):
    """PIDs of the processes ``pid`` forked (same command line), via /proc."""
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        cmdline = f.read()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                same = f.read() == cmdline
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid and same:
            kids.append(int(entry))
    return kids


def is_running(pid):
    """False once ``pid`` has exited (gone, or a zombie nobody reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.slow
def test_sigkill_master_then_resume_matches_oracle(tmp_path):
    journal = str(tmp_path / "master.journal")
    # Big enough that the run is still in flight when we pull the trigger;
    # fsync off keeps the smoke fast on slow CI disks.
    env = repro_env()
    env["REPRO_JOURNAL_FSYNC"] = "0"
    proc = subprocess.Popen(
        repro_cmd(
            "run", "--backend", "processes", "--nodes", "3",
            "--algo", "edit-distance", "--size", "600",
            "--journal", journal,
        ),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait for real progress (>= 2 journaled commits), then kill -9.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("run finished before the kill — instance too small")
            try:
                if scan_journal(journal).n_committed >= 2:
                    break
            except Exception:
                pass  # journal not created / begin not written yet
            time.sleep(0.05)
        else:
            pytest.fail("no journal progress within 120 s")
        slaves = forked_children(proc.pid)
        assert len(slaves) == 2, f"expected two slave processes, found {slaves}"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30.0)
        # The orphaned slaves must see EOF on their pipes and exit.
        deadline = time.monotonic() + 30.0
        while any(map(is_running, slaves)) and time.monotonic() < deadline:
            time.sleep(0.1)
        alive = [pid for pid in slaves if is_running(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"slaves {alive} outlived the killed master by 30 s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    scan = scan_journal(journal)
    assert 0 < scan.n_committed and not scan.ended

    resumed = subprocess.run(
        repro_cmd("resume", journal, "--check-oracle"),
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=300.0,
    )
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "oracle check" in resumed.stdout
    # And the journal now covers the whole run.
    assert scan_journal(journal).ended
