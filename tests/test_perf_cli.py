"""End-to-end tests for ``repro perf``: trace profiling and the gate."""

import json

import pytest

from repro.analysis import trajectory
from repro.cli import EXIT_FAULT_EXHAUSTED, main


def _measured(scale: float = 1.0, bytes_extra: int = 0) -> dict:
    """A synthetic four-backend measurement, scalable for regression tests."""
    out = {}
    for backend, makespan in (
        ("serial", 1.0),
        ("threads", 0.6),
        ("processes", 0.8),
        ("simulated", 0.02),
    ):
        deterministic = backend in trajectory.DETERMINISTIC
        out[backend] = {
            "wall_time_s": makespan * scale,
            "makespan_s": makespan * (scale if backend != "serial" else 1.0),
            "messages": 100,
            "bytes_to_slaves": (50_000 + bytes_extra) if deterministic else 50_000,
            "bytes_to_master": 20_000,
        }
    return out


@pytest.fixture()
def baseline(tmp_path):
    path = tmp_path / "BENCH_BASELINE.json"
    trajectory.append_entry(str(path), label="base", measured=_measured())
    return path


class TestPerfTraceReports:
    def test_simulated_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "sim.json"
        assert main(["simulate", "--algo", "edit-distance", "--size", "96",
                     "--nodes", "2", "--cores", "4", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["perf", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "sched efficiency" in out
        assert "time attribution" in out
        assert "what-if" in out
        # Workload meta survived the round trip into the report title.
        assert "edit-distance" in out

    def test_threads_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "thr.json"
        assert main(["run", "--algo", "edit-distance", "--size", "64",
                     "--backend", "threads", "--nodes", "2",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["perf", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "time attribution" in out

    def test_multiple_traces_one_invocation(self, tmp_path, capsys):
        traces = []
        for i, backend in enumerate(("serial", "simulated")):
            trace = tmp_path / f"t{i}.json"
            verb = (["simulate", "--cores", "4"] if backend == "simulated"
                    else ["run", "--backend", backend])
            assert main(verb + ["--algo", "lcs", "--size", "48", "--nodes", "2",
                                "--trace-out", str(trace)]) == 0
            traces.append(str(trace))
        capsys.readouterr()
        assert main(["perf"] + traces) == 0
        out = capsys.readouterr().out
        assert out.count("time attribution") == 2

    def test_usage_error_without_inputs(self):
        with pytest.raises(SystemExit, match="nothing to do"):
            main(["perf"])

    def test_unreadable_trace_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["perf", str(bad)])


class TestPerfGate:
    def test_clean_measurement_passes(self, baseline, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured())
        assert main(["perf", "--against", str(baseline), "--check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_byte_regression_exits_3(self, baseline, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured(bytes_extra=1))
        rc = main(["perf", "--against", str(baseline), "--check"])
        assert rc == EXIT_FAULT_EXHAUSTED
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_deterministic_counter_drop_also_exits_3(self, baseline, capsys, monkeypatch):
        """Serial/simulated wire counters are bit-reproducible: any change,
        a decrease included, is a protocol change to re-record."""
        monkeypatch.setattr(trajectory, "measure", lambda: _measured(bytes_extra=-1))
        rc = main(["perf", "--against", str(baseline), "--check"])
        assert rc == EXIT_FAULT_EXHAUSTED
        assert "must equal" in capsys.readouterr().out

    def test_makespan_regression_exits_3(self, baseline, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured(scale=3.0))
        rc = main(["perf", "--against", str(baseline), "--check"])
        assert rc == EXIT_FAULT_EXHAUSTED
        assert "REGRESSION" in capsys.readouterr().out

    def test_regression_without_check_reports_but_exits_0(
        self, baseline, capsys, monkeypatch
    ):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured(scale=3.0))
        assert main(["perf", "--against", str(baseline)]) == 0
        assert "FAIL" in capsys.readouterr().out

    def test_loosened_tolerance_passes(self, baseline, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured(scale=3.0))
        assert main(["perf", "--against", str(baseline), "--check",
                     "--max-makespan-regress", "5.0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_write_appends_entry(self, baseline, capsys, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured())
        assert main(["perf", "--against", str(baseline), "--check",
                     "--write", "--label", "next"]) == 0
        doc = json.loads(baseline.read_text())
        assert [e["label"] for e in doc["entries"]] == ["base", "next"]
        assert "recorded entry 'next'" in capsys.readouterr().out

    def test_empty_trajectory_is_a_setup_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trajectory, "measure", lambda: _measured())
        with pytest.raises(SystemExit, match="no baseline entries"):
            main(["perf", "--against", str(tmp_path / "missing.json"), "--check"])
