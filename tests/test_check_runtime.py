"""Verify-enabled integration runs (RunConfig.verify).

Every backend executes a full schedule with the happens-before trace
validator armed; any ordering violation would raise CheckError instead
of returning. Fault-injection scenarios exercise the redistribution and
stale-epoch paths under validation.
"""

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, Nussinov
from repro.cluster.faults import FaultPlan, FaultRule
from repro.utils.errors import CheckError, ConfigError


@pytest.fixture
def problem():
    return EditDistance.random(40, 40, seed=6)


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=2,
        backend="threads",
        process_partition=10,
        thread_partition=5,
        poll_interval=0.005,
        verify=True,
    )
    base.update(kw)
    return RunConfig(**base)


class TestVerifiedRuns:
    def test_threads_backend(self, problem):
        run = EasyHPS(cfg()).run(problem)
        assert run.value.distance == problem.reference()

    def test_threads_backend_triangular(self):
        problem = Nussinov.random(30, seed=8)
        run = EasyHPS(cfg(process_partition=8, thread_partition=4)).run(problem)
        assert run.value.score == problem.reference()

    def test_simulated_backend(self, problem):
        config = RunConfig.experiment(3, 9, verify=True)
        run = EasyHPS(config).run(problem)
        assert run.report.makespan > 0

    def test_serial_backend(self, problem):
        run = EasyHPS(cfg(backend="serial")).run(problem)
        assert run.value.distance == problem.reference()

    def test_serial_backend_fails_a_seeded_bad_trace(self, problem, monkeypatch):
        """The serial path runs the happens-before check too: a trace
        seeded with a commit of the sink block before anything ran must
        fail the verified run."""
        import repro.backends.serial as serial
        from repro.obs import ScheduleTracer

        class SeededTracer(ScheduleTracer):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.trace.record("commit", (3, 3), 0, 0, 0.0)

        monkeypatch.setattr(serial, "ScheduleTracer", SeededTracer)
        with pytest.raises(CheckError):
            EasyHPS(cfg(backend="serial")).run(problem)
        monkeypatch.undo()
        assert EasyHPS(cfg(backend="serial")).run(problem).value.distance == (
            problem.reference()
        )

    @pytest.mark.slow
    def test_processes_backend(self, problem):
        run = EasyHPS(cfg(backend="processes")).run(problem)
        assert run.value.distance == problem.reference()


class TestVerifiedFaultTolerance:
    def test_threads_process_crash_verifies(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])
        run = EasyHPS(cfg(task_timeout=0.4, fault_plan=plan)).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1

    def test_threads_hang_stale_result_verifies(self, problem):
        plan = FaultPlan([FaultRule("hang", (0, 0), 0)])
        run = EasyHPS(
            cfg(task_timeout=0.4, hang_duration=0.9, fault_plan=plan)
        ).run(problem)
        assert run.value.distance == problem.reference()

    def test_thread_level_fault_verifies(self, problem):
        plan = FaultPlan([FaultRule("crash", (1, 0), 0)])
        run = EasyHPS(
            cfg(subtask_timeout=0.3, thread_fault_plan=plan)
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.thread_restarts >= 1

    def test_simulated_crash_verifies(self, problem):
        config = RunConfig.experiment(
            3, 9, verify=True, task_timeout=5.0,
            fault_plan=FaultPlan([FaultRule("crash", (0, 0), 0)]),
        )
        run = EasyHPS(config).run(problem)
        assert run.report.faults_recovered >= 1

    def test_simulated_hang_verifies(self, problem):
        config = RunConfig.experiment(
            3, 9, verify=True, task_timeout=0.001,
            fault_plan=FaultPlan([FaultRule("hang", (0, 0), 0)]),
        )
        run = EasyHPS(config).run(problem)
        assert run.report.faults_recovered >= 1


class TestConfigValidation:
    def test_verify_defaults_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert RunConfig().verify is True
        monkeypatch.setenv("REPRO_VERIFY", "off")
        assert RunConfig().verify is False
        monkeypatch.delenv("REPRO_VERIFY")
        assert RunConfig().verify is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_plan": "nope"},
            {"thread_fault_plan": 3},
            {"verify": "yes"},
            {"cluster": object()},
        ],
    )
    def test_bad_config_types_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_bad_fault_rule_rejected(self):
        with pytest.raises(ConfigError):
            FaultRule("explode")
        with pytest.raises(ValueError):  # ConfigError subclasses ValueError
            FaultRule("crash", attempt=-1)
        with pytest.raises(ConfigError):
            FaultPlan.random(1.5)
        with pytest.raises(ConfigError):
            FaultPlan.random(True)
