"""The three benchmark workloads: seeded inputs, set-up and timed loops.

Every workload derives all of its inputs from the ``--seed`` argument,
drives the system only through public entry points, and checks every
output outside the timed regions:

- ``paper-kernels`` and ``fine-wavefront`` are closed loops (one client,
  one solve at a time) of ``EasyHPS.run`` on the serial, threads and
  processes backends.
- ``paper-sim`` is a closed loop of ``run_simulated`` at paper scale.

The end-to-end metrics every workload reports (the JSON result) are
``latency_ref_s`` (the geometric mean of per-class median operation
times), ``throughput_ref_per_s``, ``setup_s`` and ``peak_rss_mb``. The
first two are in reference-host seconds (:class:`~perfbench.common.SpeedMeter`),
``setup_s`` in wall seconds.
The workload-specific named metrics (``solve_s.threads``, ``sim_wall_s``,
``sim_makespan_s``, ...) are printed alongside, in wall seconds, and kept
in the result file.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.common import (
    OUT,
    SRC,
    SpeedMeter,
    child_env,
    geomean,
    import_in_child,
    median,
    peak_rss_mb,
    quantile,
    summarize,
    tree_digest,
)

#: Real backends timed by the closed-loop workloads.
BACKENDS = ("serial", "threads", "processes")
#: Cluster shape of every real run: master plus two single-thread
#: workers, so no run uses more workers than a two-core host has.
NODES = 3
THREADS_PER_NODE = 1
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


def _factories() -> Dict[str, Any]:
    """Instance constructors, identical to the serve daemon's registry so
    a job's ``(algo, size, seed)`` names the same problem."""
    from repro.algorithms import (
        EditDistance,
        LongestCommonSubsequence,
        Nussinov,
        SmithWatermanGG,
    )

    return {
        "swgg": lambda n, s: SmithWatermanGG.random(n, seed=s),
        "nussinov": lambda n, s: Nussinov.random(n, seed=s),
        "edit-distance": lambda n, s: EditDistance.random(n, n, seed=s),
        "lcs": lambda n, s: LongestCommonSubsequence.random(n, n, seed=s),
    }


def answer(value: Any) -> Any:
    """The scalar a finalized result shares with ``problem.reference()``."""
    for attr in ("score", "distance", "length"):
        if hasattr(value, attr):
            return getattr(value, attr)
    raise TypeError(f"no scalar answer on {type(value).__name__}")


def sub_seed(seed: int, *salt: object) -> int:
    """Deterministic per-input seed derived from the workload seed."""
    return random.Random(":".join(map(str, (seed,) + salt))).randrange(1, 2**31 - 1)


@dataclass(frozen=True)
class Instance:
    """One DP problem instance plus the partition sizes it runs with
    (``None`` keeps the problem's defaults, as the serve daemon does)."""

    algo: str
    size: int
    seed: int
    proc: Optional[int] = None
    thread: Optional[int] = None

    @property
    def key(self) -> str:
        return f"{self.algo}-{self.size}-s{self.seed}-p{self.proc}-t{self.thread}"

    def problem(self) -> Any:
        return _factories()[self.algo](self.size, self.seed)

    def config(self, backend: str, **overrides: Any) -> Any:
        from repro.runtime.config import RunConfig

        kw: Dict[str, Any] = dict(
            backend=backend, nodes=NODES, threads_per_node=THREADS_PER_NODE,
            process_partition=self.proc, thread_partition=self.thread,
        )
        kw.update(overrides)
        return RunConfig(**kw)

    def describe(self) -> Dict[str, Any]:
        return {"algo": self.algo, "size": self.size, "seed": self.seed,
                "partitions": [self.proc, self.thread]}


class ReferenceCache:
    """``problem.reference()`` answers keyed by instance and by the digest
    of the algorithms package, so a changed reference is never reused.

    Misses are computed in a child interpreter, outside every timed
    region and outside this process's memory high-water mark. The
    pure-Python references take seconds at benchmark sizes; the cache
    lets repeated seeds skip them.
    """

    _CHILD = (
        "import json, sys\n"
        "from perfbench.workloads import Instance\n"
        "print(json.dumps([Instance(*a).problem().reference() for a in json.loads(sys.argv[1])]))"
    )

    def __init__(self) -> None:
        self.path = os.path.join(OUT, "refcache.json")
        self.salt = tree_digest(os.path.join(SRC, "repro", "algorithms"))
        try:
            with open(self.path) as fh:
                self._data: Dict[str, Any] = json.load(fh)
        except (OSError, ValueError):
            self._data = {}

    def _key(self, inst: Instance) -> str:
        return f"{self.salt}:{inst.algo}:{inst.size}:{inst.seed}"

    def ensure(self, instances: Sequence[Instance]) -> None:
        missing = list({self._key(i): i for i in instances if self._key(i) not in self._data}.values())
        if not missing:
            return
        args = json.dumps([[i.algo, i.size, i.seed] for i in missing])
        proc = subprocess.run([sys.executable, "-c", self._CHILD, args], env=child_env(),
                              capture_output=True, text=True, timeout=600, check=True)
        for inst, ref in zip(missing, json.loads(proc.stdout)):
            self._data[self._key(inst)] = ref
        os.makedirs(OUT, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._data, fh)
        os.replace(tmp, self.path)

    def get(self, inst: Instance) -> Any:
        self.ensure([inst])
        return self._data[self._key(inst)]


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Samples behind each entry of ``metrics``.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific metrics printed by name: {name: {unit, p50|value, n, ...}}.
    named: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    inputs: Dict[str, Any] = field(default_factory=dict)

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def measured(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = value
        self.counts[name] = n

    def add_named(self, name: str, unit: str, values: Sequence[float]) -> None:
        self.named[name] = {"unit": unit, **summarize(values)}

    def set_named(self, name: str, unit: str, value: float, n: int) -> None:
        self.named[name] = {"unit": unit, "value": value, "n": n}


def _guarded(outcome: Outcome, what: str, fn, *args, **kwargs):
    """Run one operation; an exception is a counted failure, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the benchmark must report, not die, on a bad solve
        outcome.fail(f"{what}: {traceback.format_exc(limit=3)}")
        return None


def timed_solve(instance: Instance, problem: Any, backend: str, **overrides: Any):
    """One closed-loop ``EasyHPS.run``; returns ``(seconds, RunResult)``."""
    from repro.runtime.system import EasyHPS

    config = instance.config(backend, **overrides)
    t0 = time.perf_counter()
    run = EasyHPS(config).run(problem)
    return time.perf_counter() - t0, run


class Workload:
    """Interface of one workload; subclasses fill in the three phases."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.refs = ReferenceCache()

    def inputs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, keep: bool) -> None:
        """One set-up repetition; ``keep`` holds its resources for the
        measurement that follows."""
        raise NotImplementedError

    def measure(self, seconds: float, out: Outcome, meter: SpeedMeter) -> None:
        raise NotImplementedError

    def layer_instances(self) -> List[Instance]:
        """Computable instances the traced run replays layer by layer."""
        raise NotImplementedError

    def checked_instances(self) -> List[Instance]:
        """Instances whose answers the timed run checks."""
        raise NotImplementedError

    def reference(self, inst: Instance) -> Any:
        return self.refs.get(inst)

    def run(self, seconds: float) -> Outcome:
        out = Outcome(inputs=self.inputs())
        self.refs.ensure(self.checked_instances())
        setups = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            import_in_child()
            self.setup(keep=k == SETUP_REPEATS - 1)
            setups.append(time.perf_counter() - t0)
        meter = SpeedMeter()
        self.measure(seconds, out, meter)
        # Set-up stays in wall seconds: it is mostly starting interpreters
        # and worker processes, which did not follow the probe's speed.
        out.measured("setup_s", median(setups), len(setups))
        out.add_named("setup_s", "s", setups)
        out.add_named("host.probe_s", "s", meter.probes)
        if "peak_rss_mb" in out.metrics:
            out.set_named("peak_rss_mb", "MB", out.metrics["peak_rss_mb"], 1)
        out.set_named(
            "failed_frac", "frac",
            len(out.failures) / max(1, out.attempted), out.attempted,
        )
        return out


# -- closed-loop solves -------------------------------------------------------


class SolveWorkload(Workload):
    """Closed loop over instances x backends, one solve at a time."""

    instances: List[Instance] = []

    def inputs(self) -> Dict[str, Any]:
        return {"instances": [i.describe() for i in self.instances],
                "backends": list(BACKENDS), "nodes": NODES,
                "threads_per_node": THREADS_PER_NODE, "seed": self.seed,
                "loop": "closed, one client"}

    def warm_instances(self) -> List[Instance]:
        """Quarter-size twins solved once per backend during set-up."""
        return [Instance(i.algo, max(8, i.size // 4), i.seed,
                         max(2, (i.proc or 8) // 4) if i.proc else None,
                         max(1, (i.thread or 2) // 4) if i.thread else None)
                for i in self.instances]

    def setup(self, keep: bool) -> None:
        problems = {i: i.problem() for i in self.instances}
        for inst, problem in problems.items():
            problem.build_partition(inst.config("serial").partitions_for(problem)[0])
        for warm in self.warm_instances():
            problem = warm.problem()
            for backend in BACKENDS:
                timed_solve(warm, problem, backend)
        if keep:
            self.problems = problems

    def layer_instances(self) -> List[Instance]:
        return list(self.instances)

    def checked_instances(self) -> List[Instance]:
        return list(self.instances)

    def measure(self, seconds: float, out: Outcome, meter: SpeedMeter) -> None:
        samples: Dict[Tuple[Instance, str], List[float]] = {
            (i, b): [] for i in self.instances for b in BACKENDS
        }
        walls: Dict[Tuple[Instance, str], List[float]] = {key: [] for key in samples}
        oracle: Dict[Instance, str] = {}
        start = time.perf_counter()
        while True:
            for inst in self.instances:
                for backend in BACKENDS:
                    out.attempted += 1
                    gc.collect()  # no collection of earlier garbage inside the timing
                    res = _guarded(out, f"{inst.key}/{backend}", timed_solve,
                                   inst, self.problems[inst], backend)
                    if res is not None:
                        walls[(inst, backend)].append(res[0])
                        samples[(inst, backend)].append(meter.scale(res[0]))
                        self._check(inst, backend, res[1], oracle, out)
            if time.perf_counter() - start >= seconds:
                break
        out.measured("peak_rss_mb", peak_rss_mb(), 1)
        if any(not v for v in samples.values()):
            return
        all_s = [s for v in samples.values() for s in v]
        out.measured("latency_ref_s", geomean(median(v) for v in samples.values()), len(all_s))
        out.measured("throughput_ref_per_s", len(all_s) / sum(all_s), len(all_s))
        for backend in BACKENDS:
            for name, source in (("solve_s", walls), ("solve_ref_s", samples)):
                per = [source[(i, backend)] for i in self.instances]
                out.named[f"{name}.{backend}"] = {
                    "unit": "s", "p50": geomean(median(v) for v in per),
                    "n": sum(len(v) for v in per),
                }
            for inst in self.instances:
                out.add_named(f"solve_s.{backend}.{inst.algo}", "s", walls[(inst, backend)])

    def _check(self, inst: Instance, backend: str, run: Any, oracle: Dict[Instance, str],
               out: Outcome) -> None:
        """One solve's answer against the reference and its digest against
        the serial oracle (each round solves serially first). Checked as
        it finishes, so no solve's state outlives it."""
        if backend == "serial":
            oracle.setdefault(inst, run.report.run_digest)
        ref = self.reference(inst)
        problems = []
        if answer(run.value) != ref:
            problems.append(f"answer {answer(run.value)!r} != reference {ref!r}")
        if run.report.run_digest is None or run.report.run_digest != oracle.get(inst):
            problems.append(f"digest {run.report.run_digest} != serial {oracle.get(inst)}")
        if problems:
            out.fail(f"{inst.key}/{backend}: " + "; ".join(problems))


class PaperKernels(SolveWorkload):
    """SWGG and Nussinov, the paper's two workloads, kernel-bound."""

    name = "paper-kernels"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances = [
            Instance("swgg", 160, sub_seed(seed, "swgg"), 20, 5),
            Instance("nussinov", 256, sub_seed(seed, "nussinov"), 32, 8),
        ]


class FineWavefront(SolveWorkload):
    """Edit distance cut into many small blocks: dispatch-bound."""

    name = "fine-wavefront"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances = [Instance("edit-distance", 384, sub_seed(seed, "ed"), 24, 6)]


# -- simulated backend at paper scale ------------------------------------------


#: The paper's sequence length and partition sizes (Section VI).
PAPER_SEQ = 10000
PAPER_PARTITION = (200, 10)
#: Two (X nodes, Y cores) points of the paper's Experiment_X_Y grid.
PAPER_POINTS = ((3, 15), (5, 25))
SIM_SCHEDULERS = ("dynamic", "bcw")


class PaperSim(Workload):
    """The simulated backend at paper scale, both schedulers, two points."""

    name = "paper-sim"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.instances = [
            Instance(algo, PAPER_SEQ, sub_seed(seed, algo), *PAPER_PARTITION)
            for algo in ("swgg", "nussinov")
        ]

    def sim_config(self, nodes: int, cores: int, scheduler: str) -> Any:
        from repro.runtime.config import RunConfig

        return RunConfig.experiment(
            nodes, cores, scheduler=scheduler,
            process_partition=PAPER_PARTITION[0], thread_partition=PAPER_PARTITION[1],
        )

    def points(self) -> List[Tuple[Instance, int, int, str]]:
        return [(inst, x, y, sched) for inst in self.instances
                for (x, y) in PAPER_POINTS for sched in SIM_SCHEDULERS]

    def inputs(self) -> Dict[str, Any]:
        return {"instances": [i.describe() for i in self.instances],
                "points": [list(p) for p in PAPER_POINTS],
                "schedulers": list(SIM_SCHEDULERS), "seed": self.seed,
                "loop": "closed, one client"}

    def setup(self, keep: bool) -> None:
        from repro.backends.simulated import run_simulated

        problems = {i: i.problem() for i in self.instances}
        partitions = {i: p.build_partition(PAPER_PARTITION[0]) for i, p in problems.items()}
        for inst in self.instances:
            twin = _factories()[inst.algo](1000, inst.seed)
            for sched in SIM_SCHEDULERS:
                run_simulated(twin, self.sim_config(3, 15, sched))
        if keep:
            self.problems, self.partitions = problems, partitions

    def layer_instances(self) -> List[Instance]:
        # Same algorithms and seeds, small enough to compute for real.
        return [Instance(i.algo, 120, i.seed, 12, 3) for i in self.instances]

    def checked_instances(self) -> List[Instance]:
        return []  # simulated runs compute no values; commits are checked

    def measure(self, seconds: float, out: Outcome, meter: SpeedMeter) -> None:
        from repro.backends.simulated import run_simulated

        points = self.points()
        walls: Dict[tuple, List[float]] = {p: [] for p in points}
        scaled: Dict[tuple, List[float]] = {p: [] for p in points}
        reports: Dict[tuple, List[Any]] = {p: [] for p in points}
        start = time.perf_counter()
        while True:
            for point in points:
                inst, x, y, sched = point
                config = self.sim_config(x, y, sched)
                out.attempted += 1
                gc.collect()
                t0 = time.perf_counter()
                res = _guarded(out, f"{inst.key}/X{x}Y{y}/{sched}", run_simulated,
                               self.problems[inst], config)
                if res is not None:
                    walls[point].append(time.perf_counter() - t0)
                    scaled[point].append(meter.scale(walls[point][-1]))
                    reports[point].append(res[1])
            if time.perf_counter() - start >= seconds:
                break
        out.measured("peak_rss_mb", peak_rss_mb(), 1)
        for point, reps in reports.items():
            inst, x, y, sched = point
            n_blocks = self.partitions[inst].n_blocks
            for rep in reps:
                committed = sum(rep.tasks_per_worker.values())
                if rep.n_tasks != n_blocks or committed != n_blocks:
                    out.fail(f"{inst.key}/X{x}Y{y}/{sched}: committed {committed} of {n_blocks}")
                elif rep.makespan != reps[0].makespan:
                    out.fail(f"{inst.key}/X{x}Y{y}/{sched}: makespan not deterministic")
        if any(not v for v in walls.values()):
            return
        all_s = [w for v in scaled.values() for w in v]
        tasks = sum(r.n_tasks for v in reports.values() for r in v)
        out.measured("latency_ref_s", geomean(median(v) for v in scaled.values()), len(all_s))
        out.measured("throughput_ref_per_s", tasks / sum(all_s), len(all_s))
        out.named["sim_wall_s"] = {"unit": "s", "p50": geomean(median(v) for v in walls.values()),
                                   "n": len(all_s)}
        out.named["sim_ref_s"] = {"unit": "s", "p50": out.metrics["latency_ref_s"],
                                  "n": len(all_s)}
        makespans = [reports[p][0].makespan for p in points]
        out.set_named("sim_makespan_s", "s", geomean(makespans), len(makespans))
        for point in points:
            inst, x, y, sched = point
            out.set_named(f"sim_makespan_s.{inst.algo}.X{x}Y{y}.{sched}", "s",
                          reports[point][0].makespan, 1)


# -- open-loop serving ----------------------------------------------------------


FLEET_WORKERS = 2


def make_daemon(workdir: str) -> Any:
    """The daemon every serve measurement uses: two fleet workers, the
    submission WAL and per-job commit journals on, fair-share ordering ("fair")."""
    from repro.serve.daemon import ServeDaemon

    return ServeDaemon(
        workers=FLEET_WORKERS, queue_cap=64, policy="fair",
        wal_path=os.path.join(workdir, "serve.srvj"),
        job_journal_dir=os.path.join(workdir, "jobs"),
        threads_per_node=THREADS_PER_NODE,
    )


def job_spec(inst: Instance, tenant: str) -> Any:
    from repro.serve.job import JobSpec

    # nodes=2: each job takes one fleet worker, so two jobs run at once.
    return JobSpec(tenant=tenant, algo=inst.algo, size=inst.size, seed=inst.seed, nodes=2)


@dataclass
class Arrival:
    due: float
    inst: Instance
    tenant: str
    submitted: float = 0.0
    job_id: Optional[str] = None
    shed: str = ""


def open_loop(daemon: Any, arrivals: List[Arrival], tracer: Any = None) -> None:
    """Submit each arrival at its absolute due time (never relative
    sleeps, so lateness does not accumulate); record the actual time."""
    clock = daemon.clock
    for arr in arrivals:
        delay = arr.due - clock.now()
        if delay > 0:
            time.sleep(delay)
        arr.submitted = clock.now()
        spec = job_spec(arr.inst, arr.tenant)
        if tracer is not None:
            with tracer.span("serve.submit", trace=f"submit:{arr.tenant}:{arr.inst.key}") as attrs:
                decision = daemon.submit(spec)
                attrs["job_id"] = decision.job_id
        else:
            decision = daemon.submit(spec)
        if decision.accepted:
            arr.job_id = decision.job_id
        else:
            arr.shed = decision.reason


def serve_oracle(inst: Instance, problem: Any) -> str:
    """Digest of a serial solve with the daemon's (default) partitions."""
    return timed_solve(inst, problem, "serial")[1].report.run_digest


def check_jobs(daemon: Any, arrivals: List[Arrival], oracles: Dict[Instance, str],
               out: Outcome) -> List[Tuple[Arrival, Any]]:
    """Every job must end ``done`` with its serial oracle's digest;
    returns the (arrival, record) pairs that passed."""
    good = []
    for arr in arrivals:
        out.attempted += 1
        if arr.job_id is None:
            out.fail(f"shed {arr.tenant}/{arr.inst.key}: {arr.shed}")
            continue
        rec = daemon.get(arr.job_id)
        if rec is None or rec.status != "done":
            out.fail(f"{arr.job_id}: status {getattr(rec, 'status', None)} {getattr(rec, 'detail', '')}")
        elif rec.run_digest != oracles[arr.inst]:
            out.fail(f"{arr.job_id}: digest {rec.run_digest} != serial {oracles[arr.inst]}")
        else:
            good.append((arr, rec))
    return good


def serve_layer_metrics(pairs: List[Tuple[Arrival, Any]], window: float,
                        out: Dict[str, float]) -> None:
    """serve.* rates from finished jobs' records."""
    runs = [rec.finished_at - rec.started_at for _, rec in pairs]
    waits = [rec.started_at - rec.submitted_at for _, rec in pairs]
    lags = [arr.submitted - arr.due for arr, _ in pairs]
    out["serve.run_p50_s"] = median(runs)
    out["serve.queue_wait_p50_s"] = median(waits)
    out["serve.queue_wait_p90_s"] = quantile(waits, 0.9)
    out["serve.busy_frac"] = sum(runs) / (FLEET_WORKERS * window)
    out["serve.generator_lag_p90_s"] = quantile(lags, 0.9)


WORKLOADS = {w.name: w for w in (PaperKernels, FineWavefront, PaperSim)}
