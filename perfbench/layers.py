"""The traced run: per-layer numbers from spans the benchmark records.

Nothing here changes the program. Two techniques feed one in-memory
:class:`~perfbench.spans.Tracer`:

- **Replay.** :func:`replay` re-executes one solve step by step through
  each layer's public functions — ``build_partition``,
  ``DAGParser.computable/complete``, ``extract_inputs``, ``content_digest``,
  ``oob_dumps/oob_loads``, a ``pipe_channel_pair`` round trip,
  ``sub_partition``, ``evaluator(...).run_serial``,
  ``CommitJournal.commit`` and ``apply_result`` — with a span around each
  call, and folds the commit digests exactly as the runtime does. Its
  folded digest must equal the serial run's.
- **Interposition.** Around ``run_simulated`` and the serve daemon, the
  suite wraps ``simulate_level``, the DAG parser, ``build_partition``,
  ``sub_partition`` and ``CommitJournal.commit`` for the duration of the
  call (:func:`~perfbench.spans.interpose`).

Every workload's traced run covers every layer: its own instances are
replayed, solved plain and observed on the three real backends,
simulated under both schedulers, and served through a daemon. The
per-layer metrics are therefore the same list on every workload, measured
on that workload's inputs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Tuple

from perfbench.common import OUT, geomean, median
from perfbench.spans import Tracer, interpose
from perfbench.workloads import (
    BACKENDS,
    NODES,
    SIM_SCHEDULERS,
    Arrival,
    Instance,
    Outcome,
    PaperSim,
    Workload,
    answer,
    check_jobs,
    make_daemon,
    open_loop,
    serve_layer_metrics,
    serve_oracle,
    timed_solve,
)

#: Spans whose self time is replayed layer work (everything but glue).
LAYER_SPANS = (
    "dag.build_partition", "dag.computable", "dag.complete", "dag.sub_partition",
    "algorithms.extract_inputs", "algorithms.evaluator", "algorithms.run_serial",
    "algorithms.apply_result", "comm.content_digest", "comm.oob_dumps",
    "comm.oob_loads", "comm.pipe_send", "comm.pipe_recv", "durable.commit",
)
#: Replay spans only a cross-process transport pays for.
PIPE_SPANS = ("comm.oob_dumps", "comm.oob_loads", "comm.pipe_send", "comm.pipe_recv")
#: Lanes of ``repro.obs.prof.build_profile``'s attribution rows.
LANES = ("compute", "serialize", "wire", "journal", "digest", "idle")


def _echo(channel: Any) -> None:
    """Far end of the replay's pipe: send every message straight back."""
    from repro.comm.messages import EndSignal

    while True:
        msg = channel.recv(timeout=60.0)
        if isinstance(msg, EndSignal):
            return
        channel.send(msg)


def replay(inst: Instance, problem: Any, tracer: Tracer, workdir: str) -> Dict[str, Any]:
    """One solve through every layer's public functions, one span per call.

    Returns the folded run digest, the finalized value, the pipe round
    trips and the byte and cell counts the layer rates need.
    """
    from repro.comm.messages import EndSignal, TaskAssign
    from repro.comm.serialization import content_digest, oob_dumps, oob_loads
    from repro.comm.transport import pipe_channel_pair
    from repro.dag.parser import DAGParser
    from repro.durable.journal import CommitJournal
    from repro.integrity import fold_commit, run_digest_hex

    proc, thread = inst.config("serial").partitions_for(problem)
    stats: Dict[str, Any] = {"cells": 0, "subtasks": 0, "digest_bytes": 0,
                             "ser_bytes": 0, "rtt": []}
    master, far = pipe_channel_pair()
    echo = threading.Thread(target=_echo, args=(far,), daemon=True)
    echo.start()
    journal = CommitJournal.create(os.path.join(workdir, f"{inst.key}.walj"), fsync=False)
    acc = 0
    try:
        with tracer.span("replay.solve", trace=f"replay:{inst.key}"):
            with tracer.span("dag.build_partition"):
                partition = problem.build_partition(proc)
            parser = DAGParser(partition.abstract)
            state = problem.make_state()
            with tracer.span("dag.computable"):
                ready = list(parser.computable())
            while ready:
                bid = ready.pop()
                with tracer.span("replay.task", task=repr(bid)):
                    with tracer.span("algorithms.extract_inputs"):
                        inputs = problem.extract_inputs(state, partition, bid)
                    with tracer.span("comm.content_digest", hop="assign"):
                        d_in = content_digest(inputs)
                    with tracer.span("comm.oob_dumps"):
                        payload, buffers = oob_dumps(inputs)
                    with tracer.span("comm.oob_loads"):
                        shipped = oob_loads(payload, buffers)
                    r0 = time.perf_counter()
                    with tracer.span("comm.pipe_send"):
                        master.send(TaskAssign(bid, 0, shipped, digest=d_in))
                    with tracer.span("comm.pipe_recv"):
                        echoed = master.recv(timeout=60.0)
                    stats["rtt"].append(time.perf_counter() - r0)
                    with tracer.span("dag.sub_partition"):
                        inner = partition.sub_partition(bid, thread)
                    with tracer.span("algorithms.evaluator"):
                        evaluator = problem.evaluator(partition, bid, echoed.inputs)
                    with tracer.span("algorithms.run_serial"):
                        outputs = evaluator.run_serial(inner)
                    with tracer.span("comm.content_digest", hop="commit"):
                        d_out = content_digest(outputs)
                    with tracer.span("durable.commit") as attrs:
                        attrs["nbytes"] = journal.commit(bid, 0, outputs, digest=d_out)
                    with tracer.span("algorithms.apply_result"):
                        problem.apply_result(state, partition, bid, outputs)
                    acc = fold_commit(acc, bid, d_out)
                    with tracer.span("dag.complete"):
                        ready.extend(parser.complete(bid))
                stats["cells"] += partition.cell_count(bid)
                stats["subtasks"] += inner.n_blocks
                stats["ser_bytes"] += len(payload) + sum(len(b) for b in buffers)
                stats["digest_bytes"] += _nbytes(inputs) + _nbytes(outputs)
    finally:
        master.send(EndSignal())
        echo.join(timeout=30.0)
        master.close()
        far.close()
        journal.close()
    stats["digest"] = run_digest_hex(acc)
    stats["value"] = problem.finalize(state)
    return stats


def _nbytes(payload: Dict[str, Any]) -> int:
    return sum(int(getattr(v, "nbytes", 0)) for v in payload.values())


class LayerSuite:
    """Runs every layer of one workload's inputs under the tracer."""

    def __init__(self, workload: Workload, out: Outcome) -> None:
        self.workload = workload
        self.out = out
        self.tracer = Tracer()
        self.metrics: Dict[str, float] = {}
        #: Printed-only values: name -> (value, unit).
        self.named: Dict[str, Tuple[float, str]] = {}
        self.workdir = tempfile.mkdtemp(prefix="trace-", dir=OUT)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, ok: bool, msg: str) -> None:
        self.out.attempted += 1
        if not ok:
            self.out.fail(msg)

    # -- phases -------------------------------------------------------------

    def run(self, seconds: float) -> Dict[str, float]:
        instances = self.workload.layer_instances()
        problems = {i: i.problem() for i in instances}
        refs = {i: self.workload.reference(i) for i in instances}
        serial_digest, plain_wall = self.solves(instances, problems, refs, seconds)
        self.replays(instances, refs, serial_digest, plain_wall)
        self.simulate(instances, problems)
        self.serve_instances(instances, problems)
        return self.metrics

    def solves(self, instances: List[Instance], problems: Dict[Instance, Any],
               refs: Dict[Instance, Any], seconds: float,
               ) -> Tuple[Dict[Instance, str], Dict[str, float]]:
        """Plain and observed solves per backend, journaled alike, in rounds
        (alternating which goes first) until ``seconds`` have passed."""
        from repro.obs.prof import build_profile

        walls: Dict[Tuple[Instance, str, bool], List[float]] = {
            (i, b, o): [] for i in instances for b in BACKENDS for o in (False, True)}
        lane_rounds: List[Dict[str, float]] = []
        wasted = dispatched = 0
        wire_bytes = messages = proc_tasks = 0
        tasks = {b: 0 for b in BACKENDS}
        oracle: Dict[Instance, str] = {}
        serial_counters: Dict[Instance, tuple] = {}
        start = time.perf_counter()
        while True:
            order = (False, True) if len(lane_rounds) % 2 == 0 else (True, False)
            lanes = {lane: 0.0 for lane in LANES}
            for inst in instances:
                for backend in BACKENDS:
                    for observe in order:
                        path = os.path.join(self.workdir, f"{inst.key}-{backend}.walj")
                        secs, run = timed_solve(inst, problems[inst], backend, observe=observe,
                                                journal_path=path, journal_fsync=False)
                        rep = run.report
                        walls[(inst, backend, observe)].append(secs)
                        oracle.setdefault(inst, rep.run_digest)
                        self.check(answer(run.value) == refs[inst],
                                   f"{inst.key}/{backend}: answer != reference")
                        self.check(rep.run_digest == oracle[inst],
                                   f"{inst.key}/{backend}: digest {rep.run_digest} != serial {oracle[inst]}")
                        retries = rep.faults_recovered + rep.stale_results + rep.speculative_redispatches
                        wasted += retries
                        dispatched += rep.n_tasks + retries
                        if backend == "serial":
                            counters = (rep.n_tasks, rep.n_subtasks, rep.run_digest)
                            prev = serial_counters.setdefault(inst, counters)
                            self.check(prev == counters, f"{inst.key}: serial counters differ between runs")
                        if observe:
                            for row in build_profile(rep.events).attribution.values():
                                for lane in LANES:
                                    lanes[lane] += row.get(lane, 0.0)
                        elif not lane_rounds:
                            tasks[backend] += rep.n_tasks
                            if backend == "processes":
                                wire_bytes += rep.bytes_to_slaves + rep.bytes_to_master
                                messages += rep.messages
                                proc_tasks += rep.n_tasks
            lane_rounds.append(lanes)
            if time.perf_counter() - start >= seconds:
                break
        m = self.metrics
        plain = {b: sum(median(walls[(i, b, False)]) for i in instances) for b in BACKENDS}
        observed = {b: sum(median(walls[(i, b, True)]) for i in instances) for b in BACKENDS}
        for b in BACKENDS:
            m[f"runtime.tasks_per_s.{b}"] = tasks[b] / plain[b]
        m["runtime.useful_dispatch_frac"] = (dispatched - wasted) / dispatched
        self.named["runtime.retries"] = (wasted, "count")
        m["comm.bytes_per_task"] = wire_bytes / proc_tasks
        m["comm.messages_per_task"] = messages / proc_tasks
        m["obs.overhead_frac"] = sum(observed.values()) / sum(plain.values()) - 1.0
        for lane in LANES:
            m[f"obs.lane_s.{lane}"] = median([r[lane] for r in lane_rounds])
        self.named["solve_rounds"] = (len(lane_rounds), "count")
        return oracle, plain

    def replays(self, instances: List[Instance], refs: Dict[Instance, Any],
                oracle: Dict[Instance, str], plain_wall: Dict[str, float]) -> None:
        t = self.tracer
        before = len(t.spans)
        stats = []
        for inst in instances:
            s = replay(inst, inst.problem(), t, self.workdir)
            self.check(s["digest"] == oracle[inst],
                       f"replay {inst.key}: digest {s['digest']} != serial {oracle[inst]}")
            self.check(answer(s["value"]) == refs[inst], f"replay {inst.key}: answer != reference")
            stats.append((inst, s))
        spans = t.spans[before:]
        sub = Tracer()
        sub.spans = spans
        selfs = sub.self_time(LAYER_SPANS + ("replay.solve", "replay.task"))
        m = self.metrics
        kernel = sub.total("algorithms.run_serial")
        cells = sum(s["cells"] for _, s in stats)
        subtasks = sum(s["subtasks"] for _, s in stats)
        m["algorithms.kernel_s"] = kernel
        m["algorithms.cells_per_s"] = cells / kernel
        m["algorithms.us_per_subtask"] = 1e6 * kernel / subtasks
        m["algorithms.extract_s"] = sub.total("algorithms.extract_inputs")
        m["algorithms.apply_s"] = sub.total("algorithms.apply_result")
        for inst, s in stats:
            k = sum(sp.duration for sp in spans
                    if sp.name == "algorithms.run_serial" and sp.trace == f"replay:{inst.key}")
            self.named[f"algorithms.cells_per_s.{inst.algo}"] = (s["cells"] / k, "1/s")
        digest_bytes = sum(s["digest_bytes"] for _, s in stats)
        ser_bytes = sum(s["ser_bytes"] for _, s in stats)
        m["comm.digest_mb_per_s"] = digest_bytes / 1e6 / sub.total("comm.content_digest")
        m["comm.serialize_mb_per_s"] = ser_bytes / 1e6 / (
            sub.total("comm.oob_dumps") + sub.total("comm.oob_loads"))
        m["comm.pipe_rtt_us"] = 1e6 * median([r for _, s in stats for r in s["rtt"]])
        busy = sum(selfs[n] for n in LAYER_SPANS)
        m["obs.replay_unattributed_s"] = selfs["replay.solve"] + selfs["replay.task"]
        self.named["replay.busy_s"] = (busy, "s")
        for b in BACKENDS:
            # Derived, not measured: wall minus the replayed busy time of
            # the layers this backend runs, spread over its workers. Only
            # the processes backend pickles blocks through a pipe.
            used = busy if b == "processes" else busy - sum(selfs[n] for n in PIPE_SPANS)
            workers = 1 if b == "serial" else NODES - 1
            m[f"runtime.overhead_s.{b}"] = plain_wall[b] - used / workers

    def simulate(self, instances: List[Instance], problems: Dict[Instance, Any]) -> None:
        """Each simulated point plain (for rates) and interposed (for spans)."""
        from repro.backends import simulated
        from repro.backends.simulated import run_simulated, simulated_serial_makespan
        from repro.dag.parser import DAGParser
        from repro.dag.partition import Partition

        if isinstance(self.workload, PaperSim):
            w = self.workload
            points = [(w.problems[i], w.sim_config(x, y, s), i.key)
                      for (i, x, y, s) in w.points()]
        else:
            points = [(problems[i], i.config("simulated", scheduler=s), i.key)
                      for i in instances for s in SIM_SCHEDULERS]
        t = self.tracer
        classes = {type(p) for p, _, _ in points}
        targets = [(simulated, "simulate_level", "sim.simulate_level"),
                   (DAGParser, "computable", "dag.computable"),
                   (DAGParser, "complete", "dag.complete"),
                   (Partition, "sub_partition", "dag.sub_partition")]
        targets += [(cls, "build_partition", "dag.build_partition") for cls in classes]
        wall = tasks = 0.0
        util, idle_frac, speedups = [], [], []
        before = len(t.spans)
        for problem, config, key in points:
            t0 = time.perf_counter()
            _, rep = run_simulated(problem, config)
            wall += time.perf_counter() - t0
            tasks += rep.n_tasks
            with interpose(t, targets), t.span("sim.run", trace=f"sim:{key}:{config.scheduler}"):
                _, traced = run_simulated(problem, config)
            self.check(
                (traced.makespan, traced.messages, traced.bytes_to_slaves, traced.n_tasks)
                == (rep.makespan, rep.messages, rep.bytes_to_slaves, rep.n_tasks),
                f"sim {key}: report differs between identical runs")
            threads = sum(n.threads for n in config.cluster_spec().compute_nodes)
            util.append(rep.utilization)
            idle_frac.append(rep.idle_while_ready / (rep.makespan * threads))
            speedups.append(simulated_serial_makespan(problem, config) / rep.makespan)
        sub = Tracer()
        sub.spans = t.spans[before:]
        m = self.metrics
        m["sim.tasks_per_s"] = tasks / wall
        m["sim.level_s"] = sub.total("sim.simulate_level")
        m["sim.utilization"] = sum(util) / len(util)
        m["sim.idle_while_ready_frac"] = sum(idle_frac) / len(idle_frac)
        m["sim.speedup"] = geomean(speedups)
        ops = sub.named("dag.computable") + sub.named("dag.complete")
        m["dag.parser_ops_per_s"] = len(ops) / sum(s.duration for s in ops)
        m["dag.partition_s"] = sub.total("dag.build_partition")

    def _durable(self) -> None:
        """Journal and submit costs of the serve phase's jobs."""
        commits = [s for s in self.tracer.named("durable.commit") if s.trace.startswith("job:")]
        m = self.metrics
        m["durable.commit_us"] = 1e6 * median([s.duration for s in commits])
        m["durable.bytes_per_commit"] = sum(s.attrs["nbytes"] for s in commits) / len(commits)
        m["serve.submit_us"] = 1e6 * median([s.duration for s in self.tracer.named("serve.submit")])

    def _serve_targets(self) -> List[Tuple[Any, str, str]]:
        from repro.durable.journal import CommitJournal

        return [(CommitJournal, "commit", "durable.commit")]

    @staticmethod
    def _job_of(args: tuple) -> str:
        return "job:" + os.path.basename(getattr(args[0], "path", "?"))

    def serve_instances(self, instances: List[Instance], problems: Dict[Instance, Any]) -> None:
        """The workload's instances as jobs on a daemon with the WAL and
        per-job journals on, submitted on absolute due times."""
        oracles = {}
        for inst in instances:
            served = Instance(inst.algo, inst.size, inst.seed)
            oracles[served] = serve_oracle(served, problems[inst])
        daemon = make_daemon(self.workdir)
        daemon.start()
        try:
            base = daemon.clock.now() + 0.05
            arrivals = [Arrival(base + 0.05 * k, inst, "acme")
                        for k, inst in enumerate(oracles)]
            t0 = daemon.clock.now()
            with interpose(self.tracer, self._serve_targets(), trace_of=self._job_of,
                           result_attr="nbytes"):
                open_loop(daemon, arrivals, self.tracer)
                daemon.wait_idle(120.0)
            window = daemon.clock.now() - t0
            good = check_jobs(daemon, arrivals, oracles, self.out)
        finally:
            daemon.drain(timeout=60.0)
        if good:
            serve_layer_metrics(good, window, self.metrics)
        self._durable()


def traced_run(workload: Workload, seconds: float, spans_path: str) -> Outcome:
    """The ``--trace 1`` run: every per-layer metric, spans dumped at the end."""
    out = Outcome(inputs=workload.inputs())
    suite = LayerSuite(workload, out)
    try:
        workload.refs.ensure(workload.checked_instances() + workload.layer_instances())
        workload.setup(keep=True)
        out.metrics = suite.run(seconds)
        for name, (value, unit) in suite.named.items():
            out.set_named(name, unit, value, 1)
    finally:
        suite.tracer.dump(spans_path)
        suite.close()
    return out
