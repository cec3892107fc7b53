"""Micro-benchmarks of the runtime's hot paths.

Not a paper figure — these keep the substrate honest: DAG parsing
throughput, kernel cell rates, the thread-level list scheduler, and
transport round-trips. pytest-benchmark reports ops/sec; the kernel
benches also record the cells per call in ``extra_info["cells"]``, so
cells/s is ops/sec times that.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import EditDistance, Nussinov
from repro.algorithms.kernels import (
    edit_distance_region,
    matrix_chain_region,
    nussinov_region,
    swgg_region,
)
from repro.comm.messages import TaskAssign
from repro.comm.transport import channel_pair
from repro.dag.library import TriangularPattern, WavefrontPattern
from repro.dag.parser import DAGParser
from repro.dag.partition import partition_pattern
from repro.backends.simulated import simulate_level
from repro.schedulers.policy import make_policy


def test_parser_drain_2500_blocks(benchmark):
    """Parsing the paper-scale abstract DAG (50x50 blocks)."""
    pattern = WavefrontPattern(50, 50)

    def drain():
        return len(DAGParser(pattern).run_all())

    assert benchmark(drain) == 2500


def test_partition_triangular_paper_scale(benchmark):
    pattern = TriangularPattern(10000)
    part = benchmark(lambda: partition_pattern(pattern, 200))
    assert part.n_blocks == 50 * 51 // 2


def test_edit_distance_kernel_cells_per_second(benchmark):
    block = 256
    D = np.zeros((block + 1, block + 1))
    D[0, :] = np.arange(block + 1)
    D[:, 0] = np.arange(block + 1)
    sub = np.random.default_rng(0).random((block, block)).round()

    benchmark.extra_info["cells"] = block * block
    benchmark(lambda: edit_distance_region(D, sub, range(block), range(block)))


def test_nussinov_kernel_block(benchmark):
    n = 96
    can = np.triu(np.random.default_rng(0).random((n, n)) < 0.4, 1)

    def run():
        W = np.zeros((n, n))
        nussinov_region(W, can, 0, range(n), range(n))
        return W[0, n - 1]

    benchmark.extra_info["cells"] = n * (n + 1) // 2
    benchmark(run)


def _swgg_block(h, w, r0, c0, seed=0):
    """Kernel arguments for an ``h x w`` SWGG block at matrix origin ``(r0, c0)``."""
    rng = np.random.default_rng(seed)
    gap = 2.0 + 0.5 * np.arange(max(r0, c0) + max(h, w) + 1.0)
    gap[0] = 1e30
    Hrow = rng.random((h, c0)) * 4.0
    Hcol = rng.random((r0, w)) * 4.0
    Hloc = np.zeros((h + 1, w + 1))
    Hloc[0, :] = rng.random(w + 1) * 4.0
    Hloc[1:, 0] = Hrow[:, -1]
    sub = rng.choice([2.0, -1.0], size=(h, w))
    return Hloc, Hrow, Hcol, sub, gap


def test_swgg_kernel_block(benchmark):
    """A 64x64 SWGG block deep in a matrix (prefix scans of ~700 cells)."""
    h = w = 64
    r0 = c0 = 641
    Hloc, Hrow, Hcol, sub, gap = _swgg_block(h, w, r0, c0)

    benchmark.extra_info["cells"] = h * w
    benchmark(lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, c0, r0, range(h), range(w)))


def test_swgg_kernel_paper_tile(benchmark):
    """Cell rate at the paper-kernels sub-block shape: SWGG-160 split 20/5
    gives 5x5 regions; this one sits at column/row 140."""
    h = w = 5
    r0 = c0 = 140
    Hloc, Hrow, Hcol, sub, gap = _swgg_block(h, w, r0, c0)

    benchmark.extra_info["cells"] = h * w
    benchmark(lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, c0, r0, range(h), range(w)))


def test_nussinov_kernel_paper_tile(benchmark):
    """Cell rate at the paper-kernels sub-block shape: Nussinov-256 split
    32/8 gives 8x8 regions; this one is off the diagonal at offset 200."""
    n = 256
    can = np.triu(np.random.default_rng(0).random((n, n)) < 0.4, 1)
    W = np.zeros((n, n))
    nussinov_region(W, can, 0, range(n), range(n))

    benchmark.extra_info["cells"] = 64
    benchmark(lambda: nussinov_region(W, can, 0, range(0, 8), range(200, 208)))


def test_matrix_chain_kernel_block(benchmark):
    n = 96
    dims = np.random.default_rng(0).integers(5, 50, size=n + 1).astype(float)

    def run():
        W = np.zeros((n, n))
        matrix_chain_region(W, dims, 0, range(n), range(n))
        return W[0, n - 1]

    benchmark.extra_info["cells"] = n * (n + 1) // 2
    benchmark(run)


def test_simulate_level_400_tasks(benchmark):
    """The memoized thread-level scheduler (one inner DAG of paper shape)."""
    pattern = WavefrontPattern(20, 20)
    costs = {v: 0.001 for v in pattern.vertices()}
    policy = make_policy("dynamic", 11, 20)

    benchmark(lambda: simulate_level(pattern, costs, 11, policy))


def test_queue_channel_round_trip(benchmark):
    a, b = channel_pair()
    payload = {"x": np.zeros(1000)}

    def round_trip():
        a.send(TaskAssign((0, 0), 0, payload))
        return b.recv(timeout=1.0)

    benchmark(round_trip)


def test_extract_inputs_swgg_like(benchmark):
    """Master-side input slicing for a mid-matrix block."""
    from repro.algorithms import SmithWatermanGG

    sw = SmithWatermanGG.random(2000, seed=0)
    part = partition_pattern(sw.pattern(), 200)
    state = sw.make_state()

    benchmark(lambda: sw.extract_inputs(state, part, (5, 5)))


def test_block_evaluation_edit_distance(benchmark):
    ed = EditDistance.random(512, 512, seed=0)
    part = partition_pattern(ed.pattern(), 128)
    state = ed.make_state()
    inputs = ed.extract_inputs(state, part, (0, 0))
    inner = part.sub_partition((0, 0), 32)

    def evaluate():
        return ed.evaluator(part, (0, 0), inputs).run_serial(inner)

    benchmark(evaluate)


def test_block_evaluation_nussinov(benchmark):
    nu = Nussinov.random(256, seed=0)
    part = partition_pattern(nu.pattern(), 64)
    state = nu.make_state()
    inputs = nu.extract_inputs(state, part, (0, 0))
    inner = part.sub_partition((0, 0), 16)

    benchmark(lambda: nu.evaluator(part, (0, 0), inputs).run_serial(inner))
