"""Unit tests for the numpy DP kernels, against hand-rolled references.

The kernels must match the plain per-cell recurrence bit for bit, so every
comparison with a per-cell reference uses ``np.array_equal``. Small
``TILE``/``CHUNK_ELEMS`` settings push small inputs through the multi-tile
and chunked paths that paper-scale regions take.
"""

import functools

import numpy as np
import pytest

from repro.algorithms import kernels
from repro.algorithms.kernels import (
    edit_distance_region,
    lcs_region,
    matrix_chain_region,
    nussinov_region,
    swgg_region,
)


@pytest.fixture(params=["default", "small"])
def tiling(request, monkeypatch):
    """Run a test at the module's tile size and at a tiny one (tile 3,
    chunks of 7 elements), which splits every region into many tiles."""
    if request.param == "small":
        monkeypatch.setattr(kernels, "TILE", 3)
        monkeypatch.setattr(kernels, "CHUNK_ELEMS", 7)
    return request.param


def random_cuts(rng, n, k=3):
    """Sorted cut points ``0 = c_0 < ... < c_m = n`` at up to ``k`` random places."""
    return sorted({0, n, *rng.integers(0, n, size=k).tolist()})


def grid_regions(rng, h, w):
    """Random sub-regions of an ``h x w`` grid in row-major (wavefront-safe) order."""
    rc, cc = random_cuts(rng, h), random_cuts(rng, w)
    return [
        (range(rc[x], rc[x + 1]), range(cc[y], cc[y + 1]))
        for x in range(len(rc) - 1)
        for y in range(len(cc) - 1)
    ]


def span_regions(rng, n):
    """Random block regions of an ``n``-span triangle, bottom-up then left to
    right, skipping blocks wholly below the diagonal."""
    cuts = random_cuts(rng, n, k=4)
    spans = [range(cuts[x], cuts[x + 1]) for x in range(len(cuts) - 1)]
    return [(r, c) for r in reversed(spans) for c in spans if c.stop - 1 >= r.start]


def _ed_reference(a: str, b: str) -> np.ndarray:
    m, n = len(a), len(b)
    D = np.zeros((m + 1, n + 1))
    D[0, :] = np.arange(n + 1)
    D[:, 0] = np.arange(m + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            D[i, j] = min(D[i - 1, j] + 1, D[i, j - 1] + 1, D[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return D


def _grid_reference(cell, top, left):
    """Per-cell fill of a grid DP from its top row and left column."""
    h, w = len(left), len(top) - 1
    D = np.zeros((h + 1, w + 1))
    D[0, :] = top
    D[1:, 0] = left
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            D[i, j] = cell(D[i - 1, j], D[i, j - 1], D[i - 1, j - 1], i - 1, j - 1)
    return D


class TestEditDistanceRegion:
    def test_whole_block_matches_reference(self):
        a, b = "kitten", "sitting"
        ref = _ed_reference(a, b)
        D = np.zeros((len(a) + 1, len(b) + 1))
        D[0, :] = np.arange(len(b) + 1)
        D[:, 0] = np.arange(len(a) + 1)
        sub = (np.frombuffer(a.encode(), np.uint8)[:, None]
               != np.frombuffer(b.encode(), np.uint8)[None, :]).astype(float)
        edit_distance_region(D, sub, range(len(a)), range(len(b)))
        assert np.array_equal(D, ref)
        assert D[-1, -1] == 3

    def test_region_by_region_equals_whole(self):
        rng = np.random.default_rng(0)
        a = "".join(rng.choice(list("AB"), 9))
        b = "".join(rng.choice(list("AB"), 12))
        ref = _ed_reference(a, b)
        D = np.zeros((10, 13))
        D[0, :] = np.arange(13)
        D[:, 0] = np.arange(10)
        sub = (np.frombuffer(a.encode(), np.uint8)[:, None]
               != np.frombuffer(b.encode(), np.uint8)[None, :]).astype(float)
        # Sweep 3x4 sub-regions in wavefront order.
        for bi in range(3):
            for bj in range(3):
                edit_distance_region(D, sub, range(bi * 3, bi * 3 + 3), range(bj * 4, bj * 4 + 4))
        assert np.array_equal(D, ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tile_splits_bit_exact(self, seed):
        """Non-square grids, shifted boundaries (as a mid-matrix block sees
        them), random tile splits; includes one-cell rows/cols."""
        rng = np.random.default_rng(seed)
        h, w = (int(x) for x in rng.integers(1, 40, size=2))
        sub = rng.integers(0, 2, size=(h, w)).astype(float)
        top = 7.0 + np.arange(w + 1)
        left = 7.0 + np.arange(1, h + 1)
        ref = _grid_reference(
            lambda up, lf, dg, a, b: min(up + 1, lf + 1, dg + sub[a, b]), top, left
        )
        D = np.zeros((h + 1, w + 1))
        D[0, :], D[1:, 0] = top, left
        for rows, cols in grid_regions(rng, h, w):
            edit_distance_region(D, sub, rows, cols)
        assert np.array_equal(D, ref)

    def test_one_cell_region(self):
        D = np.array([[4.0, 5.0], [5.0, 0.0]])
        edit_distance_region(D, np.zeros((1, 1)), range(1), range(1))
        assert D[1, 1] == 4.0


class TestLCSRegion:
    def test_known_case(self):
        a, b = "ABCBDAB", "BDCABA"
        D = np.zeros((len(a) + 1, len(b) + 1))
        match = (np.frombuffer(a.encode(), np.uint8)[:, None]
                 == np.frombuffer(b.encode(), np.uint8)[None, :])
        lcs_region(D, match, range(len(a)), range(len(b)))
        assert D[-1, -1] == 4  # "BCBA"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tile_splits_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        h, w = (int(x) for x in rng.integers(1, 40, size=2))
        a = rng.integers(0, 4, size=h)
        b = rng.integers(0, 4, size=w)
        match = (a[:, None] == b[None, :]).astype(float)
        zero_top, zero_left = np.zeros(w + 1), np.zeros(h)
        ref = _grid_reference(
            lambda up, lf, dg, i, j: dg + 1 if match[i, j] else max(up, lf), zero_top, zero_left
        )
        D = np.zeros((h + 1, w + 1))
        for rows, cols in grid_regions(rng, h, w):
            lcs_region(D, match, rows, cols)
        assert np.array_equal(D, ref)


def _nussinov_table(can, min_sep):
    """Per-cell bottom-up Nussinov table (pure Python)."""
    n = len(can)
    F = [[0.0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            best = max(F[i + 1][j], F[i][j - 1])
            if j - i > min_sep and can[i][j]:
                best = max(best, F[i + 1][j - 1] + 1.0)
            for k in range(i, j):
                best = max(best, F[i][k] + F[k + 1][j])
            F[i][j] = best
    return np.array(F)


class TestNussinovRegion:
    def _brute(self, pairs_ok, n, min_sep=1):
        @functools.lru_cache(maxsize=None)
        def best(i, j):
            if j <= i:
                return 0
            cands = [best(i + 1, j), best(i, j - 1)]
            if j - i > min_sep and pairs_ok[i][j]:
                cands.append(best(i + 1, j - 1) + 1)
            for k in range(i + 1, j):
                cands.append(best(i, k) + best(k + 1, j))
            return max(cands)

        return best(0, n - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_window_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        can = rng.random((n, n)) < 0.4
        can = np.triu(can, 1)
        W = np.zeros((n, n))
        nussinov_region(W, can, 0, range(n), range(n), min_sep=1)
        brute = self._brute(tuple(map(tuple, can)), n)
        assert W[0, n - 1] == brute

    def test_min_sep_zero_allows_adjacent(self):
        can = np.ones((2, 2), dtype=bool)
        W = np.zeros((2, 2))
        nussinov_region(W, can, 0, range(2), range(2), min_sep=0)
        assert W[0, 1] == 1

    def test_min_sep_blocks_adjacent(self):
        can = np.ones((2, 2), dtype=bool)
        W = np.zeros((2, 2))
        nussinov_region(W, can, 0, range(2), range(2), min_sep=1)
        assert W[0, 1] == 0

    def test_offset_window(self):
        """Computing cells (3..5) of a larger problem via a shifted window."""
        n = 6
        can = np.zeros((n, n), dtype=bool)
        can[3, 5] = True
        W = np.zeros((3, 3))
        nussinov_region(W, can[3:, 3:], 3, range(3, 6), range(3, 6))
        assert W[0, 2] == 1  # F[3, 5]

    @pytest.mark.parametrize("min_sep", [0, 1, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_block_splits_bit_exact(self, tiling, min_sep, seed):
        """Whole window swept in random blocks. At tile 3 a 40-span window
        holds tiles on, touching and far from the diagonal."""
        rng = np.random.default_rng(seed)
        n = 40 if tiling == "small" else 75
        can = rng.random((n, n)) < 0.4
        ref = _nussinov_table(can.tolist(), min_sep)
        W = np.zeros((n, n))
        for rows, cols in span_regions(rng, n):
            nussinov_region(W, can, 0, rows, cols, min_sep=min_sep)
        assert np.array_equal(W, ref)

    @pytest.mark.parametrize("min_sep", [0, 1, 3])
    def test_off_diagonal_block_window(self, tiling, min_sep):
        """One off-diagonal block through the same shifted window the
        triangular evaluator builds (row strip, column strip, corner)."""
        rng = np.random.default_rng(min_sep)
        n = 48
        can = rng.random((n, n)) < 0.5
        ref = _nussinov_table(can.tolist(), min_sep)
        r0, r1, c0, c1 = 8, 20, 30, 44
        L = c1 - r0
        W = np.zeros((L, L))
        W[0 : r1 - r0, 0 : c0 - r0] = ref[r0:r1, r0:c0]
        W[r1 - r0 : L, c0 - r0 : L] = ref[r1:c1, c0:c1]
        W[r1 - r0, c0 - r0 - 1] = ref[r1, c0 - 1]
        nussinov_region(W, can[r0:c1, r0:c1], r0, range(r0, r1), range(c0, c1), min_sep=min_sep)
        assert np.array_equal(W[0 : r1 - r0, c0 - r0 : L], ref[r0:r1, c0:c1])


def _matrix_chain_table(dims):
    """Per-cell bottom-up matrix-chain table (pure Python floats)."""
    n = len(dims) - 1
    m = [[0.0] * n for _ in range(n)]
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            m[i][j] = min(
                m[i][k] + m[k + 1][j] + dims[i] * dims[k + 1] * dims[j + 1] for k in range(i, j)
            )
    return np.array(m)


class TestMatrixChainRegion:
    CLRS = [30, 35, 15, 5, 10, 20, 25]

    def test_cormen_example(self):
        # CLRS 15.2: dims (30,35,15,5,10,20,25) -> optimal cost 15125.
        dims = np.array(self.CLRS, dtype=float)
        n = 6
        W = np.zeros((n, n))
        matrix_chain_region(W, dims, 0, range(n), range(n))
        assert W[0, n - 1] == 15125

    def test_two_matrices(self):
        dims = np.array([2, 3, 4], dtype=float)
        W = np.zeros((2, 2))
        matrix_chain_region(W, dims, 0, range(2), range(2))
        assert W[0, 1] == 24

    def test_cormen_example_bit_exact(self, tiling):
        dims = [float(d) for d in self.CLRS]
        n = len(dims) - 1
        W = np.zeros((n, n))
        for rows, cols in span_regions(np.random.default_rng(0), n):
            matrix_chain_region(W, np.array(dims), 0, rows, cols)
        assert np.array_equal(W, _matrix_chain_table(dims))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dims_bit_exact(self, tiling, seed):
        rng = np.random.default_rng(seed)
        n = 40 if tiling == "small" else 70
        dims = rng.integers(1, 100, size=n + 1).astype(float).tolist()
        W = np.zeros((n, n))
        for rows, cols in span_regions(rng, n):
            matrix_chain_region(W, np.array(dims), 0, rows, cols)
        assert np.array_equal(W, _matrix_chain_table(dims))


def _swgg_table(scores, gap):
    """Per-cell SWGG matrix H (pure Python loops over the prefixes)."""
    m, n = scores.shape
    H = np.zeros((m + 1, n + 1))
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = max(0.0, H[i - 1, j - 1] + scores[i - 1, j - 1])
            for k in range(j):
                best = max(best, H[i, k] - gap[j - k])
            for k in range(i):
                best = max(best, H[k, j] - gap[i - k])
            H[i, j] = best
    return H


def _swgg_blocks(H, scores, gap, rng, row_cuts, col_cuts):
    """Fill H block by block (1-based matrix cuts), each block in random
    sub-regions, shipping strips as the problem class does."""
    for x in range(len(row_cuts) - 1):
        for y in range(len(col_cuts) - 1):
            R0, C0 = row_cuts[x], col_cuts[y]
            h, w = row_cuts[x + 1] - R0, col_cuts[y + 1] - C0
            Hloc = np.empty((h + 1, w + 1))
            Hloc[0, :] = H[R0 - 1, C0 - 1 : C0 + w]
            Hloc[1:, 0] = H[R0 : R0 + h, C0 - 1]
            Hrow = H[R0 : R0 + h, 0:C0].copy()
            Hcol = H[0:R0, C0 : C0 + w].copy()
            sub = scores[R0 - 1 : R0 - 1 + h, C0 - 1 : C0 - 1 + w]
            for rows, cols in grid_regions(rng, h, w):
                swgg_region(Hloc, Hrow, Hcol, sub, gap, C0, R0, rows, cols)
            H[R0 : R0 + h, C0 : C0 + w] = Hloc[1:, 1:]
    return H


class TestSWGGRegion:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_log_gap_bit_exact(self, tiling, seed):
        """Non-affine gap ``3 + log1p(d)``; blocks at R0 = 1 and C0 = 1 and
        interior ones, each swept in random sub-regions."""
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(20, 45, size=2))
        scores = rng.choice([2.0, -1.0], size=(m, n))
        gap = 3.0 + np.log1p(np.arange(max(m, n) + 1.0))
        gap[0] = 1e30
        ref = _swgg_table(scores, gap)
        row_cuts = [1, *sorted(set(rng.integers(2, m + 1, size=2).tolist())), m + 1]
        col_cuts = [1, *sorted(set(rng.integers(2, n + 1, size=2).tolist())), n + 1]
        H = _swgg_blocks(np.zeros((m + 1, n + 1)), scores, gap, rng, row_cuts, col_cuts)
        assert np.array_equal(H, ref)
