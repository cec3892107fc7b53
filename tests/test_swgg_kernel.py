"""Direct unit tests of the SWGG kernel (the trickiest indexing in the repo).

Everything else tests SWGG through the problem class; here the kernel is
driven directly against a brute-force cell evaluator, including partial
regions, non-zero block origins, and degenerate gap functions.
"""

import numpy as np
import pytest

from repro.algorithms.kernels import swgg_region


def brute_force_H(a_scores, gap, m, n):
    """Reference H over an (m+1, n+1) matrix; a_scores[i-1, j-1] is the
    substitution score of matrix cell (i, j)."""
    H = np.zeros((m + 1, n + 1))
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = 0.0
            best = max(best, H[i - 1, j - 1] + a_scores[i - 1, j - 1])
            for k in range(j):
                best = max(best, H[i, k] - gap[j - k])
            for k in range(i):
                best = max(best, H[k, j] - gap[i - k])
            H[i, j] = best
    return H


def run_kernel_block(H, scores, gap, R0, C0, h, w, regions=None):
    """Execute one block (matrix rows R0..R0+h-1, cols C0..C0+w-1) through
    the kernel, shipping the strips exactly as the problem class does."""
    Hrow = H[R0 : R0 + h, 0:C0]
    Hcol = H[0:R0, C0 : C0 + w]
    Hloc = np.empty((h + 1, w + 1))
    Hloc[0, :] = H[R0 - 1, C0 - 1 : C0 + w]
    Hloc[1:, 0] = H[R0 : R0 + h, C0 - 1]
    sub = scores[R0 - 1 : R0 - 1 + h, C0 - 1 : C0 - 1 + w]
    for rows, cols in regions or [(range(h), range(w))]:
        swgg_region(Hloc, Hrow, Hcol, sub, gap, C0, R0, rows, cols)
    return Hloc[1:, 1:]


@pytest.fixture
def instance():
    rng = np.random.default_rng(3)
    m = n = 9
    scores = rng.choice([2.0, -1.0], size=(m, n))
    gap = 2.0 + 0.5 * np.arange(max(m, n) + 1)
    gap[0] = 1e30
    return m, n, scores, gap


class TestWholeMatrixAsOneBlock:
    def test_matches_brute_force(self, instance):
        m, n, scores, gap = instance
        ref = brute_force_H(scores, gap, m, n)
        H = np.zeros((m + 1, n + 1))
        block = run_kernel_block(H, scores, gap, 1, 1, m, n)
        assert np.array_equal(block, ref[1:, 1:])


class TestInteriorBlock:
    def test_block_with_filled_prefixes(self, instance):
        m, n, scores, gap = instance
        ref = brute_force_H(scores, gap, m, n)
        H = ref.copy()
        R0, C0, h, w = 4, 5, 3, 4
        H[R0 : R0 + h, C0 : C0 + w] = -999.0  # the block must be recomputed
        block = run_kernel_block(H, scores, gap, R0, C0, h, w)
        assert np.array_equal(block, ref[R0 : R0 + h, C0 : C0 + w])

    def test_region_by_region_wavefront(self, instance):
        m, n, scores, gap = instance
        ref = brute_force_H(scores, gap, m, n)
        H = ref.copy()
        R0, C0, h, w = 2, 3, 4, 6
        H[R0 : R0 + h, C0 : C0 + w] = -999.0
        regions = [
            (range(a, min(a + 2, h)), range(b, min(b + 3, w)))
            for a in range(0, h, 2)
            for b in range(0, w, 3)
        ]
        # Wavefront order: sort sub-regions by top-left corner diagonal.
        regions.sort(key=lambda rc: (rc[0].start + rc[1].start, rc[0].start))
        block = run_kernel_block(H, scores, gap, R0, C0, h, w, regions=regions)
        assert np.array_equal(block, ref[R0 : R0 + h, C0 : C0 + w])


class TestGapFunctionEdgeCases:
    def test_huge_gaps_reduce_to_diagonal_only(self):
        m = n = 6
        rng = np.random.default_rng(0)
        scores = rng.choice([3.0, -1.0], size=(m, n))
        gap = np.full(max(m, n) + 1, 1e30)
        ref = brute_force_H(scores, gap, m, n)
        H = np.zeros((m + 1, n + 1))
        block = run_kernel_block(H, scores, gap, 1, 1, m, n)
        assert np.array_equal(block, ref[1:, 1:])
        # With gaps impossible, every cell is a pure diagonal chain.
        assert block[0, 0] == max(0.0, scores[0, 0])

    def test_zero_gap_pathology(self):
        """gap == 0 for every length: score can teleport along rows/cols."""
        m = n = 5
        scores = np.full((m, n), -1.0)
        scores[2, 2] = 5.0
        gap = np.zeros(max(m, n) + 1)
        gap[0] = 1e30
        ref = brute_force_H(scores, gap, m, n)
        H = np.zeros((m + 1, n + 1))
        block = run_kernel_block(H, scores, gap, 1, 1, m, n)
        assert np.array_equal(block, ref[1:, 1:])
        # The single high score propagates right/down undiminished.
        assert block[4, 2] == 5.0 and block[2, 4] == 5.0
