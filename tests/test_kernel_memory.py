"""Large regions through the tiled 2D/1D kernels: bounded memory, exact output.

A paper-scale SWGG block (n = 10000 split 32 ways) is a 312x312 region
whose cells scan prefixes of up to 10000 entries; one broadcast over the
whole region would need gigabytes. The kernels tile the region and chunk
the prefix axis, so their peak traced allocation stays at a few MB.
``tracemalloc`` sees numpy's buffers, so the peak covers every temporary.
Both kernels must still equal a per-cell reference bit for bit.
"""

import tracemalloc

import numpy as np

from repro.algorithms.kernels import nussinov_region, swgg_region

PEAK_LIMIT = 32 * 2**20


def traced_peak(fn):
    """Peak bytes traced while ``fn`` runs (inputs allocated before it are not counted)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def swgg_per_cell(Hloc, Hrow, Hcol, sub, gap, c0, r0):
    """One numpy reduction per prefix per cell, in row-major cell order."""
    h, w = sub.shape
    for a in range(h):
        i = r0 + a
        for b in range(w):
            j = c0 + b
            e = float(np.max(Hrow[a] - gap[j:b:-1]))
            if b:
                e = max(e, float(np.max(Hloc[a + 1, 1 : b + 1] - gap[b:0:-1])))
            f = float(np.max(Hcol[:, b] - gap[i:a:-1]))
            if a:
                f = max(f, float(np.max(Hloc[1 : a + 1, b + 1] - gap[a:0:-1])))
            Hloc[a + 1, b + 1] = max(0.0, Hloc[a, b] + sub[a, b], e, f)


def nussinov_per_cell(W, can_pair, min_sep):
    """One split-scan reduction per cell over a whole window."""
    n = W.shape[0]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            best = max(W[i + 1, j], W[i, j - 1])
            if j - i > min_sep and can_pair[i, j]:
                best = max(best, W[i + 1, j - 1] + 1.0)
            best = max(best, float(np.max(W[i, i:j] + W[i + 1 : j + 1, j])))
            W[i, j] = best


def test_paper_scale_swgg_region_bounded_and_exact():
    rng = np.random.default_rng(0)
    h = w = 312
    r0 = c0 = 5001  # block origin of the 17th of 32 blocks along each axis
    gap = 2.0 + 0.5 * np.arange(r0 + h + 1.0)
    gap[0] = 1e30
    # Prefix strips with scores that can beat the gaps, so both the
    # cross-block and the in-block terms win some cells.
    Hrow = rng.random((h, c0)) * 40.0
    Hcol = rng.random((r0, w)) * 40.0
    sub = rng.choice([2.0, -1.0], size=(h, w))
    Hloc = np.zeros((h + 1, w + 1))
    Hloc[0, :] = rng.random(w + 1) * 40.0
    Hloc[1:, 0] = Hrow[:, -1]
    expected = Hloc.copy()

    peak = traced_peak(
        lambda: swgg_region(Hloc, Hrow, Hcol, sub, gap, c0, r0, range(h), range(w))
    )
    assert peak <= PEAK_LIMIT, f"peak {peak / 2**20:.1f} MB"

    swgg_per_cell(expected, Hrow, Hcol, sub, gap, c0, r0)
    assert np.array_equal(Hloc, expected)


def test_whole_window_nussinov_bounded_and_exact():
    rng = np.random.default_rng(1)
    n = 256
    can = rng.random((n, n)) < 0.4
    W = np.zeros((n, n))
    expected = W.copy()

    peak = traced_peak(lambda: nussinov_region(W, can, 0, range(n), range(n), min_sep=1))
    assert peak <= PEAK_LIMIT, f"peak {peak / 2**20:.1f} MB"

    nussinov_per_cell(expected, can, 1)
    assert np.array_equal(W, expected)
