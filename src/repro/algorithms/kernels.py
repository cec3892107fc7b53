"""Vectorized DP cell-update kernels.

These are the innermost ``process`` functions bound to DAG vertices. All
kernels operate on *regions* (sub-rectangles of a block's local working
matrix) so the same code serves serial whole-block evaluation and
thread-level sub-block evaluation; callers guarantee the DAG ordering that
makes the reads safe.

Only the true in-tile dependency stays in interpreted code:

- The 2D/0D grid recurrences (edit distance, LCS) are row scans: the
  vertical and diagonal terms of a row are one vector expression and the
  horizontal chain is a running ``minimum``/``maximum`` accumulate.
- The 2D/1D recurrences walk a region in :data:`TILE`-sized tiles. Every
  prefix (SWGG) or split (Nussinov, matrix chain) term whose operands lie
  outside the tile is one bulk numpy reduction per tile; the terms that
  read cells of the tile itself run in a small scalar loop over Python
  lists. The bulk temporaries are chunked along the reduction axis so
  none exceeds :data:`CHUNK_ELEMS` elements, whatever the region size.

Every kernel produces bit-identical output to the plain per-cell
recurrence: the tiled kernels evaluate each term with the same
operations in the same order and only regroup ``max``/``min`` (exact in
any order); the row scans are exact on the integer-valued tables they
fill.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

NEG_INF = float(-1e30)

#: Side of the square tiles the 2D/1D kernels walk a region in. Bounds
#: the scalar in-tile work per cell and the frame each tile copies.
TILE = 16

#: Most elements one bulk-reduction temporary may hold (2 MiB of float64).
CHUNK_ELEMS = 1 << 18


def edit_distance_region(D: np.ndarray, sub: np.ndarray, rows: range, cols: range) -> None:
    """Fill an edit-distance region of a local matrix in place.

    ``D`` is the block-local matrix with one boundary row/column
    (``D[0, :]`` and ``D[:, 0]`` already hold predecessor data); ``sub`` is
    the 0/1 mismatch matrix for the whole block. ``rows``/``cols`` are
    0-based cell ranges within the block; cell ``(a, b)`` lives at
    ``D[a+1, b+1]``.

    Row scan on ``U = D - j`` (each column shifted by its index ``j``):
    ``x[b] = min(up[b] + 1, up[b-1] + sub, x[b-1] + 1)`` becomes
    ``u[b] = min(u_up[b] + 1, u_up[b-1] + sub - 1, u[b-1])``, whose last
    term is a running ``minimum.accumulate`` — exact on the
    integer-valued float64 edit distances.
    """
    h, w = len(rows), len(cols)
    if not (h and w):
        return
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    j = np.arange(w + 1, dtype=np.float64)
    U = V - j
    Sm = sub[r0 : r0 + h, c0 : c0 + w] - 1.0
    for a in range(h):
        u, x = U[a], U[a + 1]
        np.minimum(u[1:] + 1, u[:-1] + Sm[a], out=x[1:])
        np.minimum.accumulate(x, out=x)
    V[1:, 1:] = U[1:, 1:] + j[1:]


def lcs_region(D: np.ndarray, match: np.ndarray, rows: range, cols: range) -> None:
    """Fill a longest-common-subsequence region in place (same layout as
    :func:`edit_distance_region`, ``match`` boolean or 0/1).

    Row scan: ``t[b]`` is the diagonal ``+1`` on a match and the cell
    above otherwise, then ``x = maximum.accumulate(t)``. On a match the
    running maximum never exceeds the diagonal ``+1`` because an LCS
    table grows by at most one per step, so this equals the
    match-or-max recurrence exactly.
    """
    h, w = len(rows), len(cols)
    if not (h and w):
        return
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    M = match[r0 : r0 + h, c0 : c0 + w]
    for a in range(h):
        up, x = V[a], V[a + 1]
        x[1:] = np.where(M[a], up[:-1] + 1, up[1:])
        np.maximum.accumulate(x, out=x)


def needleman_wunsch_region(
    D: np.ndarray, scores: np.ndarray, gap: float, rows: range, cols: range
) -> None:
    """Global-alignment (Needleman-Wunsch, linear gap) region in place.

    Same layout as :func:`edit_distance_region`; ``scores`` holds the
    per-cell substitution scores and ``gap`` the (positive) per-symbol
    gap penalty. Max-form recurrence.

    Swept by anti-diagonals rather than rows: a row scan would rescale
    the horizontal chain by ``gap * j``, which is not exact for a general
    float ``gap``.
    """
    h, w = len(rows), len(cols)
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    S = scores[r0 : r0 + h, c0 : c0 + w]
    for d in range(h + w - 1):
        a = np.arange(max(0, d - w + 1), min(h - 1, d) + 1)
        b = d - a
        V[a + 1, b + 1] = np.maximum(
            np.maximum(V[a, b + 1] - gap, V[a + 1, b] - gap),
            V[a, b] + S[a, b],
        )


def cyk_region(
    W: np.ndarray,
    rule_masks: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
) -> None:
    """Weighted-boolean CYK over bitmask cells, one region in place.

    ``W`` is a triangular window of ``uint64`` bitmasks: bit ``A`` of
    ``W[i - offset, j - offset]`` says nonterminal ``A`` derives the span
    ``i..j`` (inclusive). Diagonal cells must be pre-seeded with the
    terminal-rule masks. ``rule_masks`` is an ``(R, 3)`` int array of
    ``(A, B, C)`` binary rules. Per cell: for every split ``k`` and rule
    ``A -> B C``, if ``B`` derives ``i..k`` and ``C`` derives ``k+1..j``
    then set bit ``A`` — the split scan is vectorized over ``k``.
    """
    one = np.uint64(1)
    for i in reversed(rows):
        li = i - offset
        for j in cols:
            if j <= i:
                continue
            lj = j - offset
            left = W[li, li:lj]          # spans (i, k), k = i..j-1
            down = W[li + 1 : lj + 1, lj]  # spans (k+1, j)
            bits = W[li, lj]
            for a, b, c in rule_masks:
                if bits & (one << np.uint64(a)):
                    continue  # already derivable; skip the scan
                hit = np.any(
                    ((left >> np.uint64(b)) & one).astype(bool)
                    & ((down >> np.uint64(c)) & one).astype(bool)
                )
                if hit:
                    bits |= one << np.uint64(a)
            W[li, lj] = bits


# -- SWGG -----------------------------------------------------------------------


def swgg_region(
    Hloc: np.ndarray,
    Hrow: np.ndarray,
    Hcol: np.ndarray,
    sub: np.ndarray,
    gap: np.ndarray,
    c0: int,
    r0: int,
    rows: range,
    cols: range,
) -> None:
    """Smith-Waterman with a *general* gap function, one region in place.

    Layout (all row/col indices refer to the 1-based global DP matrix H of
    shape ``(m+1, n+1)``; the block spans global rows ``r0..r0+h`` and
    cols ``c0..c0+w``):

    - ``Hloc``  — ``(h+1, w+1)`` local matrix; ``Hloc[0, :]`` = global row
      ``r0-1`` over cols ``c0-1..``, ``Hloc[:, 0]`` = global col ``c0-1``;
      cell ``(a, b)`` of the block is ``Hloc[a+1, b+1]``.
    - ``Hrow``  — ``(h, c0)``: full row prefixes ``H[r0.., 0:c0]``.
    - ``Hcol``  — ``(r0, w)``: full column prefixes ``H[0:r0, c0..]``.
    - ``sub``   — ``(h, w)`` substitution scores for the block's cells.
    - ``gap``   — ``gap[d]`` = penalty of a gap of length ``d`` (``gap[0]``
      unused); length must cover ``max(m, n)``.

    Recurrence (paper Section VI's SWGG): ``H[i,j] = max(0, H[i-1,j-1] +
    s(a_i, b_j), max_k H[i,k] - gap(j-k), max_k H[k,j] - gap(i-k))`` — the
    two scans are why the pattern is :class:`RowColPrefixPattern`.

    Per tile, the row-gap term E over every source cell left of the tile
    and the column-gap term F over every source cell above it are one
    bulk reduction each; the scalar loop adds the diagonal, the in-tile
    E/F sources and the clamp at 0.
    """
    if Hrow.shape[1] != c0 or Hcol.shape[0] != r0:
        raise ValueError(
            f"prefix strips {Hrow.shape}/{Hcol.shape} do not match block origin ({r0}, {c0})"
        )
    # Reversed copy, so the gap-by-source views below run forward in memory.
    rgap = np.ascontiguousarray(np.asarray(gap, dtype=np.float64)[::-1])
    for a in range(rows.start, rows.stop, TILE):
        for b in range(cols.start, cols.stop, TILE):
            _swgg_tile(
                Hloc, Hrow, Hcol, sub, rgap,
                a, min(a + TILE, rows.stop), b, min(b + TILE, cols.stop),
            )


def _gap_closing_max(P: np.ndarray, rgap: np.ndarray, n: int) -> np.ndarray:
    """``out[r, t] = max_k P[r, k] - gap[K + t - k]`` for ``t < n``.

    Row ``r`` of ``P`` holds the ``K`` source cells that precede a run of
    ``n`` target cells, so ``K + t - k`` is the length of the gap from
    source ``k`` to target ``t``. ``rgap`` is ``gap`` reversed. Chunked
    along ``k``.
    """
    rows, K = P.shape
    if K == 0:
        return np.full((rows, n), NEG_INF)
    # G[t, k] = gap[K + t - k] = rgap[N - 1 - K - t + k], a view over rgap.
    step = rgap.itemsize
    G = np.ndarray(
        (n, K), dtype=np.float64, buffer=rgap,
        offset=step * (len(rgap) - 1 - K), strides=(-step, step),
    )
    chunk = max(1, CHUNK_ELEMS // (rows * n))
    out = None
    for k0 in range(0, K, chunk):
        r = (P[:, None, k0 : k0 + chunk] - G[None, :, k0 : k0 + chunk]).max(axis=2)
        out = r if out is None else np.maximum(out, r, out=out)
    return out


def _swgg_tile(
    Hloc: np.ndarray,
    Hrow: np.ndarray,
    Hcol: np.ndarray,
    sub: np.ndarray,
    rgap: np.ndarray,
    a0: int,
    a1: int,
    b0: int,
    b1: int,
) -> None:
    """One tile: block-local cell rows ``[a0, a1)`` and cols ``[b0, b1)``."""
    h, w = a1 - a0, b1 - b0
    # Sources left of the tile: global cols 0..c0-1, then local cols < b0.
    left_src = np.concatenate((Hrow[a0:a1], Hloc[a0 + 1 : a1 + 1, 1 : b0 + 1]), axis=1)
    # Sources above the tile (transposed): global rows 0..r0-1, then local rows < a0.
    above_src = np.concatenate((Hcol[:, b0:b1].T, Hloc[1 : a0 + 1, b0 + 1 : b1 + 1].T), axis=1)
    EF = np.maximum(
        _gap_closing_max(left_src, rgap, w), _gap_closing_max(above_src, rgap, h).T
    ).tolist()
    S = sub[a0:a1, b0:b1].tolist()
    left = Hloc[a0:a1, b0].tolist()
    up = Hloc[a0, b0:b1].tolist()  # diagonal sources of the first row
    T = max(h, w)
    g = rgap[len(rgap) - 1 - T : len(rgap) - 1].tolist()  # g[T - d] = gap[d]
    minus = operator.sub
    cols: list[list[float]] = [[] for _ in range(w)]
    out = []
    row: list[float] = []
    for s in range(h):
        if s:
            up = [left[s]] + row[:-1]
        EFs, Ss, gs = EF[s], S[s], g[T - s :]
        row = []
        for t in range(w):
            # max(0.0, diagonal, E, F); strict ">" keeps the first maximum,
            # as max() does, so a tie at zero stays +0.0.
            v = 0.0
            x = up[t] + Ss[t]
            if x > v:
                v = x
            x = EFs[t]
            if x > v:
                v = x
            if t:
                x = max(map(minus, row, g[T - t :]))
                if x > v:
                    v = x
            col = cols[t]
            if s:
                x = max(map(minus, col, gs))
                if x > v:
                    v = x
            row.append(v)
            col.append(v)
        out.append(row)
    Hloc[a0 + 1 : a1 + 1, b0 + 1 : b1 + 1] = out


# -- span (triangular 2D/1D) kernels ----------------------------------------------------


def _span_tiles(offset: int, rows: range, cols: range) -> Iterator[Tuple[int, int, int, int]]:
    """Window-local tiles ``(i0, i1, j0, j1)`` of a region in dependency order.

    Row bands run bottom-up and tiles left to right within a band, so
    every split source of a tile (left of it in its rows, below it in its
    columns) is final before the tile runs. Tiles wholly below the
    diagonal are skipped, and columns left of a tile's first row (below
    the diagonal in every row of it) are cut off.
    """
    i_lo, i_hi = rows.start - offset, rows.stop - offset
    j_lo, j_hi = cols.start - offset, cols.stop - offset
    for i1 in range(i_hi, i_lo, -TILE):
        i0 = max(i_lo, i1 - TILE)
        for j0 in range(j_lo, j_hi, TILE):
            j1 = min(j_hi, j0 + TILE)
            if j1 > i0:
                yield i0, i1, max(i0, j0), j1


def _span_frame(
    W: np.ndarray, i0: int, i1: int, j0: int, j1: int, fill: float
) -> Tuple[list, list, np.ndarray, int, bool]:
    """Python-list copy of the window cells one span tile reads.

    Returns the frame ``C = W[X][:, X]`` as row lists and column lists,
    the window indices ``X``, the frame index of tile column ``j0``, and
    whether the tile is far from the diagonal.

    ``X`` is ``[i0, i1]``, then ``[j0 - 1, j1)``. Within a run, window
    indices ``k`` and ``k + 1`` sit at neighbouring frame indices, so the
    split pair ``(i, k) / (k + 1, j)`` and the neighbours of a cell index
    the frame exactly as they index the window. Near the diagonal the two
    runs meet and ``X`` is one contiguous range. Far from it, a separator
    row and column filled with ``fill`` (the reduction's identity) sit
    between the runs: every frame split that straddles the gap sums to
    ``fill`` and cannot win, so one scan over frame splits ``[I, J)``
    covers exactly the splits outside ``[i1, j0 - 2]``; those read only
    cells outside the tile and belong to the bulk term.
    """
    far = j0 - 1 > i1
    if far:
        X = np.concatenate((np.arange(i0, i1 + 2), np.arange(j0 - 1, j1)))
        C = W[X[:, None], X]
        C[i1 + 1 - i0, :] = fill
        C[:, i1 + 1 - i0] = fill
        jx = i1 + 3 - i0
    else:
        X = np.arange(i0, min(max(j1, i1 + 1), W.shape[0]))
        C = W[X[:, None], X]
        jx = j0 - i0
    return C.tolist(), C.T.tolist(), X, jx, far


def _bulk_splits(
    A: np.ndarray,
    B: np.ndarray,
    reduce: np.ufunc,
    extra: Optional[Callable[[int, int], np.ndarray]] = None,
) -> list:
    """``reduce_k A[i, k] + B[k, j] (+ extra[i, j, k])`` over a tile.

    The (max,+) / (min,+) product of the row strip left of a tile with
    the column strip below it, laid out ``(i, j, k)`` so the reduction
    runs over contiguous memory, and chunked along ``k``. ``extra(k0,
    k1)`` adds a per-split cost after the two operands are summed,
    matching the per-cell evaluation order.
    """
    h, K = A.shape
    w = B.shape[1]
    BT = np.ascontiguousarray(B.T)
    chunk = max(1, CHUNK_ELEMS // (h * w))
    out = None
    for k0 in range(0, K, chunk):
        k1 = min(K, k0 + chunk)
        t = A[:, None, k0:k1] + BT[None, :, k0:k1]
        if extra is not None:
            t += extra(k0, k1)
        r = reduce.reduce(t, axis=2)
        out = r if out is None else reduce(out, r, out=out)
    return out.tolist()


def nussinov_region(
    W: np.ndarray,
    can_pair: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
    min_sep: int = 1,
) -> None:
    """Nussinov maximum base-pairing, one region of a window in place.

    ``W`` is the block's working window: ``W[i - offset, j - offset]``
    holds ``F[i, j]``; entries below the diagonal are fixed at 0 (empty
    spans), which makes the recurrence uniform. ``can_pair[i - offset,
    j - offset]`` says whether global bases i, j pair. ``rows``/``cols``
    are *global* index ranges of the region; only cells with ``i <= j``
    are computed. ``min_sep`` is the minimum hairpin separation: bases
    pair only when ``j - i > min_sep``.

    Per cell: ``F[i,j] = max(F[i+1,j], F[i,j-1], F[i+1,j-1] + pair(i,j),
    max_{i<=k<j} F[i,k] + F[k+1,j])`` — the bifurcation max is the O(n)
    data dependency that makes Nussinov 2D/1D. With the diagonal at 0 the
    splits ``k = i`` and ``k = j - 1`` equal the first two terms. Splits
    whose operands lie outside a tile are one (max,+) product per tile.
    """
    add = operator.add
    for i0, i1, j0, j1 in _span_tiles(offset, rows, cols):
        R, Ct, _, jx, far = _span_frame(W, i0, i1, j0, j1, -math.inf)
        mid = None
        if far:
            mid = _bulk_splits(W[i0:i1, i1 - 1 : j0], W[i1 : j0 + 1, j0:j1], np.maximum)
        P = can_pair[i0:i1, j0:j1].tolist()
        for I in range(i1 - i0 - 1, -1, -1):
            i = i0 + I
            Ri, Pi = R[I], P[I]
            Rd = R[I + 1] if I + 1 < len(R) else Ri  # row i+1; unused when j == i only
            Mi = None if mid is None else mid[I]
            for j in range(max(i, j0), j1):
                t = j - j0
                J = jx + t
                CJ = Ct[J]
                if j == i:
                    Ri[J] = CJ[I] = 0.0
                    continue
                # The splits k = i and k = j - 1 are the "i unpaired" and
                # "j unpaired" cases, since F[i, i] = F[j, j] = 0.
                best = max(map(add, Ri[I:J], CJ[I + 1 : J + 1]))
                if Mi is not None and Mi[t] > best:
                    best = Mi[t]
                if j - i > min_sep and Pi[t]:
                    x = Rd[J - 1] + 1.0
                    if x > best:
                        best = x
                Ri[J] = CJ[I] = best
        W[i0:i1, j0:j1] = [r[jx : jx + j1 - j0] for r in R[: i1 - i0]]


def matrix_chain_region(
    W: np.ndarray,
    dims: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
) -> None:
    """Matrix-chain-order cost, one region of a window in place.

    Same window layout and tiling as :func:`nussinov_region` with min
    instead of max:
    ``m[i,j] = min_{i<=k<j} m[i,k] + m[k+1,j] + dims[i]*dims[k+1]*dims[j+1]``
    and ``m[i,i] = 0``. ``dims`` is the full dimension vector (length
    ``n + 1`` for ``n`` matrices).
    """
    for i0, i1, j0, j1 in _span_tiles(offset, rows, cols):
        R, Ct, X, jx, far = _span_frame(W, i0, i1, j0, j1, math.inf)
        mid = None
        if far:
            di = dims[offset + i0 : offset + i1, None, None]
            dk = dims[offset + i1 : offset + j0 + 1]
            dj = dims[offset + j0 + 1 : offset + j1 + 1, None]
            mid = _bulk_splits(
                W[i0:i1, i1 - 1 : j0], W[i1 : j0 + 1, j0:j1], np.minimum,
                lambda k0, k1: di * dk[k0:k1] * dj,
            )
        dk1 = dims[X + offset + 1].tolist()  # dims[k + 1] of the split at each frame index
        di1 = dims[offset + i0 : offset + i1].tolist()
        dj1 = dims[offset + j0 + 1 : offset + j1 + 1].tolist()
        for I in range(i1 - i0 - 1, -1, -1):
            i = i0 + I
            Ri, di_ = R[I], di1[I]
            for j in range(max(i, j0), j1):
                t = j - j0
                J = jx + t
                CJ = Ct[J]
                if j == i:
                    Ri[J] = CJ[I] = 0.0
                    continue
                dj_ = dj1[t]
                best = math.inf if mid is None else mid[I][t]
                for k in range(I, J):
                    x = Ri[k] + CJ[k + 1] + di_ * dk1[k] * dj_
                    if x < best:
                        best = x
                Ri[J] = CJ[I] = best
        W[i0:i1, j0:j1] = [r[jx : jx + j1 - j0] for r in R[: i1 - i0]]
