"""DTW similarity search (paper §4): LB_Keogh cascade on the same index.

No index change is needed (exactly as the paper notes): the ED iSAX tree
answers DTW queries with a different lower-bound cascade —

  envelope-region LB (leaf level)  ≤  envelope-PAA LB (series level)
      ≤  LB_Keogh (pointwise)      ≤  DTW with Sakoe-Chiba band r

Each bound in the chain is a valid lower bound of the banded DTW distance
(Keogh & Ratanamahatana 2005), so pruning never discards the true NN.
"""
from functools import lru_cache

import numpy as np

from .index import ISaxIndex
from .search import SearchStats, next_stage, pq_search


def warping_window(length: int, frac: float) -> int:
    """Sakoe-Chiba half-width r from a warping fraction (e.g. 0.05 = 5%)."""
    return max(1, int(round(frac * length)))


def envelope(q: np.ndarray, r: int):
    """LB_Keogh envelope: ``lo[i] = min(q[i-r..i+r])``, ``hi`` the max."""
    q = np.asarray(q, dtype=np.float64)
    n = len(q)
    pad_lo = np.concatenate([np.full(r, np.inf), q, np.full(r, np.inf)])
    pad_hi = np.concatenate([np.full(r, -np.inf), q, np.full(r, -np.inf)])
    win = np.lib.stride_tricks.sliding_window_view(pad_lo, 2 * r + 1)
    lo = win.min(axis=1)
    win = np.lib.stride_tricks.sliding_window_view(pad_hi, 2 * r + 1)
    hi = win.max(axis=1)
    assert len(lo) == n
    return lo, hi


def lb_keogh(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise LB_Keogh of candidate rows ``x`` against a query envelope."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = np.maximum(0.0, np.maximum(x - hi, lo - x))
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def envelope_paa_bounds(lo: np.ndarray, hi: np.ndarray, w: int):
    """Per-segment envelope bounds (min of lo / max of hi per segment).

    Using min/max (not the mean) keeps the PAA-level bound valid."""
    n = len(lo)
    seg = n // w
    l_hat = lo.reshape(w, seg).min(axis=1)
    u_hat = hi.reshape(w, seg).max(axis=1)
    return l_hat, u_hat


def mindist_env_regions(l_hat, u_hat, leaf_lo, leaf_hi, length: int) -> np.ndarray:
    """Leaf-level DTW lower bound: envelope segment interval vs iSAX region."""
    d = np.maximum(0.0, np.maximum(leaf_lo - u_hat, l_hat - leaf_hi))
    w = l_hat.shape[-1]
    return np.sqrt(length / w * np.sum(d * d, axis=-1))


def mindist_env_paa(l_hat, u_hat, p, length: int) -> np.ndarray:
    """Series-level DTW lower bound: envelope interval vs candidate PAA."""
    d = np.maximum(0.0, np.maximum(p - u_hat, l_hat - p))
    w = l_hat.shape[-1]
    return np.sqrt(length / w * np.sum(d * d, axis=-1))


@lru_cache(maxsize=32)
def _band_plan(length: int, r: int):
    """Anti-diagonal walk of the Sakoe-Chiba band for (``length``, ``r``).

    Returns the 0-based band cells ``(I, J)`` ordered by anti-diagonal
    ``s = i + j`` (1-based), and one step per diagonal ``s = 2 .. 2·length``:
    ``(lo, hi, a, b, st_lo, st_hi)`` — the diagonal's cells are ``i`` in
    ``[lo, hi)`` and ``sq[a:b]``, and ``[st_lo, st_hi)`` is the part of
    diagonal ``s-3``'s range, left in the buffer diagonal ``s`` reuses, that
    diagonal ``s`` does not overwrite. Cached: treat the result as read-only."""
    def span(s):  # i range of diagonal s: 1 <= i, j <= length, |i - j| <= r
        if s == 0:
            return 0, 1  # the origin D(0, 0)
        return max(1, s - length, -((r - s) // 2)), min(length, s - 1, (s + r) // 2) + 1

    spans = [span(s) for s in range(2 * length + 1)]
    I = np.concatenate([np.arange(*spans[s]) for s in range(2, 2 * length + 1)]) - 1
    J = np.concatenate([s - np.arange(*spans[s]) for s in range(2, 2 * length + 1)]) - 1
    steps = []
    b = 0
    for s in range(2, 2 * length + 1):
        lo, hi = spans[s]
        a, b = b, b + hi - lo
        st_lo, st_hi = spans[s - 3] if s >= 3 else (0, 0)
        steps.append((lo, hi, a, b, st_lo, min(st_hi, lo)))
    return I, J, steps


def dtw_batch(q: np.ndarray, rows: np.ndarray, r: int) -> np.ndarray:
    """Exact DTW (Sakoe-Chiba band of half-width ``r``) of ``q`` against
    every row of ``rows`` at once: (m,) distances.

    The DP ``D(i, j) = (q_i - x_j)² + min(D(i-1, j), D(i, j-1), D(i-1, j-1))``
    is walked by anti-diagonals ``s = i + j``: all three neighbours of a
    cell lie on diagonals ``s-1`` and ``s-2``, so each diagonal is a few
    ufunc calls over (band cells on it × rows), where the row-by-row order
    needs a Python step per cell. Three buffers rotate over the diagonals;
    index ``i`` of diagonal ``s`` holds ``D(i, s - i)``, ``inf`` outside
    the band. Each cell is one addition onto an exact ``min``, so a
    distance does not depend on which rows share the call. The squared
    differences of all band cells are taken up front: about
    ``length·(2r+1)·m`` doubles.
    """
    q = np.asarray(q, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    length = len(q)
    if rows.ndim != 2 or rows.shape[1] != length:
        raise ValueError(f"rows must be (m, {length}), got {rows.shape}")
    if len(rows) == 0:
        return np.empty(0)
    I, J, steps = _band_plan(length, min(r, length))
    sq = (q[I][:, None] - rows.T[J]) ** 2
    p2, p1, cur = np.full((3, length + 1, len(rows)), np.inf)  # diagonals 0, 1, 2
    p2[0] = 0.0  # D(0, 0)
    for lo, hi, a, b, st_lo, st_hi in steps:
        cur[st_lo:st_hi] = np.inf
        out = cur[lo:hi]
        np.minimum(p1[lo - 1 : hi - 1], p1[lo:hi], out)
        np.minimum(out, p2[lo - 1 : hi - 1], out)
        np.add(out, sq[a:b], out)
        p2, p1, cur = p1, cur, p2
    return np.sqrt(p1[length])


def dtw_distance(a: np.ndarray, b: np.ndarray, r: int) -> float:
    """Exact DTW with Sakoe-Chiba band of half-width ``r`` (O(n·r))."""
    return float(dtw_batch(a, np.asarray(b)[None], r)[0])


class _DtwMetric:
    """Banded DTW: envelope-region leaf LB, then the envelope-PAA LB,
    LB_Keogh and one ``dtw_batch`` call for the survivors."""

    def __init__(self, index: ISaxIndex, q: np.ndarray, warp: float):
        self.index = index
        self.q = np.asarray(q, dtype=np.float64)
        self.r = warping_window(index.length, warp)
        self.lo, self.hi = envelope(self.q, self.r)
        self.l_hat, self.u_hat = envelope_paa_bounds(self.lo, self.hi, index.w)
        self.dtw_unit = float(index.length * (2 * self.r + 1))
        self.leaf_lbs = mindist_env_regions(
            self.l_hat, self.u_hat, index.leaf_lo, index.leaf_hi, index.length
        )

    def approx(self, kbsf):
        """True DTW to the members of the leaf with the smallest bound."""
        index = self.index
        members = index.members(int(np.argmin(self.leaf_lbs)))
        dists = dtw_batch(self.q, index.data[members], self.r)
        kbsf.offer_many(dists, index.ids[members])
        cost = index.n_leaves * index.w + len(dists) * self.dtw_unit
        return float(dists.min()), len(dists), cost

    def cascade(self, rows: np.ndarray, bound: float) -> list:
        index = self.index
        slb = mindist_env_paa(self.l_hat, self.u_hat, index.paa[rows], index.length)
        keogh = next_stage(slb, bound, lambda at: lb_keogh(self.lo, self.hi, index.data[rows[at]]))
        dist = next_stage(keogh, bound, lambda at: dtw_batch(self.q, index.data[rows[at]], self.r))
        return [(slb, index.w), (keogh, index.length), (dist, self.dtw_unit)]


def exact_search_dtw(
    index: ISaxIndex,
    q: np.ndarray,
    *,
    k: int = 1,
    warp: float = 0.05,
    init_bsf: float = np.inf,
    pq_threshold: int | None = 64,
    sorted_pqs: bool = True,
) -> SearchStats:
    """Exact DTW k-NN on one node's index, Odyssey PQ discipline."""
    return pq_search(
        index, _DtwMetric(index, q, warp), k=k, init_bsf=init_bsf,
        pq_threshold=pq_threshold, sorted_pqs=sorted_pqs,
    )

