"""Brute-force k-NN references: every distance computed, ties by id.

The exact searches must return these answers: ``brute_force_knn`` under
ED, ``brute_force_dtw_nn`` under banded DTW (one ``dtw_batch`` call, whose
band DP ``tests/test_dtw.py`` checks against an independent reference).
"""
import numpy as np

from repro.core.dtw import dtw_batch, warping_window


def brute_force_knn(
    data: np.ndarray, ids: np.ndarray, q: np.ndarray, k: int = 1
) -> list[tuple[float, int]]:
    """Exact k-NN by full scan — the test oracle's python twin."""
    diffs = np.asarray(data, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((np.asarray(ids), dists))[:k]
    return [(float(dists[i]), int(ids[i])) for i in order]


def brute_force_dtw_nn(
    data: np.ndarray, ids: np.ndarray, q: np.ndarray, *, warp: float = 0.05, k: int = 1
) -> list[tuple[float, int]]:
    """Reference exact DTW k-NN by full scan (test oracle)."""
    r = warping_window(np.asarray(q).shape[-1], warp)
    dists = dtw_batch(q, data, r)
    order = np.lexsort((np.asarray(ids), dists))[:k]
    return [(float(dists[i]), int(ids[i])) for i in order]
