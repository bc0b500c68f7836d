"""k-NN extension (paper §4): track the k smallest best-so-far distances.

:func:`repro.core.search.exact_search` already accepts ``k``; this module
adds the brute-force reference used by tests.
"""
import numpy as np


def brute_force_knn(
    data: np.ndarray, ids: np.ndarray, q: np.ndarray, k: int = 1
) -> list[tuple[float, int]]:
    """Exact k-NN by full scan — the test oracle's python twin."""
    diffs = np.asarray(data, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((np.asarray(ids), dists))[:k]
    return [(float(dists[i]), int(ids[i])) for i in order]

