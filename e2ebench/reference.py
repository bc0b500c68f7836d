"""The benchmark's own answers: brute-force scans the engine is judged by.

Both scans order candidates by (distance, id), the tie order the engine
promises. The ED scan computes each distance with the same numpy
expression as the index search, and the DTW scan runs the same banded DP
as ``repro.core.dtw.dtw_distance``, vectorised over all (query, series)
pairs, so a correct engine matches them to the last bit.
"""
import numpy as np
import pandas as pd

# Distances are recomputed in the same operation order as the engine, so
# anything beyond rounding noise is a wrong answer.
RTOL = 1e-9


def _top_k(dists: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((ids, dists))[:k]
    return dists[order], ids[order]


def ed_knn(data: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean k-NN by full scan: ``(dists, ids)``, each (m, k).

    Squared distances of every pair come from one matrix product; every
    series within rounding slack of the k-th of those is then measured
    exactly, so the product's rounding never decides an answer."""
    ids = np.arange(len(data), dtype=np.int64)
    norms = np.einsum("ij,ij->i", data, data)
    out_d = np.empty((len(queries), k))
    out_i = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), 32):
        qs = queries[start : start + 32]
        q_norms = np.einsum("ij,ij->i", qs, qs)
        approx = norms[None, :] - 2.0 * (qs @ data.T) + q_norms[:, None]
        for qi, (q, row) in enumerate(zip(qs, approx), start):
            slack = 1e-8 * (norms.max() + q_norms[qi - start])
            cand = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1] + slack)
            diffs = data[cand] - q
            d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            out_d[qi], out_i[qi] = _top_k(d, ids[cand], k)
    return out_d, out_i


def dtw_matrix(queries: np.ndarray, data: np.ndarray, r: int) -> np.ndarray:
    """Banded DTW (Sakoe-Chiba half-width ``r``) of every query against
    every series, one DP row at a time over all pairs at once: (m, n)."""
    queries = np.asarray(queries, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    m, length = queries.shape
    n = len(data)
    # prev[j] / cur[j] hold the DP cell (i, j) for all m*n pairs
    prev = np.full((length + 1, m, n), np.inf)
    prev[0] = 0.0
    for i in range(1, length + 1):
        cur = np.full((length + 1, m, n), np.inf)
        ai = queries[:, i - 1][:, None]
        for j in range(max(1, i - r), min(length, i + r) + 1):
            d = (ai - data[:, j - 1][None, :]) ** 2
            cur[j] = d + np.minimum(np.minimum(prev[j], prev[j - 1]), cur[j - 1])
        prev = cur
    return np.sqrt(prev[length])


def dtw_knn(
    data: np.ndarray, queries: np.ndarray, r: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact banded-DTW k-NN by full scan: ``(dists, ids)``, each (m, k)."""
    ids = np.arange(len(data), dtype=np.int64)
    dists = dtw_matrix(queries, data, r)
    out_d = np.empty((len(queries), k))
    out_i = np.empty((len(queries), k), dtype=np.int64)
    for qi in range(len(queries)):
        out_d[qi], out_i[qi] = _top_k(dists[qi], ids, k)
    return out_d, out_i


def count_wrong(answers: pd.DataFrame, ref_d: np.ndarray, ref_i: np.ndarray) -> int:
    """Number of queries whose (k-)NN answer differs from the reference.

    ``answers`` is ``DistResult.answers``: ``(query_id, nn_dist, nn_id)``,
    plus ``rank`` when k > 1. A query with a missing, extra or reordered
    neighbour, or a distance off by more than rounding, is wrong."""
    k = ref_i.shape[1]
    keys = ["query_id", "rank"] if "rank" in answers.columns else ["query_id"]
    by_query = {int(q): g for q, g in answers.sort_values(keys).groupby("query_id")}
    wrong = 0
    for qi in range(len(ref_i)):
        got = by_query.get(qi)
        if (
            got is None
            or len(got) != k
            or not np.array_equal(got["nn_id"].to_numpy(dtype=np.int64), ref_i[qi])
            or not np.allclose(got["nn_dist"].to_numpy(dtype=np.float64), ref_d[qi], rtol=RTOL, atol=0.0)
        ):
            wrong += 1
    return wrong + len(set(by_query) - set(range(len(ref_i))))
