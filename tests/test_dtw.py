"""DTW distance, LB_Keogh cascade, and exact DTW search tests."""
from functools import cache

import numpy as np
import pytest

from repro.core.dtw import (
    dtw_batch,
    dtw_distance,
    envelope,
    envelope_paa_bounds,
    exact_search_dtw,
    lb_keogh,
    mindist_env_paa,
    mindist_env_regions,
    warping_window,
)
from repro.core.index import build_index
from repro.core.paa import paa
from repro.synth_data import clustered_walks_np, make_queries_np

from .brute_force import brute_force_dtw_nn


def _dtw_reference(a, b):
    """Unconstrained O(n²) DTW — independent reference implementation."""
    n, m = len(a), len(b)
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d = (a[i - 1] - b[j - 1]) ** 2
            D[i, j] = d + min(D[i - 1, j], D[i, j - 1], D[i - 1, j - 1])
    return float(np.sqrt(D[n, m]))


def _banded_reference(a, b, r):
    """Sakoe-Chiba banded DTW, one cell at a time, row by row (O(n·r))."""
    n = len(a)
    prev = np.full(n + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(n + 1, np.inf)
        j_lo, j_hi = max(1, i - r), min(n, i + r)
        ai = a[i - 1]
        for j in range(j_lo, j_hi + 1):
            d = (ai - b[j - 1]) ** 2
            cur[j] = d + min(prev[j], prev[j - 1], cur[j - 1])
        prev = cur
    return float(np.sqrt(prev[n]))


@cache
def _kernel_rows(length):
    """A query, 64 candidate rows and their unconstrained DTW distances."""
    rng = np.random.default_rng(length)
    q, rows = rng.normal(size=length), rng.normal(size=(64, length))
    return q, rows, np.array([_dtw_reference(q, x) for x in rows])


@cache
def _kernel_expected(length, r):
    """Reference and one-row-call distances of ``_kernel_rows(length)``."""
    q, rows, _ = _kernel_rows(length)
    banded = np.array([_banded_reference(q, x, r) for x in rows])
    single = np.array([dtw_batch(q, x[None], r)[0] for x in rows])
    return banded, single


@pytest.fixture(scope="module")
def setup():
    data = clustered_walks_np(250, 32, seed=13)
    ids = np.arange(250)
    index = build_index(ids, data, leaf_capacity=16)
    queries, _ = make_queries_np(data, 6, seed=31)
    return data, ids, index, queries


def test_warping_window():
    assert warping_window(64, 0.05) == 3
    assert warping_window(100, 0.15) == 15
    assert warping_window(10, 0.0001) == 1  # floor at 1


def test_dtw_identity_is_zero():
    a = np.random.default_rng(0).normal(size=32)
    assert dtw_distance(a, a, 3) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_full_band_equals_unconstrained(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=16), rng.normal(size=16)
    assert dtw_distance(a, b, 16) == pytest.approx(_dtw_reference(a, b), abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_dtw_leq_euclidean(seed):
    rng = np.random.default_rng(seed + 100)
    a, b = rng.normal(size=32), rng.normal(size=32)
    ed = float(np.sqrt(((a - b) ** 2).sum()))
    assert dtw_distance(a, b, 3) <= ed + 1e-9


@pytest.mark.parametrize("m", [1, 2, 7, 64])
@pytest.mark.parametrize(
    "length,r", [(n, r) for n in (8, 17, 33, 64) for r in (1, 3, n // 2, n - 1, n)]
)
def test_dtw_batch_matches_references(length, r, m):
    """Every row of an m-row call equals the cell-by-cell DP, and the
    unconstrained DP once the band covers the matrix; and it is bitwise the
    one-row call, so batching never changes a distance."""
    q, rows, unconstrained = _kernel_rows(length)
    banded, single = _kernel_expected(length, r)
    got = dtw_batch(q, rows[:m], r)
    np.testing.assert_allclose(got, banded[:m], rtol=1e-12, atol=0)
    if r >= length - 1:
        np.testing.assert_allclose(got, unconstrained[:m], rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got, single[:m])


def test_wider_band_never_increases_distance():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=32), rng.normal(size=32)
    ds = [dtw_distance(a, b, r) for r in (1, 2, 4, 8, 16)]
    assert all(x >= y - 1e-12 for x, y in zip(ds, ds[1:]))


def test_envelope_contains_query():
    q = np.random.default_rng(1).normal(size=64)
    lo, hi = envelope(q, 4)
    assert np.all(lo <= q) and np.all(q <= hi)


def test_envelope_window_semantics():
    q = np.arange(10.0)
    lo, hi = envelope(q, 2)
    np.testing.assert_allclose(lo, np.maximum(q - 2, 0))
    np.testing.assert_allclose(hi, np.minimum(q + 2, 9))


@pytest.mark.parametrize("seed", range(6))
def test_lb_keogh_is_lower_bound_of_dtw(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=32)
    x = rng.normal(size=(20, 32))
    r = 3
    lo, hi = envelope(q, r)
    lbs = lb_keogh(lo, hi, x)
    true = np.array([dtw_distance(q, row, r) for row in x])
    assert np.all(lbs <= true + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_cascade_bounds_ordering(seed):
    """env-region LB ≤ env-PAA LB ≤ LB_Keogh ≤ DTW for index members."""
    rng = np.random.default_rng(seed)
    data = clustered_walks_np(80, 32, seed=seed)
    index = build_index(np.arange(80), data, leaf_capacity=8)
    q = data[rng.integers(80)] + rng.normal(0, 0.3, 32)
    r = warping_window(32, 0.1)
    lo, hi = envelope(q, r)
    l_hat, u_hat = envelope_paa_bounds(lo, hi, index.w)
    keogh = lb_keogh(lo, hi, index.data)
    paa_lb = mindist_env_paa(l_hat, u_hat, index.paa, index.length)
    true = np.array([dtw_distance(q, row, r) for row in index.data])
    assert np.all(paa_lb <= keogh + 1e-9)
    assert np.all(keogh <= true + 1e-9)
    leaf_lbs = mindist_env_regions(l_hat, u_hat, index.leaf_lo, index.leaf_hi, index.length)
    for i in range(index.n_leaves):
        assert leaf_lbs[i] <= paa_lb[index.members(i)].min() + 1e-9


@pytest.mark.parametrize("qi", range(6))
def test_exact_dtw_search_matches_brute_force(setup, qi):
    data, ids, index, queries = setup
    st = exact_search_dtw(index, queries[qi], warp=0.1)
    ref_d, ref_id = brute_force_dtw_nn(data, ids, queries[qi], warp=0.1, k=1)[0]
    assert st.nn_dist == pytest.approx(ref_d, abs=1e-9)


@pytest.mark.parametrize("warp", [0.05, 0.15])
def test_exact_dtw_knn(setup, warp):
    data, ids, index, queries = setup
    st = exact_search_dtw(index, queries[0], warp=warp, k=5)
    ref = brute_force_dtw_nn(data, ids, queries[0], warp=warp, k=5)
    np.testing.assert_allclose([d for d, _ in st.topk], [d for d, _ in ref], atol=1e-9)


def test_dtw_search_prunes(setup):
    data, _, index, _ = setup
    rng = np.random.default_rng(2)
    q = data[rng.integers(len(data))] + rng.normal(0, 0.01, 32)
    from repro.core.paa import znorm

    st = exact_search_dtw(index, znorm(q), warp=0.05)
    assert st.real_series < len(data)


def test_dtw_seeded_search(setup):
    data, ids, index, queries = setup
    q = queries[1]
    ref_d, _ = brute_force_dtw_nn(data, ids, q, warp=0.1, k=1)[0]
    st = exact_search_dtw(index, q, warp=0.1, init_bsf=ref_d * 1.001)
    assert st.nn_dist == pytest.approx(ref_d, abs=1e-9)


@pytest.mark.parametrize("k", [1, 2])
def test_dtw_ties_within_a_chunk_ordered_by_id(k):
    """Series 0 stored three times, its two copies first and under the
    largest ids: the answer follows (distance, id), not storage order."""
    base = clustered_walks_np(48, 32, seed=17)
    data = np.vstack([base[0], base[0], base])
    ids = np.r_[49, 48, np.arange(48)]
    q = base[0] + np.random.default_rng(8).normal(0, 0.05, 32)
    index = build_index(ids, data, leaf_capacity=8)
    st = exact_search_dtw(index, q, k=k, warp=0.1)
    ref = brute_force_dtw_nn(data, ids, q, warp=0.1, k=k)
    assert [i for _, i in st.topk] == [i for _, i in ref] == [0, 48][:k]
    np.testing.assert_allclose([d for d, _ in st.topk], [d for d, _ in ref], atol=1e-12)


# Work counters of exact_search_dtw on the module fixture, per (query,
# run): (series_lb, real_series, leaves_processed, pq_costs, top-k ids).
# Every run also computes the leaf LB of all 60 leaves. ED and DTW share
# one search loop, so a change to that loop or to how DTW distances are
# computed must leave all of them as they are.
_PINNED_WORK = {
    (0, "k1"): (148, 38, 30, [8584, 80, 72, 16, 0, 0, 0], [123]),
    (0, "k5"): (230, 127, 51, [23176, 928, 560, 536, 416, 72, 16], [123, 116, 105, 137, 102]),
    (0, "seeded"): (148, 16, 30, [3464, 80, 72, 16], [123]),
    (1, "k1"): (250, 211, 60, [38248, 8208, 2720, 1928, 3264, 1960, 872], [208]),
    (1, "k5"): (172, 42, 46, [2240, 1480, 2400, 1672, 648, 432, 872], [208, 204, 205, 201, 210]),
    (1, "seeded"): (172, 10, 46, [648, 432, 160, 200, 192, 1704, 872], [208]),
    (2, "k1"): (250, 240, 60, [38248, 12464, 2720, 1480, 4384, 1416, 392], [237]),
    (2, "k5"): (250, 228, 60, [29032, 9456, 1760, 1000, 2400, 680, 392], [230, 231, 238, 237, 191]),
    (2, "seeded"): (250, 240, 60, [38248, 12464, 2720, 1480, 4384, 1416, 392], [237]),
    (3, "k1"): (170, 66, 27, [16440, 592, 0, 0, 0, 0, 0], [85]),
    (3, "k5"): (157, 68, 28, [14816, 808, 0, 0, 0, 0, 0], [85, 95, 80, 76, 41]),
    (3, "seeded"): (170, 31, 27, [8024, 592], [85]),
    (4, "k1"): (201, 140, 40, [33672, 1280, 144, 16, 0, 0, 0], [21]),
    (4, "k5"): (192, 140, 34, [25624, 1136, 72, 0, 0, 0, 0], [21, 57, 48, 82, 36]),
    (4, "seeded"): (201, 114, 40, [27496, 1280, 144, 16], [21]),
    (5, "k1"): (250, 234, 60, [38024, 12464, 2496, 1192, 4064, 712, 136], [72]),
    (5, "k5"): (250, 226, 60, [28712, 9296, 1600, 904, 2624, 424, 104], [72, 92, 79, 52, 44]),
    (5, "seeded"): (250, 234, 60, [38024, 12464, 2496, 1192, 4064, 712, 136], [72]),
}


@pytest.mark.parametrize("qi,run", list(_PINNED_WORK))
def test_dtw_work_counters_pinned(setup, qi, run):
    data, ids, index, queries = setup
    q = queries[qi]
    if run == "k1":
        st = exact_search_dtw(index, q, k=1, warp=0.1)
    elif run == "k5":
        st = exact_search_dtw(index, q, k=5, warp=0.05)
    else:
        ref_d, _ = brute_force_dtw_nn(data, ids, q, warp=0.1, k=1)[0]
        st = exact_search_dtw(index, q, k=1, warp=0.1, init_bsf=ref_d * 1.001)
    series_lb, real_series, leaves_processed, pq_costs, topk_ids = _PINNED_WORK[qi, run]
    assert st.leaf_lb == 60
    assert (st.series_lb, st.real_series, st.leaves_processed) == (series_lb, real_series, leaves_processed)
    assert st.pq_costs == pq_costs
    assert [i for _, i in st.topk] == topk_ids
