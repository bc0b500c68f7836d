"""Odyssey single-node exact search vs brute force; work accounting."""
import numpy as np
import pytest

from repro.core.index import approx_search, build_index
from repro.core.paa import paa
from repro.core.search import _KBsf, approximate_search, exact_search, leaf_batches
from repro.synth_data import clustered_walks_np, make_queries_np, random_walk_np

from .brute_force import brute_force_knn


@pytest.fixture(scope="module")
def setup():
    data = clustered_walks_np(600, 64, seed=9)
    ids = np.arange(600)
    index = build_index(ids, data, leaf_capacity=32)
    queries, _ = make_queries_np(data, 12, seed=21)
    return data, ids, index, queries


@pytest.mark.parametrize("qi", range(12))
def test_exact_1nn_matches_brute_force(setup, qi):
    data, ids, index, queries = setup
    st = exact_search(index, queries[qi])
    ref_d, ref_id = brute_force_knn(data, ids, queries[qi], 1)[0]
    assert st.nn_dist == pytest.approx(ref_d, abs=1e-9)
    assert st.nn_id == ref_id


@pytest.mark.parametrize("qi", range(0, 12, 3))
@pytest.mark.parametrize("k", [3, 5, 10])
def test_exact_knn_matches_brute_force(setup, qi, k):
    data, ids, index, queries = setup
    st = exact_search(index, queries[qi], k=k)
    ref = brute_force_knn(data, ids, queries[qi], k)
    assert len(st.topk) == k
    np.testing.assert_allclose(
        [d for d, _ in st.topk], [d for d, _ in ref], atol=1e-9
    )


@pytest.mark.parametrize("qi", range(0, 12, 2))
def test_messi_mode_matches_brute_force(setup, qi):
    data, ids, index, queries = setup
    st = exact_search(index, queries[qi], sorted_pqs=False, pq_threshold=None)
    ref_d, _ = brute_force_knn(data, ids, queries[qi], 1)[0]
    assert st.nn_dist == pytest.approx(ref_d, abs=1e-9)


def test_seeded_search_still_finds_global_answer(setup):
    """BSF sharing: seeding with a (true) global bound must keep the local
    result correct whenever the local NN is within the bound."""
    data, ids, index, queries = setup
    for q in queries[:6]:
        ref_d, ref_id = brute_force_knn(data, ids, q, 1)[0]
        st = exact_search(index, q, init_bsf=ref_d * (1 + 1e-9) + 1e-12)
        assert st.nn_dist == pytest.approx(ref_d, abs=1e-9)
        assert st.nn_id == ref_id


def test_tight_seed_reduces_work(setup):
    data, ids, index, queries = setup
    q = queries[1]
    ref_d, _ = brute_force_knn(data, ids, q, 1)[0]
    unseeded = exact_search(index, q)
    seeded = exact_search(index, q, init_bsf=ref_d * 1.0001)
    assert seeded.real_series <= unseeded.real_series
    assert seeded.total_cost <= unseeded.total_cost + 1e-9


def test_odyssey_work_not_worse_than_messi(setup):
    """Sorted-PQ processing converges the BSF faster ⇒ fewer real distances
    in aggregate (the paper's motivation for the new PQ discipline)."""
    data, ids, index, queries = setup
    od = sum(exact_search(index, q).real_series for q in queries)
    me = sum(
        exact_search(index, q, sorted_pqs=False, pq_threshold=None).real_series
        for q in queries
    )
    assert od <= me


def test_pq_threshold_respected(setup):
    _, _, index, queries = setup
    st = exact_search(index, queries[0], pq_threshold=8)
    assert st.pq_sizes and max(st.pq_sizes) <= 8


def test_smaller_threshold_more_queues(setup):
    _, _, index, queries = setup
    small = exact_search(index, queries[0], pq_threshold=4)
    large = exact_search(index, queries[0], pq_threshold=64)
    assert len(small.pq_sizes) >= len(large.pq_sizes)


def test_counters_are_sane(setup):
    data, _, index, queries = setup
    st = exact_search(index, queries[2])
    assert 0 < st.real_series <= len(data)
    assert st.leaf_lb == index.n_leaves
    assert st.series_lb >= st.real_series or st.series_lb == 0
    assert st.total_cost == pytest.approx(
        st.approx_cost + st.traversal_cost + sum(st.pq_costs)
    )


@pytest.mark.parametrize("k", [1, 5])
def test_approximate_search_is_the_first_phase(setup, k):
    """approximate_search is exact_search's first phase alone: the k best
    series of the approximate leaf, whose real distances it counts."""
    data, ids, index, queries = setup
    for q in queries:
        approx = approximate_search(index, q, k=k)
        full = exact_search(index, q, k=k)
        q_paa = paa(q, index.w)
        _, _, dists, member_ids, cost = approx_search(index, q, q_paa, index.leaf_lower_bounds(q_paa))
        expected = sorted(zip(dists.tolist(), member_ids.tolist()))[:k]
        assert approx.topk == expected
        assert approx.approx_bsf == full.approx_bsf == expected[0][0]
        assert approx.real_series == len(member_ids)
        assert approx.total_cost == approx.approx_cost == full.approx_cost == cost
        assert (approx.leaf_lb, approx.series_lb, approx.pq_costs) == (index.n_leaves, 0, [])


def test_pruning_reduces_real_distance_work(setup):
    """The index must beat a full scan on in-distribution queries."""
    data, ids, index, _ = setup
    rng = np.random.default_rng(3)
    q = data[rng.integers(len(data))] + rng.normal(0, 0.01, data.shape[1])
    st = exact_search(index, q)
    assert st.real_series < len(data) / 2


def test_hard_query_does_more_work_than_easy(setup):
    data, ids, index, _ = setup
    rng = np.random.default_rng(4)
    easy = data[5] + rng.normal(0, 0.01, data.shape[1])
    from repro.core.paa import znorm

    hard = znorm(np.cumsum(rng.normal(size=data.shape[1])))
    st_easy = exact_search(index, znorm(easy))
    st_hard = exact_search(index, hard)
    assert st_hard.total_cost > st_easy.total_cost
    assert st_hard.approx_bsf > st_easy.approx_bsf


def test_fixture_index_structure(setup):
    """The build is deterministic: the fixture's index structure, pinned."""
    _, _, index, _ = setup
    assert (index.n_leaves, len(np.unique(index.leaf_root))) == (58, 43)
    assert (index.tree_cost, index.buffer_cost, index.index_bytes()) == (1344, 38400, 38080)
    assert np.bincount(leaf_batches(index)).tolist() == [9, 7, 12, 7, 6, 6, 10, 1]
    assert index.leaf_offsets[:10].tolist() == [0, 4, 12, 43, 69, 79, 84, 105, 106, 108]


def test_empty_index_search():
    idx = build_index(np.array([0]), random_walk_np(1, 32, seed=0))
    st = exact_search(idx, random_walk_np(1, 32, seed=1)[0])
    assert np.isfinite(st.nn_dist)


def test_zero_series_chunk_rejected():
    with pytest.raises(ValueError, match="zero series"):
        build_index(np.array([], dtype=np.int64), np.zeros((0, 32)))


@pytest.mark.parametrize("k", [1, 2])
def test_ties_within_a_chunk_ordered_by_id(k):
    """Series 0 stored three times, its two copies first and under the
    largest ids: the answer follows (distance, id), not storage order."""
    base = random_walk_np(48, 32, seed=7)
    data = np.vstack([base[0], base[0], base])
    ids = np.r_[49, 48, np.arange(48)]
    q = base[0] + np.random.default_rng(8).normal(0, 0.05, 32)
    index = build_index(ids, data, leaf_capacity=8)
    st = exact_search(index, q, k=k)
    ref = brute_force_knn(data, ids, q, k)
    assert [i for _, i in st.topk] == [i for _, i in ref] == [0, 48][:k]
    np.testing.assert_allclose([d for d, _ in st.topk], [d for d, _ in ref], atol=1e-12)


def test_kbsf_keeps_k_smallest_in_any_order():
    """The heap holds the k smallest (distance, id) pairs whatever the offer
    order, one at a time or in batches, with repeat offers of a series."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        dists = rng.integers(0, 4, n).astype(np.float64)
        sids = rng.permutation(40)[:n]
        expected = sorted(zip(dists.tolist(), sids.tolist()))[:k]
        one = _KBsf(k, np.inf)
        for i in rng.permutation(n):
            one.offer(float(dists[i]), int(sids[i]))
        many = _KBsf(k, np.inf)
        cut = int(rng.integers(0, n + 1))
        many.offer_many(dists[:cut], sids[:cut])
        many.offer_many(dists, sids)  # the first part again, as approx members
        assert one.topk() == many.topk() == expected
        assert many.bound == (expected[-1][0] if len(expected) == k else np.inf)


# Work counters of exact_search on the module fixture, per (query, run):
# (series_lb, real_series, leaves_processed, pq_costs, top-k ids). Every run
# also computes the leaf LB of all 58 leaves; real_series includes the
# members of the approximate leaf. ED and DTW share one search loop, so a
# change to that loop or to the ED cascade must leave all of them as they
# are.
_PINNED_WORK = {
    (0, "k1"): (357, 235, 31, [8760, 1976, 776, 1264, 264, 4000, 16], [97]),
    (0, "k5"): (357, 237, 31, [8760, 1976, 776, 1264, 264, 4128, 16], [97, 1, 152, 93, 113]),
    (0, "seeded"): (357, 235, 31, [8760, 1976, 776, 1264, 264, 4000, 16], [97]),
    (0, "messi"): (357, 235, 31, [776, 8760, 1976, 16, 1264, 4000, 264], [97]),
    (1, "k1"): (284, 61, 19, [2856, 1096, 88, 552, 136], [477]),
    (1, "k5"): (284, 63, 19, [2984, 1096, 88, 552, 136], [477, 455, 470, 475, 464]),
    (1, "seeded"): (284, 61, 19, [2856, 1096, 88, 552, 136], [477]),
    (1, "messi"): (284, 61, 19, [88, 1096, 2856, 552, 136], [477]),
    (2, "k1"): (53, 26, 4, [320, 200], [536]),
    (2, "k5"): (159, 83, 16, [3896, 1056, 160, 0, 0, 0, 0, 0], [536, 538, 544, 528, 539]),
    (2, "seeded"): (53, 26, 4, [320, 200], [536]),
    (2, "messi"): (53, 26, 4, [200, 320], [536]),
    (3, "k1"): (165, 79, 11, [4136, 512, 392, 80], [371]),
    (3, "k5"): (166, 79, 12, [4152, 512, 392, 80], [371, 395, 353, 380, 389]),
    (3, "seeded"): (165, 79, 11, [4136, 512, 392, 80], [371]),
    (3, "messi"): (165, 79, 11, [4136, 392, 80, 512], [371]),
    (4, "k1"): (172, 52, 21, [968, 2152, 200, 112, 368, 48], [485]),
    (4, "k5"): (199, 55, 23, [1032, 2464, 200, 112, 416, 48, 0], [485, 503, 483, 492, 499]),
    (4, "seeded"): (172, 52, 21, [968, 2152, 200, 112, 368, 48], [485]),
    (4, "messi"): (172, 52, 21, [48, 368, 112, 200, 2152, 968], [485]),
    (5, "k1"): (25, 26, 1, [272], [472]),
    (5, "k5"): (88, 36, 6, [1256, 200], [472, 464, 467, 477, 449]),
    (5, "seeded"): (25, 26, 1, [272], [472]),
    (5, "messi"): (25, 26, 1, [272], [472]),
}


@pytest.mark.parametrize("qi,run", list(_PINNED_WORK))
def test_ed_work_counters_pinned(setup, qi, run):
    data, ids, index, queries = setup
    q = queries[qi]
    if run == "k1":
        st = exact_search(index, q, k=1)
    elif run == "k5":
        st = exact_search(index, q, k=5)
    elif run == "seeded":
        ref_d, _ = brute_force_knn(data, ids, q, 1)[0]
        st = exact_search(index, q, k=1, init_bsf=ref_d * 1.001)
    else:
        st = exact_search(index, q, sorted_pqs=False, pq_threshold=None)
    series_lb, real_series, leaves_processed, pq_costs, topk_ids = _PINNED_WORK[qi, run]
    assert st.leaf_lb == 58
    assert (st.series_lb, st.real_series, st.leaves_processed) == (series_lb, real_series, leaves_processed)
    assert st.pq_costs == pq_costs
    assert [i for _, i in st.topk] == topk_ids
