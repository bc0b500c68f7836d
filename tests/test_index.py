"""Unit tests for the single-node iSAX index tree."""
import numpy as np
import pytest

from repro.core.index import approx_search, build_index
from repro.core.isax import MAX_BITS, breakpoints, pack_bits, symbols
from repro.core.paa import paa
from repro.synth_data import clustered_walks_np, random_walk_np


@pytest.fixture(scope="module")
def dataset():
    data = clustered_walks_np(500, 64, seed=7)
    return np.arange(500), data


CAPACITY = 32


@pytest.fixture(scope="module")
def index(dataset):
    ids, data = dataset
    return build_index(ids, data, leaf_capacity=CAPACITY)


def _leaf_of_rows(index):
    """The leaf of each index row: the rows are stored leaf after leaf."""
    return np.repeat(np.arange(index.n_leaves), np.diff(index.leaf_offsets))


def test_every_series_in_exactly_one_leaf(dataset, index):
    ids, data = dataset
    seen = np.concatenate([index.ids[index.members(i)] for i in range(index.n_leaves)])
    assert len(seen) == len(ids)
    assert sorted(seen.tolist()) == ids.tolist()
    assert np.array_equal(index.data, data[index.ids])  # ids[j] == j
    assert index.leaf_offsets[0] == 0 and np.all(np.diff(index.leaf_offsets) > 0)


def test_leaf_capacity_respected(index):
    words = symbols(index.paa, MAX_BITS)
    for i in range(index.n_leaves):
        members = words[index.members(i)]
        if len(members) > CAPACITY:  # a forced leaf: its words cannot be split
            assert np.all(members == members[0])


def test_leaf_regions_contain_member_paa(index):
    for i in range(index.n_leaves):
        p = index.paa[index.members(i)]
        assert np.all(p >= index.leaf_lo[i] - 1e-12)
        assert np.all(p <= index.leaf_hi[i] + 1e-12)


def test_roots_cover_all_leaves(index):
    """``leaf_root`` ascends, and its roots are those of the series."""
    assert np.all(np.diff(index.leaf_root) >= 0)
    roots = pack_bits(symbols(index.paa, MAX_BITS) >> (MAX_BITS - 1))
    assert set(index.leaf_root.tolist()) == set(roots.tolist())


def test_root_id_matches_top_bits(index):
    """Each leaf's root is the top bits of its members' symbols, recomputed
    from the stored PAA."""
    roots = pack_bits(symbols(index.paa, MAX_BITS) >> (MAX_BITS - 1))
    assert np.array_equal(roots, index.leaf_root[_leaf_of_rows(index)])


def test_leaf_prefixes_match_member_symbols(index):
    """Per segment, each leaf region is the block of max-cardinality symbols
    that share one prefix, and its members' symbols lie in that block."""
    bp = breakpoints(MAX_BITS)
    first = np.searchsorted(bp, index.leaf_lo, side="right")
    last = np.searchsorted(bp, index.leaf_hi, side="left")
    span = last - first + 1
    assert np.all(span & (span - 1) == 0) and np.all(first % span == 0)
    leaf_of = _leaf_of_rows(index)
    words = symbols(index.paa, MAX_BITS)
    assert np.all(first[leaf_of] <= words) and np.all(words <= last[leaf_of])


@pytest.mark.parametrize("w", [4, 8, 16])
def test_build_with_different_segment_counts(w):
    data = random_walk_np(100, 64, seed=1)
    idx = build_index(np.arange(100), data, w=w, leaf_capacity=16)
    assert idx.w == w
    assert idx.paa.shape == (100, w)
    assert idx.leaf_lo.shape == (idx.n_leaves, w)
    assert sorted(idx.ids.tolist()) == list(range(100))


def test_build_single_series():
    data = random_walk_np(1, 32, seed=2)
    idx = build_index(np.array([42]), data, leaf_capacity=4)
    assert idx.n_leaves == 1
    assert idx.ids[idx.members(0)][0] == 42


def test_build_rejects_mismatched_ids():
    with pytest.raises(ValueError):
        build_index(np.arange(3), np.zeros((4, 32)))


def test_forced_leaf_on_duplicate_series():
    # identical series can never be split apart: forced leaf at max card
    data = np.tile(random_walk_np(1, 32, seed=3), (50, 1))
    idx = build_index(np.arange(50), data, leaf_capacity=4)
    assert idx.n_leaves == 1
    assert len(idx.ids[idx.members(0)]) == 50


def test_index_bytes_positive_and_small(index):
    raw = index.data.nbytes
    assert 0 < index.index_bytes() < raw


def test_build_costs_scale_with_input():
    small = build_index(np.arange(100), random_walk_np(100, 64, seed=4))
    large = build_index(np.arange(400), random_walk_np(400, 64, seed=4))
    assert large.buffer_cost == pytest.approx(4 * small.buffer_cost)
    assert large.tree_cost > small.tree_cost


def test_approx_search_returns_reachable_answer(dataset, index):
    ids, data = dataset
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = data[rng.integers(0, len(data))] + rng.normal(0, 0.05, data.shape[1])
        q_paa = paa(q, index.w)
        bsf, nn_id, dists, member_ids, cost = approx_search(
            index, q, q_paa, index.leaf_lower_bounds(q_paa)
        )
        true = np.sqrt(((data - q) ** 2).sum(axis=1))
        assert bsf >= true.min() - 1e-9  # approximate: never better than exact
        assert bsf == pytest.approx(true[nn_id])  # consistent dist/id pair
        assert cost > 0


def test_approx_search_on_own_member_is_exactish(dataset, index):
    ids, data = dataset
    q = data[17]
    q_paa = paa(q, index.w)
    bsf, nn_id, *_ = approx_search(index, q, q_paa, index.leaf_lower_bounds(q_paa))
    assert bsf == pytest.approx(0.0, abs=1e-9)
    assert nn_id == 17


def test_approx_search_prefers_own_root_subtree(dataset, index):
    """The approximate leaf is the best-bounded leaf of the query's root
    subtree when that subtree holds leaves, even where a leaf of another
    subtree has a smaller bound; the best leaf overall otherwise."""
    ids, data = dataset
    rng = np.random.default_rng(1)
    queries = data[rng.integers(0, len(data), 300)] + rng.normal(0, 1.0, (300, data.shape[1]))
    preferred = 0
    for q in queries:
        q_paa = paa(q, index.w)
        lbs = index.leaf_lower_bounds(q_paa)
        root = pack_bits(symbols(q_paa, MAX_BITS) >> (MAX_BITS - 1))
        own = np.flatnonzero(index.leaf_root == root)
        leaf = own[np.argmin(lbs[own])] if len(own) else np.argmin(lbs)
        preferred += leaf != np.argmin(lbs)
        *_, member_ids, _ = approx_search(index, q, q_paa, lbs)
        assert member_ids.tolist() == index.ids[index.members(leaf)].tolist()
    assert preferred  # the preference decided some queries
