"""Unit tests for the single-node iSAX index tree."""
import numpy as np
import pytest

from repro.core.index import approx_search, build_index
from repro.core.isax import pack_bits
from repro.core.paa import paa
from repro.synth_data import clustered_walks_np, random_walk_np


@pytest.fixture(scope="module")
def dataset():
    data = clustered_walks_np(500, 64, seed=7)
    return np.arange(500), data


@pytest.fixture(scope="module")
def index(dataset):
    ids, data = dataset
    return build_index(ids, data, leaf_capacity=32)


def test_every_series_in_exactly_one_leaf(index):
    seen = np.concatenate([lf.members for lf in index.leaves])
    assert len(seen) == index.n_series
    assert set(seen.tolist()) == set(range(index.n_series))


def test_leaf_capacity_respected(index):
    for lf in index.leaves:
        if np.min(lf.cards) < index.max_bits:  # not a forced leaf
            assert len(lf.members) <= index.leaf_capacity


def test_leaf_regions_contain_member_paa(index):
    for i, lf in enumerate(index.leaves):
        p = index.paa[lf.members]
        assert np.all(p >= index.leaf_lo[i] - 1e-12)
        assert np.all(p <= index.leaf_hi[i] + 1e-12)


def test_roots_cover_all_leaves(index):
    leaf_ids = sorted(i for leaves in index.roots.values() for i in leaves)
    assert leaf_ids == list(range(index.n_leaves))


def test_root_id_matches_top_bits(index):
    for rid, leaves in index.roots.items():
        for li in leaves:
            lf = index.leaves[li]
            top = lf.prefixes >> (lf.cards - 1)
            assert pack_bits(top) == rid == lf.root_id


def test_leaf_prefixes_match_member_symbols(index):
    for lf in index.leaves:
        for seg in range(index.w):
            expect = index.syms[lf.members, seg] >> (index.max_bits - lf.cards[seg])
            assert np.all(expect == lf.prefixes[seg])


@pytest.mark.parametrize("w", [4, 8, 16])
def test_build_with_different_segment_counts(w):
    data = random_walk_np(100, 64, seed=1)
    idx = build_index(np.arange(100), data, w=w, leaf_capacity=16)
    assert idx.w == w
    assert idx.paa.shape == (100, w)
    seen = np.concatenate([lf.members for lf in idx.leaves])
    assert len(seen) == 100


def test_build_single_series():
    data = random_walk_np(1, 32, seed=2)
    idx = build_index(np.array([42]), data, leaf_capacity=4)
    assert idx.n_leaves == 1
    assert idx.ids[idx.leaves[0].members[0]] == 42


def test_build_rejects_mismatched_ids():
    with pytest.raises(ValueError):
        build_index(np.arange(3), np.zeros((4, 32)))


def test_forced_leaf_on_duplicate_series():
    # identical series can never be split apart: forced leaf at max card
    data = np.tile(random_walk_np(1, 32, seed=3), (50, 1))
    idx = build_index(np.arange(50), data, leaf_capacity=4)
    assert idx.n_leaves == 1
    assert len(idx.leaves[0].members) == 50


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
