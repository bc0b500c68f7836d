"""k-NN extension tests."""
import numpy as np
import pytest

from repro.core.index import build_index
from repro.core.search import exact_search
from repro.synth_data import random_walk_np

from .brute_force import brute_force_knn


@pytest.fixture(scope="module")
def setup():
    data = random_walk_np(300, 32, seed=5)
    ids = np.arange(300)
    return data, ids, build_index(ids, data, leaf_capacity=16)


def test_brute_force_sorted_ascending(setup):
    data, ids, _ = setup
    res = brute_force_knn(data, ids, data[0], 10)
    d = [x[0] for x in res]
    assert d == sorted(d)
    assert res[0] == (pytest.approx(0.0, abs=1e-9), 0)


def test_k_larger_than_collection(setup):
    data, ids, index = setup
    res = exact_search(index, data[1], k=1000)
    ref = brute_force_knn(data, ids, data[1], 1000)
    assert len(res.topk) == len(ref) == 300


@pytest.mark.parametrize("k", [1, 2, 7, 20])
def test_exact_knn_distances(setup, k):
    data, ids, index = setup
    rng = np.random.default_rng(k)
    q = data[rng.integers(300)] + rng.normal(0, 0.2, 32)
    res = exact_search(index, q, k=k)
    ref = brute_force_knn(data, ids, q, k)
    np.testing.assert_allclose([d for d, _ in res.topk], [d for d, _ in ref], atol=1e-9)


def test_no_duplicate_ids_in_topk(setup):
    data, ids, index = setup
    res = exact_search(index, data[3], k=25)
    got = [i for _, i in res.topk]
    assert len(got) == len(set(got))


def test_knn_does_at_least_as_much_work_as_1nn(setup):
    data, _, index = setup
    rng = np.random.default_rng(9)
    q = data[rng.integers(300)] + rng.normal(0, 0.3, 32)
    w1 = exact_search(index, q, k=1).total_cost
    w10 = exact_search(index, q, k=10).total_cost
    assert w10 >= w1
