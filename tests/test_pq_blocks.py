"""Block evaluation of the priority queues against a per-leaf oracle.

``pq_search`` evaluates each priority queue with one cascade call and then
replays the per-leaf decisions. ``per_leaf_search`` below is the per-leaf
loop of the paper's Alg. 2, kept here as a test oracle (as the DTW reference
DP is for ``dtw_batch``): it pops a queue's leaves in lower-bound order,
abandons the queue at the first leaf bound above the BSF, filters the leaf's
series through the cascade under the current BSF and offers the survivors'
distances to the heap. Both must agree on every ``SearchStats`` field. Its
tree traversal walks the RS-batches as lists of leaves (``make_batches``),
which is also the oracle of the search's per-leaf batch ids.
"""
import dataclasses

import numpy as np
import pytest

from repro.core.dtw import _DtwMetric
from repro.core.index import build_index
from repro.core.isax import W
from repro.core.search import (
    LEAF_OVERHEAD, N_THREADS, _approx_phase, _EdMetric, _KBsf, leaf_batches, pq_search,
)
from repro.synth_data import clustered_walks_np, make_queries_np, random_walk_np


def make_batches(index) -> list[list[int]]:
    """The RS-batches as lists of leaves: the root subtrees in ascending
    order, ``⌈n_roots / N_THREADS⌉`` of them per batch (one per batch when
    there are fewer roots than threads)."""
    roots: dict[int, list[int]] = {}
    for leaf, root in enumerate(index.leaf_root.tolist()):
        roots.setdefault(root, []).append(leaf)
    root_ids = sorted(roots)
    per = -(-len(root_ids) // min(N_THREADS, len(root_ids)))
    return [[leaf for root in root_ids[b : b + per] for leaf in roots[root]]
            for b in range(0, len(root_ids), per)]


def _members(index, leaf):
    return np.arange(index.leaf_offsets[leaf], index.leaf_offsets[leaf + 1])


def per_leaf_search(index, metric, *, k, init_bsf, pq_threshold, sorted_pqs):
    kbsf = _KBsf(k, init_bsf)
    stats = _approx_phase(index, metric, kbsf)
    pqs = []
    for batch in make_batches(index):  # tree traversal
        lbs = [(float(metric.leaf_lbs[leaf]), leaf) for leaf in batch]
        kept = [(lb, leaf) for lb, leaf in lbs if lb <= kbsf.bound]
        size = pq_threshold or max(len(kept), 1)
        pqs += [sorted(kept[a : a + size]) for a in range(0, len(kept), size)]
    stats.traversal_cost = float(index.n_leaves * index.w)
    stats.pq_sizes = [len(pq) for pq in pqs]
    if sorted_pqs:
        pqs.sort(key=lambda pq: pq[0][0])
    for pq in pqs:
        cost = 0.0
        for lb, leaf in pq:  # pop
            if lb > kbsf.bound:
                break  # abandon the queue
            members = _members(index, leaf)
            stages = metric.cascade(members, kbsf.bound)
            reach = np.ones(len(members), dtype=bool)  # series filter
            for j, (values, unit) in enumerate(stages):
                cost += unit * np.count_nonzero(reach)
                if j < len(stages) - 1:
                    reach &= values <= kbsf.bound
            kbsf.offer_many(stages[-1][0][reach], index.ids[members[reach]])  # offer
            stats.series_lb += len(members)
            stats.real_series += int(np.count_nonzero(reach))
            stats.leaves_processed += 1
            cost += LEAF_OVERHEAD
        stats.pq_costs.append(cost)
    stats.topk = kbsf.topk()
    return stats


def _steps(n: int, seed: int, length: int = 64) -> np.ndarray:
    """Series constant over each PAA segment: their PAA bound equals their
    ED, and distances tie exactly."""
    levels = np.random.default_rng(seed).integers(-2, 3, size=(n, W))
    return np.repeat(levels, length // W, axis=1).astype(np.float64)


def _dataset(name: str):
    if name == "walks":
        data = clustered_walks_np(600, 64, seed=9)
        return data, make_queries_np(data, 8, seed=21)[0], 32
    if name == "steps":
        return _steps(600, 31), _steps(8, 37), 32
    base = random_walk_np(1, 64, seed=3)[0]  # one root subtree, one leaf
    data = base + np.random.default_rng(4).normal(0, 0.02, (40, 64))
    return data, make_queries_np(data, 6, seed=5)[0], 64


_DATA = {name: _dataset(name) for name in ("walks", "steps", "one-leaf")}
_MODES = {"odyssey": (64, True), "messi": (None, False)}


def _metric(distance, index, q):
    return _EdMetric(index, q) if distance == "ed" else _DtwMetric(index, q, 0.1)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("seed", [None, 1.0, 0.5], ids=["unseeded", "seed-tie", "seed-below"])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("distance", ["ed", "dtw"])
@pytest.mark.parametrize("name", sorted(_DATA))
def test_block_search_matches_per_leaf_loop(name, distance, k, seed, mode):
    """Unseeded, and seeded with the chunk's own k-th distance (the shared
    bound meets ties) or half of it (a global answer from another chunk:
    the local heap keeps changing while the capped bound does not)."""
    data, queries, capacity = _DATA[name]
    # ids against storage order: tied distances resolve by id, not position
    index = build_index(np.arange(len(data))[::-1] * 2, data, leaf_capacity=capacity)
    if name == "one-leaf":
        assert index.n_leaves == 1
    pq_threshold, sorted_pqs = _MODES[mode]
    kw = {"k": k, "pq_threshold": pq_threshold, "sorted_pqs": sorted_pqs}
    for q in queries:
        bsf = np.inf
        if seed is not None:
            alone = per_leaf_search(index, _metric(distance, index, q), init_bsf=np.inf, **kw)
            bsf = seed * alone.topk[-1][0]
        got = pq_search(index, _metric(distance, index, q), init_bsf=bsf, **kw)
        want = per_leaf_search(index, _metric(distance, index, q), init_bsf=bsf, **kw)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


class _Spy:
    """A metric that records the rows of every cascade call."""

    def __init__(self, metric):
        self.metric, self.leaf_lbs, self.approx = metric, metric.leaf_lbs, metric.approx
        self.calls = []

    def cascade(self, rows, bound):
        self.calls.append(rows.copy())
        return self.metric.cascade(rows, bound)


@pytest.mark.parametrize("pq_threshold", [4, 64, None])
@pytest.mark.parametrize("distance", ["ed", "dtw"])
def test_no_cascade_call_exceeds_one_queue(distance, pq_threshold):
    """Each cascade call covers whole leaves of one queue: at most
    ``pq_threshold`` of them, all from one RS-batch. Evaluating more at once
    (a whole query) costs memory in proportion to the rows."""
    data, queries, _ = _DATA["walks"]
    index = build_index(np.arange(len(data)), data, leaf_capacity=16)
    leaf_of = np.empty(len(data), dtype=np.int64)
    for leaf in range(index.n_leaves):
        leaf_of[_members(index, leaf)] = leaf
    batch_of = {leaf: b for b, batch in enumerate(make_batches(index)) for leaf in batch}
    widest = 0
    for q in queries:
        spy = _Spy(_metric(distance, index, q))
        pq_search(index, spy, k=5, init_bsf=np.inf,
                  pq_threshold=pq_threshold, sorted_pqs=pq_threshold is not None)
        assert spy.calls
        for rows in spy.calls:
            leaves = np.unique(leaf_of[rows])
            members = np.concatenate([_members(index, i) for i in leaves])
            assert sorted(rows.tolist()) == sorted(members.tolist())
            assert len(leaves) <= (pq_threshold or index.n_leaves)
            assert len({batch_of[i] for i in leaves}) == 1
            widest = max(widest, len(leaves))
    if pq_threshold == 4:
        assert widest == 4


def _few_roots() -> np.ndarray:
    """Noisy copies of three walks: four root subtrees, fewer than N_THREADS."""
    base = random_walk_np(3, 64, seed=2)
    return np.repeat(base, 20, axis=0) + np.random.default_rng(6).normal(0, 0.02, (60, 64))


_BATCH_CASES = {  # data, leaf capacity, root subtrees
    "search-fixture": (_DATA["walks"][0], 32, 43),  # tests/test_search.py's index
    "few-roots": (_few_roots(), 8, 4),
    "one-leaf": (_DATA["one-leaf"][0], 64, 1),
}


@pytest.mark.parametrize("name", sorted(_BATCH_CASES))
def test_leaf_batches_match_list_batches(name):
    """Each leaf's RS-batch id is its batch in ``make_batches``, whose
    leaves, batch after batch, are the leaves in index order."""
    data, capacity, n_roots = _BATCH_CASES[name]
    index = build_index(np.arange(len(data)), data, leaf_capacity=capacity)
    assert len(np.unique(index.leaf_root)) == n_roots
    batches = make_batches(index)
    assert [leaf for batch in batches for leaf in batch] == list(range(index.n_leaves))
    want = [b for b, batch in enumerate(batches) for _ in batch]
    assert leaf_batches(index).tolist() == want
