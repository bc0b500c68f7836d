"""The cached layout's index round trip, without Spark.

A partitioner's layout build writes each chunk's rows in the leaf order of
its index (``engine._layout_batches``), and every scan loads the index from
those rows (``engine._indexes``) instead of building it. The loaded index
must be the built one with its rows permuted by ``leaf_order``: the same
leaves, bounds and searches, to the last counter.
"""
import dataclasses

import numpy as np
import pytest

from repro.core.dtw import exact_search_dtw
from repro.core.index import build_index
from repro.core.isax import MAX_BITS, W
from repro.core.search import exact_search
from repro.distributed import engine
from repro.experiments.datasets import DATASETS
from repro.synth_data import make_queries_np, random_walk_np


def _steps(n: int, seed: int, length: int = 64) -> np.ndarray:
    """Series constant over each PAA segment, as ``test_pq_blocks.py``'s:
    distances tie exactly."""
    levels = np.random.default_rng(seed).integers(-2, 3, size=(n, W))
    return np.repeat(levels, length // W, axis=1).astype(np.float64)


def _one_leaf() -> np.ndarray:
    base = random_walk_np(1, 64, seed=3)[0]
    return base + np.random.default_rng(4).normal(0, 0.02, (40, 64))


#: name -> (data, leaf capacity)
_CHUNKS = {
    "seismic": (DATASETS["seismic"].generate(0.25), 32),
    "walks": (random_walk_np(1500, 64, seed=8), 64),
    "one-leaf": (_one_leaf(), 64),
    # with 40 copies of two series: leaves that cannot split reach MAX_BITS
    "steps": (np.vstack([_steps(600, 31), np.repeat(_steps(2, 33), 40, axis=0)]), 32),
}


def _round_trip(ids, data, capacity, batch_rows, monkeypatch):
    """Build a chunk's index, write its layout rows in record batches of
    ``batch_rows`` and load them back."""
    built = build_index(ids, data, leaf_capacity=capacity)
    monkeypatch.setattr(engine, "LAYOUT_BATCH_ROWS", batch_rows)
    batches = list(engine._layout_batches(7, built, 0.25))
    assert all(b.num_rows <= batch_rows for b in batches)
    assert len(batches) == -(-len(ids) // batch_rows)
    ((chunk_id, loaded, build_elapsed, load_elapsed),) = engine._indexes(iter(batches))
    assert (chunk_id, build_elapsed) == (7, 0.25) and load_elapsed > 0
    return built, loaded


@pytest.mark.parametrize("batch_rows", [10_000, 97])
@pytest.mark.parametrize("name", sorted(_CHUNKS))
def test_loaded_index_is_the_built_one(name, batch_rows, monkeypatch):
    data, capacity = _CHUNKS[name]
    ids = np.arange(len(data), dtype=np.int64)[::-1] * 3
    built, loaded = _round_trip(ids, data, capacity, batch_rows, monkeypatch)
    if name == "one-leaf":
        assert built.n_leaves == 1
    if name == "steps":
        assert (built.leaf_card == MAX_BITS).all(axis=1).any()
    for field in ("leaf_root", "leaf_card", "leaf_lo", "leaf_hi", "leaf_offsets"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(built, field), field)
    order = built.leaf_order
    for field in ("ids", "data", "paa"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(built, field)[order], field)
    np.testing.assert_array_equal(loaded.leaf_order, np.arange(len(data)))
    assert loaded.data.dtype == np.float64 and loaded.data.flags["C_CONTIGUOUS"]
    for attr in ("n_series", "n_leaves", "w", "length", "buffer_cost", "tree_cost"):
        assert getattr(loaded, attr) == getattr(built, attr), attr
    assert loaded.index_bytes() == built.index_bytes()


SEARCHES = {
    "ed": exact_search,
    "dtw": lambda index, q, **kw: exact_search_dtw(index, q, warp=0.1, **kw),
}


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("distance", sorted(SEARCHES))
@pytest.mark.parametrize("name", sorted(_CHUNKS))
def test_loaded_index_searches_as_the_built_one(name, distance, k, seeded, monkeypatch):
    """Every ``SearchStats`` field is identical, seeded with the chunk's own
    k-th distance (the bound meets ties) or not."""
    data, capacity = _CHUNKS[name]
    ids = np.arange(len(data), dtype=np.int64)[::-1] * 3
    built, loaded = _round_trip(ids, data, capacity, 10_000, monkeypatch)
    queries = make_queries_np(data, 3 if distance == "dtw" else 6, seed=5)[0]
    search = SEARCHES[distance]
    for q in queries:
        bsf = search(built, q, k=k).topk[-1][0] if seeded else np.inf
        want = search(built, q, k=k, init_bsf=bsf)
        got = search(loaded, q, k=k, init_bsf=bsf)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_rows_out_of_leaf_order_rejected(monkeypatch):
    """A chunk whose rows no longer follow its leaves is rejected, naming
    the chunk, rather than loaded as a different index."""
    data, capacity = _CHUNKS["walks"]
    built = build_index(np.arange(len(data)), data, leaf_capacity=capacity)
    (batch,) = engine._layout_batches(3, built, 0.0)
    reordered = batch.take(np.argsort(batch.column("id").to_numpy()))
    with pytest.raises(ValueError, match=r"^chunk 3: rows are not in the leaf order"):
        list(engine._indexes(iter([reordered])))
