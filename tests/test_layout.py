"""The cached layout's index round trip, without Spark.

A partitioner's layout build splits each chunk into its index's leaves
(``split_leaves``) and writes the chunk's rows leaf after leaf
(``engine._layout_batches``), and every scan loads the index from those
rows (``engine._indexes``) instead of building it. The loaded index must be
the one ``build_index`` gives: every array and scalar equal, and the same
searches, to the last counter.
"""
import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from repro.core.dtw import exact_search_dtw
from repro.core.index import ISaxIndex, build_index, split_leaves
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


def _layout(chunk_id, ids, data, capacity, build_elapsed=0.0):
    """A chunk's layout record batches, as the layout build writes them."""
    tree = split_leaves(data, leaf_capacity=capacity)
    return list(engine._layout_batches(chunk_id, ids, data, tree, build_elapsed))


def _assert_same_index(loaded, built):
    """Every array and scalar of the two indexes is equal."""
    for field in dataclasses.fields(ISaxIndex):
        np.testing.assert_array_equal(
            getattr(loaded, field.name), getattr(built, field.name), field.name
        )
    assert loaded.data.dtype == np.float64 and loaded.data.flags["C_CONTIGUOUS"]
    assert loaded.index_bytes() == built.index_bytes()


def _round_trip(ids, data, capacity, batch_rows, monkeypatch):
    """Build a chunk's index, write its layout rows in record batches of
    ``batch_rows`` and load them back."""
    built = build_index(ids, data, leaf_capacity=capacity)
    monkeypatch.setattr(engine, "LAYOUT_BATCH_ROWS", batch_rows)
    batches = _layout(7, ids, data, capacity, 0.25)
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
    _assert_same_index(loaded, built)


def test_chunks_from_layout_record_batches():
    """The scan's Arrow reader: several chunks whose rows interleave across
    record batches, each batch's columns a slice of one longer array
    (non-zero offsets), load each chunk's index as ``build_index`` over the
    chunk builds it, the chunks in ascending id."""
    chunks = {9: "walks", 2: "steps", 5: "one-leaf"}
    parts, built = [], {}
    for n, (chunk_id, name) in enumerate(chunks.items()):
        data, capacity = _CHUNKS[name]
        ids = np.arange(len(data), dtype=np.int64)[::-1] * 3 + n
        built[chunk_id] = build_index(ids, data, leaf_capacity=capacity)
        parts += _layout(chunk_id, ids, data, capacity)
    table = pa.Table.from_batches(parts)
    # a random interleaving of the chunks that keeps each chunk's row order
    chunk_of = table.column("chunk_id").to_numpy()
    shuffled = np.random.default_rng(11).permutation(chunk_of)
    order = np.empty(len(chunk_of), dtype=np.int64)
    for chunk_id in chunks:
        order[shuffled == chunk_id] = np.flatnonzero(chunk_of == chunk_id)
    batches = table.take(order).combine_chunks().to_batches(max_chunksize=97)
    assert len(batches) > 1 and batches[1].column("series").offset == 97
    loaded = list(engine._indexes(iter(batches)))
    assert [chunk_id for chunk_id, *_ in loaded] == sorted(chunks)
    for chunk_id, index, build_elapsed, _ in loaded:
        assert build_elapsed == 0.0
        _assert_same_index(index, built[chunk_id])


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
    (batch,) = _layout(3, np.arange(len(data)), data, capacity)
    reordered = batch.take(np.argsort(batch.column("id").to_numpy()))
    with pytest.raises(ValueError, match=r"^chunk 3: rows are not in the leaf order"):
        list(engine._indexes(iter([reordered])))
