"""The Odyssey distributed search operator on Spark.

The dataset is a DataFrame ``(id, series, chunk_id)`` (chunk = the data a
replication group indexes), laid out by the partitioners with chunk ``c``
alone in Spark partition ``c``. The partitioners build that layout once,
eagerly, and hold it as a local checkpoint: the scan is planned against one
``LogicalRDD`` over the checkpointed rows, and every pass and every batch
reads the resident chunks and reruns neither the shuffle nor a
partitioner's UDFs nor the index build. The layout build
(``build_layout``, one ``mapInArrow``) turns each chunk's ``series`` list
column into one C-contiguous ``(n, L)`` float64 matrix (from the flat list
values, no per-series objects), rejects empty, ragged or non-finite series
and a length not divisible by ``w`` naming the chunk, splits the chunk into
its iSAX index's leaves once (``split_leaves``) and writes the chunk back
leaf after leaf: one row per series, its series as L float64s of bytes,
its leaf and the leaf's cardinalities, and the build's tree cost and
seconds (``LAYOUT_SCHEMA``). Query answering is a
per-partition scan, ``mapInArrow`` over the layout: the Python
worker loads the chunk's index from its rows (``_indexes``: the series
bytes are the data matrix, the runs of ``leaf`` the leaves; only the PAA
and the leaves' bounds are recomputed) and answers the *whole query batch*
against it — one "node" execution per chunk. Rows out of leaf order (a
layout sorted after the build) are rejected naming the chunk. The scan
adds no sort and no exchange; each chunk runs as its own Spark task, in
parallel up to the session's cores, and returns one Arrow record batch of
typed columns (``topk_dist``/``topk_id``/``pq_costs`` are arrays). Every
result row records the partition and Python worker process that produced
it (``partition_id``, ``worker_pid``); a chunk whose rows come from more
than one partition is rejected on the driver. A worker rejects a query
batch whose length is not its chunk's series length, and the driver
raises that as a ``ValueError``; so is a ``k`` above the number of series.
PySpark starts every task in a reused Python worker by invalidating the
import caches, which on Python 3.11 makes each cached zip-archive finder
re-read all of ``pyspark.zip``'s directory (0.13–0.3 s of CPU per task);
the scan and the layout build therefore drop those finders
(``drop_zip_finders``) before and after their chunks, so later tasks
re-read nothing. BSF sharing is a
two-pass dataflow when the layout spans several Spark partitions:

  pass 1  approximate search per chunk (ED, for DTW queries too)  →
          driver reduces to a global per-query k-BSF seed (the paper's
          BSF-sharing channel)
  pass 2  exact search seeded with the global BSF (broadcast in the
          task closure)

A layout in one Spark partition (one chunk, as under FULL replication, or
a ``coalesce(1)`` layout) runs one scan instead. Its one task loads each
chunk's index once and runs pass 1 on every chunk; since it holds every
chunk, its pool of approximate answers is the one the driver would
collect, and it reduces them with the driver's own function
(``_seeds_from_approx``) before the seeded exact search. The seeds, the
answers and every counter are therefore those of the two scans; the
pass-1 cost is folded into each row by the same single addition.

The operator returns per-(chunk, query) answers *and* the full work
breakdown (lower-bound counts, real-distance counts, priority-queue cost
decomposition), which the cluster-level makespan simulator consumes —
see DESIGN.md §1 for why cross-node wall-clock is simulated from
measured work rather than taken from local Spark timings.
"""
import os
import re
import sys
import time
import zipimport
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import TaskContext
from pyspark.errors import PythonException
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

from ..core.dtw import exact_search_dtw
from ..core.index import ISaxIndex, load_index, split_leaves
from ..core.isax import W
from ..core.search import SearchStats, approximate_search, exact_search

RESULT_SCHEMA = T.StructType(
    [
        T.StructField("chunk_id", T.LongType()),
        T.StructField("query_id", T.LongType()),
        T.StructField("topk_dist", T.ArrayType(T.DoubleType())),  # ascending
        T.StructField("topk_id", T.ArrayType(T.LongType())),  # ids of topk_dist
        T.StructField("approx_bsf", T.DoubleType()),
        T.StructField("buffer_cost", T.DoubleType()),
        T.StructField("tree_cost", T.DoubleType()),
        T.StructField("index_bytes", T.LongType()),
        T.StructField("n_leaves", T.LongType()),
        T.StructField("n_series", T.LongType()),
        T.StructField("build_elapsed", T.DoubleType()),
        T.StructField("t_serial", T.DoubleType()),  # cost units, non-stealable
        T.StructField("pq_costs", T.ArrayType(T.DoubleType())),  # cost per PQ
        T.StructField("leaf_lb", T.LongType()),
        T.StructField("series_lb", T.LongType()),
        T.StructField("real_series", T.LongType()),
        T.StructField("total_cost", T.DoubleType()),
        T.StructField("elapsed", T.DoubleType()),
        T.StructField("partition_id", T.LongType()),  # Spark partition of the chunk
        T.StructField("worker_pid", T.LongType()),  # Python worker process
    ]
)

#: the chunk-level part of a result row, also the whole of a ``build_only`` row
_BUILD_FIELDS = (
    "chunk_id", "n_series", "n_leaves", "buffer_cost", "tree_cost",
    "index_bytes", "build_elapsed", "partition_id", "worker_pid",
)
#: the per-query part of a result row
_QUERY_FIELDS = tuple(f.name for f in RESULT_SCHEMA.fields if f.name not in _BUILD_FIELDS)


@dataclass
class DistResult:
    """Distributed search output: raw per-chunk stats + merged answers."""

    chunk_stats: pd.DataFrame
    answers: pd.DataFrame  # k=1: (query_id, nn_dist, nn_id); k>1: + rank


def _exact_search(algorithm: str, distance: str, warp: float, k: int):
    """The exact search a chunk runs, as ``search(index, q, init_bsf=...)``;
    raises ``ValueError`` on an unknown algorithm or distance."""
    if algorithm == "odyssey":
        search_kw = {"sorted_pqs": True, "pq_threshold": 64}
    elif algorithm == "messi":
        search_kw = {"sorted_pqs": False, "pq_threshold": None}
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if distance == "ed":
        search = exact_search
    elif distance == "dtw":
        search = partial(exact_search_dtw, warp=warp)
    else:
        raise ValueError(f"unknown distance {distance!r}")
    return partial(search, k=k, **search_kw)


def _make_worker(
    queries: np.ndarray,
    *,
    approx_only: bool,
    seeds: np.ndarray | None,
    algorithm: str,
    distance: str,
    warp: float,
    k: int,
):
    """Build the scan's per-partition worker: ``_answer_partition`` bound
    to the queries, seeds and search. A module-level function travels to
    the workers by name, so it calls the engine's own functions there,
    never a driver-side wrapper of them."""
    return partial(
        _answer_partition,
        queries=queries,
        approx_only=approx_only,
        seeds=seeds,
        search=_exact_search(algorithm, distance, warp, k),
        k=k,
    )


def _answer_partition(chunks, *, queries, approx_only, seeds, search, k):
    """Answer the query batch on each of one Spark partition's chunks
    (``_indexes``: the index loaded from the layout); yields one dict of
    result columns per chunk.

    ``approx_only`` runs pass 1, the approximate search alone. Otherwise
    each query's exact search starts from its entry in ``seeds``. Without
    seeds the task first runs pass 1 on every one of its chunks and
    reduces the answers to the seeds itself, with the driver's
    ``_seeds_from_approx``: when the task holds every chunk, that pool is
    the driver's pool, so the seeds, and every answer and counter after
    them, are those of the two scans. Each (chunk, query)'s pass-1 cost is
    then folded into its row as the driver folds it, and its time into
    ``elapsed``."""

    def loaded():
        for chunk_id, index, _, load_elapsed in chunks:
            if queries.shape[1] != index.length:
                raise ValueError(
                    f"chunk {chunk_id}: queries have length {queries.shape[1]}, "
                    f"series have length {index.length}"
                )
            yield index, _chunk_record(chunk_id, index, load_elapsed)

    indexes, pass1 = loaded(), None
    if seeds is None and not approx_only:
        indexes = list(indexes)
        pass1 = [
            [_timed(approximate_search, index, q, k=k) for q in queries]
            for index, _ in indexes
        ]
        approx = pd.DataFrame(
            [{**_query_row(st), "query_id": qi} for rows in pass1 for qi, (st, _) in enumerate(rows)]
        )
        seeds = _seeds_from_approx(approx, len(queries), k)
    for c, (index, base) in enumerate(indexes):
        rows = []
        for qi, q in enumerate(queries):
            if approx_only:
                st, elapsed = _timed(approximate_search, index, q, k=k)
            else:
                st, elapsed = _timed(search, index, q, init_bsf=float(seeds[qi]))
            row = _query_row(st)
            if pass1 is not None:
                approx_st, approx_elapsed = pass1[c][qi]
                row["t_serial"] += approx_st.total_cost
                row["total_cost"] += approx_st.total_cost
                elapsed += approx_elapsed
            rows.append({**row, "query_id": qi, "elapsed": elapsed})
        yield {
            **{name: [value] * len(rows) for name, value in base.items()},
            **{name: [r[name] for r in rows] for name in _QUERY_FIELDS},
        }


def _timed(search, *args, **kwargs) -> tuple[SearchStats, float]:
    """A search's result and its wall-clock seconds."""
    t = time.perf_counter()
    return search(*args, **kwargs), time.perf_counter() - t


def _query_row(st: SearchStats) -> dict:
    """The search's part of a query's result row, either pass."""
    return {
        "topk_dist": [d for d, _ in st.topk],
        "topk_id": [i for _, i in st.topk],
        "approx_bsf": st.approx_bsf,
        "t_serial": st.approx_cost + st.traversal_cost,
        "pq_costs": st.pq_costs,
        "leaf_lb": st.leaf_lb,
        "series_lb": st.series_lb,
        "real_series": st.real_series,
        "total_cost": st.total_cost,
    }


def _chunk_record(chunk_id: int, index: ISaxIndex, build_elapsed: float) -> dict:
    """The build record of one chunk's index, placed in the running task."""
    return {
        "chunk_id": chunk_id,
        "n_series": index.n_series,
        "n_leaves": index.n_leaves,
        "buffer_cost": index.buffer_cost,
        "tree_cost": index.tree_cost,
        "index_bytes": index.index_bytes(),
        "build_elapsed": build_elapsed,
        "partition_id": TaskContext.get().partitionId(),
        "worker_pid": os.getpid(),
    }


def chunk_search(
    chunked_df: DataFrame,
    queries: np.ndarray,
    *,
    approx_only: bool = False,
    seeds: np.ndarray | None = None,
    algorithm: str = "odyssey",
    distance: str = "ed",
    warp: float = 0.05,
    k: int = 1,
) -> pd.DataFrame:
    """One scan: load each chunk's index from the layout and answer the
    query batch on it. Pass 1
    (``approx_only``) runs the approximate search; otherwise each query's
    exact search starts from its entry in ``seeds`` (+inf: no seed), or,
    without ``seeds``, from the seeds each task reduces from its own
    chunks' approximate answers (``_answer_partition``)."""
    fn = _make_worker(
        np.asarray(queries, dtype=np.float64),
        approx_only=approx_only,
        seeds=seeds,
        algorithm=algorithm,
        distance=distance,
        warp=warp,
        k=k,
    )
    return _collect(chunked_df, fn, RESULT_SCHEMA)


def _chunk_scan(chunked_df: DataFrame, fn, schema: T.StructType) -> DataFrame:
    """Run ``fn(chunks)`` once per Spark partition, over an iterator of the
    partition's chunks as ``(chunk_id, index, build_elapsed, load_elapsed)``
    (``_indexes``); each dict of columns it yields becomes one Arrow record
    batch of ``schema``."""
    arrow_schema = to_arrow_schema(schema)

    def scan(batches):
        drop_zip_finders()
        for columns in fn(_indexes(batches)):
            yield pa.RecordBatch.from_pydict(columns, schema=arrow_schema)
        # a fresh worker's first Arrow conversion, and the chunk function,
        # import from the archives after the first drop
        drop_zip_finders()

    return chunked_df.select(*LAYOUT_SCHEMA.names).mapInArrow(scan, schema)


#: the layout: one row per series, each chunk's rows in the leaf
#: order of its index (``build_layout``)
LAYOUT_SCHEMA = T.StructType(
    [
        T.StructField("chunk_id", T.IntegerType()),
        T.StructField("id", T.LongType()),
        T.StructField("series", T.BinaryType()),  # L float64s
        T.StructField("leaf", T.IntegerType()),  # the row's leaf in its chunk's index
        T.StructField("card", T.BinaryType()),  # the leaf's cardinality bits, w bytes
        T.StructField("tree_cost", T.DoubleType()),  # the chunk's build, on every row
        # the seconds of the chunk's tree split (``split_leaves``); the leaf
        # bounds are computed at each load
        T.StructField("build_elapsed", T.DoubleType()),
    ]
)
_LAYOUT_ARROW = to_arrow_schema(LAYOUT_SCHEMA)
#: rows per record batch of a chunk's layout: the build holds one batch's
#: copy of the series at a time, not a second copy of the chunk
LAYOUT_BATCH_ROWS = 10_000


def build_layout(df: DataFrame) -> DataFrame:
    """The layout of a DataFrame ``(chunk_id, id, series)`` whose chunks
    each lie in one Spark partition: one Arrow map that splits each chunk
    into its index's leaves once and writes the chunk's rows leaf after
    leaf (``LAYOUT_SCHEMA``). Series that are empty, differ in length
    within a chunk, are not finite or have a length not divisible by ``w``
    raise ``ValueError`` naming the chunk."""
    return df.select("chunk_id", "id", "series").mapInArrow(_write_layout, LAYOUT_SCHEMA)


def _write_layout(batches):
    """``build_layout``'s function over one partition's record batches."""
    drop_zip_finders()
    for chunk_id, ids, data in _chunks(batches):
        if data.shape[1] % W:
            raise ValueError(
                f"chunk {chunk_id}: series length {data.shape[1]} not divisible by w={W}"
            )
        t0 = time.perf_counter()
        tree = split_leaves(data)
        yield from _layout_batches(chunk_id, ids, data, tree, time.perf_counter() - t0)
    drop_zip_finders()


def _layout_batches(chunk_id: int, ids, data, tree, build_elapsed: float):
    """One chunk's layout rows, leaf after leaf (``tree`` is
    ``split_leaves(data)``), as record batches of at most
    ``LAYOUT_BATCH_ROWS`` rows, each gathered through the tree's order."""
    order, leaf_offsets, leaf_card, tree_cost = tree
    leaf = np.repeat(np.arange(len(leaf_card), dtype=np.int32), np.diff(leaf_offsets))
    card = leaf_card.astype(np.uint8)
    for start in range(0, len(order), LAYOUT_BATCH_ROWS):
        rows = order[start : start + LAYOUT_BATCH_ROWS]
        leaves = leaf[start : start + LAYOUT_BATCH_ROWS]
        n = len(rows)
        yield pa.RecordBatch.from_arrays(
            [
                pa.array(np.full(n, chunk_id, dtype=np.int32)),
                pa.array(ids[rows]),
                _binary_rows(data[rows]),
                pa.array(leaves),
                _binary_rows(card[leaves]),
                pa.array(np.full(n, tree_cost)),
                pa.array(np.full(n, build_elapsed)),
            ],
            schema=_LAYOUT_ARROW,
        )


def _binary_rows(block: np.ndarray) -> pa.BinaryArray:
    """One binary value per row of a C-contiguous 2-D array, on its memory."""
    width = block.shape[1] * block.itemsize
    offsets = np.arange(len(block) + 1, dtype=np.int32) * width
    return pa.BinaryArray.from_buffers(
        pa.binary(), len(block), [None, pa.py_buffer(offsets), pa.py_buffer(block)]
    )


def _binary_values(arrays: list) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of binary arrays, one after another, and each value's
    length; a view of the Arrow buffer when there is one array."""
    views, lengths = [], []
    for a in arrays:
        _, offsets, data = a.buffers()
        offsets = np.frombuffer(offsets, np.int32, len(a) + 1, 4 * a.offset)  # the slice's
        lengths.append(np.diff(offsets))
        views.append(
            np.frombuffer(data, np.uint8, offsets[-1] - offsets[0], offsets[0])
        )
    return (views[0] if len(views) == 1 else np.concatenate(views)), np.concatenate(lengths)


def _split_chunks(chunk_ids: np.ndarray):
    """A partition's rows split by chunk: ``(chunk_id, rows)`` per chunk
    id, ascending, each chunk's rows in arrival order."""
    order = np.argsort(chunk_ids, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(chunk_ids[order])) + 1):
        yield int(chunk_ids[rows[0]]), rows


def _rows_matrix(values, starts, rows, width: int) -> np.ndarray:
    """The ``width`` values from each of ``rows``' ``starts`` in ``values``
    as one ``(len(rows), width)`` matrix: a view of ``values`` when the rows
    are one run, else a gather."""
    if rows[-1] - rows[0] == len(rows) - 1:
        start = starts[rows[0]]
        return values[start : start + len(rows) * width].reshape(len(rows), width)
    return values[starts[rows, None] + np.arange(width)]


def _binary_matrix(values, lengths, starts, rows, dtype, what: str, chunk_id: int):
    """The binary values of ``rows`` as one matrix of ``dtype``
    (``_rows_matrix``)."""
    size = int(lengths[rows[0]])
    if size == 0 or size % dtype.itemsize or (lengths[rows] != size).any():
        raise ValueError(f"chunk {chunk_id}: the layout's {what} must be of one length")
    return _rows_matrix(values, starts, rows, size).view(dtype)


def _indexes(batches):
    """The chunks in one partition's layout record batches, loaded
    (``load_index``): ``(chunk_id, index, build_elapsed, load_elapsed)``
    per chunk id, the layout's build seconds and the seconds this task
    spent loading it. ``index.data`` is a view of the series bytes when
    the chunk arrives as one run of one record batch. Raises
    ``ValueError`` naming the chunk when its rows are not in leaf order:
    a layout reordered or split after the partitioner wrote it."""
    batches = [b for b in batches if b.num_rows]
    if not batches:
        return
    t0 = time.perf_counter()
    chunk_ids, ids, leaf, tree_cost, build_elapsed = (
        np.concatenate([b.column(name).to_numpy() for b in batches])
        for name in ("chunk_id", "id", "leaf", "tree_cost", "build_elapsed")
    )
    series = _binary_values([b.column("series") for b in batches])
    cards = _binary_values([b.column("card") for b in batches])
    del batches  # the series bytes are a view of the one batch, or a copy
    starts = [np.cumsum(lengths) - lengths for _, lengths in (series, cards)]
    for chunk_id, rows in _split_chunks(chunk_ids):
        step = np.diff(leaf[rows])
        if (step < 0).any():
            raise ValueError(
                f"chunk {chunk_id}: rows are not in the leaf order of the chunk's "
                "index; lay the dataset out with a partitioner, which writes each "
                "chunk in leaf order in a partition of its own"
            )
        offsets = np.concatenate(([0], np.flatnonzero(step) + 1, [len(rows)]))
        data = _binary_matrix(*series, starts[0], rows, np.dtype(np.float64), "series", chunk_id)
        card = _binary_matrix(
            *cards, starts[1], rows[offsets[:-1]], np.dtype(np.uint8), "cards", chunk_id
        )
        index = load_index(ids[rows], data, offsets, card, tree_cost[rows[0]])
        t1 = time.perf_counter()
        yield chunk_id, index, float(build_elapsed[rows[0]]), t1 - t0
        t0 = t1


def drop_zip_finders() -> None:
    """Delete the zip-archive finders (``zipimport.zipimporter``) cached in
    the running Python worker's ``sys.path_importer_cache``.

    PySpark invalidates the import caches at the start of every task
    (``importlib.invalidate_caches()`` in ``worker_util.setup_spark_files``),
    and Python 3.11's ``zipimporter`` then re-reads its whole archive
    directory at once: one finder per package directory of ``pyspark.zip``
    and the py4j zip, 0.13–0.3 s of CPU per task on a 4-core VM, before the
    task's function starts. With the finders gone, the next task's
    invalidation has nothing to re-read. The cache holds only finders:
    modules already imported stay, and Python builds a new finder on the
    next import from an archive. The chunk scan and the layout build call
    this first and last, the partitioners' pandas UDFs first."""
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def _chunks(batches):
    """The chunks in one partition's ``(chunk_id, id, series)`` record
    batches, as the layout build reads them: ``(chunk_id, ids, data)`` per
    chunk id, rows in arrival order, ``data`` one C-contiguous ``(n, L)``
    float64 matrix made from the flat list values (``ListArray.flatten``
    respects a slice's offsets), a view when the chunk's rows arrive as one
    run. Raises ``ValueError`` naming the chunk when its series are empty,
    differ in length or are not finite."""
    batches = [b for b in batches if b.num_rows]
    if not batches:
        return
    series = [b.column("series") for b in batches]
    chunk_ids = np.concatenate([b.column("chunk_id").to_numpy() for b in batches])
    ids = np.concatenate([b.column("id").to_numpy() for b in batches]).astype(np.int64, copy=False)
    # a null series counts as length 0; flatten() skips it
    lengths = np.concatenate([s.value_lengths().fill_null(0).to_numpy() for s in series])
    values = np.concatenate(
        [s.flatten().to_numpy(zero_copy_only=False) for s in series]
    ).astype(np.float64, copy=False)
    del batches, series  # values is a copy: free the Arrow buffers before any index build
    starts = np.cumsum(lengths) - lengths
    for chunk_id, rows in _split_chunks(chunk_ids):
        length = int(lengths[rows[0]])
        if length == 0 or (lengths[rows] != length).any():
            raise ValueError(
                f"chunk {chunk_id}: series must be non-empty and of one length, "
                f"got lengths {lengths[rows].min()} to {lengths[rows].max()}"
            )
        data = _rows_matrix(values, starts, rows, length)
        if not np.isfinite(data).all():
            bad = ids[rows][~np.isfinite(data).all(axis=1)]
            raise ValueError(
                f"chunk {chunk_id}: series must be finite, {len(bad)} hold NaN "
                f"or infinity (lowest id {bad.min()})"
            )
        yield chunk_id, ids[rows], data


#: bad input as a worker reports it, inside a worker's traceback: a bad
#: chunk (``chunk c: ...``) or, in a partitioner's UDF, bad series
_BAD_INPUT = re.compile(r"^ValueError: ((?:chunk -?\d+: |series ).*)$", re.M)


def run_job(action):
    """Run ``action()``, a Spark action, with bad input that a Python worker
    found raised here as a ``ValueError`` with the worker's message."""
    try:
        return action()
    except PythonException as e:
        bad = _BAD_INPUT.search(str(e))
        if bad is None:
            raise
        raise ValueError(bad.group(1)) from None


def to_pandas(df: DataFrame) -> pd.DataFrame:
    """``df.toPandas()``, raising bad input as ``run_job`` does."""
    return run_job(df.toPandas)


def _check_placement(placed: pd.DataFrame) -> None:
    """Reject chunks whose rows (``chunk_id``/``partition_id`` pairs) lie in
    more than one Spark partition: each piece would be answered as a chunk
    of its own."""
    spread = placed.groupby("chunk_id")["partition_id"].nunique()
    if (spread > 1).any():
        raise ValueError(
            f"chunks {spread.index[spread > 1].tolist()} span more than one "
            "Spark partition; lay the dataset out with a partitioner, which "
            "puts each chunk in a partition of its own"
        )


def _collect(chunked_df: DataFrame, fn, schema: T.StructType) -> pd.DataFrame:
    """Run a chunk scan and bring its rows to the driver (``to_pandas``),
    rejecting a chunk split over Spark partitions (a layout not made by a
    partitioner). The pieces of a split chunk are most often out of leaf
    order too, which fails the scan first: then one more job reads the
    layout's placement, so that the split is what is reported."""
    try:
        stats = to_pandas(_chunk_scan(chunked_df, fn, schema))
    except ValueError:
        placed = chunked_df.select("chunk_id", F.spark_partition_id().alias("partition_id"))
        _check_placement(to_pandas(placed.distinct()))
        raise
    _check_placement(stats)
    return stats


def _topk_pool(stats: pd.DataFrame) -> pd.DataFrame:
    """Every chunk's top-k entries pooled per query, one row each, sorted
    by (query_id, nn_dist, nn_id) and ranked from 1 within the query."""
    sizes = stats["topk_id"].map(len).to_numpy(np.int64)
    qid = np.repeat(stats["query_id"].to_numpy(np.int64), sizes)
    dist = np.fromiter(chain.from_iterable(stats["topk_dist"]), np.float64, sizes.sum())
    sid = np.fromiter(chain.from_iterable(stats["topk_id"]), np.int64, sizes.sum())
    order = np.lexsort((sid, dist, qid))
    qid, dist, sid = qid[order], dist[order], sid[order]
    # searchsorted finds where each row's query starts in the sorted pool
    rank = np.arange(len(qid)) - np.searchsorted(qid, qid) + 1
    return pd.DataFrame({"query_id": qid, "rank": rank, "nn_dist": dist, "nn_id": sid})


def _merge_answers(stats: pd.DataFrame, k: int) -> pd.DataFrame:
    """Coordinator merge: global (k-)NN across chunks' partial answers,
    without the ``rank`` column for k = 1."""
    pool = _topk_pool(stats)
    best = pool[pool["rank"] <= k].reset_index(drop=True)
    return best.drop(columns="rank") if k == 1 else best


def _seeds_from_approx(approx: pd.DataFrame, n_queries: int, k: int) -> np.ndarray:
    """Global per-query k-BSF seed = k-th best pooled approximate distance."""
    pool = _topk_pool(approx)
    kth = pool[pool["rank"] == k]
    seeds = np.full(n_queries, np.inf)
    seeds[kth["query_id"].to_numpy()] = kth["nn_dist"].to_numpy()
    return seeds


def _check_queries(queries, k: int) -> np.ndarray:
    """Driver-side checks of a search's inputs, before any Spark job."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.size == 0:
        raise ValueError(
            f"queries must be a non-empty 2-D array, got shape {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite (no NaN or infinity)")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return queries


def _check_k(stats: pd.DataFrame, k: int) -> None:
    """Reject a ``k`` above the number of series, counted from the first
    scan's per-chunk ``n_series`` (the series live only in the workers)."""
    n_series = int(stats.drop_duplicates("chunk_id")["n_series"].sum())
    if k > n_series:
        raise ValueError(f"k={k} exceeds the number of series ({n_series})")


def distributed_search(
    chunked_df: DataFrame,
    queries: np.ndarray,
    *,
    share_bsf: bool = True,
    algorithm: str = "odyssey",
    distance: str = "ed",
    warp: float = 0.05,
    k: int = 1,
) -> DistResult:
    """End-to-end distributed exact (k-)NN search over a chunked dataset.

    ``share_bsf=False`` reproduces the DMESSI behaviour (each chunk prunes
    with its local approximate BSF only) in one scan. With ``share_bsf``, a
    layout in more than one Spark partition runs two scans: pass 1, the
    driver's seed reduce, then pass 2. A layout in one partition (one
    chunk, or ``coalesce(1)``) runs one scan whose task holds every chunk
    and reduces the seeds itself, with the same answers and counters."""
    queries = _check_queries(queries, k)
    # an unknown algorithm or distance fails here, before the layout is read
    _exact_search(algorithm, distance, warp, k)
    search = {"algorithm": algorithm, "distance": distance, "warp": warp, "k": k}
    # getNumPartitions plans the layout's scan and runs no Spark job
    if share_bsf and chunked_df.rdd.getNumPartitions() > 1:
        approx = chunk_search(chunked_df, queries, approx_only=True, **search)
        _check_k(approx, k)
        seeds = _seeds_from_approx(approx, len(queries), k)
        stats = chunk_search(chunked_df, queries, seeds=seeds, **search)
        # the approximate pass is real work a node performs; fold it into
        # the non-stealable part of the exact pass for the simulator
        extra_cost = approx.groupby(["chunk_id", "query_id"])["total_cost"].sum()
        key = stats.set_index(["chunk_id", "query_id"]).index
        extra = extra_cost.reindex(key).fillna(0).to_numpy()
        stats["t_serial"] = stats["t_serial"].to_numpy() + extra
        stats["total_cost"] = stats["total_cost"].to_numpy() + extra
    else:
        # one scan: without sharing every query starts from +inf; with it,
        # the layout's one task holds every chunk and reduces the seeds
        seeds = None if share_bsf else np.full(len(queries), np.inf)
        stats = chunk_search(chunked_df, queries, seeds=seeds, **search)
        _check_k(stats, k)
    return DistResult(chunk_stats=stats, answers=_merge_answers(stats, k))


def build_only(chunked_df: DataFrame) -> pd.DataFrame:
    """Per-chunk build records stored in the layout, without answering any
    query or building any index: ``build_elapsed`` is the seconds of the
    layout build's tree split (``split_leaves``; the leaf bounds are
    computed at load), ``partition_id``/``worker_pid`` the task that read
    it."""
    schema = T.StructType([RESULT_SCHEMA[name] for name in _BUILD_FIELDS])

    def fn(chunks):
        for chunk_id, index, build_elapsed, _ in chunks:
            build = _chunk_record(chunk_id, index, build_elapsed)
            yield {name: [value] for name, value in build.items()}

    stats = _collect(chunked_df, fn, schema)
    return stats.sort_values("chunk_id").reset_index(drop=True)
