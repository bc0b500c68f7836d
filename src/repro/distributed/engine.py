"""The Odyssey distributed search operator on Spark.

The dataset is a DataFrame ``(id, series, chunk_id)`` (chunk = the data a
replication group indexes), laid out by the partitioners with chunk ``c``
alone in Spark partition ``c``. The partitioners build that layout once and
cache it in the session, eagerly, so the scan is planned against the built
cache and keeps its partitioning (a lazy cache makes Spark add a hash
exchange on ``chunk_id``; ``localCheckpoint`` drops the partitioning): every
pass and every batch reads the resident chunks and reruns neither the
shuffle nor a partitioner's UDFs. Query answering is a grouped scan:
``groupBy(chunk_id).applyInPandas`` builds the chunk's iSAX index and
answers the *whole query batch* against it — one "node" execution per
chunk. Because the layout already clusters the rows by ``chunk_id``, the
scan adds no exchange and each chunk runs as its own Spark task, in
parallel up to the session's cores; every result row records the
partition and Python worker process that produced it
(``partition_id``, ``worker_pid``). BSF sharing is a two-pass dataflow:

  pass 1  approximate search per chunk  →  driver reduces to a global
          per-query k-BSF seed (the paper's BSF-sharing channel)
  pass 2  exact search seeded with the global BSF (broadcast in the
          task closure)

The operator returns per-(chunk, query) answers *and* the full work
breakdown (lower-bound counts, real-distance counts, priority-queue cost
decomposition), which the cluster-level makespan simulator consumes —
see DESIGN.md §1 for why cross-node wall-clock is simulated from
measured work rather than taken from local Spark timings.
"""
import json
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..core.dtw import exact_search_dtw
from ..core.index import approx_search, build_index
from ..core.paa import paa
from ..core.search import exact_search

RESULT_SCHEMA = T.StructType(
    [
        T.StructField("chunk_id", T.LongType()),
        T.StructField("query_id", T.LongType()),
        T.StructField("nn_dist", T.DoubleType()),
        T.StructField("nn_id", T.LongType()),
        T.StructField("topk", T.StringType()),  # json [[dist, id], ...]
        T.StructField("approx_bsf", T.DoubleType()),
        T.StructField("buffer_cost", T.DoubleType()),
        T.StructField("tree_cost", T.DoubleType()),
        T.StructField("index_bytes", T.LongType()),
        T.StructField("n_leaves", T.LongType()),
        T.StructField("n_series", T.LongType()),
        T.StructField("build_elapsed", T.DoubleType()),
        T.StructField("t_serial", T.DoubleType()),  # cost units, non-stealable
        T.StructField("pq_costs", T.StringType()),  # json [cost, ...]
        T.StructField("leaf_lb", T.LongType()),
        T.StructField("series_lb", T.LongType()),
        T.StructField("real_series", T.LongType()),
        T.StructField("total_cost", T.DoubleType()),
        T.StructField("thread_time", T.DoubleType()),
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

DEFAULT_INDEX_PARAMS = {"w": 8, "max_bits": 8, "leaf_capacity": 64}


@dataclass
class DistResult:
    """Distributed search output: raw per-chunk stats + merged answers."""

    chunk_stats: pd.DataFrame
    answers: pd.DataFrame  # k=1: (query_id, nn_dist, nn_id); k>1: + rank
    k: int


def _make_worker(
    queries: np.ndarray,
    *,
    approx_only: bool,
    seeds: np.ndarray | None,
    algorithm: str,
    distance: str,
    warp: float,
    k: int,
    n_threads: int,
    index_params: dict,
):
    """Build the per-chunk pandas worker (closure ships queries + seeds)."""
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

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        index, base = _build_chunk(pdf, index_params)
        rows = []
        for qi in range(len(queries)):
            q = queries[qi]
            t1 = time.perf_counter()
            if approx_only:
                q_paa = paa(q, index.w)
                bsf, nn_id, dists, member_ids, cost = approx_search(index, q, q_paa)
                order = np.argsort(dists)[:k]
                topk = [[float(dists[i]), int(member_ids[i])] for i in order]
                rows.append(
                    {
                        **base,
                        "query_id": qi,
                        "nn_dist": float(bsf),
                        "nn_id": int(nn_id),
                        "topk": json.dumps(topk),
                        "approx_bsf": float(bsf),
                        "t_serial": cost,
                        "pq_costs": "[]",
                        "leaf_lb": index.n_leaves,
                        "series_lb": 0,
                        "real_series": len(member_ids),
                        "total_cost": cost,
                        "thread_time": cost / max(1, n_threads),
                        "elapsed": time.perf_counter() - t1,
                    }
                )
                continue
            seed = float(seeds[qi]) if seeds is not None else np.inf
            st = search(index, q, k=k, init_bsf=seed, n_threads=n_threads, **search_kw)
            rows.append(
                {
                    **base,
                    "query_id": qi,
                    "nn_dist": float(st.nn_dist),
                    "nn_id": int(st.nn_id),
                    "topk": json.dumps([[float(d), int(i)] for d, i in st.topk]),
                    "approx_bsf": float(st.approx_bsf),
                    "t_serial": st.approx_cost + st.traversal_cost,
                    "pq_costs": json.dumps([float(c) for c in st.pq_costs]),
                    "leaf_lb": int(st.leaf_lb),
                    "series_lb": int(st.series_lb),
                    "real_series": int(st.real_series),
                    "total_cost": float(st.total_cost),
                    "thread_time": float(st.thread_time),
                    "elapsed": time.perf_counter() - t1,
                }
            )
        out = pd.DataFrame(rows)
        return out[[f.name for f in RESULT_SCHEMA.fields]]

    return fn


def _build_chunk(pdf: pd.DataFrame, index_params: dict):
    """Build one chunk's index; returns it and the chunk's build record."""
    data = np.stack(pdf["series"].to_numpy()).astype(np.float64)
    ids = pdf["id"].to_numpy(dtype=np.int64)
    t0 = time.perf_counter()
    index = build_index(ids, data, **index_params)
    build_elapsed = time.perf_counter() - t0
    return index, {
        "chunk_id": int(pdf["chunk_id"].iloc[0]),
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
    n_threads: int = 8,
    index_params: dict | None = None,
) -> pd.DataFrame:
    """One grouped-scan pass: per-chunk index build + batch query answering."""
    params = dict(DEFAULT_INDEX_PARAMS, **(index_params or {}))
    fn = _make_worker(
        np.asarray(queries, dtype=np.float64),
        approx_only=approx_only,
        seeds=seeds,
        algorithm=algorithm,
        distance=distance,
        warp=warp,
        k=k,
        n_threads=n_threads,
        index_params=params,
    )
    return _grouped_scan(chunked_df, fn, RESULT_SCHEMA).toPandas()


def _grouped_scan(chunked_df: DataFrame, fn, schema: T.StructType) -> DataFrame:
    """Run ``fn`` once per chunk, on the chunk's own Spark partition."""
    return (
        chunked_df.select("chunk_id", "id", "series")
        .groupBy("chunk_id")
        .applyInPandas(fn, schema)
    )


def _topk_pool(stats: pd.DataFrame) -> pd.DataFrame:
    """Every chunk's top-k entries pooled per query, one row each, sorted
    by (query_id, nn_dist, nn_id) and ranked from 1 within the query."""
    lists = stats["topk"].map(json.loads)
    entries = [e for topk in lists for e in topk]
    qid = np.repeat(stats["query_id"].to_numpy(np.int64), lists.map(len).to_numpy(np.int64))
    dist = np.array([d for d, _ in entries], dtype=np.float64)
    sid = np.array([i for _, i in entries], dtype=np.int64)
    order = np.lexsort((sid, dist, qid))
    qid, dist, sid = qid[order], dist[order], sid[order]
    # searchsorted finds where each row's query starts in the sorted pool
    rank = np.arange(len(qid)) - np.searchsorted(qid, qid) + 1
    return pd.DataFrame({"query_id": qid, "rank": rank, "nn_dist": dist, "nn_id": sid})


def _merge_answers(stats: pd.DataFrame, k: int) -> pd.DataFrame:
    """Coordinator merge: global (k-)NN across chunks' partial answers."""
    if k == 1:
        best = stats.sort_values(["query_id", "nn_dist", "nn_id"]).groupby(
            "query_id", as_index=False
        ).first()
        return best[["query_id", "nn_dist", "nn_id"]].reset_index(drop=True)
    pool = _topk_pool(stats)
    return pool[pool["rank"] <= k].reset_index(drop=True)


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


def distributed_search(
    chunked_df: DataFrame,
    queries: np.ndarray,
    *,
    share_bsf: bool = True,
    algorithm: str = "odyssey",
    distance: str = "ed",
    warp: float = 0.05,
    k: int = 1,
    n_threads: int = 8,
    index_params: dict | None = None,
) -> DistResult:
    """End-to-end distributed exact (k-)NN search over a chunked dataset.

    ``share_bsf=False`` reproduces the DMESSI behaviour (each chunk prunes
    with its local approximate BSF only)."""
    queries = _check_queries(queries, k)
    seeds = None
    extra_cost = None
    if share_bsf:
        # pass 1 ignores the search arguments but checks them, so a bad one
        # fails on the driver before any Spark job runs
        approx = chunk_search(
            chunked_df, queries, approx_only=True, algorithm=algorithm,
            distance=distance, warp=warp, k=k,
            n_threads=n_threads, index_params=index_params,
        )
        seeds = _seeds_from_approx(approx, len(queries), k)
        extra_cost = approx.groupby(["chunk_id", "query_id"])["total_cost"].sum()
    stats = chunk_search(
        chunked_df,
        queries,
        seeds=seeds,
        algorithm=algorithm,
        distance=distance,
        warp=warp,
        k=k,
        n_threads=n_threads,
        index_params=index_params,
    )
    if extra_cost is not None:
        # the approximate pass is real work a node performs; fold it into
        # the non-stealable part of the exact pass for the simulator
        key = stats.set_index(["chunk_id", "query_id"]).index
        stats["t_serial"] = stats["t_serial"].to_numpy() + extra_cost.reindex(key).fillna(0).to_numpy()
        stats["total_cost"] = stats["total_cost"].to_numpy() + extra_cost.reindex(key).fillna(0).to_numpy()
    return DistResult(chunk_stats=stats, answers=_merge_answers(stats, k), k=k)


def build_only(chunked_df: DataFrame, *, index_params: dict | None = None) -> pd.DataFrame:
    """Per-chunk index build statistics without answering any query."""
    params = dict(DEFAULT_INDEX_PARAMS, **(index_params or {}))
    schema = T.StructType([RESULT_SCHEMA[name] for name in _BUILD_FIELDS])

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([_build_chunk(pdf, params)[1]])

    return (
        _grouped_scan(chunked_df, fn, schema)
        .toPandas()
        .sort_values("chunk_id")
        .reset_index(drop=True)
    )
