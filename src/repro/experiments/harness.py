"""Experiment harness — one function per evaluation table (DESIGN.md §4).

A function's defaults are its table's only configuration: the bench that
writes ``results/*.csv`` and the job under ``jobs/`` both call it with
them, and the tests call it at small sizes.

Each function runs the real Spark engine to *measure* per-(chunk, query)
work, feeds the deterministic makespan simulator for cluster-level times,
and returns a tidy pandas DataFrame (also printed), whose rows are the
numbers behind the corresponding paper figure/table. Times are reported
in mega-cost-units (1e6 flop-ish units of measured work / ``N_THREADS``);
absolute values are not comparable to the paper's seconds, shapes are.
"""
from contextlib import contextmanager

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines.dmessi import dmessi_search, dmessi_swbsf_search
from ..baselines.dpisax import dpisax_partition
from ..core.search import N_THREADS
from ..distributed.engine import DistResult, build_only, distributed_search
from ..distributed.partitioning import density_aware, equally_split, free_layout
from ..distributed.replication import ReplicationConfig, supported_degrees
from ..scheduling.predictor import LinearPredictor, fit_predictor
from ..scheduling.schedulers import (
    ALL_POLICIES,
    STATIC,
    WORK_STEAL,
    WORK_STEAL_PREDICT,
)
from ..scheduling.simulator import QueryWork, simulate_cluster, works_from_stats
from ..synth_data import make_queries_np, series_df
from .datasets import DATASETS

UNIT = 1e6  # mega cost units


def _print_table(df: pd.DataFrame, title: str) -> pd.DataFrame:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
    return df


@contextmanager
def chunked_df(
    spark: SparkSession,
    data: np.ndarray,
    n_chunks: int,
    *,
    scheme: str = "equal",
):
    """Series DataFrame with a chunk assignment under the given scheme.

    The partitioners hold the layout they build as a local checkpoint; it
    is freed (``free_layout``) when the ``with`` block ends, so a sweep
    holds one configuration's layouts at a time."""
    df = series_df(spark, data)
    if scheme == "equal":
        cdf = equally_split(df, n_chunks)
    elif scheme == "density":
        cdf = density_aware(df, n_chunks)
    elif scheme == "dpisax":
        cdf = dpisax_partition(df, n_chunks)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    try:
        yield cdf
    finally:
        free_layout(cdf)


def fit_chunk_predictors(train: DistResult) -> dict[int, LinearPredictor]:
    """Per-chunk linear BSF→cost predictors from a training run."""
    out = {}
    for chunk, grp in train.chunk_stats.groupby("chunk_id"):
        out[int(chunk)] = fit_predictor(
            grp["approx_bsf"].to_numpy(), grp["total_cost"].to_numpy() / N_THREADS
        )
    return out


def chunk_predictions(
    result: DistResult, predictors: dict[int, LinearPredictor]
) -> dict[int, np.ndarray]:
    """Predicted per-query node-times, aligned with query_id order."""
    out = {}
    for chunk, grp in result.chunk_stats.groupby("chunk_id"):
        grp = grp.sort_values("query_id")
        out[int(chunk)] = predictors[int(chunk)].predict(grp["approx_bsf"].to_numpy())
    return out


def _index_time(stats: pd.DataFrame) -> float:
    """Index node-time from engine stats: each node builds its own chunk's
    index, buffers then tree, with no barrier between the two phases across
    nodes, so the slowest chunk's buffer plus tree cost."""
    per = stats.groupby("chunk_id")[["buffer_cost", "tree_cost"]].first()
    return float((per["buffer_cost"] + per["tree_cost"]).max()) / N_THREADS / UNIT


def _dataset(key: str, n: int, seed: int | None = None) -> np.ndarray:
    """The first ``n`` series of dataset ``key`` generated at scale
    ``n / base_n``, under the dataset's own seed unless ``seed`` is given."""
    spec = DATASETS[key]
    return spec.generate(n / spec.base_n, seed=seed)[:n]


def _measured_run(
    spark: SparkSession,
    data: np.ndarray,
    n_chunks: int,
    queries: np.ndarray,
    train: np.ndarray | None = None,
    *,
    scheme: str = "equal",
    search=distributed_search,
    **search_args,
) -> tuple[DistResult, dict[int, list[QueryWork]], dict[int, np.ndarray] | None]:
    """Lay ``data`` out in ``n_chunks`` chunks under ``scheme``, answer the
    ``train`` batch (if any) and then ``queries`` with ``search``. Returns
    the batch's result, its works and the per-chunk predictions fitted on
    the training batch (None without one)."""
    with chunked_df(spark, data, n_chunks, scheme=scheme) as cdf:
        fitted = None if train is None else search(cdf, train, **search_args)
        res = search(cdf, queries, **search_args)
    preds = None if fitted is None else chunk_predictions(res, fit_chunk_predictors(fitted))
    return res, works_from_stats(res.chunk_stats), preds


def _first_queries(works: dict[int, list[QueryWork]], n_queries: int) -> dict[int, list[QueryWork]]:
    """The work of queries ``0 .. n_queries - 1`` only, per chunk."""
    return {c: [w for w in ws if w.query_id < n_queries] for c, ws in works.items()}


# ---------------------------------------------------------------- T1 (Table 1)


def dataset_table(sf: float = 1.0) -> pd.DataFrame:
    """Table 1 at mini scale: our generated sizes next to the paper's."""
    rows = []
    for key, spec in DATASETS.items():
        data = spec.generate(sf)
        rows.append(
            {
                "dataset": spec.name,
                "ours_n_series": len(data),
                "ours_length": data.shape[1],
                "ours_mb": round(data.astype(np.float32).nbytes / 1e6, 2),
                "paper_n_series": spec.paper_series,
                "paper_length": spec.paper_length,
                "paper_gb": spec.paper_gb,
                "description": spec.description,
            }
        )
    return _print_table(pd.DataFrame(rows), "T1: datasets (paper Table 1)")


# ------------------------------------------------------------- E2 (Fig 10)


def scheduling_experiment(
    spark: SparkSession,
    *,
    n_nodes_list=(1, 2, 4, 8, 16),
    n_queries: int = 100,
    n_train: int = 40,
    n_series: int = 3000,
    seed: int = 0,
) -> pd.DataFrame:
    """Scheduling policies under FULL replication (seismic-like queries of
    varying difficulty), makespan vs number of nodes."""
    data = _dataset("seismic", n_series)
    queries, _ = make_queries_np(data, n_queries, seed=seed)
    train_q, _ = make_queries_np(data, n_train, seed=seed + 1000)
    _, works, preds = _measured_run(spark, data, 1, queries, train_q)
    rows = []
    for n in n_nodes_list:
        cfg = ReplicationConfig(n, 1)  # FULL
        for policy in ALL_POLICIES:
            sim = simulate_cluster(works, cfg, policy, predictions_by_chunk=preds)
            rows.append(
                {
                    "policy": policy,
                    "n_nodes": n,
                    "query_time": sim.makespan / UNIT,
                    "n_steals": sim.n_steals,
                }
            )
    df = pd.DataFrame(rows)
    return _print_table(df, "E2: scheduling policies, FULL replication (paper Fig 10)")


# ------------------------------------------------------------- E3 (Fig 11)


def query_scalability(
    spark: SparkSession,
    *,
    j_list=(1, 2, 4, 8),
    base_queries: int = 100,
    n_series: int = 3000,
    seed: int = 0,
) -> pd.DataFrame:
    """j·base queries on j nodes (FULL, WORK-STEAL) ≈ constant time; plus
    the PARTIAL-2 variant for j ≥ 2."""
    data = _dataset("random", n_series)
    max_q = base_queries * max(j_list)
    queries, _ = make_queries_np(data, max_q, seed=seed)
    _, full, _ = _measured_run(spark, data, 1, queries)
    _, part2, _ = _measured_run(spark, data, 2, queries)
    rows = []
    for j in j_list:
        n_q = base_queries * j
        for name, works, k in (("FULL", full, 1), ("PARTIAL-2", part2, 2)):
            if j < k:
                continue
            sim = simulate_cluster(_first_queries(works, n_q), ReplicationConfig(j, k), WORK_STEAL)
            rows.append(
                {
                    "replication": name,
                    "n_nodes": j,
                    "n_queries": n_q,
                    "query_time": sim.makespan / UNIT,
                }
            )
    return _print_table(pd.DataFrame(rows), "E3: query scalability (paper Fig 11)")


# ------------------------------------------------------------- E4 (Fig 12)


def datasize_scalability(
    spark: SparkSession,
    *,
    multipliers=(1, 2, 4, 8),
    base_n: int = 1000,
    n_queries: int = 50,
    n_nodes: int = 8,
    seed: int = 0,
) -> pd.DataFrame:
    """Query time for a fixed batch as the dataset grows, 8 nodes, every
    replication strategy."""
    rows = []
    for mult in multipliers:
        n = base_n * mult
        data = _dataset("random", n, seed + mult)
        queries, _ = make_queries_np(data, n_queries, seed=seed)
        for cfg in supported_degrees(n_nodes):
            _, works, _ = _measured_run(spark, data, cfg.n_chunks, queries)
            sim = simulate_cluster(works, cfg, WORK_STEAL)
            rows.append(
                {
                    "n_series": n,
                    "strategy": cfg.name,
                    "query_time": sim.makespan / UNIT,
                }
            )
    return _print_table(pd.DataFrame(rows), "E4: query time vs data size (paper Fig 12)")


# ------------------------------------------------------------- E5 (Fig 13)


def throughput(
    spark: SparkSession,
    *,
    n_nodes_list=(1, 2, 4, 8, 16),
    n_queries: int = 200,
    n_series: int = 3000,
    seed: int = 0,
) -> pd.DataFrame:
    """WORK-STEAL throughput (queries per unit time) vs nodes, FULL."""
    data = _dataset("random", n_series)
    queries, _ = make_queries_np(data, n_queries, seed=seed)
    _, works, _ = _measured_run(spark, data, 1, queries)
    rows = []
    for n in n_nodes_list:
        sim = simulate_cluster(works, ReplicationConfig(n, 1), WORK_STEAL)
        rows.append(
            {
                "n_nodes": n,
                "query_time": sim.makespan / UNIT,
                "throughput": n_queries / (sim.makespan / UNIT),
            }
        )
    return _print_table(pd.DataFrame(rows), "E5: query throughput (paper Fig 13)")


# ------------------------------------------------------------- E6 (Fig 14)


def index_size_table(
    spark: SparkSession,
    *,
    n_nodes: int = 8,
    sf: float = 1.0,
    datasets=("seismic", "astro", "deep", "sift", "yantti", "random"),
) -> pd.DataFrame:
    """Total index size per replication strategy (8 nodes), per dataset."""
    rows = []
    for key in datasets:
        spec = DATASETS[key]
        data = spec.generate(sf)
        data_mb = data.astype(np.float32).nbytes / 1e6
        for cfg in supported_degrees(n_nodes):
            with chunked_df(spark, data, cfg.n_chunks) as cdf:
                stats = build_only(cdf)
            per_chunk = dict(zip(stats["chunk_id"], stats["index_bytes"]))
            rows.append(
                {
                    "dataset": spec.name,
                    "strategy": cfg.name,
                    "index_mb": cfg.total_index_bytes(per_chunk) / 1e6,
                    "data_mb": data_mb,
                }
            )
    return _print_table(pd.DataFrame(rows), "E6: index size (paper Fig 14)")


# ---------------------------------------------------------- E7 (Fig 15/16)


def replication_tradeoff(
    spark: SparkSession,
    *,
    n_queries_list=(10, 25, 100, 200, 400, 800),
    n_series: int = 3000,
    n_nodes: int = 8,
    n_train: int = 40,
    seed: int = 0,
) -> pd.DataFrame:
    """Query time vs total (index + query) time across replication
    strategies and batch sizes, WORK-STEAL-PREDICT."""
    data = _dataset("seismic", n_series, seed)
    max_q = max(n_queries_list)
    queries, _ = make_queries_np(data, max_q, seed=seed)
    train_q, _ = make_queries_np(data, n_train, seed=seed + 1000)
    rows = []
    for cfg in supported_degrees(n_nodes):
        res, works, preds = _measured_run(spark, data, cfg.n_chunks, queries, train_q)
        index_time = _index_time(res.chunk_stats)
        for n_q in n_queries_list:
            preds_sliced = {c: p[:n_q] for c, p in preds.items()}
            sim = simulate_cluster(
                _first_queries(works, n_q), cfg, WORK_STEAL_PREDICT,
                predictions_by_chunk=preds_sliced,
            )
            q_time = sim.makespan / UNIT
            rows.append(
                {
                    "strategy": cfg.name,
                    "n_queries": n_q,
                    "query_time": q_time,
                    "index_time": index_time,
                    "total_time": index_time + q_time,
                }
            )
    return _print_table(
        pd.DataFrame(rows), "E7: replication trade-off (paper Fig 15/16)"
    )


# ---------------------------------------------------------- E8 (Fig 17a-c)


def index_scalability(
    spark: SparkSession,
    *,
    base_n: int = 2000,
    multipliers=(1, 2, 4, 8),
    n_nodes_list=(1, 2, 4, 8, 16),
    seed: int = 0,
) -> pd.DataFrame:
    """Index build scalability (EQUALLY-SPLIT): (a) size sweep at 16 nodes,
    (b) node sweep at fixed size, (c) size and nodes growing together."""
    def build(sweep: str, key: str, n: int, data_seed: int, n_nodes: int) -> dict:
        with chunked_df(spark, _dataset(key, n, data_seed), n_nodes) as cdf:
            t = _index_time(build_only(cdf))
        return {"sweep": sweep, "n_series": n, "n_nodes": n_nodes, "index_time": t}

    n = base_n * max(multipliers)
    rows = (
        [build("size@16nodes", "deep", base_n * m, seed + m, 16) for m in multipliers]  # (a)
        + [build("nodes@fixed", "deep", n, seed, nodes) for nodes in n_nodes_list]  # (b)
        + [build("size+nodes", "random", base_n * m, seed + 10 + m, m) for m in multipliers]  # (c)
    )
    return _print_table(pd.DataFrame(rows), "E8: index scalability (paper Fig 17a-c)")


# ------------------------------------------------------------ E9 (Fig 17d)


def competitors(
    spark: SparkSession,
    *,
    n_nodes: int = 8,
    n_queries: int = 60,
    n_train: int = 30,
    n_series: int = 3000,
    seed: int = 0,
) -> tuple[pd.DataFrame, dict[str, DistResult]]:
    """Odyssey (FULL / DENSITY-AWARE / EQUALLY-SPLIT) vs DMESSI,
    DMESSI-SW-BSF and DPiSAX. Returns the table and the raw results so
    tests can check all algorithms agree on the answers."""
    data = _dataset("seismic", n_series, seed)
    queries, _ = make_queries_np(data, n_queries, seed=seed)
    train_q, _ = make_queries_np(data, n_train, seed=seed + 1000)

    results: dict[str, DistResult] = {}
    rows = []

    # Odyssey FULL + WORK-STEAL-PREDICT
    res, works, preds = _measured_run(spark, data, 1, queries, train_q)
    sim = simulate_cluster(
        works, ReplicationConfig(n_nodes, 1), WORK_STEAL_PREDICT, predictions_by_chunk=preds
    )
    results["ODYSSEY-FULL"] = res
    rows.append({"algorithm": "ODYSSEY-FULL", "query_time": sim.makespan / UNIT})

    no_rep = ReplicationConfig(n_nodes, n_nodes)
    # DPiSAX answers queries as DMESSI does: MESSI per node, local BSFs
    for name, scheme, search in (
        ("ODYSSEY-DENSITY-AWARE", "density", distributed_search),
        ("ODYSSEY-EQUALLY-SPLIT", "equal", distributed_search),
        ("DMESSI", "equal", dmessi_search),
        ("DMESSI-SW-BSF", "equal", dmessi_swbsf_search),
        ("DPISAX", "dpisax", dmessi_search),
    ):
        res, works, _ = _measured_run(spark, data, n_nodes, queries, scheme=scheme, search=search)
        sim = simulate_cluster(works, no_rep, STATIC)
        results[name] = res
        rows.append({"algorithm": name, "query_time": sim.makespan / UNIT})

    df = pd.DataFrame(rows)
    best_odyssey = df[df["algorithm"].str.startswith("ODYSSEY")]["query_time"].min()
    df["speedup_vs_odyssey_best"] = df["query_time"] / best_odyssey
    return _print_table(df, "E9: comparison to competitors (paper Fig 17d)"), results


# ---------------------------------------------------------- E10/E11 (Fig 18/19)


def _replication_ladder(
    spark: SparkSession, data: np.ndarray, queries: np.ndarray, n_nodes_list, label: dict,
    **search_args,
) -> pd.DataFrame:
    """WORK-STEAL query time of every replication strategy on each node
    count, one ``distributed_search(**search_args)`` per chunk count; ``label``
    columns sit between the strategy and the time."""
    works: dict[int, dict[int, list[QueryWork]]] = {}
    rows = []
    for n in n_nodes_list:
        for cfg in supported_degrees(n):
            if cfg.n_chunks not in works:
                _, works[cfg.n_chunks], _ = _measured_run(
                    spark, data, cfg.n_chunks, queries, **search_args
                )
            sim = simulate_cluster(works[cfg.n_chunks], cfg, WORK_STEAL)
            rows.append(
                {"n_nodes": n, "strategy": cfg.name, **label, "query_time": sim.makespan / UNIT}
            )
    return pd.DataFrame(rows)


def knn_experiment(
    spark: SparkSession,
    *,
    k: int = 10,
    n_nodes_list=(2, 4, 8),
    n_queries: int = 30,
    n_series: int = 2000,
    seed: int = 0,
) -> pd.DataFrame:
    """k-NN (k=10) query time vs nodes for each replication strategy."""
    data = _dataset("random", n_series)
    queries, _ = make_queries_np(data, n_queries, seed=seed)
    df = _replication_ladder(spark, data, queries, n_nodes_list, {"k": k}, k=k)
    return _print_table(df, "E10: 10-NN query answering (paper Fig 18)")


def dtw_experiment(
    spark: SparkSession,
    *,
    warp: float = 0.05,
    n_nodes_list=(2, 4, 8),
    n_queries: int = 20,
    n_series: int = 1500,
    seed: int = 0,
) -> pd.DataFrame:
    """DTW (5% warping) query time vs nodes for each replication strategy."""
    data = _dataset("random", n_series)
    queries, _ = make_queries_np(data, n_queries, seed=seed)
    df = _replication_ladder(
        spark, data, queries, n_nodes_list, {"warp": warp}, distance="dtw", warp=warp
    )
    return _print_table(df, "E11: DTW 5% warping (paper Fig 19)")
