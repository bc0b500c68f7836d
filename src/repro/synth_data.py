"""Synthetic data series, deterministic in ``seed``.

The paper's datasets (Table 1) are random walks ("Random") and real sets
with heavy density skew and variable query difficulty (Seismic etc.).
These generators reproduce those properties at laptop scale; all series
are z-normalised so the index, the Spark engine, and the DuckDB oracle
operate in the same metric space.
"""
import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from .core.paa import znorm


def random_walk_np(n: int, length: int, *, seed: int = 0) -> np.ndarray:
    """Random-walk series (cumulative Gaussian steps), z-normalised.

    This is the paper's "Random" dataset (models stock-market prices)."""
    g = np.random.default_rng(seed)
    return znorm(np.cumsum(g.standard_normal((n, length)), axis=1))


def clustered_walks_np(
    n: int,
    length: int,
    *,
    n_clusters: int = 12,
    within_scale: float = 0.25,
    size_alpha: float = 1.2,
    seed: int = 0,
) -> np.ndarray:
    """Density-skewed series: random-walk cluster templates plus small
    within-cluster noise-walks; cluster sizes follow a Zipf law and the
    rows are ordered cluster-by-cluster.

    The cluster ordering matters: it emulates real datasets written to
    disk in acquisition order, so a contiguous EQUALLY-SPLIT partitioning
    concentrates similar series on one node — exactly the pathology the
    paper's DENSITY-AWARE partitioner fixes. This is the "seismic-like"
    dataset of the reproduction."""
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n_clusters + 1)
    weights = 1.0 / ranks**size_alpha
    weights /= weights.sum()
    sizes = np.maximum(1, (weights * n).astype(int))
    while sizes.sum() < n:
        sizes[0] += 1
    while sizes.sum() > n:
        sizes[np.argmax(sizes)] -= 1
    rows = []
    for c in range(n_clusters):
        template = np.cumsum(g.standard_normal(length))
        noise = np.cumsum(g.standard_normal((sizes[c], length)) * within_scale, axis=1)
        rows.append(template + noise)
    return znorm(np.vstack(rows))


def make_queries_np(
    data: np.ndarray,
    n_queries: int,
    *,
    noise_sigmas=(0.05, 0.1, 0.25, 0.5, 1.0),
    hard_frac: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, pd.DataFrame]:
    """Query workload with variable difficulty.

    Most queries are dataset series perturbed by Gaussian noise drawn from
    a σ ladder (easy→moderate); ``hard_frac`` of them are fresh random
    walks (out-of-distribution ⇒ high initial BSF ⇒ little pruning), the
    kind of query that dominates the makespan in the paper's scheduling
    and work-stealing experiments. Returns ``(queries, meta)`` where meta
    has per-query ``sigma`` and ``is_hard``."""
    g = np.random.default_rng(seed)
    n, length = data.shape
    queries = np.empty((n_queries, length))
    sigmas = np.empty(n_queries)
    hard = np.zeros(n_queries, dtype=bool)
    for i in range(n_queries):
        if g.random() < hard_frac:
            queries[i] = np.cumsum(g.standard_normal(length))
            sigmas[i] = np.nan
            hard[i] = True
        else:
            base = data[g.integers(0, n)]
            s = float(g.choice(noise_sigmas))
            queries[i] = base + g.standard_normal(length) * s
            sigmas[i] = s
    meta = pd.DataFrame({"query_id": np.arange(n_queries), "sigma": sigmas, "is_hard": hard})
    return znorm(queries), meta


def series_df(spark: SparkSession, data: np.ndarray, ids: np.ndarray | None = None) -> DataFrame:
    """Spark DataFrame ``(id: long, series: array<double>)`` for a series set.

    Built from an Arrow table whose list column is the matrix's flat values
    and row offsets, without a Python object per series."""
    data = np.asarray(data, dtype=np.float64)
    n, length = data.shape
    if ids is None:
        ids = np.arange(n)
    offsets = pa.array(np.arange(n + 1) * length, type=pa.int32())
    series = pa.ListArray.from_arrays(offsets, pa.array(data.ravel()))
    table = pa.table({"id": pa.array(np.asarray(ids, dtype=np.int64)), "series": series})
    return spark.createDataFrame(table)


def series_long_pdf(data: np.ndarray, ids: np.ndarray | None = None, *, id_col: str = "id") -> pd.DataFrame:
    """Long format ``(id, pos, val)`` — the shape the DuckDB oracle joins on."""
    data = np.asarray(data, dtype=np.float64)
    n, length = data.shape
    if ids is None:
        ids = np.arange(n)
    return pd.DataFrame(
        {
            id_col: np.repeat(np.asarray(ids, dtype=np.int64), length),
            "pos": np.tile(np.arange(length), n),
            "val": data.ravel(),
        }
    )
