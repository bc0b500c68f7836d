"""Distributed engine tests: DuckDB-oracle result equality + work stats."""
import importlib
import os
import sys
import zipimport
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

from repro.baselines.dpisax import dpisax_partition
from repro.core.index import build_index
from repro.core.isax import W
from repro.distributed import engine
from repro.distributed.engine import build_only, chunk_search, distributed_search
from repro.distributed.partitioning import density_aware, equally_split, free_layout
from repro.distributed.replication import ReplicationConfig
from repro.experiments.harness import chunk_predictions, fit_chunk_predictors
from repro.scheduling.schedulers import ALL_POLICIES
from repro.scheduling.simulator import simulate_cluster, works_from_stats
from repro.synth_data import (
    clustered_walks_np,
    make_queries_np,
    random_walk_np,
    series_df,
    series_long_pdf,
)

from .brute_force import brute_force_dtw_nn
from .oracle_sql import NN_SQL, assert_equivalent, knn_sql

N, L, NQ = 320, 32, 6

PARTITIONERS = {
    "equal": equally_split,
    "equal-shuffled": lambda df, n: equally_split(df, n, shuffle=True, seed=5),
    "density": density_aware,
    "dpisax": dpisax_partition,
}


@pytest.fixture(scope="module")
def setup(spark):
    data = clustered_walks_np(N, L, seed=23)
    queries, _ = make_queries_np(data, NQ, seed=29)
    df = series_df(spark, data)
    series_long = series_long_pdf(data)
    queries_long = series_long_pdf(queries, id_col="qid")
    return data, queries, df, series_long, queries_long


@pytest.mark.parametrize("n_chunks", [1, 3, 4])
@pytest.mark.parametrize("share_bsf", [True, False])
def test_distributed_1nn_matches_oracle(spark, setup, n_chunks, share_bsf):
    """Index-pruned NN search across partitions == DuckDB brute force."""
    data, queries, df, series_long, queries_long = setup
    res = distributed_search(
        equally_split(df, n_chunks), queries, share_bsf=share_bsf
    )
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long,
        queries=queries_long,
    )


@pytest.mark.parametrize("algorithm", ["odyssey", "messi"])
def test_algorithms_match_oracle(spark, setup, algorithm):
    data, queries, df, series_long, queries_long = setup
    res = distributed_search(equally_split(df, 4), queries, algorithm=algorithm)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long,
        queries=queries_long,
    )


def test_density_aware_partitioning_matches_oracle(spark, setup):
    data, queries, df, series_long, queries_long = setup
    res = distributed_search(density_aware(df, 4), queries)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long,
        queries=queries_long,
    )


@pytest.mark.parametrize("k", [3, 5])
def test_distributed_knn_matches_oracle(spark, setup, k):
    data, queries, df, series_long, queries_long = setup
    res = distributed_search(equally_split(df, 4), queries, k=k)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        knn_sql(k),
        series=series_long,
        queries=queries_long,
    )


def test_distributed_dtw_matches_reference(setup):
    """DTW is not expressible in portable SQL — check against the
    independent brute-force DP reference instead."""
    data, queries, df, *_ = setup
    res = distributed_search(equally_split(df, 3), queries[:3], distance="dtw", warp=0.1)
    ids = np.arange(len(data))
    for _, r in res.answers.iterrows():
        ref_d, ref_id = brute_force_dtw_nn(data, ids, queries[int(r.query_id)], warp=0.1)[0]
        assert r.nn_dist == pytest.approx(ref_d, abs=1e-9)


def test_chunk_stats_shape_and_fields(setup):
    data, queries, df, *_ = setup
    res = distributed_search(equally_split(df, 4), queries)
    st = res.chunk_stats
    assert len(st) == 4 * NQ
    assert (st["n_series"].groupby(st["chunk_id"]).first().sum()) == N
    assert (st["total_cost"] > 0).all()
    assert (st["real_series"] >= 0).all()
    for pq in st["pq_costs"]:
        assert np.asarray(pq).dtype == np.float64


def test_bsf_sharing_reduces_work(setup):
    """The headline mechanism: chunks without the NN prune with the shared
    global BSF, so total real-distance work drops vs local-only BSFs."""
    data, queries, df, *_ = setup
    shared = distributed_search(equally_split(df, 4), queries, share_bsf=True)
    local = distributed_search(equally_split(df, 4), queries, share_bsf=False)
    assert (
        shared.chunk_stats["real_series"].sum()
        < local.chunk_stats["real_series"].sum()
    )


def test_odyssey_work_not_worse_than_messi_distributed(setup):
    data, queries, df, *_ = setup
    ody = distributed_search(equally_split(df, 4), queries, algorithm="odyssey")
    mes = distributed_search(equally_split(df, 4), queries, algorithm="messi")
    assert (
        ody.chunk_stats["real_series"].sum() <= mes.chunk_stats["real_series"].sum()
    )


def test_approx_pass_cost_folded_into_serial(setup):
    data, queries, df, *_ = setup
    shared = distributed_search(equally_split(df, 2), queries, share_bsf=True)
    local = distributed_search(equally_split(df, 2), queries, share_bsf=False)
    # sharing adds the approximate pass to the non-stealable serial part
    assert shared.chunk_stats["t_serial"].sum() > local.chunk_stats["t_serial"].sum()


def test_build_only_per_chunk(setup):
    data, _, df, *_ = setup
    stats = build_only(equally_split(df, 4))
    assert list(stats["chunk_id"]) == [0, 1, 2, 3]
    assert stats["n_series"].sum() == N
    assert (stats["index_bytes"] > 0).all()
    assert (stats["buffer_cost"] == stats["n_series"] * L).all()


@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_build_only_reads_the_layouts_build(spark, setup, scheme):
    """``build_only`` reports the index each chunk's layout was built with,
    as an in-process build over the chunk's series gives it, and the build's
    own seconds."""
    data, _, df, *_ = setup
    chunked = PARTITIONERS[scheme](df, 3)
    members = chunked.select("chunk_id", "id").toPandas()
    stats = build_only(chunked).set_index("chunk_id")
    assert (stats["build_elapsed"] > 0).all()
    for chunk_id, ids in members.groupby("chunk_id")["id"]:
        ids = np.sort(ids.to_numpy())
        index = build_index(ids, data[ids])
        got = stats.loc[chunk_id]
        assert got["n_series"] == index.n_series
        assert got["n_leaves"] == index.n_leaves
        assert got["buffer_cost"] == index.buffer_cost
        assert got["tree_cost"] == index.tree_cost
        assert got["index_bytes"] == index.index_bytes()


def test_chunk_search_single_pass(setup):
    data, queries, df, *_ = setup
    stats = chunk_search(equally_split(df, 2), queries[:2], approx_only=True)
    assert len(stats) == 4  # 2 chunks × 2 queries
    assert (stats["approx_bsf"] == stats["topk_dist"].str[0]).all()


def test_invalid_algorithm_rejected(setup):
    data, queries, df, *_ = setup
    with pytest.raises(ValueError):
        distributed_search(equally_split(df, 2), queries[:1], algorithm="nope")


@pytest.mark.parametrize("n_chunks", [2, 1])
def test_invalid_distance_rejected_before_any_job(spark, setup, n_chunks):
    data, queries, df, *_ = setup
    chunked = equally_split(df, n_chunks)
    sc = spark.sparkContext
    group = f"bad-distance-{n_chunks}"
    sc.setJobGroup(group, "unknown distance")
    try:
        with pytest.raises(ValueError, match="unknown distance"):
            distributed_search(chunked, queries[:1], distance="cosine")
        assert sc.statusTracker().getJobIdsForGroup(group) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


@pytest.mark.parametrize("n_chunks", [1, 3, 4])
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_chunks_run_in_distinct_partitions(setup, scheme, n_chunks):
    """Every partitioner lays out n chunks as n Spark partitions, and the
    scan that ``chunk_search`` runs keeps them: no re-shuffle by chunk
    id."""
    data, queries, df, *_ = setup
    worker = engine._make_worker(
        queries[:1], approx_only=True, seeds=None, algorithm="odyssey",
        distance="ed", warp=0.05, k=1,
    )
    scan = engine._chunk_scan(
        PARTITIONERS[scheme](df, n_chunks), worker, engine.RESULT_SCHEMA
    )
    stats = scan.toPandas()
    placement = stats.groupby("chunk_id")["partition_id"].unique()
    assert len(placement) == n_chunks
    assert all(len(parts) == 1 for parts in placement)
    assert len({parts[0] for parts in placement}) == n_chunks
    assert (stats["worker_pid"] > 0).all()
    plan = scan._jdf.queryExecution().executedPlan().toString()
    assert "hashpartitioning(chunk_id" not in plan


ZIP_PROBE = T.StructType(
    [
        T.StructField("chunk_id", T.LongType()),
        T.StructField("pid", T.LongType()),
        T.StructField("n_zip", T.LongType()),
    ]
)

#: a pyspark module that only ``_zip_finders`` imports
SCAN_IMPORT = "pyspark.sql.protobuf.functions"


def _n_zip_finders() -> int:
    return sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())


def _zip_finders(chunks):
    """Per chunk: count the cached zip finders, then import a module from
    the archive, which caches a finder of its own in a worker that has not
    imported it."""
    for chunk_id, *_ in chunks:
        n_zip = _n_zip_finders()
        importlib.import_module(SCAN_IMPORT)
        yield {"chunk_id": [chunk_id], "pid": [os.getpid()], "n_zip": [n_zip]}


def _cached_zip_finders(batches):
    """A plain Arrow map (no chunk scan, so nothing drops finders): the zip
    finders cached in the worker when its task starts."""
    n_zip = _n_zip_finders()
    for _ in batches:
        pass
    yield pa.RecordBatch.from_pydict(
        {"chunk_id": [-1], "pid": [os.getpid()], "n_zip": [n_zip]},
        schema=to_arrow_schema(ZIP_PROBE),
    )


def test_scan_drops_zip_finders(spark, setup):
    """Every chunk's function runs with no zip-archive finder cached in its
    worker, and the worker holds none after the scan either (whatever the
    scan imported), so the next task's import-cache invalidation re-reads
    no archive. The second scan runs in workers the first one used: their
    first task's own lazy imports may have rebuilt a few finders. The probe
    after each scan runs many tasks, so that it reaches every idle worker."""
    data, queries, df, *_ = setup
    chunked = equally_split(df, 3)
    n_probes = 4 * spark.sparkContext.defaultParallelism
    probes = spark.range(0, n_probes, numPartitions=n_probes)
    for _ in range(2):
        counts = engine._chunk_scan(chunked, _zip_finders, ZIP_PROBE).toPandas()
        after = probes.mapInArrow(_cached_zip_finders, ZIP_PROBE).toPandas()
        scanned = after[after["pid"].isin(counts["pid"])]
        assert len(scanned) > 0, (counts, after)
        assert (scanned["n_zip"] == 0).all(), (counts, after)
    assert sorted(counts["chunk_id"]) == [0, 1, 2]
    assert (counts["n_zip"] == 0).all(), counts


#: a pyspark module that only ``_build_layout_then_count`` imports
BUILD_IMPORT = "pyspark.ml.linalg"


def _build_layout_then_count(batches):
    """Build a layout over the task's rows (``engine._write_layout``) from
    an input that imports a module from the archive once it is read, as a
    fresh worker's Arrow conversion does; then count the zip finders the
    worker holds."""

    def importing():
        yield from batches
        importlib.import_module(BUILD_IMPORT)

    for _ in engine._write_layout(importing()):
        pass
    yield pa.RecordBatch.from_pydict(
        {"chunk_id": [-1], "pid": [os.getpid()], "n_zip": [_n_zip_finders()]},
        schema=to_arrow_schema(ZIP_PROBE),
    )


def test_layout_build_drops_zip_finders(spark, setup):
    """The layout build is an Arrow map as the scan is: it leaves no zip
    finder in the worker that ran it, even when its input imported from the
    archive after its first drop, and a layout built by a partitioner then
    scans in workers that hold none."""
    data, queries, df, *_ = setup
    rows = df.select(F.lit(0).alias("chunk_id"), "id", "series").repartition(4)
    built = rows.mapInArrow(_build_layout_then_count, ZIP_PROBE).toPandas()
    assert len(built) == 4 and (built["n_zip"] == 0).all(), built
    chunked = equally_split(series_df(spark, data[4:]), 3)  # a layout no other test built
    try:
        counts = engine._chunk_scan(chunked, _zip_finders, ZIP_PROBE).toPandas()
    finally:
        free_layout(chunked)
    assert sorted(counts["chunk_id"]) == [0, 1, 2]
    assert (counts["n_zip"] == 0).all(), counts


#: a pyspark module no worker imports, in a subpackage of a package every
#: worker has imported from the archive
UNIMPORTED, PACKAGE = "pyspark.sql.avro.functions", "pyspark.sql"


def _import_unimported(chunks):
    for chunk_id, *_ in chunks:
        imported_before = UNIMPORTED in sys.modules
        package_dir = sys.modules[PACKAGE].__path__[0]
        finder_before = package_dir in sys.path_importer_cache
        module = importlib.import_module(UNIMPORTED)
        yield {
            "chunk_id": [chunk_id],
            "imported_before": [imported_before],
            "finder_before": [finder_before],
            "finder_after": [type(sys.path_importer_cache.get(package_dir)).__name__],
            "file": [module.__file__],
        }


def test_import_after_dropped_finders(setup):
    """Dropping the finders drops only caches: a pyspark module the worker
    has not imported yet still imports from the archive, through the
    finder of ``pyspark/sql`` that Python builds again."""
    data, queries, df, *_ = setup
    schema = T.StructType(
        [
            T.StructField("chunk_id", T.LongType()),
            T.StructField("imported_before", T.BooleanType()),
            T.StructField("finder_before", T.BooleanType()),
            T.StructField("finder_after", T.StringType()),
            T.StructField("file", T.StringType()),
        ]
    )
    chunked = equally_split(df, 3)
    engine._chunk_scan(chunked, _zip_finders, ZIP_PROBE).toPandas()
    got = engine._chunk_scan(chunked, _import_unimported, schema).toPandas()
    assert len(got) == 3
    assert not got["imported_before"].any()
    assert not got["finder_before"].any()
    assert (got["finder_after"] == "zipimporter").all(), got
    assert got["file"].str.endswith(".zip/pyspark/sql/avro/functions.py").all(), got


#: (share_bsf, one_chunk): both modes on a multi-chunk layout, and BSF
#: sharing on a one-chunk layout, which one scan answers
SHARING = [
    pytest.param(True, False, id="True"),
    pytest.param(False, False, id="False"),
    pytest.param(True, True, id="True-one-chunk"),
]


@pytest.mark.parametrize("share_bsf, one_chunk", SHARING)
def test_k_up_to_the_number_of_series(spark, setup, share_bsf, one_chunk):
    """k may reach the number of series, above every chunk's size, and
    then returns every series per query in oracle order; a larger k is a
    driver-side ValueError from the first scan, also from the one scan of
    a one-chunk layout."""
    data, queries, *_ = setup
    chunked = equally_split(series_df(spark, data[:10]), 1 if one_chunk else 3)
    try:
        res = distributed_search(chunked, queries[:3], k=10, share_bsf=share_bsf)
        assert_equivalent(
            spark.createDataFrame(res.answers),
            knn_sql(10),
            series=series_long_pdf(data[:10]),
            queries=series_long_pdf(queries[:3], id_col="qid"),
        )
        with pytest.raises(ValueError, match=r"^k=11 exceeds the number of series \(10\)$"):
            distributed_search(chunked, queries[:3], k=11, share_bsf=share_bsf)
    finally:
        free_layout(chunked)


def _step_series(levels: np.ndarray) -> np.ndarray:
    """Series constant over each of the index's ``W`` PAA segments, at the
    given integer levels: a series' PAA lower bound is then exactly its
    distance, and many distances tie exactly."""
    return np.repeat(levels, L // W, axis=1).astype(np.float64)


@pytest.fixture(scope="module")
def steps(spark):
    rng = np.random.default_rng(31)
    data = _step_series(rng.integers(-2, 3, size=(2000, W)))
    chunked = equally_split(series_df(spark, data), 2)
    yield data, chunked
    free_layout(chunked)


@pytest.mark.parametrize("share_bsf", [True, False])
@pytest.mark.parametrize("k", [1, 3])
def test_lower_bound_equal_to_the_bound_keeps_id_order(spark, steps, k, share_bsf):
    """A series whose lower bound equals the k-th distance can still enter
    the answer with a smaller id, so the search prunes only on a strictly
    smaller bound; the answers follow the oracle's (distance, id) order."""
    data, chunked = steps
    queries = _step_series(np.random.default_rng(37).integers(-2, 3, size=(100, W)))
    res = distributed_search(chunked, queries, k=k, share_bsf=share_bsf)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL if k == 1 else knn_sql(k),
        series=series_long_pdf(data),
        queries=series_long_pdf(queries, id_col="qid"),
    )


@pytest.mark.parametrize("share_bsf", [True, False])
@pytest.mark.parametrize("k", [1, 3])
def test_dtw_lower_bound_equal_to_the_bound_keeps_id_order(steps, k, share_bsf):
    """Against a constant query, LB_Keogh, the envelope-PAA bound of a step
    series and banded DTW all equal ED, so DTW's filters meet the bound."""
    data, chunked = steps
    queries = np.repeat(np.arange(-2, 2.5, 0.5)[:, None], L, axis=1)
    res = distributed_search(
        chunked, queries, k=k, distance="dtw", warp=0.1, share_bsf=share_bsf
    )
    ids = np.arange(len(data))
    for qid, q in enumerate(queries):
        ref = brute_force_dtw_nn(data, ids, q, warp=0.1, k=k)
        got = res.answers[res.answers["query_id"] == qid].sort_values(["nn_dist", "nn_id"])
        assert got["nn_id"].tolist() == [i for _, i in ref]
        np.testing.assert_allclose(got["nn_dist"], [d for d, _ in ref], atol=1e-9)


@pytest.fixture(scope="module")
def mirrored(spark):
    """Every series twice, as ids ``j`` and ``2n - 1 - j``: split into 4
    equal chunks, the two copies always lie in different chunks."""
    base = clustered_walks_np(N // 2, L, seed=41)
    data = np.vstack([base, base[::-1]])
    chunked = equally_split(series_df(spark, data), 4)
    yield data, base, chunked
    free_layout(chunked)


@pytest.mark.parametrize("share_bsf", [True, False])
@pytest.mark.parametrize("k", [1, 4])
def test_mirrored_series_across_chunks_keep_id_order(spark, mirrored, k, share_bsf):
    """Each distance is met twice, in two chunks, so the shared BSF a chunk
    is seeded with ties its own copy exactly at the bound; the merged
    answers follow the oracle's (distance, id) order. Half the queries are
    series of the data themselves."""
    data, base, chunked = mirrored
    queries = np.vstack([base[::40], make_queries_np(base, 4, seed=43)[0]])
    res = distributed_search(chunked, queries, k=k, share_bsf=share_bsf)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL if k == 1 else knn_sql(k),
        series=series_long_pdf(data),
        queries=series_long_pdf(queries, id_col="qid"),
    )


def test_layout_with_empty_chunks(spark):
    """DENSITY-AWARE lays 8 random walks out in 4 chunks as [8, 0, 0, 0]
    (each series is alone in its buffer, and a striped buffer starts at
    chunk 0). The answers are the oracle's, and every policy simulates the
    layout: a chunk with no rows has no queries to predict."""
    data = random_walk_np(8, L, seed=0)
    queries, _ = make_queries_np(data, 3, seed=1)
    chunked = density_aware(series_df(spark, data), 4)
    try:
        sizes = np.bincount(chunked.select("chunk_id").toPandas()["chunk_id"], minlength=4)
        assert sizes.tolist() == [8, 0, 0, 0]
        res = distributed_search(chunked, queries)
    finally:
        free_layout(chunked)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long_pdf(data),
        queries=series_long_pdf(queries, id_col="qid"),
    )
    works = works_from_stats(res.chunk_stats)
    preds = chunk_predictions(res, fit_chunk_predictors(res))
    assert set(preds) == {0}
    cfg = ReplicationConfig(4, 4)
    for policy in ALL_POLICIES:
        assert simulate_cluster(works, cfg, policy, predictions_by_chunk=preds).makespan > 0
    with pytest.raises(ValueError, match="needs predictions"):
        simulate_cluster(works, cfg, "PREDICT-ST")


@pytest.mark.parametrize(
    "kwargs",
    [{"k": 1}, {"k": 5}, {"distance": "dtw", "warp": 0.1}],
    ids=["ed-1nn", "ed-5nn", "dtw"],
)
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_parallel_and_serial_chunks_agree(setup, scheme, kwargs):
    """Running the chunks as parallel tasks never changes an answer or a
    work counter, whatever the layout: compare with all four chunks in one
    task. The four tasks share the BSF through the driver's seed reduce in
    two scans; the one task reduces the seeds itself in one scan, so every
    column but the timings and the placement is identical."""
    data, queries, df, *_ = setup
    q = queries[:2] if kwargs.get("distance") == "dtw" else queries
    chunked = PARTITIONERS[scheme](df, 4)
    parallel = distributed_search(chunked, q, **kwargs)
    serial = distributed_search(chunked.coalesce(1), q, **kwargs)
    assert parallel.chunk_stats["partition_id"].nunique() == 4
    assert serial.chunk_stats["partition_id"].nunique() == 1
    key = ["chunk_id", "query_id"]
    timing_and_placement = {"elapsed", "build_elapsed", "partition_id", "worker_pid"}
    cols = [c for c in engine.RESULT_SCHEMA.names if c not in timing_and_placement | set(key)]
    a = parallel.chunk_stats.sort_values(key).set_index(key)[cols]
    b = serial.chunk_stats.sort_values(key).set_index(key)[cols]
    assert len(a) == 4 * len(q)
    assert a.equals(b)
    pd.testing.assert_frame_equal(parallel.answers, serial.answers)


#: name -> (layout of the fixture's series, its Spark partitions)
JOB_LAYOUTS = {
    "one-chunk": (lambda df: equally_split(df, 1), 1),
    "coalesced": (lambda df: equally_split(df, 4).coalesce(1), 1),
    "four-chunks": (lambda df: equally_split(df, 4), 4),
}


@pytest.mark.parametrize("share_bsf", [True, False])
@pytest.mark.parametrize("layout", sorted(JOB_LAYOUTS))
def test_spark_jobs_per_search(spark, setup, layout, share_bsf):
    """A search is one Spark job, except BSF sharing across partitions: a
    layout in one partition reduces the seeds inside its one task, and
    reading the partition count starts no job."""
    data, queries, df, *_ = setup
    make, n_partitions = JOB_LAYOUTS[layout]
    chunked = make(df)
    sc = spark.sparkContext
    group = f"jobs-{layout}-{share_bsf}"
    sc.setJobGroup(group, "jobs per search")
    try:
        distributed_search(chunked, queries[:2], share_bsf=share_bsf)
        n_jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert n_jobs == (2 if share_bsf and n_partitions > 1 else 1)


@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_zero_chunks_rejected(setup, scheme):
    data, queries, df, *_ = setup
    with pytest.raises(ValueError, match="at least 1"):
        PARTITIONERS[scheme](df, 0)


@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_more_chunks_than_series_rejected(setup, scheme):
    data, queries, df, *_ = setup
    with pytest.raises(ValueError, match="exceeds the number of series"):
        PARTITIONERS[scheme](df, N + 1)


def _plan_names(plan) -> list[str]:
    """Node names of a physical plan; adaptive plans and query stages are
    unwrapped."""
    names, todo = [], [plan]
    while todo:
        node = todo.pop()
        kind = node.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            todo.append(node.executedPlan())
            continue
        if kind.endswith("QueryStageExec"):
            todo.append(node.plan())
            continue
        names.append(node.nodeName())
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return names


@pytest.mark.parametrize("n_chunks", [1, 3, 4])
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_grouped_scan_reads_cached_layout(spark, setup, scheme, n_chunks):
    """The partitioners build their layout once, as a local checkpoint:
    the layout's plan is one ``LogicalRDD`` over checkpointed rows, and
    the scan is one Arrow map over that RDD, before adaptive execution or
    after it, and chunk ``c`` is read alone in partition ``c``. Neither the layout's shuffle nor the local scan of the input
    (whose data would ride in every task) nor a partitioner UDF runs
    again, no columnar cache is decoded and no grouping sorts the chunk."""
    data, queries, *_ = setup
    df = series_df(spark, data[1:])
    worker = engine._make_worker(
        queries[:1], approx_only=True, seeds=None, algorithm="odyssey",
        distance="ed", warp=0.05, k=1,
    )
    layout = PARTITIONERS[scheme](df, n_chunks)
    try:
        analyzed = layout._jdf.queryExecution().analyzed()
        assert analyzed.nodeName() == "LogicalRDD"
        assert analyzed.rdd().isCheckpointed()
        scan = engine._chunk_scan(layout, worker, engine.RESULT_SCHEMA)
        for run in (False, True):
            if run:
                got = scan.toPandas()
                assert got["chunk_id"].nunique() == n_chunks
                assert (got["chunk_id"] == got["partition_id"]).all(), got
            names = _plan_names(scan._jdf.queryExecution().executedPlan())
            assert names[-1] == "Scan ExistingRDD", names
            assert "MapInArrow" in names
            for node in (
                "InMemoryTableScan", "ArrowEvalPython", "LocalTableScan",
                "Exchange", "Sort", "FlatMapGroupsInPandas",
            ):
                assert node not in names, (node, names)
    finally:
        free_layout(layout)


def test_layout_is_cached_once(spark, setup):
    """A partitioner returns a built layout, one more persistent RDD; two
    builds of the same data are independent, so freeing one leaves the
    other answering. ``free_layout`` returns the count to its start, and a
    freed layout's scan raises instead of building the layout again."""
    data, queries, *_ = setup
    df = series_df(spark, data[2:])
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    chunked = density_aware(df, 3)
    assert persistent().size() == before + 1
    again = density_aware(df, 3)
    assert persistent().size() == before + 2
    free_layout(chunked)
    assert persistent().size() == before + 1
    assert again.select("chunk_id").distinct().count() == 3
    assert len(distributed_search(again, queries[:2]).answers) == 2
    free_layout(again)
    assert persistent().size() == before
    with pytest.raises(Exception, match="CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND"):
        distributed_search(again, queries[:2])


BAD_QUERIES = {
    "1-d": lambda q: q[0],
    "3-d": lambda q: q[None],
    "no-queries": lambda q: q[:0],
    "no-points": lambda q: q[:, :0],
    "ragged": lambda q: [q[0], q[1, :-1]],
    "nan": lambda q: np.where(np.arange(q.shape[1]) == 3, np.nan, q),
    "inf": lambda q: np.where(np.arange(q.shape[1]) == 0, -np.inf, q),
}


@pytest.mark.parametrize(
    "bad, k",
    [(name, 1) for name in BAD_QUERIES] + [(None, 0), (None, -2)],
)
def test_bad_queries_rejected_before_any_job(spark, setup, bad, k):
    data, queries, df, *_ = setup
    chunked = equally_split(df, 2)
    q = BAD_QUERIES[bad](queries[:2]) if bad else queries[:2]
    sc = spark.sparkContext
    group = f"bad-queries-{bad}-{k}"
    sc.setJobGroup(group, "invalid queries or k")
    try:
        with pytest.raises(ValueError):
            distributed_search(chunked, q, k=k)
        assert sc.statusTracker().getJobIdsForGroup(group) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        free_layout(chunked)



def _bad_series_df(spark, data, series):
    """``(id, series)`` frame of ``data`` with some rows replaced."""
    rows = [list(map(float, row)) for row in data]
    for i, row in series.items():
        rows[i] = row
    return spark.createDataFrame(
        pd.DataFrame({"id": np.arange(len(rows), dtype=np.int64), "series": rows})
    )


LENGTH = "series must be non-empty and of one length, got lengths"
NOT_FINITE = "series must be finite"


@pytest.mark.parametrize(
    "series, message",
    [
        ({7: [0.5] * (L - 1)}, rf"chunk 0: {LENGTH} 31 to 32"),
        ({300: [0.5] * (L + 8)}, rf"chunk 1: {LENGTH} 32 to 40"),
        ({5: [np.nan] * L}, rf"chunk 0: {NOT_FINITE}, 1 hold NaN or infinity \(lowest id 5\)"),
        (
            {250: [0.0] * (L - 1) + [np.inf], 200: [-np.inf] * L},
            rf"chunk 1: {NOT_FINITE}, 2 hold NaN or infinity \(lowest id 200\)",
        ),
    ],
    ids=["short", "long", "nan", "inf"],
)
def test_bad_series_rejected(spark, setup, series, message):
    """Ragged or non-finite series are reported as a ValueError naming the
    chunk when the partitioner builds the layout, not answered as if they
    were data (a NaN row is never returned) or misaligned by the reshape;
    the failed build leaves nothing checkpointed."""
    data, *_ = setup
    frame = _bad_series_df(spark, data, series)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persistent().keys())
    with pytest.raises(ValueError, match=message):
        equally_split(frame, 2)
    assert set(persistent().keys()) == before


def test_length_not_divisible_by_w_rejected(spark):
    """Series whose length the index's ``w`` segments do not divide are a
    ValueError naming the chunk when the partitioner builds the layout; the
    failed build leaves nothing checkpointed."""
    frame = series_df(spark, random_walk_np(40, 30, seed=1))
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persistent().keys())
    with pytest.raises(ValueError, match=rf"^chunk [01]: series length 30 not divisible by w={W}$"):
        equally_split(frame, 2)
    assert set(persistent().keys()) == before


@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_ragged_series_rejected_by_every_partitioner(spark, setup, scheme):
    """A 31-point series among 32-point ones is a driver-side ValueError
    giving the length range, whether a partitioner's UDF (DENSITY-AWARE,
    DPiSAX) or the engine's scan (EQUALLY-SPLIT) meets it first."""
    data, queries, *_ = setup
    frame = _bad_series_df(spark, data[:100], {42: [0.5] * (L - 1)})
    with pytest.raises(ValueError, match=f"{LENGTH} 31 to 32"):
        chunked = PARTITIONERS[scheme](frame, 2)
        try:
            distributed_search(chunked, queries[:1])
        finally:
            free_layout(chunked)


@pytest.mark.parametrize("share_bsf, one_chunk", SHARING)
@pytest.mark.parametrize("length", [56, 60])
def test_wrong_query_length_rejected(spark, share_bsf, one_chunk, length):
    """Queries of another length than the series are a driver-side
    ValueError from the first pass that scans the chunks, not a numpy
    error inside a worker."""
    data = clustered_walks_np(200, 64, seed=7)
    queries = make_queries_np(data, 2, seed=9)[0][:, :length]
    chunked = equally_split(series_df(spark, data), 1 if one_chunk else 2)
    try:
        with pytest.raises(
            ValueError, match=rf"^chunk [01]: queries have length {length}, series have length 64$"
        ):
            distributed_search(chunked, queries, share_bsf=share_bsf)
    finally:
        free_layout(chunked)


def test_chunk_split_over_partitions_rejected(setup):
    """A scan answers each partition's rows as chunks of their own, so a
    layout whose chunk spans two partitions is rejected, not answered twice."""
    data, queries, df, *_ = setup
    split = equally_split(df, 1).repartition(2)
    with pytest.raises(ValueError, match=r"chunks \[0\] span more than one Spark partition"):
        distributed_search(split, queries[:1])
    with pytest.raises(ValueError, match="span more than one Spark partition"):
        build_only(split)


def test_chunks_from_record_batches():
    """The scan's Arrow conversion: several record batches, a sliced list
    column (non-zero offset) and a chunk whose rows do not arrive as one
    run give each chunk's rows in arrival order, as a C-contiguous float64
    matrix equal to the input series."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((11, 6))
    ids = np.arange(100, 111, dtype=np.int64)
    chunk_ids = np.array([4, 4, 4, 2, 2, 4, 4, 9, 9, 9, 9], dtype=np.int32)
    # the series column of the first batch is a slice of a longer list array
    padded = pa.array([[7.0] * 6] + [list(r) for r in data[:3]] + [[8.0] * 6])
    batches = [
        pa.RecordBatch.from_arrays(
            [pa.array(chunk_ids[:3]), pa.array(ids[:3]), padded.slice(1, 3)],
            names=["chunk_id", "id", "series"],
        )
    ]
    for lo, hi in [(3, 5), (5, 5), (5, 7), (7, 11)]:
        batches.append(
            pa.RecordBatch.from_arrays(
                [
                    pa.array(chunk_ids[lo:hi]),
                    pa.array(ids[lo:hi]),
                    pa.array([list(r) for r in data[lo:hi]], type=pa.list_(pa.float64())),
                ],
                names=["chunk_id", "id", "series"],
            )
        )
    assert batches[0].column("series").offset == 1
    chunks = list(engine._chunks(iter(batches)))
    assert [c for c, _, _ in chunks] == [2, 4, 9]
    for chunk_id, got_ids, got in chunks:
        rows = np.flatnonzero(chunk_ids == chunk_id)
        np.testing.assert_array_equal(got_ids, ids[rows])
        assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, data[rows])
    assert list(engine._chunks(iter([]))) == []


def test_reordered_layout_rejected(setup):
    """A scan loads each chunk's index from its rows in leaf order, so a
    layout sorted after the partitioner built it is rejected, naming the
    chunk, not answered with a different index."""
    data, queries, df, *_ = setup
    chunked = equally_split(df, 2)
    reordered = chunked.sortWithinPartitions("id")
    message = (
        r"^chunk [01]: rows are not in the leaf order of the chunk's index; "
        "lay the dataset out with a partitioner"
    )
    with pytest.raises(ValueError, match=message):
        distributed_search(reordered, queries[:1])
    with pytest.raises(ValueError, match=message):
        build_only(reordered)


def _merge_reference(stats, k):
    """The coordinator's k-NN merge as a plain loop over every entry."""
    rows = []
    for _, r in stats.iterrows():
        for dist, sid in zip(r["topk_dist"], r["topk_id"]):
            rows.append((int(r["query_id"]), float(dist), int(sid)))
    pool = pd.DataFrame(rows, columns=["query_id", "nn_dist", "nn_id"])
    pool = pool.sort_values(["query_id", "nn_dist", "nn_id"]).groupby("query_id").head(k)
    pool["rank"] = pool.groupby("query_id").cumcount() + 1
    return pool[["query_id", "rank", "nn_dist", "nn_id"]].reset_index(drop=True)


def _nn_reference(stats):
    """The coordinator's 1-NN merge as a plain loop: per query the smallest
    (distance, id) entry of every chunk's top-k list."""
    best = {}
    for _, r in stats.iterrows():
        for dist, sid in zip(r["topk_dist"], r["topk_id"]):
            q = int(r["query_id"])
            best[q] = min(best.get(q, (np.inf, -1)), (float(dist), int(sid)))
    return pd.DataFrame(
        [(q, d, i) for q, (d, i) in sorted(best.items())],
        columns=["query_id", "nn_dist", "nn_id"],
    )


def _seeds_reference(approx, n_queries, k):
    """The k-th best pooled distance per query, as a plain loop."""
    seeds = np.full(n_queries, np.inf)
    for qid, grp in approx.groupby("query_id"):
        dists = sorted(d for tk in grp["topk_dist"] for d in tk)
        if len(dists) >= k:
            seeds[int(qid)] = dists[k - 1]
    return seeds


def _random_stats(rng, n_chunks, n_queries, k):
    """Per-(chunk, query) top-k lists over disjoint id ranges whose
    distances come from a few integers, so ties across chunks are common;
    some lists are shorter than k and some are empty."""
    rows = []
    for c in rng.permutation(n_chunks):
        for q in rng.permutation(n_queries):
            m = int(rng.integers(0 if rows else 1, k + 1))
            ids = rng.choice(100, size=m, replace=False) + 100 * c
            dists = rng.integers(0, 4, size=m).astype(float) / 2
            order = np.lexsort((ids, dists))
            rows.append(
                {"chunk_id": c, "query_id": q, "topk_dist": dists[order], "topk_id": ids[order]}
            )
    return pd.DataFrame(rows)


@pytest.mark.parametrize("seed", range(20))
def test_vectorised_merge_and_seeds_match_loops(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    n_queries = int(rng.integers(1, 6))
    stats = _random_stats(rng, int(rng.integers(1, 5)), n_queries, k)
    pd.testing.assert_frame_equal(
        engine._merge_answers(stats, k), _merge_reference(stats, k)
    )
    pd.testing.assert_frame_equal(engine._merge_answers(stats, 1), _nn_reference(stats))
    for kk in (1, k):
        np.testing.assert_array_equal(
            engine._seeds_from_approx(stats, n_queries, kk),
            _seeds_reference(stats, n_queries, kk),
        )


@pytest.mark.parametrize("n_chunks", [2, 1], ids=["two-pass", "one-chunk"])
def test_tracing_contract(setup, monkeypatch, n_chunks):
    """The benchmark's tracer wraps engine attributes by name, tells the
    passes apart by ``approx_only`` and reads result columns: every target
    exists; ``distributed_search`` runs pass 1 with ``approx_only=True``,
    the seed reduce, pass 2 without it and the merge, or, on a one-chunk
    layout, its one scan without ``approx_only`` and the merge; and the
    per-layer table reads only ``RESULT_SCHEMA`` columns. The one scan's
    rows already hold pass 1's work, so the table reads the work of the
    two passes."""
    from e2ebench import tracing

    data, queries, df, *_ = setup
    chunked = equally_split(df, n_chunks)
    calls = []
    for attr in tracing.ENGINE_TARGETS:
        fn = getattr(engine, attr)

        def record(*args, _attr=attr, _fn=fn, **kwargs):
            calls.append((_attr, bool(kwargs.get("approx_only"))))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, attr, record)
    distributed_search(chunked, queries[:3])
    two_pass = n_chunks > 1
    assert calls == [
        *([("chunk_search", True), ("_seeds_from_approx", False)] if two_pass else []),
        ("chunk_search", False),
        ("_merge_answers", False),
    ]
    monkeypatch.undo()

    tracer = tracing.Tracer()
    tracer.iteration = 0
    with tracer.patched(engine):
        res = distributed_search(chunked, queries[:3])
    assert tracer.missing == set()
    assert [s["name"] for s in tracer.spans] == [
        *(["engine.pass1", "engine.seed_reduce"] if two_pass else []),
        "engine.pass2",
        "engine.merge",
    ]
    assert all(list(f.columns) == engine.RESULT_SCHEMA.names for *_, f in tracer.frames)
    # predictor_r2=None also runs the predictor probe over the run's stats
    it = SimpleNamespace(predictor_r2=None, n_steals=0, sim_imbalance=1.0, searches={"run": res})
    layers = tracing.iteration_layers(tracer, 0, it, scan_s=1.0)
    assert all(np.isfinite(v) for v in layers.values())
    if not two_pass:
        # the two passes run by hand on the same layout
        tracer.iteration = 1
        with tracer.patched(engine):
            approx = engine.chunk_search(chunked, queries[:3], approx_only=True)
            seeds = engine._seeds_from_approx(approx, 3, 1)
            engine.chunk_search(chunked, queries[:3], seeds=seeds)
        passes = tracing.iteration_layers(tracer, 1, it, scan_s=1.0)
        assert layers["work_mu_per_query"] == passes["work_mu_per_query"]
