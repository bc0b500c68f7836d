"""Experiment harness integration tests: each table function runs at tiny
scale and its rows exhibit the paper's qualitative shape."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments.harness import (
    competitors,
    dataset_table,
    datasize_scalability,
    dtw_experiment,
    index_scalability,
    index_size_table,
    knn_experiment,
    query_scalability,
    replication_tradeoff,
    scheduling_experiment,
    throughput,
)
from repro.scheduling.schedulers import ALL_POLICIES


def test_dataset_table_matches_registry():
    df = dataset_table(sf=0.05)
    assert len(df) == 6
    assert {"Seismic", "Astro", "Deep", "Sift", "Yan-TtI", "Random"} == set(df["dataset"])
    assert (df["ours_mb"] > 0).all()


@pytest.fixture(scope="module")
def sched(spark):
    return scheduling_experiment(
        spark,
        n_nodes_list=(1, 2, 4, 8),
        n_queries=24,
        n_train=16,
        n_series=800,
        seed=1,
    )


def test_scheduling_all_policies_present(sched):
    assert set(sched["policy"]) == set(ALL_POLICIES)
    assert (sched["query_time"] > 0).all()


def test_scheduling_predict_dn_beats_static(sched):
    """Paper Fig 10: PREDICT-DN up to 150% better than STATIC at scale;
    at minimum it must never be materially worse."""
    at8 = sched[sched["n_nodes"] == 8].set_index("policy")["query_time"]
    assert at8["PREDICT-DN"] <= at8["STATIC"] * 1.05
    best = sched[sched["n_nodes"] == 8]["query_time"].min()
    assert at8["WORK-STEAL-PREDICT"] <= best * 1.2


def test_scheduling_more_nodes_faster(sched):
    ws = sched[sched["policy"] == "WORK-STEAL-PREDICT"].sort_values("n_nodes")
    t = ws["query_time"].to_numpy()
    assert t[-1] < t[0]  # 8 nodes beat 1 node


def test_work_steal_improves_dynamic(sched):
    """Paper Fig 10a: WORK-STEAL outperforms plain DYNAMIC for many nodes."""
    at8 = sched[sched["n_nodes"] == 8].set_index("policy")["query_time"]
    assert at8["WORK-STEAL"] <= at8["DYNAMIC"] * 1.05


def test_query_scalability_flat(spark):
    """Paper Fig 11: time for j·Q queries on j nodes stays ~flat."""
    df = query_scalability(spark, j_list=(1, 2, 4), base_queries=20, n_series=600, seed=2)
    full = df[df["replication"] == "FULL"].sort_values("n_nodes")
    t = full["query_time"].to_numpy()
    assert t.max() <= 2.5 * t.min()  # near-flat at tiny scale
    assert {"FULL", "PARTIAL-2"} == set(df["replication"])


def test_datasize_scalability_monotone(spark):
    """Paper Fig 12: more data ⇒ more query time; replication helps."""
    df = datasize_scalability(
        spark, multipliers=(1, 4), base_n=300, n_queries=10, n_nodes=4, seed=3
    )
    for strat in df["strategy"].unique():
        sub = df[df["strategy"] == strat].sort_values("n_series")
        assert sub["query_time"].iloc[-1] > sub["query_time"].iloc[0]
    big = df[df["n_series"] == df["n_series"].max()].set_index("strategy")["query_time"]
    assert big["FULL"] <= big["EQUALLY-SPLIT"] * 1.1


def test_throughput_increases_with_nodes(spark):
    df = throughput(spark, n_nodes_list=(1, 4, 8), n_queries=40, n_series=600, seed=4)
    t = df.sort_values("n_nodes")["throughput"].to_numpy()
    assert t[-1] > t[0]


def test_index_size_table_shape(spark):
    """Paper Fig 14: index ≪ data; more replication ⇒ more total index."""
    df = index_size_table(spark, n_nodes=8, sf=0.05, datasets=("seismic", "random"))
    assert len(df) == 2 * 4
    for ds in df["dataset"].unique():
        sub = df[df["dataset"] == ds].set_index("strategy")
        assert sub.loc["FULL", "index_mb"] > sub.loc["EQUALLY-SPLIT", "index_mb"]
        assert sub.loc["EQUALLY-SPLIT", "index_mb"] < sub.loc["EQUALLY-SPLIT", "data_mb"]


@pytest.fixture(scope="module")
def tradeoff(spark):
    return replication_tradeoff(
        spark,
        n_queries_list=(10, 40),
        n_series=600,
        n_nodes=4,
        n_train=12,
        seed=5,
    )


def test_replication_tradeoff_query_time(tradeoff):
    """Paper Fig 15a-b: more replication ⇒ faster query answering."""
    for n_q in tradeoff["n_queries"].unique():
        sub = tradeoff[tradeoff["n_queries"] == n_q].set_index("strategy")
        assert sub.loc["FULL", "query_time"] <= sub.loc["EQUALLY-SPLIT", "query_time"] * 1.1


def test_replication_tradeoff_index_time(tradeoff):
    """Paper Fig 15c-d: more replication ⇒ larger index build time."""
    sub = tradeoff.groupby("strategy")["index_time"].first()
    assert sub["FULL"] >= sub["EQUALLY-SPLIT"]


def test_index_scalability_shapes(spark):
    """Paper Fig 17a-c: build time grows with size, shrinks with nodes,
    stays ~constant when both grow together."""
    df = index_scalability(
        spark, base_n=300, multipliers=(1, 2, 4), n_nodes_list=(1, 2, 4), seed=6
    )
    size = df[df["sweep"] == "size@16nodes"].sort_values("n_series")["index_time"].to_numpy()
    assert np.all(np.diff(size) > 0)
    nodes = df[df["sweep"] == "nodes@fixed"].sort_values("n_nodes")["index_time"].to_numpy()
    assert nodes[-1] < nodes[0]
    both = df[df["sweep"] == "size+nodes"]["index_time"].to_numpy()
    assert both.max() <= 1.5 * both.min()  # near-constant


@pytest.fixture(scope="module")
def compet(spark):
    df, results = competitors(
        spark, n_nodes=4, n_queries=12, n_train=10, n_series=600, seed=7
    )
    return df, results


def test_competitors_rows(compet):
    df, _ = compet
    assert set(df["algorithm"]) == {
        "ODYSSEY-FULL",
        "ODYSSEY-DENSITY-AWARE",
        "ODYSSEY-EQUALLY-SPLIT",
        "DMESSI",
        "DMESSI-SW-BSF",
        "DPISAX",
    }
    assert (df["query_time"] > 0).all()


def test_competitors_answers_agree(compet):
    _, results = compet
    base = results["ODYSSEY-FULL"].answers["nn_dist"].to_numpy()
    for name, res in results.items():
        np.testing.assert_allclose(
            res.answers["nn_dist"].to_numpy(), base, atol=1e-9, err_msg=name
        )


def test_competitors_odyssey_beats_dmessi(compet):
    """Paper Fig 17d: Odyssey's best is clearly faster than DMESSI."""
    df, _ = compet
    t = df.set_index("algorithm")["query_time"]
    best_odyssey = min(
        t["ODYSSEY-FULL"], t["ODYSSEY-DENSITY-AWARE"], t["ODYSSEY-EQUALLY-SPLIT"]
    )
    assert best_odyssey < t["DMESSI"]
    assert best_odyssey <= t["DPISAX"] * 1.05


def test_knn_experiment_shape(spark):
    df = knn_experiment(
        spark, k=5, n_nodes_list=(2, 4), n_queries=8, n_series=400, seed=8
    )
    assert (df["query_time"] > 0).all()
    assert set(df["n_nodes"]) == {2, 4}
    # more nodes with FULL replication ⇒ not slower
    full = df[df["strategy"] == "FULL"].sort_values("n_nodes")["query_time"].to_numpy()
    assert full[-1] <= full[0] * 1.05


def test_dtw_experiment_shape(spark):
    df = dtw_experiment(
        spark, warp=0.1, n_nodes_list=(2,), n_queries=5, n_series=300, seed=9
    )
    assert (df["query_time"] > 0).all()
    assert {"FULL", "EQUALLY-SPLIT"} <= set(df["strategy"])


def test_harness_frees_its_layouts(spark):
    """Every harness function frees the layouts it checkpoints: after a
    search sweep over all three schemes and a build sweep, the session
    holds no more persistent RDDs than before."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    competitors(spark, n_nodes=2, n_queries=3, n_train=4, n_series=200, seed=7)
    index_size_table(spark, n_nodes=2, sf=0.02, datasets=("random",))
    assert persistent().size() <= before
