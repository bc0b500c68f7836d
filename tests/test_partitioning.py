"""Partitioning tests: EQUALLY-SPLIT, DENSITY-AWARE (Spark + pure-pandas plan)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core.isax import gray, inverse_gray
from repro.distributed.partitioning import (
    BUFFER_BITS,
    density_aware,
    equally_split,
    isax_words_np,
    plan_buffer_assignment,
)
from repro.synth_data import clustered_walks_np, series_df


@pytest.fixture(scope="module")
def clustered(spark):
    data = clustered_walks_np(240, 32, seed=17)
    return data, series_df(spark, data)


def _assignment(df):
    pdf = df.select("id", "chunk_id").toPandas().sort_values("id")
    return pdf["chunk_id"].to_numpy()


def test_equally_split_contiguous(clustered):
    data, df = clustered
    chunks = _assignment(equally_split(df, 4))
    assert set(chunks) == {0, 1, 2, 3}
    # contiguous in id order and perfectly balanced
    assert np.all(np.diff(chunks) >= 0)
    assert np.bincount(chunks).tolist() == [60, 60, 60, 60]


@pytest.mark.parametrize("n_chunks", [1, 3, 4, 7])
def test_equally_split_matches_ntile(spark, n_chunks):
    """The driver-computed cut ids assign every series the chunk a global
    ``ntile`` over ``id`` gives it, with uneven chunk sizes, ids that are
    not 0..n-1 and a storage order that is not id order."""
    n = 241
    ids = 7 + 3 * np.arange(n)
    perm = np.random.default_rng(3).permutation(n)
    df = series_df(spark, clustered_walks_np(n, 16, seed=5)[perm], ids[perm])
    ref = df.withColumn("ref", F.ntile(n_chunks).over(Window.orderBy("id")) - 1)
    ref = ref.select("id", "ref").toPandas().sort_values("id")["ref"].to_numpy()
    assert (_assignment(equally_split(df, n_chunks)) == ref).all()


def test_equally_split_shuffle_covers_and_balances(clustered):
    data, df = clustered
    chunks = _assignment(equally_split(df, 4, shuffle=True, seed=3))
    assert set(chunks) == {0, 1, 2, 3}
    counts = np.bincount(chunks)
    assert counts.min() > 30  # statistically balanced, not exact
    assert np.any(np.diff(chunks) < 0)  # actually shuffled


def test_equally_split_deterministic(clustered):
    _, df = clustered
    a = _assignment(equally_split(df, 4, shuffle=True, seed=3))
    b = _assignment(equally_split(df, 4, shuffle=True, seed=3))
    np.testing.assert_array_equal(a, b)


def test_density_aware_covers_and_balances(clustered):
    data, df = clustered
    chunks = _assignment(density_aware(df, 4))
    assert len(chunks) == len(data)
    assert set(chunks) <= {0, 1, 2, 3}
    counts = np.bincount(chunks, minlength=4)
    assert counts.max() <= 1.5 * counts.mean()


def test_density_aware_splits_clusters(clustered):
    """Similar (adjacent, same-cluster) series must be spread across
    chunks — the whole point of the Gray-code striping. Contiguous
    EQUALLY-SPLIT keeps them on one chunk instead."""
    data, df = clustered
    da = _assignment(density_aware(df, 4))
    eq = _assignment(equally_split(df, 4))
    first_cluster = slice(0, 40)  # generator orders rows cluster-by-cluster
    assert len(set(eq[first_cluster])) == 1
    assert len(set(da[first_cluster])) >= 3


def test_buffer_words_shape_and_determinism():
    data = clustered_walks_np(50, 32, seed=1)
    w1 = isax_words_np(data, BUFFER_BITS)
    w2 = isax_words_np(data, BUFFER_BITS)
    np.testing.assert_array_equal(w1, w2)
    assert w1.min() >= 0 and w1.max() < (1 << 16)


def test_plan_assigns_every_buffer():
    counts = pd.DataFrame({"buffer": gray(np.arange(20)), "count": np.full(20, 10)})
    plan = plan_buffer_assignment(counts, 4, lam=2)
    assert set(plan["buffer"]) == set(counts["buffer"])
    assert plan["chunk_id"].isin([-1, 0, 1, 2, 3]).all()


def test_plan_stripes_lambda_largest():
    counts = pd.DataFrame(
        {"buffer": np.arange(10), "count": [1000, 900, 10, 10, 10, 10, 10, 10, 10, 10]}
    )
    plan = plan_buffer_assignment(counts, 2, lam=2)
    striped = plan[plan["chunk_id"] == -1]["buffer"].tolist()
    assert 0 in striped and 1 in striped


def test_plan_round_robin_in_gray_order():
    words = gray(np.arange(8))
    counts = pd.DataFrame({"buffer": words, "count": np.full(8, 5)})
    plan = plan_buffer_assignment(counts, 4, lam=0)
    plan = plan.copy()
    plan["rank"] = inverse_gray(plan["buffer"].to_numpy())
    plan = plan.sort_values("rank")
    assert plan["chunk_id"].tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


def test_plan_rebalances_skewed_buffer():
    counts = pd.DataFrame(
        {"buffer": np.arange(5), "count": [500, 10, 10, 10, 10]}
    )
    plan = plan_buffer_assignment(counts, 2, lam=0, tol=0.05)
    # the huge buffer ends up striped, not dedicated to one node
    assert plan.loc[plan["buffer"] == 0, "chunk_id"].iloc[0] == -1
