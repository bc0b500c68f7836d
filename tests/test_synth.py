"""Data-series generator tests."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments.datasets import DATASETS
from repro.synth_data import (
    clustered_walks_np,
    make_queries_np,
    random_walk_np,
    series_df,
    series_long_pdf,
)


def test_random_walk_shape_and_norm():
    x = random_walk_np(50, 64, seed=0)
    assert x.shape == (50, 64)
    np.testing.assert_allclose(x.mean(axis=1), 0, atol=1e-9)
    np.testing.assert_allclose(x.std(axis=1), 1, atol=1e-6)


def test_random_walk_deterministic():
    np.testing.assert_array_equal(random_walk_np(10, 32, seed=5), random_walk_np(10, 32, seed=5))
    assert not np.array_equal(random_walk_np(10, 32, seed=5), random_walk_np(10, 32, seed=6))


def test_clustered_walks_density_skew():
    """Cluster-ordered rows: adjacent series are much closer than random
    pairs (the locality EQUALLY-SPLIT suffers from)."""
    x = clustered_walks_np(300, 64, seed=1)
    assert x.shape == (300, 64)
    adjacent = np.linalg.norm(x[1:] - x[:-1], axis=1)
    rng = np.random.default_rng(0)
    perm = rng.permutation(300)
    random_pairs = np.linalg.norm(x[perm[:150]] - x[perm[150:]], axis=1)
    assert np.median(adjacent) < np.median(random_pairs)


def test_clustered_walks_exact_count():
    for n in (37, 100, 501):
        assert clustered_walks_np(n, 32, seed=2).shape[0] == n


def test_make_queries_shapes_and_meta():
    data = random_walk_np(100, 32, seed=3)
    q, meta = make_queries_np(data, 25, seed=4)
    assert q.shape == (25, 32)
    assert list(meta.columns) == ["query_id", "sigma", "is_hard"]
    assert meta["is_hard"].sum() >= 0
    assert np.isnan(meta.loc[meta.is_hard, "sigma"]).all()


def test_make_queries_hard_fraction():
    data = random_walk_np(100, 32, seed=3)
    _, meta = make_queries_np(data, 400, seed=5, hard_frac=0.5)
    assert 0.35 < meta["is_hard"].mean() < 0.65


def test_make_queries_deterministic():
    data = random_walk_np(50, 32, seed=1)
    q1, _ = make_queries_np(data, 10, seed=9)
    q2, _ = make_queries_np(data, 10, seed=9)
    np.testing.assert_array_equal(q1, q2)


def _pandas_series_df(spark, data, ids):
    """The frame ``series_df`` builds, made from a pandas column of one
    array per series."""
    pdf = pd.DataFrame({"id": np.asarray(ids, dtype=np.int64), "series": list(data)})
    return spark.createDataFrame(pdf)


@pytest.mark.parametrize("ids", [None, "explicit"])
def test_series_df_matches_pandas_frame(spark, ids):
    """``series_df`` builds the frame a pandas column of arrays gives: the
    same schema, partitions and rows in order, from a matrix that is not
    C-contiguous and over more than one Arrow batch."""
    data = random_walk_np(64, 12_000, seed=3).T[:, :32]
    row_ids = np.arange(len(data)) * 7 - 5 if ids else np.arange(len(data))
    got = series_df(spark, data, None if ids is None else row_ids)
    want = _pandas_series_df(spark, data, row_ids)
    assert got.schema == want.schema
    assert got.rdd.getNumPartitions() == want.rdd.getNumPartitions() > 1
    g, w = got.toPandas(), want.toPandas()
    np.testing.assert_array_equal(g["id"], w["id"])
    np.testing.assert_array_equal(np.stack(g["series"]), np.stack(w["series"]))
    np.testing.assert_array_equal(np.stack(g["series"]), data)


def test_series_long_pdf_roundtrip():
    data = random_walk_np(5, 8, seed=0)
    long = series_long_pdf(data, ids=np.array([3, 1, 4, 1, 5]) * 10)
    assert len(long) == 40
    wide = long.pivot_table(index="id", columns="pos", values="val")
    row = long[long["id"] == 30].sort_values("pos")["val"].to_numpy()
    np.testing.assert_allclose(row, data[0])


def test_series_long_custom_id_col():
    long = series_long_pdf(random_walk_np(2, 4, seed=0), id_col="qid")
    assert set(long.columns) == {"qid", "pos", "val"}


@pytest.mark.parametrize("key", list(DATASETS))
def test_dataset_specs_generate(key):
    spec = DATASETS[key]
    data = spec.generate(0.02)
    assert data.shape[1] == spec.length
    assert spec.length % 8 == 0  # PAA divisibility for w=8
    assert len(data) >= 16


def test_dataset_generate_scales_with_sf():
    spec = DATASETS["random"]
    assert len(spec.generate(0.1)) < len(spec.generate(0.5))
    assert spec.size_mb(1.0) > spec.size_mb(0.1)
