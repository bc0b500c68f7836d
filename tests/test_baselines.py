"""Baseline tests: DMESSI(-SW-BSF), DPiSAX — correctness and behaviour."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.dmessi import dmessi_search, dmessi_swbsf_search
from repro.baselines.dpisax import WORD_BITS, dpisax_partition
from repro.distributed.engine import distributed_search
from repro.distributed.partitioning import equally_split, free_layout, isax_words_np
from repro.synth_data import (
    clustered_walks_np,
    make_queries_np,
    series_df,
    series_long_pdf,
)

from .oracle_sql import NN_SQL, assert_equivalent


@pytest.fixture(scope="module")
def setup(spark):
    data = clustered_walks_np(300, 32, seed=41)
    queries, _ = make_queries_np(data, 5, seed=43)
    df = series_df(spark, data)
    return data, queries, df


def test_all_algorithms_agree_on_answers(spark, setup):
    """Every system must produce the same exact answers — they differ in
    work and makespan, never in results."""
    data, queries, df = setup
    eq4 = equally_split(df, 4)
    answers = {
        "odyssey": distributed_search(eq4, queries).answers,
        "dmessi": dmessi_search(eq4, queries).answers,
        "dmessi_sw": dmessi_swbsf_search(eq4, queries).answers,
        "dpisax": dmessi_search(dpisax_partition(df, 4), queries).answers,
    }
    base = answers["odyssey"]
    for name, ans in answers.items():
        np.testing.assert_allclose(
            ans["nn_dist"].to_numpy(), base["nn_dist"].to_numpy(), atol=1e-9,
            err_msg=name,
        )


def test_dmessi_matches_oracle(spark, setup):
    data, queries, df = setup
    res = dmessi_search(equally_split(df, 3), queries)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long_pdf(data),
        queries=series_long_pdf(queries, id_col="qid"),
    )


def test_dpisax_matches_oracle(spark, setup):
    data, queries, df = setup
    res = dmessi_search(dpisax_partition(df, 4), queries)
    assert_equivalent(
        spark.createDataFrame(res.answers),
        NN_SQL,
        series=series_long_pdf(data),
        queries=series_long_pdf(queries, id_col="qid"),
    )


def test_dmessi_does_more_work_than_odyssey(setup):
    """The paper's Fig 17d mechanism: no BSF sharing ⇒ every chunk pays
    full search effort; Odyssey's shared BSF prunes remote chunks."""
    data, queries, df = setup
    eq4 = equally_split(df, 4)
    dm = dmessi_search(eq4, queries)
    od = distributed_search(eq4, queries)
    assert od.chunk_stats["real_series"].sum() < dm.chunk_stats["real_series"].sum()


def test_dpisax_partition_is_word_range(setup):
    data, _, df = setup
    pdf = dpisax_partition(df, 4).select("id", "chunk_id").toPandas().sort_values("id")
    words = isax_words_np(data, WORD_BITS)
    chunks = pdf["chunk_id"].to_numpy()
    # contiguous ranges in word space: per-chunk [min,max] do not overlap
    ranges = {}
    for c in np.unique(chunks):
        w = words[chunks == c]
        ranges[c] = (w.min(), w.max())
    ordered = [ranges[c] for c in sorted(ranges)]
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        assert hi1 <= lo2


def test_dpisax_partition_covers_all(setup):
    data, _, df = setup
    pdf = dpisax_partition(df, 4).select("id").toPandas()
    assert len(pdf) == len(data)
    assert pdf["id"].is_unique


def test_dpisax_concentrates_similar_series(setup):
    """DPiSAX locality: same-cluster (adjacent) series land on the same
    chunk far more often than under random striping."""
    data, _, df = setup
    pdf = dpisax_partition(df, 4).select("id", "chunk_id").toPandas().sort_values("id")
    chunks = pdf["chunk_id"].to_numpy()
    same_adjacent = float(np.mean(chunks[1:] == chunks[:-1]))
    assert same_adjacent > 0.5  # random striping across 4 chunks ⇒ 0.25


def test_dpisax_words_deterministic():
    data = clustered_walks_np(40, 32, seed=3)
    np.testing.assert_array_equal(
        isax_words_np(data, WORD_BITS), isax_words_np(data, WORD_BITS)
    )


def test_dpisax_cuts_do_not_depend_on_input_partitions(setup):
    """The sample behind the cut points is drawn on the driver, so the
    chunk of every series is the same however Spark splits the input."""
    data, _, df = setup
    assignments = []
    for n_parts in (1, 7):
        layout = dpisax_partition(df.repartition(n_parts), 4)
        pdf = layout.select("id", "chunk_id").toPandas()
        free_layout(layout)
        assignments.append(pdf.sort_values("id").reset_index(drop=True))
    assert assignments[0]["chunk_id"].nunique() == 4
    pd.testing.assert_frame_equal(*assignments)
