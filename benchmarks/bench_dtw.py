"""E11: DTW with 5% warping vs nodes × replication (paper Fig 19)."""
from repro.experiments.harness import dtw_experiment


def test_bench_dtw(spark, run_table):
    df = run_table("e11_dtw", dtw_experiment, spark)
    assert (df["warp"] == 0.05).all()
