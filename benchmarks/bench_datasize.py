"""E4: query time vs dataset size, 8 nodes (paper Fig 12)."""
from repro.experiments.harness import datasize_scalability


def test_bench_datasize(spark, run_table):
    df = run_table("e4_datasize", datasize_scalability, spark)
    assert df["n_series"].max() == 8000
