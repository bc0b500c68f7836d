"""E3: query scalability — j·100 queries on j nodes (paper Fig 11)."""
from repro.experiments.harness import query_scalability


def test_bench_query_scalability(spark, run_table):
    df = run_table("e3_query_scalability", query_scalability, spark)
    assert df["n_queries"].max() == 800
