"""E6: total index size per replication strategy (paper Fig 14)."""
from repro.experiments.harness import index_size_table


def test_bench_index_size(spark, run_table):
    df = run_table("e6_index_size", index_size_table, spark)
    assert len(df) == 6 * 4
