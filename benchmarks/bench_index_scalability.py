"""E8: index build scalability, EQUALLY-SPLIT (paper Fig 17a-c)."""
from repro.experiments.harness import index_scalability


def test_bench_index_scalability(spark, run_table):
    df = run_table("e8_index_scalability", index_scalability, spark)
    assert set(df["sweep"]) == {"size@16nodes", "nodes@fixed", "size+nodes"}
