"""E7: replication trade-off, WORK-STEAL-PREDICT (paper Fig 15/16)."""
from repro.experiments.harness import replication_tradeoff


def test_bench_replication(spark, run_table):
    df = run_table("e7_replication", replication_tradeoff, spark)
    assert set(df["strategy"]) == {"FULL", "PARTIAL-2", "PARTIAL-4", "EQUALLY-SPLIT"}
