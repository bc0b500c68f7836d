"""E5: WORK-STEAL query throughput vs nodes (paper Fig 13)."""
from repro.experiments.harness import throughput


def test_bench_throughput(spark, run_table):
    df = run_table("e5_throughput", throughput, spark)
    assert len(df) == 5
