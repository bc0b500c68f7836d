"""E2: scheduling policies under FULL replication (paper Fig 10)."""
from repro.experiments.harness import scheduling_experiment


def test_bench_scheduling(spark, run_table):
    df = run_table("e2_scheduling", scheduling_experiment, spark)
    assert set(df["n_nodes"]) == {1, 2, 4, 8, 16}
