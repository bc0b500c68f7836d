"""E10: 10-NN query answering vs nodes × replication (paper Fig 18)."""
from repro.experiments.harness import knn_experiment


def test_bench_knn(spark, run_table):
    df = run_table("e10_knn", knn_experiment, spark)
    assert (df["k"] == 10).all()
