"""E9: Odyssey vs DMESSI, DMESSI-SW-BSF, DPiSAX (paper Fig 17d)."""
from repro.experiments.harness import competitors


def test_bench_competitors(spark, run_table):
    df = run_table("e9_competitors", competitors, spark)
    assert len(df) == 6
