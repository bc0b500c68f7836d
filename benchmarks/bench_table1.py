"""T1: dataset registry table (paper Table 1)."""
from repro.experiments.harness import dataset_table


def test_bench_table1(run_table):
    df = run_table("table1_datasets", dataset_table)
    assert len(df) == 6
