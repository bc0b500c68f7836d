"""E6 (paper Fig 14): total index size per replication strategy.

Usage: ``spark-submit jobs/index_size.py``
prints the table of ``results/e6_index_size.csv``.
"""
import argparse

from common import get_spark

from repro.experiments.harness import index_size_table


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    spark = get_spark("odyssey-index-size")
    index_size_table(spark)
    spark.stop()


if __name__ == "__main__":
    main()
