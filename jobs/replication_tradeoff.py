"""E7 (paper Fig 15/16): replication trade-off, WORK-STEAL-PREDICT.

Usage: ``spark-submit jobs/replication_tradeoff.py [--seed 0]``
prints the table of ``results/e7_replication.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import replication_tradeoff


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-replication")
    replication_tradeoff(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
