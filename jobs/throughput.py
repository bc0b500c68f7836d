"""E5 (paper Fig 13): WORK-STEAL query throughput vs nodes (FULL).

Usage: ``spark-submit jobs/throughput.py [--seed 0]``
prints the table of ``results/e5_throughput.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import throughput


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-throughput")
    throughput(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
