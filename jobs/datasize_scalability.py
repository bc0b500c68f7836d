"""E4 (paper Fig 12): query time vs dataset size, 8 nodes, all strategies.

Usage: ``spark-submit jobs/datasize_scalability.py [--seed 0]``
prints the table of ``results/e4_datasize.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import datasize_scalability


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-datasize")
    datasize_scalability(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
