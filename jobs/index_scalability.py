"""E8 (paper Fig 17a-c): index build scalability, EQUALLY-SPLIT.

Usage: ``spark-submit jobs/index_scalability.py [--seed 0]``
prints the table of ``results/e8_index_scalability.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import index_scalability


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-index-scalability")
    index_scalability(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
