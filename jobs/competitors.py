"""E9 (paper Fig 17d): Odyssey vs DMESSI, DMESSI-SW-BSF, DPiSAX.

Usage: ``spark-submit jobs/competitors.py [--seed 0]``
prints the table of ``results/e9_competitors.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import competitors


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-competitors")
    competitors(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
