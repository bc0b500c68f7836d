"""E11 (paper Fig 19): DTW with 5% warping vs nodes × replication.

Usage: ``spark-submit jobs/dtw_experiment.py [--seed 0]``
prints the table of ``results/e11_dtw.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import dtw_experiment


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-dtw")
    dtw_experiment(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
