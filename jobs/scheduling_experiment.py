"""E2 (paper Fig 10): scheduling policies under FULL replication.

Usage: ``spark-submit jobs/scheduling_experiment.py [--seed 0]``
prints the table of ``results/e2_scheduling.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import scheduling_experiment


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-scheduling")
    scheduling_experiment(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
