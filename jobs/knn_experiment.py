"""E10 (paper Fig 18): 10-NN query answering vs nodes × replication.

Usage: ``spark-submit jobs/knn_experiment.py [--seed 0]``
prints the table of ``results/e10_knn.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import knn_experiment


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-knn")
    knn_experiment(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
