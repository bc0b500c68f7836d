"""E3 (paper Fig 11): query scalability — j·100 queries on j nodes.

Usage: ``spark-submit jobs/query_scalability.py [--seed 0]``
prints the table of ``results/e3_query_scalability.csv``.
"""
from common import base_parser, get_spark

from repro.experiments.harness import query_scalability


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("odyssey-query-scalability")
    query_scalability(spark, seed=args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
