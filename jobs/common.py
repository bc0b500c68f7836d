"""Shared SparkSession bootstrap for spark-submit entrypoints.

Jobs are thin wrappers over ``repro.experiments.harness`` functions, which
take a SparkSession and return a pandas table — the same code paths the
tests and benchmarks exercise. A job runs its function with the defaults,
the configuration of its table in ``results/``.
"""
import argparse

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    return p
