"""T1 (paper Table 1): dataset registry at mini scale.

Usage: ``spark-submit jobs/table1_datasets.py [--sf 1.0]``
prints the table of ``results/table1_datasets.csv``.
"""
import argparse

from repro.experiments.harness import dataset_table


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--sf", type=float, default=1.0, help="dataset scale factor")
    args = p.parse_args()
    dataset_table(sf=args.sf)


if __name__ == "__main__":
    main()
