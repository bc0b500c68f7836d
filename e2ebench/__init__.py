"""Layered end-to-end benchmark of the Odyssey distributed search operator.

Run ``python3 e2ebench/run.py --help`` from the repository root.
"""
