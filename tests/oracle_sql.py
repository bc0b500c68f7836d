"""DuckDB correctness oracle: shared (k-)NN SQL over long-format series
tables, and the check that runs it.

The engine's answers are checked row-for-row against brute-force SQL:
series and queries are unpivoted to ``(id|qid, pos, val)`` and the NN is
computed by join + group-by, ranked with deterministic id tie-breaking —
the exact merge semantics the coordinator uses.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


NN_SQL = """
WITH dists AS (
    SELECT q.qid AS query_id, s.id AS nn_id,
           sqrt(sum((s.val - q.val) * (s.val - q.val))) AS nn_dist
    FROM series s JOIN queries q ON s.pos = q.pos
    GROUP BY q.qid, s.id
), ranked AS (
    SELECT query_id, nn_dist, nn_id,
           row_number() OVER (PARTITION BY query_id ORDER BY nn_dist, nn_id) AS rn
    FROM dists
)
SELECT query_id, nn_dist, nn_id FROM ranked WHERE rn = 1
"""


def knn_sql(k: int) -> str:
    return f"""
WITH dists AS (
    SELECT q.qid AS query_id, s.id AS nn_id,
           sqrt(sum((s.val - q.val) * (s.val - q.val))) AS nn_dist
    FROM series s JOIN queries q ON s.pos = q.pos
    GROUP BY q.qid, s.id
), ranked AS (
    SELECT query_id, nn_dist, nn_id,
           row_number() OVER (PARTITION BY query_id ORDER BY nn_dist, nn_id) AS rn
    FROM dists
)
SELECT query_id, rn AS rank, nn_dist, nn_id FROM ranked WHERE rn <= {k}
"""
