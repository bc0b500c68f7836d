"""Data partitioning (paper §3.4): EQUALLY-SPLIT and DENSITY-AWARE.

Both take a series DataFrame ``(id, series)`` and return its layout: one
row per series with an INT ``chunk_id`` in ``[0, n_chunks)``, chunk ``c``
exactly Spark partition ``c`` (``one_chunk_per_partition``), so the
engine's per-partition scan runs every chunk as its own parallel task. The
layout also holds each chunk's iSAX index: the chunk's rows are written in
the leaf order of the index built over them, with each row's leaf
(``engine.LAYOUT_SCHEMA``; ``series`` is then L float64s as bytes). The
layout and its indexes are built once, when the partitioner returns, and
held as a local checkpoint (memory and disk), so every search pass loads
resident indexes and builds none; bad series fail there, as a driver-side
``ValueError``. ``free_layout`` frees the layout.
EQUALLY-SPLIT assigns contiguous ranges in id (storage) order, optionally
after random shuffling (the paper's "RS"). DENSITY-AWARE orders the
summarization buffers by Gray code, stripes the λ largest buffers across
all chunks series-by-series, assigns the remaining buffers round-robin in
Gray order, and rebalances by striping the largest buffer of the most
loaded chunk until chunk loads are within tolerance — so similar series
end up on *different* nodes.
"""
import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.isax import MAX_BITS, W, inverse_gray, pack_symbols, symbols
from ..core.paa import paa
from .engine import build_layout, drop_zip_finders, run_job, to_pandas

#: bits per segment of a summarization-buffer word (16-bit words)
BUFFER_BITS = 2


def check_n_chunks(n_chunks: int, n_series: int) -> None:
    """Driver-side check every partitioner runs before planning: each of
    the ``n_chunks`` chunks must be able to hold at least one series."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be at least 1, got {n_chunks}")
    if n_chunks > n_series:
        raise ValueError(
            f"n_chunks={n_chunks} exceeds the number of series ({n_series})"
        )


def one_chunk_per_partition(df: DataFrame, n_chunks: int) -> DataFrame:
    """Lay out a DataFrame with a ``chunk_id`` column so that chunk ``c``
    is exactly Spark partition ``c``, build each chunk's index once and
    hold the layout with it as a local checkpoint.

    ``repartitionById`` places rows by the value of an INT column, so the
    engine's per-partition scan (``mapInArrow``) finds each chunk whole in
    one partition and adds no exchange. ``chunk_id`` is cast here, once, so
    the layout's column is the INT the partition id came from. Hash
    partitioning (``repartition(n, "chunk_id")``) can send two chunk ids to
    one partition, range partitioning samples its bounds, and a shuffle
    without a partition count is merged by adaptive execution. A single
    chunk needs no shuffle at all.

    One Arrow map over each partition then builds its chunk's iSAX index
    and writes the chunk's rows in the index's leaf order
    (``engine.build_layout``): one row per series, its series as bytes, its
    leaf and the leaf's cardinalities, so a scan loads the index instead of
    building it. Bad series (empty, ragged or not finite) fail here, as a
    driver-side ``ValueError`` naming the chunk.

    The built rows are a local checkpoint (``localCheckpoint()``: kept in
    the executors' block managers, memory and disk), written here by one
    count of its RDD, so every later scan reads the resident chunks and nothing
    upstream of them (the local scan, the shuffle, a partitioner's UDFs,
    the index build) runs again. The returned layout's plan is one
    ``LogicalRDD`` over the checkpointed rows, one partition per chunk: a
    scan neither re-plans nor ships the input the layout was built from,
    and decodes no columnar cache. The build is eager so that this
    one-time work is set-up. A failed build frees what it checkpointed;
    otherwise the caller frees the layout with ``free_layout``, after
    which its scans raise instead of rebuilding it."""
    df = df.withColumn("chunk_id", F.col("chunk_id").cast("int"))
    if n_chunks == 1:
        df = df.coalesce(1)
    else:
        df = df.repartitionById(n_chunks, "chunk_id")
    # planning the checkpoint runs the shuffle, where bad input can fail too
    layout = run_job(lambda: build_layout(df).localCheckpoint(eager=False))
    try:
        # one job over the rows; a DataFrame count adds an aggregate stage
        run_job(_checkpoint(layout).count)
    except BaseException:
        free_layout(layout)
        raise
    return layout


def _checkpoint(layout: DataFrame):
    """The JVM RDD of checkpointed rows that a layout's plan reads."""
    return layout._jdf.queryExecution().analyzed().rdd()


def free_layout(layout: DataFrame) -> None:
    """Free a partitioner's layout: drop its checkpointed rows from the
    block managers (``unpersist()`` does not free a checkpoint). Scans of
    the layout raise afterwards."""
    _checkpoint(layout).unpersist(True)


def cut_index(col: Column, cuts) -> Column:
    """Number of ``cuts`` that ``col`` reaches: the chunk of a value under
    ascending cut points."""
    chunk = F.lit(0)
    for c in cuts:
        chunk = chunk + (col >= F.lit(c)).cast("int")
    return chunk


def equally_split(
    df: DataFrame, n_chunks: int, *, shuffle: bool = False, seed: int = 0
) -> DataFrame:
    """Contiguous equal chunks in id (storage) order; ``shuffle=True``
    applies the paper's random-shuffling variant first.

    The contiguous split is ``ntile(n_chunks)`` over ``id`` (ids must be
    unique), computed once here: the driver sorts the ids and turns the
    chunk boundaries into cut ids. The layout is built once and held as
    a local checkpoint (memory and disk); ``free_layout`` frees it."""
    if shuffle:
        check_n_chunks(n_chunks, df.count())
        chunk = F.pmod(F.xxhash64(F.col("id"), F.lit(seed)), F.lit(n_chunks))
    else:
        ids = np.sort(df.select("id").toPandas()["id"].to_numpy())
        check_n_chunks(n_chunks, len(ids))
        # as ntile: the first len % n_chunks chunks hold one series more
        q, r = divmod(len(ids), n_chunks)
        cuts = [int(ids[j * q + min(j, r)]) for j in range(1, n_chunks)]
        chunk = cut_index(F.col("id"), cuts)
    return one_chunk_per_partition(df.withColumn("chunk_id", chunk), n_chunks)


def series_matrix(series: pd.Series) -> np.ndarray:
    """The ``(n, L)`` matrix of a pandas UDF's series column. Raises
    ``ValueError`` giving the length range when the series are empty or
    differ in length (``engine.to_pandas`` raises it on the driver)."""
    lengths = series.map(lambda s: 0 if s is None else len(s))
    if lengths.min() == 0 or lengths.min() != lengths.max():
        raise ValueError(
            "series must be non-empty and of one length, "
            f"got lengths {lengths.min()} to {lengths.max()}"
        )
    return np.stack(series.to_numpy())


def isax_words_np(data: np.ndarray, bits: int) -> np.ndarray:
    """Sortable iSAX word per series: the top ``bits`` bits of each
    segment's symbol, packed into one integer."""
    syms = symbols(paa(np.asarray(data, dtype=np.float64), W), MAX_BITS)
    return pack_symbols(syms >> (MAX_BITS - bits), bits)


def isax_word_col(bits: int) -> Column:
    """The ``isax_words_np`` word of each row's ``series``, from a pandas
    UDF. Series that differ in length raise ``ValueError``."""

    @F.pandas_udf(T.LongType())
    def _word(series: pd.Series) -> pd.Series:
        drop_zip_finders()
        return pd.Series(isax_words_np(series_matrix(series), bits))

    return _word("series")


def plan_buffer_assignment(
    counts: pd.DataFrame, n_chunks: int, *, lam: int = 8, tol: float = 0.05
) -> pd.DataFrame:
    """Driver-side DENSITY-AWARE plan over the (small) buffer histogram.

    ``counts`` has columns ``buffer``/``count``. Returns one row per buffer
    with ``chunk_id`` (-1 means "stripe this buffer across all chunks").
    Pure pandas so tests can exercise the balancing logic directly. λ is 8
    at mini scale (the paper uses 400 at 100M series and reports stability
    across a wide λ range)."""
    counts = counts.copy()
    counts["rank"] = inverse_gray(counts["buffer"].to_numpy())
    counts = counts.sort_values("rank").reset_index(drop=True)
    striped = set(
        counts.nlargest(min(lam, len(counts)), "count")["buffer"].tolist()
    )
    loads = np.zeros(n_chunks)
    assign: dict[int, int] = {}
    rr = 0
    for _, row in counts.iterrows():
        b, c = int(row["buffer"]), int(row["count"])
        if b in striped:
            loads += c / n_chunks
            continue
        assign[b] = rr % n_chunks
        loads[rr % n_chunks] += c
        rr += 1
    # rebalance: stripe the largest buffer of the most loaded chunk
    by_chunk = {b: ch for b, ch in assign.items()}
    cnt = dict(zip(counts["buffer"].astype(int), counts["count"].astype(int)))
    for _ in range(len(counts)):
        mean = loads.mean()
        if mean <= 0 or loads.max() <= (1 + tol) * mean:
            break
        worst = int(np.argmax(loads))
        cands = [b for b, ch in by_chunk.items() if ch == worst]
        if not cands:
            break
        victim = max(cands, key=lambda b: cnt[b])
        striped.add(victim)
        del by_chunk[victim]
        del assign[victim]
        loads[worst] -= cnt[victim]
        loads += cnt[victim] / n_chunks
    out = counts[["buffer", "count"]].copy()
    out["chunk_id"] = [assign.get(int(b), -1) for b in out["buffer"]]
    return out


def density_aware(df: DataFrame, n_chunks: int) -> DataFrame:
    """DENSITY-AWARE partitioning (paper §3.4.1, Gray-code buffer order),
    with ``plan_buffer_assignment``'s λ and tolerance.

    The layout is built once and held as a local checkpoint (memory and
    disk), so the buffer UDF, join and window run once, not per pass;
    ``free_layout`` frees it. Series that differ in length raise
    ``ValueError``."""
    df = df.withColumn("buffer", isax_word_col(BUFFER_BITS))
    counts = to_pandas(df.groupBy("buffer").count())
    check_n_chunks(n_chunks, int(counts["count"].sum()))
    plan = plan_buffer_assignment(counts, n_chunks)
    spark = df.sparkSession
    plan_df = spark.createDataFrame(plan[["buffer", "chunk_id"]].rename(columns={"chunk_id": "planned"}))
    joined = df.join(plan_df, on="buffer", how="left")
    # striped buffers (planned = -1): exact round-robin inside the buffer
    win = Window.partitionBy("buffer").orderBy("id")
    rr = F.pmod(F.row_number().over(win) - 1, F.lit(n_chunks))
    out = joined.withColumn(
        "chunk_id", F.when(F.col("planned") >= 0, F.col("planned")).otherwise(rr)
    )
    return one_chunk_per_partition(out.drop("buffer", "planned"), n_chunks)
