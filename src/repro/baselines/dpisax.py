"""DPiSAX baseline (Yagoubi et al., re-implemented per paper §5).

DPiSAX samples the collection, computes the samples' iSAX words, and
splits the *iSAX word space* into contiguous ranges of equal sample mass
— each node indexes one range. Similar series therefore land on the same
node (the locality the paper's DENSITY-AWARE scheme deliberately avoids).
Query answering (as in the paper's fair comparison) is MESSI per node
with local-only BSFs, so a DPiSAX layout is searched with
``dmessi_search``; the coordinator merges the partial answers.
"""
import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..distributed.engine import to_pandas
from ..distributed.partitioning import (
    check_n_chunks,
    cut_index,
    isax_word_col,
    one_chunk_per_partition,
)

#: bits per segment of the sortable iSAX word
WORD_BITS = 3
#: share of the words sampled for the cut points, and the sample's seed
SAMPLE_FRACTION = 0.2
SAMPLE_SEED = 0


def dpisax_partition(df: DataFrame, n_chunks: int) -> DataFrame:
    """Assign ``chunk_id`` by sampled iSAX-word range partitioning.

    The sample is drawn on the driver with a numpy RNG seeded by
    ``SAMPLE_SEED``, over the words in id order, so the cut points are the
    same however Spark splits the input (Spark's ``sample`` is seeded per
    input partition). The layout is built once and held as a local
    checkpoint (memory and disk), so the iSAX-word UDF runs in set-up only
    (for the sample and for the layout), not per pass; ``free_layout``
    frees it.
    Series that differ in length raise ``ValueError``."""
    with_word = df.withColumn("isax_word", isax_word_col(WORD_BITS))
    words = to_pandas(with_word.select("id", "isax_word")).sort_values("id")["isax_word"].to_numpy()
    check_n_chunks(n_chunks, len(words))
    size = max(1, round(SAMPLE_FRACTION * len(words)))
    sample = np.sort(np.random.default_rng(SAMPLE_SEED).choice(words, size=size, replace=False))
    # n_chunks - 1 split points at equal sample mass
    cuts = [
        float(sample[min(len(sample) - 1, int(np.ceil(len(sample) * i / n_chunks)))])
        for i in range(1, n_chunks)
    ]
    chunked = with_word.withColumn("chunk_id", cut_index(F.col("isax_word"), cuts))
    return one_chunk_per_partition(chunked.drop("isax_word"), n_chunks)

