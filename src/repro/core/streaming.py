"""VOS as a Structured Streaming stateful operator.

This is the distributed-dataflow form of the paper's algorithm: edge
events (user, item, action) arrive on a stream; each event must be
absorbed into the shared bit array A with O(1) work and the sketch must
be queryable at any time.

Layout. The bit array A (m bits) is partitioned cyclically into
``n_buckets`` key groups: position p lives in bucket ``p % n_buckets``
at local slot ``p // n_buckets``. The stream is hashed to positions
with the same ``pandas_udf`` the batch build uses.

State. Each bucket's slice of A is packed into 64-bit words, and each
word is one state row: a built-in streaming aggregation
``groupBy(bucket, word = local >> 6).agg(bit_xor(1 << (local % 64)))``
kept by the JVM state store, with no Python in the stateful stage. An
edge touches one word, so a micro-batch with e edges does O(e) work.
Because xor is commutative, the result is bit-exact equal to the
sequential algorithm however the engine batches or orders events (the
paper's order-independence of A, and the same parity argument the batch
build uses).

Output. The memory sink runs in ``complete`` mode, so after every
micro-batch it holds exactly the current words, at most
``n_buckets × _n_words(bucket_slots(m, n_buckets))`` rows, never their
history. ``assemble_bit_array`` scatters them back into (A, β).

Restart. The aggregation state lives under ``checkpointLocation``: a
query stopped and started again on the same location resumes from the
committed words. The new sink is empty until the resumed query runs its
first micro-batch, which rewrites every word.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..streams.generator import STREAM_SCHEMA
from . import vos


def bucket_slots(m: int, n_buckets: int) -> int:
    """Slots per bucket under cyclic partitioning (uniform, padded)."""
    return (m + n_buckets - 1) // n_buckets


def _n_words(slots: int) -> int:
    return (slots + 63) // 64


def bucketed_positions(
    edges: DataFrame, params: vos.VOSParams, n_buckets: int
) -> DataFrame:
    """Append (bucket, local) — the key-group layout of each edge's flip."""
    return (
        vos.with_positions(edges, params)
        .withColumn("bucket", F.col("pos") % F.lit(n_buckets))
        .withColumn("local", (F.col("pos") / F.lit(n_buckets)).cast("long"))
    )


def start_query(
    spark: SparkSession,
    input_dir: str,
    checkpoint_dir: str,
    params: vos.VOSParams,
    *,
    n_buckets: int = 64,
    query_name: str = "vos_updates",
):
    """Start the streaming VOS build over a parquet file source.

    New parquet files dropped into ``input_dir`` (STREAM_SCHEMA rows)
    are absorbed into the packed words of A; call
    ``query.processAllAvailable()`` to drain, then
    ``assemble_bit_array`` to materialise (A, β).
    """
    edges = spark.readStream.schema(STREAM_SCHEMA).parquet(input_dir)
    words = (
        bucketed_positions(edges, params, n_buckets)
        .groupBy("bucket", F.shiftright("local", 6).alias("word"))
        .agg(F.bit_xor(F.expr("shiftleft(1L, int(local % 64))")).alias("bits"))
    )
    return (
        words.writeStream.format("memory")
        .queryName(query_name)
        .outputMode("complete")
        .option("checkpointLocation", checkpoint_dir)
        .start()
    )


def assemble_bit_array(
    spark: SparkSession, query_name: str, params: vos.VOSParams, n_buckets: int = 64
) -> tuple[np.ndarray, float]:
    """Scatter the memory-sink words into (A, β)."""
    pdf = spark.table(query_name).toPandas()
    slots = bucket_slots(params.m, n_buckets)
    words = np.zeros((n_buckets, _n_words(slots)), dtype=np.uint64)
    words[pdf["bucket"].to_numpy(np.int64), pdf["word"].to_numpy(np.int64)] = (
        pdf["bits"].to_numpy(np.int64).view(np.uint64)
    )
    # Row b holds bucket b's slots in order; position p = local·n_buckets + b,
    # so A is the (slot, bucket) transpose read row-major.
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    A = bits.T.reshape(-1)[: params.m]
    return A, float(A.mean())
