"""Tests for the Structured Streaming VOS operator (repro.core.streaming).

The invariant: whatever micro-batch boundaries the engine picks, the
assembled bit array is bit-exact equal to the batch (and hence the
sequential) build — xor order-independence made operational.
"""
import os
import tempfile
import uuid

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import streaming, vos
from repro.streams import datasets, generator

PARAMS = vos.VOSParams(k=64, m=4096, seed=7)


def _drop(chunk: pd.DataFrame, indir, name: str) -> None:
    """Write a parquet file so that it appears in ``indir`` atomically."""
    part = os.path.join(os.path.dirname(indir), f".{name}")
    chunk.to_parquet(part)
    os.replace(part, os.path.join(indir, name))


class TestPackingHelpers:
    @pytest.mark.parametrize("m,b", [(4096, 16), (4096, 64), (100, 7), (64, 64)])
    def test_bucket_slots_cover_m(self, m, b):
        assert streaming.bucket_slots(m, b) * b >= m

    def test_n_words(self):
        assert streaming._n_words(1) == 1
        assert streaming._n_words(64) == 1
        assert streaming._n_words(65) == 2


class TestBucketedPositions:
    def test_partitioning_is_cyclic(self, spark, tiny_stream_pdf):
        sdf = generator.to_spark(spark, tiny_stream_pdf.head(200))
        out = streaming.bucketed_positions(sdf, PARAMS, 16).toPandas()
        assert ((out["pos"] % 16) == out["bucket"]).all()
        assert ((out["pos"] // 16) == out["local"]).all()


@pytest.mark.parametrize("n_buckets", [8, 64])
class TestStreamEqualsBatch:
    def test_single_drain(self, spark, tiny_stream_pdf, tmp_path, n_buckets):
        indir = tmp_path / "in"
        indir.mkdir()
        tiny_stream_pdf.to_parquet(indir / "all.parquet")
        name = f"vos_t1_{n_buckets}"
        q = streaming.start_query(
            spark, str(indir), str(tmp_path / "ck"), PARAMS,
            n_buckets=n_buckets, query_name=name,
        )
        try:
            q.processAllAvailable()
            A, beta = streaming.assemble_bit_array(spark, name, PARAMS, n_buckets)
        finally:
            q.stop()
        T = int(tiny_stream_pdf["t"].max())
        A_batch, betas = vos.build_bit_arrays(
            generator.to_spark(spark, tiny_stream_pdf), PARAMS, [T]
        )
        assert (A == A_batch[0]).all()
        assert beta == pytest.approx(betas[0])

    def test_incremental_batches(self, spark, tiny_stream_pdf, tmp_path, n_buckets):
        """Drain after each file drop; every intermediate state must
        equal the batch build of that prefix."""
        T = int(tiny_stream_pdf["t"].max())
        cuts = [T // 3, 2 * T // 3, T]
        indir = tmp_path / "in"
        indir.mkdir()
        name = f"vos_t2_{n_buckets}"
        q = streaming.start_query(
            spark, str(indir), str(tmp_path / "ck"), PARAMS,
            n_buckets=n_buckets, query_name=name,
        )
        sdf_full = generator.to_spark(spark, tiny_stream_pdf)
        try:
            lo = 0
            for bi, hi in enumerate(cuts):
                chunk = tiny_stream_pdf[
                    (tiny_stream_pdf["t"] > lo) & (tiny_stream_pdf["t"] <= hi)
                ]
                _drop(chunk, str(indir), f"b{bi}.parquet")
                lo = hi
                q.processAllAvailable()
                A, beta = streaming.assemble_bit_array(spark, name, PARAMS, n_buckets)
                sink = spark.table(name).toPandas()
                assert not sink.duplicated(["bucket", "word"]).any(), (
                    "sink must hold the current words of A, not their history"
                )
                A_batch, betas = vos.build_bit_arrays(sdf_full, PARAMS, [hi])
                assert (A == A_batch[0]).all(), f"prefix t<={hi}"
                assert beta == pytest.approx(betas[0])
        finally:
            q.stop()


class TestRestart:
    def test_restart_from_checkpoint_is_bit_exact(self, spark, tiny_stream_pdf, tmp_path):
        """Stop after two files, resume on the same checkpoint, drain a
        third: A must equal the batch build of the whole prefix."""
        T = int(tiny_stream_pdf["t"].max())
        cuts = [T // 3, 2 * T // 3, T]
        indir, ckdir = tmp_path / "in", str(tmp_path / "ck")
        indir.mkdir()
        name, n_buckets = "vos_restart", 16
        chunks = [
            tiny_stream_pdf[(tiny_stream_pdf["t"] > lo) & (tiny_stream_pdf["t"] <= hi)]
            for lo, hi in zip([0] + cuts[:-1], cuts)
        ]
        q = streaming.start_query(
            spark, str(indir), ckdir, PARAMS, n_buckets=n_buckets, query_name=name
        )
        try:
            for bi in range(2):
                _drop(chunks[bi], str(indir), f"b{bi}.parquet")
                q.processAllAvailable()
        finally:
            q.stop()
        q = streaming.start_query(
            spark, str(indir), ckdir, PARAMS, n_buckets=n_buckets, query_name=name
        )
        try:
            _drop(chunks[2], str(indir), "b2.parquet")
            q.processAllAvailable()
            A, beta = streaming.assemble_bit_array(spark, name, PARAMS, n_buckets)
        finally:
            q.stop()
        A_batch, betas = vos.build_bit_arrays(
            generator.to_spark(spark, tiny_stream_pdf), PARAMS, [T]
        )
        assert (A == A_batch[0]).all()
        assert beta == pytest.approx(betas[0])


_TINY = datasets.DATASETS["tiny"]


@st.composite
def feasible_split_streams(draw):
    """A random feasible stream on the tiny scale, cut into 1–4 files.

    Events are drawn from a small pool of (user, item) edges, so most
    edges recur; each alternates +, −, +, … from its first occurrence,
    so deletions and re-insertions after a deletion are common.
    """
    pool = draw(
        st.lists(
            st.tuples(st.integers(1, _TINY.n_users), st.integers(1, _TINY.n_items)),
            min_size=1,
            max_size=60,
            unique=True,
        )
    )
    events = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=400))
    pairs = [pool[i] for i in events]
    seen: dict[tuple[int, int], int] = {}
    actions = []
    for p in pairs:
        actions.append(-1 if seen.get(p, 0) % 2 else 1)
        seen[p] = seen.get(p, 0) + 1
    n = len(pairs)
    stream = pd.DataFrame(
        {
            "t": np.arange(1, n + 1, dtype=np.int64),
            "user": np.array([u for u, _ in pairs], dtype=np.int64),
            "item": np.array([i for _, i in pairs], dtype=np.int64),
            "action": np.array(actions, dtype=np.int64),
        }
    )
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=3))
    cuts = sorted({c for c in cuts if c < n})
    return stream, [*cuts, n]


@given(feasible_split_streams())
@settings(max_examples=5, deadline=None)
def test_stream_equals_batch_equals_kernel(spark, case):
    """Streaming A == batch A == sequential VOSKernel A for random
    feasible streams and random micro-batch splits."""
    stream, cuts = case
    name, n_buckets = f"vos_prop_{uuid.uuid4().hex}", 8
    # Few shuffle partitions keep each micro-batch and the batch build
    # cheap at this input size.
    partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            indir = os.path.join(tmp, "in")
            os.mkdir(indir)
            q = streaming.start_query(
                spark, indir, os.path.join(tmp, "ck"), PARAMS,
                n_buckets=n_buckets, query_name=name,
            )
            try:
                lo = 0
                for bi, hi in enumerate(cuts):
                    _drop(stream.iloc[lo:hi], indir, f"b{bi}.parquet")
                    lo = hi
                    q.processAllAvailable()
                A, beta = streaming.assemble_bit_array(spark, name, PARAMS, n_buckets)
            finally:
                q.stop()
        A_batch, _ = vos.build_bit_arrays(
            generator.to_spark(spark, stream), PARAMS, [cuts[-1]]
        )
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", partitions)
    kernel = vos.VOSKernel(PARAMS)
    for u, i, a in stream[["user", "item", "action"]].itertuples(index=False):
        kernel.update(u, i, a)
    assert (A == A_batch[0]).all()
    assert (A == kernel.A).all()
    assert beta == kernel.beta


class TestAssemble:
    def test_empty_table_gives_zero_array(self, spark, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        name = "vos_empty"
        q = streaming.start_query(
            spark, str(indir), str(tmp_path / "ck"), PARAMS, query_name=name
        )
        try:
            q.processAllAvailable()
            A, beta = streaming.assemble_bit_array(spark, name, PARAMS)
            assert A.sum() == 0 and beta == 0.0
        finally:
            q.stop()
