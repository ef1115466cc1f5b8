"""Self-tests of the DuckDB oracle harness (repro.oracle) on the tiny
stream: it must agree with a correct Spark result and fail loudly on a
wrong one."""
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestOracleIntegration:
    def test_aggregation_query(self, tiny_stream_sdf, tiny_stream_pdf):
        """A join+aggregate through Catalyst equals DuckDB — exercises
        the oracle exactly as the estimator tests rely on it."""
        deg = tiny_stream_sdf.groupBy("item").agg(F.count(F.lit(1)).alias("deg"))
        q = (
            tiny_stream_sdf.join(deg, "item")
            .groupBy("action")
            .agg(F.count(F.lit(1)).alias("n"), F.sum("deg").alias("deg_sum"))
        )
        assert_equivalent(
            q,
            """
            SELECT action, COUNT(*) AS n, SUM(deg) AS deg_sum
            FROM stream
            JOIN (SELECT item, COUNT(*) AS deg FROM stream GROUP BY item) d
              USING (item)
            GROUP BY action
            """,
            stream=tiny_stream_pdf,
        )

    def test_oracle_catches_wrong_result(self, tiny_stream_sdf, tiny_stream_pdf):
        """The oracle must fail loudly on a wrong Spark answer."""
        wrong = tiny_stream_sdf.groupBy("action").agg(
            (F.count(F.lit(1)) + 1).alias("n")  # off-by-one on purpose
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT action, COUNT(*) AS n FROM stream GROUP BY action",
                stream=tiny_stream_pdf,
            )

    def test_oracle_catches_column_mismatch(self, tiny_stream_sdf, tiny_stream_pdf):
        q = tiny_stream_sdf.groupBy("action").agg(F.count(F.lit(1)).alias("wrong_name"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                q,
                "SELECT action, COUNT(*) AS n FROM stream GROUP BY action",
                stream=tiny_stream_pdf,
            )
