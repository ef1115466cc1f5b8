"""Tests for the exact ground-truth engine (repro.baselines.exact),
cross-checked against DuckDB via the oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines import exact
from repro.oracle import assert_equivalent, query
from repro.streams import generator

PRESENT_SQL = """
    SELECT "user", item FROM (
        SELECT "user", item, COUNT(*) AS cnt FROM stream {where}
        GROUP BY "user", item
    ) WHERE cnt % 2 = 1
"""


def pairs_sql(t: int, users) -> str:
    """DuckDB self-join: s (as s_final) for every u < v among ``users``
    sharing ≥ 1 item at time t."""
    inner = PRESENT_SQL.format(where=f"WHERE t <= {t}")
    ids = ", ".join(str(int(u)) for u in users)
    return f"""
        SELECT a."user" AS u, b."user" AS v, COUNT(*) AS s_final
        FROM ({inner}) a JOIN ({inner}) b
          ON a.item = b.item AND a."user" < b."user"
        WHERE a."user" IN ({ids}) AND b."user" IN ({ids})
        GROUP BY a."user", b."user"
    """


class TestPresent:
    @pytest.mark.parametrize("frac", [0.3, 0.6, 1.0])
    def test_vs_duckdb(self, tiny_stream_sdf, tiny_stream_pdf, frac):
        T = int(tiny_stream_pdf["t"].max())
        t = int(T * frac)
        sql = PRESENT_SQL.format(where=f"WHERE t <= {t}")
        assert_equivalent(exact.present(tiny_stream_sdf, t), sql, stream=tiny_stream_pdf)

    def test_full_stream_default(self, tiny_stream_sdf, tiny_stream_pdf):
        sql = PRESENT_SQL.format(where="")
        assert_equivalent(exact.present(tiny_stream_sdf), sql, stream=tiny_stream_pdf)

    def test_matches_pandas_net_state(self, tiny_stream_sdf, tiny_stream_pdf):
        T = int(tiny_stream_pdf["t"].max())
        got = set(map(tuple, exact.present(tiny_stream_sdf, T // 2).collect()))
        ns = generator.net_state(tiny_stream_pdf, T // 2)
        assert got == set(map(tuple, ns[["user", "item"]].values))


class TestCardinalities:
    @pytest.mark.parametrize("frac", [0.5, 1.0])
    def test_vs_duckdb(self, tiny_stream_sdf, tiny_stream_pdf, frac):
        T = int(tiny_stream_pdf["t"].max())
        t = int(T * frac)
        inner = PRESENT_SQL.format(where=f"WHERE t <= {t}")
        assert_equivalent(
            exact.cardinalities(tiny_stream_sdf, t),
            f'SELECT "user", COUNT(*) AS n FROM ({inner}) GROUP BY "user"',
            stream=tiny_stream_pdf,
        )

    def test_equals_action_sum(self, tiny_stream_sdf):
        """Parity cardinality == running Σ action (feasibility check)."""
        card = {r["user"]: r["n"] for r in exact.cardinalities(tiny_stream_sdf).collect()}
        sums = {
            r["user"]: r["s"]
            for r in tiny_stream_sdf.groupBy("user").agg(F.sum("action").alias("s")).collect()
        }
        for u, s in sums.items():
            assert card.get(u, 0) == s


class TestSelectTracked:
    def test_vs_duckdb(self, tiny_stream_sdf, tiny_stream_pdf):
        users, pairs = exact.select_tracked(tiny_stream_sdf, 8)
        T = int(tiny_stream_pdf["t"].max())
        assert_equivalent(pairs, pairs_sql(T, users), stream=tiny_stream_pdf)
        assert pairs.equals(pairs.sort_values(["u", "v"], ignore_index=True))

    def test_top_n_by_cardinality(self, tiny_stream_sdf, tiny_stream_pdf):
        users, pairs = exact.select_tracked(tiny_stream_sdf, 8)
        assert len(users) == 8
        card = generator.net_state(tiny_stream_pdf).groupby("user").size()
        worst_tracked = min(card.get(u, 0) for u in users)
        untracked = card.drop(index=[u for u in users if u in card.index])
        if len(untracked):
            assert worst_tracked >= untracked.max()

    def test_pairs_share_an_item(self, tiny_stream_sdf):
        users, pairs = exact.select_tracked(tiny_stream_sdf, 8)
        assert (pairs["s_final"] >= 1).all()
        assert pairs[["u", "v"]].isin(users.tolist()).all().all()

    def test_deterministic(self, tiny_stream_sdf):
        u1, p1 = exact.select_tracked(tiny_stream_sdf, 5)
        u2, p2 = exact.select_tracked(tiny_stream_sdf, 5)
        assert (u1 == u2).all()
        assert p1.equals(p2)


class TestExactOverTime:
    @pytest.fixture(scope="class")
    def tracked(self, tiny_stream_sdf):
        return exact.select_tracked(tiny_stream_sdf, 8)

    def test_final_checkpoint_matches_pair_commons(
        self, tiny_stream_sdf, tiny_stream_pdf, tracked
    ):
        """s at the last checkpoint equals select_tracked's s_final."""
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        out = exact.exact_over_time(tiny_stream_sdf, users, pairs, [T // 2, T])
        final = out[out["ckpt"] == 1]
        merged = final.merge(pairs, on=["u", "v"], validate="1:1")
        assert (merged["s"] == merged["s_final"]).all()

    def test_midpoint_matches_duckdb(self, tiny_stream_sdf, tiny_stream_pdf, tracked):
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        out = exact.exact_over_time(tiny_stream_sdf, users, pairs, [T // 2])
        sql = query(pairs_sql(T // 2, users), stream=tiny_stream_pdf)
        expect = out[["u", "v"]].merge(sql, on=["u", "v"], how="left")["s_final"]
        assert (out["s"] == expect.fillna(0)).all()

    def test_cardinalities_match(self, tiny_stream_sdf, tiny_stream_pdf, tracked):
        users, pairs = tracked
        T = int(tiny_stream_pdf["t"].max())
        out = exact.exact_over_time(tiny_stream_sdf, users, pairs, [T])
        card = generator.net_state(tiny_stream_pdf).groupby("user").size()
        for _, row in out.iterrows():
            assert row["n_u"] == card.get(row["u"], 0)
            assert row["n_v"] == card.get(row["v"], 0)

    def test_jaccard_consistent(self, tiny_stream_sdf, tracked):
        users, pairs = tracked
        out = exact.exact_over_time(tiny_stream_sdf, users, pairs, [1000, 2000])
        expect = out["s"] / (out["n_u"] + out["n_v"] - out["s"]).clip(lower=1)
        np.testing.assert_allclose(out["j"], expect.where(out["s"] > 0, 0.0), atol=1e-9)

    def test_pair_user_missing_from_users_rejected(self, tiny_stream_sdf):
        """A pair member outside ``users`` has no membership row; it must
        not be reported as an empty set."""
        pairs = pd.DataFrame({"u": [1, 5, 2], "v": [2, 1, 7]})
        with pytest.raises(ValueError, match=r"not in users: \[5, 7\]"):
            exact.exact_over_time(tiny_stream_sdf, [1, 2, 3], pairs, [10])

    def test_edgeless_users_give_zero_rows(self, tiny_stream_sdf):
        """Tracked users with no edge at all still get one all-zero row
        per pair and checkpoint."""
        pairs = pd.DataFrame({"u": [99_998], "v": [99_999]})
        out = exact.exact_over_time(tiny_stream_sdf, [99_998, 99_999], pairs, [10, 20])
        assert len(out) == 2
        assert (out[["s", "n_u", "n_v", "j"]] == 0).all().all()
