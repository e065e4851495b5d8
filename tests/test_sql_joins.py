"""Tests for SQL join strategies (hash equi-join + nested spatial loop)."""

import numpy as np
import pytest

from repro.engine.table import Table
from repro.sql.executor import Session


@pytest.fixture()
def session():
    roads = Table("roads", [("road_id", "int64"), ("class", "int64")])
    roads.append_columns({"road_id": [1, 2, 3, 4], "class": [1, 1, 2, 3]})

    counts = Table("counts", [("road_id", "int64"), ("vehicles", "int64")])
    counts.append_columns(
        {
            "road_id": [1, 1, 2, 3, 9],
            "vehicles": [100, 150, 80, 40, 999],
        }
    )
    session = Session()
    session.register_table(roads, point_columns=None)
    session.register_table(counts, point_columns=None)
    return session


class TestHashEquiJoin:
    def test_basic_join(self, session):
        result = session.execute(
            "SELECT r.road_id, c.vehicles FROM roads r, counts c "
            "WHERE r.road_id = c.road_id ORDER BY c.vehicles"
        )
        assert sorted(result.rows) == [(1, 100), (1, 150), (2, 80), (3, 40)]

    def test_join_on_syntax(self, session):
        result = session.execute(
            "SELECT count(*) FROM roads r JOIN counts c ON r.road_id = c.road_id"
        )
        assert result.scalar() == 4

    def test_join_with_single_table_filters(self, session):
        result = session.execute(
            "SELECT r.road_id, c.vehicles FROM roads r, counts c "
            "WHERE r.road_id = c.road_id AND r.class = 1 AND c.vehicles > 90"
        )
        assert sorted(result.rows) == [(1, 100), (1, 150)]

    def test_join_with_cross_table_residual(self, session):
        result = session.execute(
            "SELECT count(*) FROM roads r, counts c "
            "WHERE r.road_id = c.road_id AND c.vehicles > r.class * 50"
        )
        # pairs: (1,100):100>50 ok, (1,150) ok, (2,80):80>50 ok, (3,40):40>100 no
        assert result.scalar() == 3

    def test_join_aggregate(self, session):
        result = session.execute(
            "SELECT r.class, sum(c.vehicles) FROM roads r, counts c "
            "WHERE r.road_id = c.road_id GROUP BY r.class ORDER BY 1"
        )
        assert result.rows == [(1, 330), (2, 40)]

    def test_unmatched_rows_excluded(self, session):
        result = session.execute(
            "SELECT count(*) FROM roads r, counts c WHERE r.road_id = c.road_id "
            "AND c.road_id = 9"
        )
        assert result.scalar() == 0

    def test_unqualified_ambiguous_key(self, session):
        # road_id exists in both tables -> bare ref is ambiguous, but the
        # equality between two qualified refs still hash-joins.
        result = session.execute(
            "SELECT count(*) FROM roads, counts "
            "WHERE roads.road_id = counts.road_id"
        )
        assert result.scalar() == 4

    def test_self_equality_not_a_join(self, session):
        # a.col = a.col within one table must not be treated as a join key.
        result = session.execute(
            "SELECT count(*) FROM roads r, counts c "
            "WHERE r.road_id = r.road_id AND c.road_id = 1"
        )
        assert result.scalar() == 4 * 2  # cross product of 4 roads x 2 rows


class TestMixedJoin:
    def test_hash_join_matches_nested_loop(self):
        """The hash path and the generic path must agree."""
        rng = np.random.default_rng(8)
        a = Table("a", [("k", "int64"), ("v", "int64")])
        a.append_columns(
            {
                "k": rng.integers(0, 20, 200),
                "v": rng.integers(0, 100, 200),
            }
        )
        b = Table("b", [("k", "int64"), ("w", "int64")])
        b.append_columns(
            {
                "k": rng.integers(0, 20, 150),
                "w": rng.integers(0, 100, 150),
            }
        )
        session = Session()
        session.register_table(a, point_columns=None)
        session.register_table(b, point_columns=None)
        got = session.execute(
            "SELECT count(*) FROM a, b WHERE a.k = b.k"
        ).scalar()
        ak = a.column("k").values
        bk = b.column("k").values
        want = sum(int((bk == k).sum()) for k in ak)
        assert got == want


class TestGroupedAcrossStrategies:
    """One grouped query with a string key and two keys must give the
    same rows through every join strategy."""

    @pytest.fixture()
    def grouped(self):
        rng = np.random.default_rng(13)
        n = 240
        fact = {
            "k": rng.integers(0, 6, n),
            "g": rng.integers(0, 3, n),
            "v": rng.integers(-50, 50, n),
        }
        names = ["beta", "alpha", "gamma", "alpha", "delta", "beta"]
        f = Table("f", [("k", "int64"), ("g", "int64"), ("v", "int64")])
        f.append_columns(fact)
        session = Session()
        session.register_table(f, point_columns=None)
        session.register_columns("d", {"k": list(range(6)), "name": names})
        session.register_columns(
            "fd",
            {
                "name": [names[k] for k in fact["k"]],
                "g": fact["g"],
                "v": fact["v"],
            },
        )
        expected = {}
        for k, g, v in zip(fact["k"], fact["g"], fact["v"]):
            expected.setdefault((names[k], int(g)), []).append(int(v))
        want = [
            (name, g, len(vs), sum(vs), min(vs), max(vs))
            for (name, g), vs in sorted(expected.items())
        ]
        return session, want

    @pytest.mark.parametrize(
        "source, plan",
        [
            ("fd", "access fd"),
            ("f, d WHERE f.k = d.k", "hash join"),
            ("f, d WHERE f.k + 0 = d.k", "nested-loop join"),
        ],
        ids=["single_relation", "hash_join", "nested_loop"],
    )
    def test_multi_and_string_key_group_by(self, grouped, source, plan):
        session, want = grouped
        sql = (
            "SELECT name, g, count(*), sum(v), min(v), max(v) "
            f"FROM {source} GROUP BY name, g"
        )
        assert session.explain(sql).startswith(plan)
        assert session.execute(sql).rows == want
