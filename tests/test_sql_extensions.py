"""Tests for SQL extensions: DISTINCT, HAVING."""

import numpy as np
import pytest

from repro.engine.table import Table
from repro.sql.executor import Session
from repro.sql.lexer import SqlSyntaxError
from repro.sql.parser import parse


@pytest.fixture()
def session():
    t = Table("obs", [("city", "int32"), ("kind", "int32"), ("v", "float64")])
    t.append_columns(
        {
            "city": [1, 1, 1, 2, 2, 3],
            "kind": [10, 10, 20, 10, 20, 20],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    )
    session = Session()
    session.register_table(t, point_columns=None)
    return session


class TestDistinct:
    def test_distinct_single_column(self, session):
        result = session.execute("SELECT DISTINCT city FROM obs ORDER BY city")
        assert [row[0] for row in result.rows] == [1, 2, 3]

    def test_distinct_pairs(self, session):
        result = session.execute("SELECT DISTINCT city, kind FROM obs")
        assert len(result) == 5  # (1,10) appears twice

    def test_distinct_parses(self):
        assert parse("SELECT DISTINCT a FROM t").distinct
        assert not parse("SELECT a FROM t").distinct

    def test_distinct_with_limit(self, session):
        result = session.execute(
            "SELECT DISTINCT city FROM obs ORDER BY city LIMIT 2"
        )
        assert [row[0] for row in result.rows] == [1, 2]


class TestHaving:
    def test_having_filters_groups(self, session):
        result = session.execute(
            "SELECT city, count(*) FROM obs GROUP BY city HAVING count(*) > 1 "
            "ORDER BY city"
        )
        assert [(row[0], row[1]) for row in result.rows] == [(1, 3), (2, 2)]

    def test_having_on_aggregate_expression(self, session):
        result = session.execute(
            "SELECT city, avg(v) FROM obs GROUP BY city HAVING avg(v) >= 4"
        )
        cities = sorted(row[0] for row in result.rows)
        assert cities == [2, 3]

    def test_having_with_and(self, session):
        result = session.execute(
            "SELECT city, count(*) FROM obs GROUP BY city "
            "HAVING count(*) > 1 AND max(v) > 3"
        )
        assert [row[0] for row in result.rows] == [2]

    def test_having_without_group_by_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT count(*) FROM t HAVING count(*) > 1")

    def test_having_all_groups_filtered(self, session):
        result = session.execute(
            "SELECT city, count(*) FROM obs GROUP BY city HAVING count(*) > 99"
        )
        assert len(result) == 0


class TestGroupKeys:
    def test_nan_keys_form_one_group_sorted_last(self):
        t = Table("t", [("k", "float64"), ("v", "int64")])
        t.append_columns({"k": [1.0, np.nan, np.nan, 2.0], "v": [1, 2, 3, 4]})
        session = Session()
        session.register_table(t, point_columns=None)
        rows = session.execute(
            "SELECT k, count(*), sum(v) FROM t GROUP BY k"
        ).rows
        assert [row[0] for row in rows[:2]] == [1.0, 2.0]
        assert [row[1:] for row in rows] == [(1, 1), (1, 4), (2, 5)]
        assert np.isnan(rows[2][0])
