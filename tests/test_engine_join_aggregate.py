"""Unit and property tests for repro.engine.join and repro.engine.aggregate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import group_rows
from repro.engine.column import Column
from repro.engine.join import hash_join


class TestHashJoin:
    def test_simple_equi_join(self):
        left = Column("l", "int64", data=[1, 2, 3])
        right = Column("r", "int64", data=[3, 1, 1])
        lo, ro = hash_join(left, right)
        pairs = sorted(zip(lo.tolist(), ro.tolist()))
        assert pairs == [(0, 1), (0, 2), (2, 0)]

    def test_no_matches(self):
        left = Column("l", "int64", data=[1, 2])
        right = Column("r", "int64", data=[5, 6])
        lo, ro = hash_join(left, right)
        assert lo.shape == (0,) and ro.shape == (0,)

    def test_empty_side(self):
        left = Column("l", "int64", data=[])
        right = Column("r", "int64", data=[1])
        lo, ro = hash_join(left, right)
        assert lo.shape == (0,)

    def test_with_candidates(self):
        left = Column("l", "int64", data=[1, 2, 3, 2])
        right = Column("r", "int64", data=[2, 2])
        lo, ro = hash_join(left, right, left_candidates=np.array([0, 1]))
        pairs = sorted(zip(lo.tolist(), ro.tolist()))
        assert pairs == [(1, 0), (1, 1)]

    def test_duplicates_both_sides_product(self):
        left = Column("l", "int64", data=[7, 7])
        right = Column("r", "int64", data=[7, 7, 7])
        lo, ro = hash_join(left, right)
        assert lo.shape == (6,)

    @settings(max_examples=40, deadline=None)
    @given(
        lvals=st.lists(st.integers(0, 10), min_size=0, max_size=40),
        rvals=st.lists(st.integers(0, 10), min_size=0, max_size=40),
    )
    def test_matches_nested_loop_reference(self, lvals, rvals):
        left = Column("l", "int64", data=np.array(lvals, dtype=np.int64))
        right = Column("r", "int64", data=np.array(rvals, dtype=np.int64))
        lo, ro = hash_join(left, right)
        got = sorted(zip(lo.tolist(), ro.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(lvals)
            for j, rv in enumerate(rvals)
            if lv == rv
        )
        assert got == expected


class TestScalarAggregates:
    """Aggregates without GROUP BY: the one-group case of the grouping."""

    def test_count_sum_avg(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        one = group_rows([], 4)
        assert one.aggregate("count").tolist() == [4]
        assert one.aggregate("sum", vals).tolist() == [10.0]
        assert one.aggregate("avg", vals).tolist() == [2.5]

    def test_with_candidates(self):
        col = Column("v", "float64", data=[1.0, 2.0, 3.0, 4.0])
        cands = np.array([1, 3], dtype=np.int64)
        one = group_rows([], cands.shape[0])
        vals = col.take(cands)
        assert one.aggregate("count").tolist() == [2]
        assert one.aggregate("sum", vals).tolist() == [6.0]
        assert one.aggregate("min", vals).tolist() == [2.0]
        assert one.aggregate("max", vals).tolist() == [4.0]

    def test_avg_empty_is_none(self):
        one = group_rows([], 0)
        assert one.aggregate("count").tolist() == [0]
        assert one.aggregate("avg", np.empty(0)).tolist() == [None]

    def test_minmax_empty_is_none(self):
        one = group_rows([], 0)
        assert one.aggregate("min", np.empty(0)).tolist() == [None]
        assert one.aggregate("max", np.empty(0)).tolist() == [None]


class TestGroupAggregate:
    def test_grouped_count(self):
        keys = np.array([2, 1, 2, 2])
        grouping = group_rows([keys], 4)
        np.testing.assert_array_equal(keys[grouping.first], [1, 2])
        np.testing.assert_array_equal(grouping.aggregate("count"), [1, 3])

    def test_grouped_avg(self):
        groups = np.array([1, 1, 2])
        vals = np.array([1.0, 3.0, 10.0])
        grouping = group_rows([groups], 3)
        np.testing.assert_array_equal(groups[grouping.first], [1, 2])
        np.testing.assert_allclose(grouping.aggregate("avg", vals), [2.0, 10.0])

    def test_grouped_min_max_sum(self):
        grouping = group_rows([np.array([0, 1, 0, 1])], 4)
        vals = np.array([5, 2, 3, 8])
        assert grouping.aggregate("min", vals).tolist() == [3, 2]
        assert grouping.aggregate("max", vals).tolist() == [5, 8]
        assert grouping.aggregate("sum", vals).tolist() == [8, 10]

    def test_empty_input(self):
        grouping = group_rows([np.empty(0, dtype=np.int64)], 0)
        assert grouping.n_groups == 0
        assert grouping.aggregate("count").shape == (0,)

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            group_rows([np.array([1])], 1).aggregate("median", np.array([1.0]))

    def test_missing_values_for_sum(self):
        with pytest.raises(ValueError):
            group_rows([np.array([1])], 1).aggregate("sum")

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_grouped_sum_matches_dict_reference(self, pairs):
        groups = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        grouping = group_rows([groups], groups.shape[0])
        expected = {}
        for g, v in pairs:
            expected[g] = expected.get(g, 0) + v
        got = dict(
            zip(
                groups[grouping.first].tolist(),
                grouping.aggregate("sum", vals).tolist(),
            )
        )
        assert got == expected
