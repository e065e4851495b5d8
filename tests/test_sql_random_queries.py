"""Mini-SQLsmith: random WHERE trees vs a numpy oracle.

Hypothesis generates random boolean expression trees over two integer
columns; each tree is rendered both as SQL text and as a numpy evaluator.
``SELECT count(*)`` through the full engine (lexer, parser, push-down,
vectorised evaluation) must match the oracle exactly — this shreds
operator precedence, NOT/AND/OR semantics, BETWEEN/IN edges and the
range-push-down rewrite in one property.  The same trees also drive a
grouped query (``GROUP BY b`` with every aggregate, with and without
``HAVING``) against a numpy grouping oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import Table
from repro.sql.executor import Session

N_ROWS = 300
_RNG = np.random.default_rng(99)
_A = _RNG.integers(-20, 20, N_ROWS)
_B = _RNG.integers(0, 10, N_ROWS)


def make_session() -> Session:
    t = Table("t", [("a", "int64"), ("b", "int64")])
    t.append_columns({"a": _A, "b": _B})
    session = Session()
    session.register_table(t, point_columns=None)
    return session


class Expr:
    """A paired (sql_text, numpy_fn) expression."""

    def __init__(self, sql, fn):
        self.sql = sql
        self.fn = fn


def _leaf_comparison(draw):
    column = draw(st.sampled_from(["a", "b"]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    value = draw(st.integers(-25, 25))
    arr = _A if column == "a" else _B
    py_ops = {
        "<": lambda v: arr < v,
        "<=": lambda v: arr <= v,
        ">": lambda v: arr > v,
        ">=": lambda v: arr >= v,
        "=": lambda v: arr == v,
        "!=": lambda v: arr != v,
    }
    return Expr(f"{column} {op} {value}", lambda v=value, o=op: py_ops[o](v))


def _leaf_between(draw):
    column = draw(st.sampled_from(["a", "b"]))
    lo = draw(st.integers(-25, 25))
    hi = lo + draw(st.integers(0, 20))
    arr = _A if column == "a" else _B
    negated = draw(st.booleans())
    word = "NOT BETWEEN" if negated else "BETWEEN"
    base = lambda: (arr >= lo) & (arr <= hi)
    fn = (lambda: ~base()) if negated else base
    return Expr(f"{column} {word} {lo} AND {hi}", fn)


def _leaf_in(draw):
    column = draw(st.sampled_from(["a", "b"]))
    options = draw(st.lists(st.integers(-25, 25), min_size=1, max_size=4))
    arr = _A if column == "a" else _B
    negated = draw(st.booleans())
    word = "NOT IN" if negated else "IN"
    base = lambda: np.isin(arr, options)
    fn = (lambda: ~base()) if negated else base
    return Expr(
        f"{column} {word} ({', '.join(map(str, options))})", fn
    )


@st.composite
def expr_tree(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["cmp", "between", "in"]))
        if kind == "cmp":
            return _leaf_comparison(draw)
        if kind == "between":
            return _leaf_between(draw)
        return _leaf_in(draw)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        inner = draw(expr_tree(depth=depth + 1))
        return Expr(f"NOT ({inner.sql})", lambda i=inner: ~i.fn())
    left = draw(expr_tree(depth=depth + 1))
    right = draw(expr_tree(depth=depth + 1))
    if kind == "and":
        return Expr(
            f"({left.sql}) AND ({right.sql})",
            lambda l=left, r=right: l.fn() & r.fn(),
        )
    return Expr(
        f"({left.sql}) OR ({right.sql})",
        lambda l=left, r=right: l.fn() | r.fn(),
    )


@settings(max_examples=120, deadline=None)
@given(tree=expr_tree())
def test_random_where_matches_numpy_oracle(tree):
    session = make_session()
    got = session.execute(f"SELECT count(*) FROM t WHERE {tree.sql}").scalar()
    want = int(tree.fn().sum())
    assert got == want, tree.sql


@settings(max_examples=60, deadline=None)
@given(tree=expr_tree())
def test_random_where_projection_matches(tree):
    """Projected `a` values under the random predicate match the oracle."""
    session = make_session()
    result = session.execute(f"SELECT a FROM t WHERE {tree.sql}")
    got = sorted(row[0] for row in result.rows)
    want = sorted(_A[tree.fn()].tolist())
    assert got == want, tree.sql


@settings(max_examples=40, deadline=None)
@given(tree=expr_tree())
def test_random_where_negation_partitions(tree):
    """count(P) + count(NOT P) == total rows, always."""
    session = make_session()
    pos = session.execute(f"SELECT count(*) FROM t WHERE {tree.sql}").scalar()
    neg = session.execute(
        f"SELECT count(*) FROM t WHERE NOT ({tree.sql})"
    ).scalar()
    assert pos + neg == N_ROWS, tree.sql


@settings(max_examples=60, deadline=None)
@given(tree=expr_tree())
def test_random_where_grouped_matches_numpy_oracle(tree):
    """Grouped aggregates under the random predicate match numpy: exact
    for count/sum/min/max, approximate for avg; groups ascending by key."""
    session = make_session()
    mask = tree.fn()
    a, b = _A[mask], _B[mask]
    for having in ("", " HAVING count(*) > 2"):
        rows = session.execute(
            "SELECT b, count(*), sum(a), min(a), max(a), avg(a) FROM t "
            f"WHERE {tree.sql} GROUP BY b{having}"
        ).rows
        want = []
        for key in np.unique(b):
            group = a[b == key]
            if having and group.shape[0] <= 2:
                continue
            want.append(
                (
                    int(key),
                    group.shape[0],
                    int(group.sum()),
                    int(group.min()),
                    int(group.max()),
                    float(group.mean()),
                )
            )
        assert [row[:5] for row in rows] == [row[:5] for row in want], tree.sql
        assert [row[5] for row in rows] == pytest.approx(
            [row[5] for row in want]
        ), tree.sql
