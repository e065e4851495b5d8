"""EXPLAIN ANALYZE: per-operator span trees from real query runs."""

import numpy as np
import pytest

from repro.engine.catalog import Database
from repro.las.binloader import create_flat_table, load_arrays
from repro.obs.trace import get_tracer
from repro.sql.executor import Session

N_POINTS = 4000


@pytest.fixture(scope="module")
def session():
    db = Database()
    table = create_flat_table(db, "points")
    rng = np.random.default_rng(5)
    load_arrays(
        table,
        {
            "x": rng.uniform(0.0, 100.0, N_POINTS),
            "y": rng.uniform(0.0, 100.0, N_POINTS),
            "z": rng.uniform(0.0, 30.0, N_POINTS),
            "classification": rng.integers(0, 3, N_POINTS).astype(np.uint8),
        },
    )
    session = Session()
    session.register_table(table)
    session.register_columns(
        "zones",
        {
            "zone_id": [0, 1, 2],
            "label": ["low", "mid", "high"],
            "wkt": [
                "POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))",
                "POLYGON ((50 0, 100 0, 100 50, 50 50, 50 0))",
                "POLYGON ((0 50, 100 50, 100 100, 0 100, 0 50))",
            ],
        },
    )
    session.register_columns(
        "classes", {"code": [0, 1, 2], "meaning": ["ground", "veg", "building"]}
    )
    return session


SPATIAL_SQL = (
    "SELECT count(*) FROM points WHERE st_contains("
    "st_geomfromtext('POLYGON ((10 10, 70 10, 70 70, 10 70, 10 10))'), "
    "st_point(x, y))"
)


class TestSelect:
    def test_spatial_select_tree(self, session):
        text = session.explain_analyze(SPATIAL_SQL)
        lines = text.splitlines()
        assert lines[0].startswith("sql.query")
        assert "ms" in lines[0]
        names = [line.strip().split()[0] for line in lines]
        for expected in ("sql.parse", "scan", "filter.spatial", "aggregate"):
            assert expected in names, text
        spatial_line = next(l for l in lines if "filter.spatial" in l)
        assert "segments_skipped=" in spatial_line
        assert "segments_probed=" in spatial_line
        assert "rows_out=" in spatial_line
        scan_line = next(l for l in lines if l.strip().startswith("scan"))
        assert f"rows_in={N_POINTS}" in scan_line
        assert text.splitlines()[-1].startswith("rows returned:")

    def test_range_select_tree(self, session):
        text = session.explain_analyze(
            "SELECT count(*) FROM points WHERE z BETWEEN 5 AND 10"
        )
        names = [line.strip().split()[0] for line in text.splitlines()]
        assert "filter.range" in names
        assert "imprints.probe" in names

    def test_residual_filter_tree(self, session):
        text = session.explain_analyze(
            "SELECT count(*) FROM points WHERE classification = 1 AND z > 5"
        )
        names = [line.strip().split()[0] for line in text.splitlines()]
        assert "filter.residual" in names

    def test_execute_prefix_dispatch(self, session):
        result = session.execute("EXPLAIN ANALYZE " + SPATIAL_SQL)
        assert result.columns == ["plan"]
        assert result.rows[0][0].startswith("sql.query")

    def test_execute_plain_explain_prefix(self, session):
        result = session.execute(
            "explain SELECT count(*) FROM points WHERE z > 5"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "range filter via imprint on 'z'" in text
        assert "ms" not in text  # plain EXPLAIN does not run the query


class TestJoin:
    def test_hash_join_tree(self, session):
        text = session.explain_analyze(
            "SELECT meaning, count(*) FROM points p JOIN classes c "
            "ON p.classification = c.code GROUP BY meaning"
        )
        names = [line.strip().split()[0] for line in text.splitlines()]
        assert "join.hash" in names
        assert "aggregate" in names
        join_line = next(
            l for l in text.splitlines() if "join.hash" in l
        )
        assert "rows_out=" in join_line

    def test_nested_loop_spatial_join_tree(self, session):
        text = session.explain_analyze(
            "SELECT z.label, count(*) FROM zones z, points p "
            "WHERE st_contains(st_geomfromtext(z.wkt), st_point(p.x, p.y)) "
            "GROUP BY z.label"
        )
        lines = text.splitlines()
        names = [line.strip().split()[0] for line in lines]
        assert "join.nested_loop" in names
        assert "filter.spatial" in names
        # One imprints-backed spatial probe per outer zone row.
        assert names.count("filter.spatial") == 3
        spatial_line = next(l for l in lines if "filter.spatial" in l)
        assert "segments_skipped=" in spatial_line

    def test_aggregate_span_counts_groups_before_having(self, session):
        text = session.explain_analyze(
            "SELECT classification, count(*) FROM points "
            "GROUP BY classification HAVING count(*) > 99999"
        )
        aggregate_line = next(
            l for l in text.splitlines() if l.strip().startswith("aggregate")
        )
        assert "groups=3" in aggregate_line
        assert "rows_out=0" in aggregate_line

    def test_analyze_leaves_tracer_state(self, session):
        tracer = get_tracer()
        before = tracer.enabled
        session.explain_analyze(SPATIAL_SQL)
        assert tracer.enabled == before


class TestProfilePreserved:
    def test_last_profile_keys_unchanged(self, session):
        session.execute("SELECT count(*) FROM points WHERE z > 5")
        assert set(session.last_profile) == {
            "parse",
            "join_filter",
            "project",
            "total",
        }
