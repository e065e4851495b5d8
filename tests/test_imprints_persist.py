"""Tests for imprint persistence (save/load with the database)."""

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.core.imprints import ImprintsManager, SegmentedImprints
from repro.core.imprints.persist import (
    ImprintPersistError,
    load_segmented,
    save_segmented,
)
from repro.engine.column import Column
from repro.engine.select import range_select
from repro.engine.table import Table


def make_column(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return Column("x", "float64", data=rng.uniform(0, 1000, n))


def flat_imprint(column):
    """One segment over the whole column: the flat imprint."""
    return SegmentedImprints(column, segment_rows=len(column))


def save_flat(imprint, path):
    return save_segmented(imprint, "pts", "x", path)


class TestSaveLoad:
    def test_round_trip_queries_identical(self, tmp_path):
        col = make_column()
        imp = flat_imprint(col)
        path = tmp_path / "x.imprint"
        save_flat(imp, path)
        back = load_segmented(col, path)
        for lo, hi in [(0, 10), (500, 600), (990, 1000), (-5, 2000)]:
            np.testing.assert_array_equal(
                np.sort(back.query(lo, hi)), np.sort(imp.query(lo, hi))
            )
        assert back.nbytes == imp.nbytes
        assert back.vpc == imp.vpc

    def test_loaded_imprint_exact(self, tmp_path):
        col = make_column(seed=1)
        imp = flat_imprint(col)
        path = tmp_path / "x.imprint"
        save_flat(imp, path)
        back = load_segmented(col, path)
        np.testing.assert_array_equal(
            np.sort(back.query(100, 200)), range_select(col, 100, 200)
        )

    def test_grown_column_is_stale_not_error(self, tmp_path):
        col = make_column(seed=2)
        imp = flat_imprint(col)
        path = tmp_path / "x.imprint"
        save_flat(imp, path)
        col.append([1.0, 2.0])
        back = load_segmented(col, path)
        assert back.stale

    def test_shorter_column_rejected(self, tmp_path):
        col = make_column(seed=3)
        imp = flat_imprint(col)
        path = tmp_path / "x.imprint"
        save_flat(imp, path)
        small = make_column(n=10, seed=3)
        with pytest.raises(ImprintPersistError, match="holds only"):
            load_segmented(small, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImprintPersistError, match="no imprint"):
            load_segmented(make_column(), tmp_path / "ghost.imprint")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.imprint"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(ImprintPersistError, match="magic"):
            load_segmented(make_column(), path)

    def test_truncated(self, tmp_path):
        col = make_column(seed=4)
        path = tmp_path / "x.imprint"
        save_flat(flat_imprint(col), path)
        path.write_bytes(path.read_bytes()[:-20])
        # The body CRC covers every byte, so a cut tail fails it first.
        with pytest.raises(ImprintPersistError, match="checksum mismatch"):
            load_segmented(col, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ImprintPersistError, match="truncated"):
            load_segmented(col, path)


class TestManagerPersistence:
    def _table(self, n=3000, seed=5):
        rng = np.random.default_rng(seed)
        t = Table("pts", [("x", "float64"), ("y", "float64")])
        t.append_columns(
            {"x": rng.uniform(0, 100, n), "y": rng.uniform(0, 100, n)}
        )
        return t

    def test_save_load_skips_rebuild(self, tmp_path):
        table = self._table()
        mgr = ImprintsManager()
        mgr.range_select(table, "x", 10, 20)
        mgr.range_select(table, "y", 10, 20)
        mgr.save(tmp_path / "imp")

        mgr2 = ImprintsManager()
        loaded = mgr2.load({"pts": table}, tmp_path / "imp")
        assert loaded == 2
        out = mgr2.range_select(table, "x", 10, 20)
        assert mgr2.builds == 0  # reused from disk, no rebuild
        np.testing.assert_array_equal(
            np.sort(out), np.sort(mgr.range_select(table, "x", 10, 20))
        )

    def test_load_missing_directory(self, tmp_path):
        assert ImprintsManager().load({}, tmp_path / "absent") == 0

    def test_load_ignores_unknown_tables(self, tmp_path):
        table = self._table()
        mgr = ImprintsManager()
        mgr.range_select(table, "x", 0, 50)
        mgr.save(tmp_path / "imp")
        other = Table("other", [("x", "float64")])
        assert ImprintsManager().load({"other": other}, tmp_path / "imp") == 0


    def test_load_skips_legacy_flat_files(self, tmp_path):
        """Files of the retired flat format (v1, magic ``RIMP``) are
        skipped, not quarantined; the first query rebuilds lazily."""
        table = self._table()
        root = tmp_path / "imp"
        root.mkdir()
        legacy = root / "0000.pts_x.imprint"
        legacy.write_bytes(b"RIMP" + b"\x01\x00" + b"\x00" * 26)
        mgr = ImprintsManager()
        assert mgr.load({"pts": table}, root) == 0
        assert mgr.quarantined == []
        assert legacy.exists()
        out = mgr.range_select(table, "x", 10, 20)
        assert mgr.builds == 1
        np.testing.assert_array_equal(out, range_select(table.column("x"), 10, 20))


class TestDatabasePersistence:
    def test_pointclouddb_round_trip_with_imprints(self, tmp_path):
        rng = np.random.default_rng(6)
        db = PointCloudDB(directory=tmp_path / "farm")
        table = db.create_pointcloud("ahn2")
        batch = {
            name: np.zeros(2000, dtype=table.column(name).dtype)
            for name in table.column_names
        }
        batch["x"] = rng.uniform(0, 100, 2000)
        batch["y"] = rng.uniform(0, 100, 2000)
        db.load_points("ahn2", batch)
        before = db.spatial_select("ahn2", Box(10, 10, 40, 40))
        assert db.manager.builds >= 1
        db.save()

        back = PointCloudDB.load(tmp_path / "farm")
        after = back.spatial_select("ahn2", Box(10, 10, 40, 40))
        np.testing.assert_array_equal(np.sort(after.oids), np.sort(before.oids))
        assert back.manager.builds == 0  # imprints restored, not rebuilt
