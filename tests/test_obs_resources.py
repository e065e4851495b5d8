"""Per-query resource attribution: CPU, allocations, data touched."""

import threading

import numpy as np
import pytest

from repro import Box, PointCloudDB
from repro.engine import parallel
from repro.obs import resources
from repro.obs.queries import QueryRegistry, current_query
from repro.obs.resources import ResourceUsage


class TestTracker:
    """The query record is the accumulator: ``track()`` opens it, and
    usage credited to it propagates to every enclosing record."""

    def test_no_tracker_means_no_current(self):
        assert current_query() is None

    def test_current_inside_context(self):
        with QueryRegistry().track("spatial") as record:
            assert current_query() is record
        assert current_query() is None

    def test_trackers_nest_and_unwind(self):
        registry = QueryRegistry()
        with registry.track("sql") as outer:
            with registry.track("spatial") as inner:
                assert current_query() is inner
                assert inner.parent is outer
            assert current_query() is outer

    def test_caller_cpu_measured_at_exit(self):
        with QueryRegistry().track("spatial") as record:
            sum(i * i for i in range(200_000))
            assert record.usage.cpu_seconds == 0.0  # not until exit
        assert record.usage.cpu_seconds > 0.0
        assert record.usage.worker_cpu_seconds == 0.0

    def test_add_cpu_propagates_to_parents(self):
        registry = QueryRegistry()
        with registry.track("sql") as outer:
            with registry.track("spatial") as inner:
                inner.add_cpu(0.5)
        assert inner.usage.worker_cpu_seconds == pytest.approx(0.5)
        assert outer.usage.worker_cpu_seconds == pytest.approx(0.5)

    def test_add_touched_propagates_to_parents(self):
        registry = QueryRegistry()
        with registry.track("sql") as outer:
            with registry.track("spatial") as inner:
                inner.add_touched(rows=10, nbytes=80)
                inner.add_scan_bytes(encoded=30, materialized=50)
        for record in (inner, outer):
            assert record.usage.rows_touched == 10
            assert record.usage.bytes_touched == 80
            assert record.usage.encoded_bytes == 30
            assert record.usage.materialized_bytes == 50

    def test_concurrent_credits_are_not_lost(self):
        """Workers credit one record (and its parent) concurrently; every
        read-modify-write is under the record's lock."""
        import sys

        registry = QueryRegistry()
        n_threads, n_credits = 8, 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with registry.track("sql") as outer:
                with registry.track("spatial") as inner:

                    def credit():
                        for _ in range(n_credits):
                            inner.add_touched(rows=1, nbytes=8)

                    threads = [
                        threading.Thread(target=credit) for _ in range(n_threads)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for record in (inner, outer):
            assert record.usage.rows_touched == n_threads * n_credits
            assert record.usage.bytes_touched == 8 * n_threads * n_credits

    def test_worker_threads_have_their_own_stack(self):
        """A raw thread started without ``copy_context`` sees no record."""
        seen = []
        with QueryRegistry().track("spatial"):
            thread = threading.Thread(
                target=lambda: seen.append(current_query())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_tracemalloc_opt_in_records_peak(self):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            with QueryRegistry().track("spatial") as record:
                _scratch = bytearray(4 * 1024 * 1024)
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert record.usage.peak_alloc_bytes >= 4 * 1024 * 1024

    def test_env_switch_starts_tracing(self, monkeypatch):
        import tracemalloc

        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already on in this process")
        monkeypatch.setenv(resources.TRACEMALLOC_ENV, "1")
        try:
            with QueryRegistry().track("spatial") as record:
                _scratch = bytearray(1024 * 1024)
        finally:
            tracemalloc.stop()
        assert record.usage.peak_alloc_bytes >= 1024 * 1024

    def test_peak_is_none_when_sampling_off(self, monkeypatch):
        import tracemalloc

        monkeypatch.delenv(resources.TRACEMALLOC_ENV, raising=False)
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already on in this process")
        with QueryRegistry().track("spatial") as record:
            pass
        assert record.usage.peak_alloc_bytes is None

    def test_usage_to_dict_is_json_friendly(self):
        usage = ResourceUsage(
            cpu_seconds=0.5, rows_touched=3, bytes_touched=24
        )
        assert usage.to_dict() == {
            "cpu_seconds": 0.5,
            "worker_cpu_seconds": 0.0,
            "peak_alloc_bytes": None,
            "rows_touched": 3,
            "bytes_touched": 24,
            "encoded_bytes": 0,
            "materialized_bytes": 0,
        }


class TestMorselAttribution:
    def test_pooled_workers_report_cpu_to_caller_tracker(self):
        def burn(i):
            return sum(j * j for j in range(50_000))

        with QueryRegistry().track("spatial") as record:
            parallel.run_tasks(burn, list(range(16)), threads=4)
        assert record.usage.worker_cpu_seconds > 0.0
        assert record.usage.cpu_seconds >= record.usage.worker_cpu_seconds

    def test_serial_path_attributes_via_caller_only(self):
        with QueryRegistry().track("spatial") as record:
            parallel.run_tasks(
                lambda i: sum(j for j in range(50_000)), list(range(8)), threads=1
            )
        # The caller's own clock covers serial work; no double counting.
        assert record.usage.worker_cpu_seconds == 0.0
        assert record.usage.cpu_seconds > 0.0


class TestQueryIntegration:
    @pytest.fixture(scope="class")
    def db(self):
        db = PointCloudDB()
        db.create_pointcloud("pts")
        rng = np.random.default_rng(11)
        db.load_points(
            "pts",
            {
                "x": rng.uniform(0, 100, 20_000),
                "y": rng.uniform(0, 100, 20_000),
                "z": rng.uniform(0, 10, 20_000),
            },
        )
        return db

    def test_spatial_query_stats_carry_resources(self, db):
        result = db.spatial_select("pts", Box(20, 20, 70, 70))
        usage = result.stats.resources
        assert usage.cpu_seconds > 0.0
        assert usage.rows_touched > 0
        assert usage.bytes_touched > 0

    def test_imprint_skips_cost_nothing(self, db):
        """A query outside the data's bbox touches (almost) no bytes —
        the attribution reflects what the index earned, the paper's
        whole point."""
        hit = db.spatial_select("pts", Box(0, 0, 100, 100))
        miss = db.spatial_select("pts", Box(5000, 5000, 6000, 6000))
        assert len(miss) == 0
        assert (
            miss.stats.resources.bytes_touched
            < hit.stats.resources.bytes_touched
        )

    def test_sql_session_records_last_resources(self, db):
        session_result = db.sql("SELECT avg(z) FROM pts WHERE x < 50")
        assert len(session_result.rows) == 1

    def test_explain_analyze_footer_shows_attribution(self, db):
        text = db.explain_analyze("SELECT count(*) FROM pts WHERE x < 25")
        assert "cpu:" in text
        assert "touched:" in text
        assert "rows" in text

    def test_cpu_seconds_histogram_observes_queries(self, db):
        from repro.obs.metrics import get_registry

        hist = get_registry().histogram("query.cpu_seconds")
        before = hist.snapshot()["count"]
        db.spatial_select("pts", Box(10, 10, 30, 30))
        assert hist.snapshot()["count"] == before + 1
