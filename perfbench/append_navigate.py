"""Workload ``append_navigate``: appends beside reads, in process.

One client runs a closed loop of cycles.  Each cycle appends one
pre-written LAS tile of 64Ki points with ``load_las`` and then runs one
round of the van Oosterom query set (``standard_queries``: three
rectangles, a circle, two polygons, two corridors) through
``spatial_select``.  Imprints are extended lazily, so the first query
after an append pays for indexing the new rows; the polygons and
corridors carry the refine step.  Every ``Sizes.cycles_per_restart``
cycles the table restarts from the same base, so its size stays bounded
and every run sees the same sequence of table states.

An operation is an append or a query: nine per cycle.  Times are read
from the process's CPU clock and scaled to the reference speed
(:class:`~perfbench.common.SpeedProbe`): ``ops_per_cpu_s`` counts
queries per CPU second of the cycles; ``append_mpts_s`` is appended
points per CPU second of ``load_las``.  Every answer is compared with ``SpatialSelect.query_scan``
over the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import PointCloudDB
from repro.bench.workloads import QuerySpec, standard_queries
from repro.datasets.lidar import generate_points, write_cloud_tiles
from repro.gis.predicates import geometry_envelope

from . import inputs
from .common import (
    MIN_SAMPLES,
    Latencies,
    Result,
    SpeedProbe,
    cpu_clock,
    peak_rss_mb,
    put_times,
)
from .layers import PER_LAYER_UNITS, filter_seconds, install, layer_metrics
from .spans import SpanRecorder, clock, operation


@dataclass
class Sizes:
    base_points: int = 500_000
    tile_points: int = 65_536
    cycles_per_restart: int = 8
    setups: int = 5

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(base_points=20_000, tile_points=4_096, cycles_per_restart=3, setups=1)


class Appends:
    """The seeded inputs: base tiles, the tiles appended in order, the
    query set and each query's answer over every table state."""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes) -> None:
        scene, base = inputs.cloud(sizes.base_points, seed)
        self.base_paths = inputs.tiles(workdir / "base", base)
        extra = generate_points(
            scene, sizes.tile_points * sizes.cycles_per_restart, seed=seed + 1
        )
        # Consecutive flightline runs: each appended tile is a new strip
        # of survey, as delivered.
        self.tile_paths: List[Path] = []
        for k in range(sizes.cycles_per_restart):
            part = {c: v[k * sizes.tile_points:(k + 1) * sizes.tile_points] for c, v in extra.items()}
            self.tile_paths += write_cloud_tiles(
                workdir / f"append{k}", part, inputs.EXTENT, 1, 1
            )
        self.queries: List[QuerySpec] = standard_queries(inputs.EXTENT, seed=seed)
        # Rows are only ever appended, so the answer over a prefix of the
        # full table is the full answer cut at the prefix length.
        full = PointCloudDB()
        inputs.load(full, "points", list(self.base_paths) + self.tile_paths)
        scan = full.select_for("points")
        self.answers = [scan.query_scan(q.geometry, q.predicate, q.distance) for q in self.queries]
        table = full.table("points")
        self.xs = np.asarray(table.column("x").values)
        self.ys = np.asarray(table.column("y").values)

    def expected(self, query: int, n_rows: int) -> np.ndarray:
        oids = self.answers[query]
        return oids[: np.searchsorted(oids, n_rows)]

    def floor_seconds(self, query: int, n_rows: int) -> float:
        """Time of a hand-written numpy mask for the query's envelope over
        the first ``n_rows`` rows (the filter step's numpy floor)."""
        spec = self.queries[query]
        env = geometry_envelope(spec.geometry)
        if spec.predicate == "dwithin":
            env = env.expand(spec.distance)
        xs, ys = self.xs[:n_rows], self.ys[:n_rows]
        t0 = clock()
        np.flatnonzero((xs >= env.xmin) & (xs <= env.xmax) & (ys >= env.ymin) & (ys <= env.ymax))
        return clock() - t0


def run(seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes()) -> Tuple[Result, Dict]:
    result = Result()
    speed = SpeedProbe()
    data = Appends(seed, workdir, sizes)
    queries = data.queries

    def check(q: int, oids: np.ndarray, n_rows: int) -> bool:
        return bool(np.array_equal(oids, data.expected(q, n_rows)))

    def setup() -> Tuple[PointCloudDB, float]:
        """A fresh table from the base tiles and every query answered once
        on it, which builds every imprint the queries use, so that timed
        queries pay only for extending them; returns the table and the CPU
        seconds taken.  (The first query alone took 20 or 45 ms of CPU
        depending on the seed's points: too uneven a set-up to time.)"""
        t0 = cpu_clock()
        db = PointCloudDB()
        inputs.load(db, "points", data.base_paths)
        n_rows = len(db.table("points"))
        answers = [
            db.spatial_select("points", spec.geometry, spec.predicate, spec.distance).oids
            for spec in queries
        ]
        elapsed = cpu_clock() - t0
        if not all(check(q, oids, n_rows) for q, oids in enumerate(answers)):
            raise RuntimeError("wrong answer at set-up")
        return db, elapsed

    def measure(
        budget: float, min_ops: int, recorder: Optional[SpanRecorder]
    ) -> Tuple[Latencies, Latencies, float, float, float]:
        """Cycles until ``budget`` seconds of cycle time and ``min_ops``
        operations; CPU and wall-clock latencies, queries answered per CPU
        second, points appended per CPU second of appending, and numpy
        floor seconds."""
        cpu = Latencies()
        wall = Latencies()
        busy = cpu_busy = appended = append_cpu = floor_s = 0.0
        answered = 0
        cycle = 0
        db = setup()[0]
        while busy < budget or len(cpu.values) < min_ops:
            if cycle and cycle % sizes.cycles_per_restart == 0:
                db = setup()[0]
            t0, c0 = clock(), cpu_clock()
            with operation(recorder):
                stats = db.load_las("points", [data.tile_paths[cycle % sizes.cycles_per_restart]])
            elapsed, cpu_s = clock() - t0, cpu_clock() - c0
            busy += elapsed
            cpu_busy += cpu_s
            append_cpu += cpu_s
            appended += stats.n_points
            cpu.add(cpu_s)
            wall.add(elapsed)
            result.attempted += 1
            speed.tick()
            n_rows = len(db.table("points"))
            for q, spec in enumerate(queries):
                t0, c0 = clock(), cpu_clock()
                with operation(recorder):
                    out = db.spatial_select("points", spec.geometry, spec.predicate, spec.distance)
                elapsed, cpu_s = clock() - t0, cpu_clock() - c0
                busy += elapsed
                cpu_busy += cpu_s
                result.attempted += 1
                if check(q, out.oids, n_rows):
                    cpu.add(cpu_s)
                    wall.add(elapsed)
                    answered += 1
                else:
                    result.failed += 1
                    result.correct = False
                    cpu.add(None)
                    wall.add(None)
                if recorder is not None:
                    floor_s += data.floor_seconds(q, n_rows)
                speed.tick()
            cycle += 1
        return cpu, wall, answered / cpu_busy, appended / append_cpu / 1e6, floor_s

    setup_times = []
    for _ in range(sizes.setups):
        speed.tick()
        setup_times.append(setup()[1])
    if not trace:
        lat, wall, throughput, append_rate, _ = measure(seconds, MIN_SAMPLES, None)
        db = setup()[0]
        usage = db.storage_report()["points"]
        measured = put_times(result, speed, setup_times, lat, throughput, append_rate)
        result.put("rss_mb", peak_rss_mb(), "MB")
        result.put(
            "bytes_per_point",
            (usage["column_bytes"] + usage["imprint_bytes"] + usage["compressed_bytes"])
            / usage["rows"],
            "B",
        )
    else:
        _, plain, *_ = measure(seconds / 2, 1, None)
        recorder = SpanRecorder()
        install(recorder)
        _, traced, _rate, _append_rate, floor_s = measure(seconds / 2, 1, recorder)
        metrics = layer_metrics(recorder.spans, len(traced.values))
        metrics.update(
            {
                "filter.floor_ratio": filter_seconds(recorder.spans) / floor_s,
                "bench.wall_p50_ms": plain.p50_ms(),
                "bench.trace_overhead_pct": (traced.p50_ms() / plain.p50_ms() - 1.0)
                * 100.0,
                "bench.fail_ratio": result.failed / result.attempted,
            }
        )
        for name, unit in PER_LAYER_UNITS.items():
            result.put(name, metrics[name], unit)
    info = {
        "base_points": sizes.base_points,
        "tile_points": sizes.tile_points,
        "cycles_per_restart": sizes.cycles_per_restart,
        "queries": [q.name for q in queries],
    }
    if not trace:
        info.update(measured, wall_p50_ms=wall.p50_ms())
    return result, info
