"""Workload ``thematic_sql``: ad-hoc spatio-thematic SQL, in process.

The paper's second scenario.  One client runs ``PointCloudDB.sql`` in a
closed loop, round-robin over a fixed mix, against an AHN-like point
table packed with ``compress`` and joined with generated OSM roads and
Urban Atlas zones registered through ``register_vector``.  The mix is
the six Scenario-2 statements of ``benchmarks/test_bench_scenario2.py``
plus two ``count(*)`` x/y ``BETWEEN`` boxes and a ``GROUP BY
classification``: nine statements.

Every answer is checked against a numpy / ``points_satisfy`` reference
computed before the timed phase.  End-to-end times are read from the
process's CPU clock and scaled to the reference speed
(:class:`~perfbench.common.SpeedProbe`); the traced run adds the
wall-clock median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import PointCloudDB
from repro.datasets.osm import generate_osm
from repro.datasets.urbanatlas import FAST_TRANSIT, WATER_BODY, generate_urban_atlas
from repro.gis.predicates import points_satisfy

from . import inputs
from .common import (
    MIN_SAMPLES,
    Latencies,
    Result,
    SpeedProbe,
    cpu_clock,
    median,
    peak_rss_mb,
    put_times,
)
from .layers import PER_LAYER_UNITS, install, layer_metrics
from .spans import SpanRecorder, clock, operation

#: Road class of motorways in the generated OSM bundle.
MOTORWAY = 1


@dataclass
class Sizes:
    points: int = 200_000
    setups: int = 5

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(points=20_000, setups=1)


Bounds = Tuple[float, float, float, float]


def between_boxes(rng: np.random.Generator) -> Dict[str, Bounds]:
    """Seeded x/y boxes (xmin, xmax, ymin, ymax) of the two ``BETWEEN``
    counts, covering 1 % and 16 % of the extent."""
    ext = inputs.EXTENT
    boxes: Dict[str, Bounds] = {}
    for name, area_share in (("count_between_small", 0.01), ("count_between_large", 0.16)):
        side = ext.width * area_share**0.5
        x0 = round(float(rng.uniform(ext.xmin, ext.xmax - side)), 2)
        y0 = round(float(rng.uniform(ext.ymin, ext.ymax - side)), 2)
        boxes[name] = (x0, x0 + side, y0, y0 + side)
    return boxes


def statements(boxes: Dict[str, Bounds]) -> Dict[str, str]:
    """The mix, in the order the loop runs it."""

    def between(name: str) -> str:
        x0, x1, y0, y1 = boxes[name]
        return (
            f"SELECT count(*) FROM lidar WHERE x BETWEEN {x0!r} AND {x1!r} "
            f"AND y BETWEEN {y0!r} AND {y1!r}"
        )

    return {
        "points_near_fast_transit": (
            "SELECT count(*) FROM lidar l, ua_zones u WHERE u.code = 12210 "
            "AND ST_DWithin(u.geom, ST_Point(l.x, l.y), 20)"
        ),
        "avg_elev_near_fast_transit": (
            "SELECT avg(l.z) FROM lidar l, ua_zones u WHERE u.code = 12210 "
            "AND ST_DWithin(u.geom, ST_Point(l.x, l.y), 20)"
        ),
        "buildings_per_landuse": (
            "SELECT u.code, count(*) FROM lidar l, ua_zones u "
            "WHERE l.classification = 6 "
            "AND ST_Contains(u.geom, ST_Point(l.x, l.y)) GROUP BY u.code"
        ),
        "max_elev_near_motorways": (
            "SELECT max(l.z) FROM lidar l, roads r WHERE r.class = 1 "
            "AND ST_DWithin(r.geom, ST_Point(l.x, l.y), 30)"
        ),
        "water_points_in_water_zones": (
            "SELECT count(*) FROM lidar l, ua_zones u WHERE u.code = 51000 "
            "AND l.classification = 9 "
            "AND ST_Contains(u.geom, ST_Point(l.x, l.y))"
        ),
        "high_intensity_histogram": (
            "SELECT l.classification, count(*), avg(l.intensity) FROM lidar l "
            "WHERE l.intensity > 1200 GROUP BY l.classification"
        ),
        "count_between_small": between("count_between_small"),
        "count_between_large": between("count_between_large"),
        "group_by_classification": (
            "SELECT classification, count(*), avg(z) FROM lidar "
            "GROUP BY classification"
        ),
    }


# -- references -------------------------------------------------------------


Rows = Dict[object, Tuple[float, ...]]


def _grouped(keys: np.ndarray, *values: np.ndarray) -> Rows:
    """``{key: (count, mean of each value)}`` over the groups present."""
    out: Rows = {}
    for key in np.unique(keys):
        mask = keys == key
        out[int(key)] = (int(mask.sum()),) + tuple(
            float(v[mask].astype(np.float64).sum() / mask.sum()) for v in values
        )
    return out


def references(
    boxes: Dict[str, Bounds], cols: Dict[str, np.ndarray], roads, zones
) -> Dict[str, Rows]:
    """Each statement's expected rows, keyed by group (``None`` for a
    single-row answer), computed with numpy and ``points_satisfy``."""
    x, y, z = cols["x"], cols["y"], cols["z"]
    cls, intensity = cols["classification"], cols["intensity"]

    def hits(geoms, predicate: str, distance: float, subset: np.ndarray) -> List[np.ndarray]:
        return [
            np.flatnonzero(subset)[
                points_satisfy(x[subset], y[subset], g, predicate, distance)
            ]
            for g in geoms
        ]

    everything = np.ones(x.shape[0], dtype=bool)
    transit = hits(
        [g for c, g in zones if c == FAST_TRANSIT], "dwithin", 20.0, everything
    )
    transit_rows = np.concatenate(transit)
    buildings: Rows = {}
    for code, geom in zones:
        n = int(hits([geom], "contains", 0.0, cls == 6)[0].shape[0])
        if n:
            buildings[code] = (buildings.get(code, (0,))[0] + n,)
    motorway = np.concatenate(
        hits([g for c, g in roads if c == MOTORWAY], "dwithin", 30.0, everything)
    )
    water = hits(
        [g for c, g in zones if c == WATER_BODY], "contains", 0.0, cls == 9
    )
    high = intensity > 1200
    out: Dict[str, Rows] = {
        "points_near_fast_transit": {None: (int(transit_rows.shape[0]),)},
        "avg_elev_near_fast_transit": {None: (float(z[transit_rows].mean()),)},
        "buildings_per_landuse": buildings,
        "max_elev_near_motorways": {None: (float(z[motorway].max()),)},
        "water_points_in_water_zones": {None: (sum(int(h.shape[0]) for h in water),)},
        "high_intensity_histogram": _grouped(cls[high], intensity[high]),
        "group_by_classification": _grouped(cls, z),
    }
    for name, (x0, x1, y0, y1) in boxes.items():
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        out[name] = {None: (int(np.count_nonzero(inside)),)}
    return out


def matches(rows: Sequence[tuple], want: Rows) -> bool:
    """Whether result rows equal the reference, up to float summation order."""
    got: Rows = {}
    for row in rows:
        if None in want:
            got[None] = tuple(row)
        else:
            got[int(row[0])] = tuple(row[1:])
    if got.keys() != want.keys():
        return False
    return all(
        len(got[k]) == len(want[k])
        and all(inputs.isclose(float(a), float(b)) for a, b in zip(got[k], want[k]))
        for k in want
    )


def numpy_floors(
    boxes: Dict[str, Bounds], cols: Dict[str, np.ndarray]
) -> Dict[str, Callable[[], object]]:
    """Hand-written numpy for the statements that are plain scans."""
    x, y, z = cols["x"], cols["y"], cols["z"]
    cls, intensity = cols["classification"], cols["intensity"]

    def between(name: str) -> Callable[[], object]:
        x0, x1, y0, y1 = boxes[name]
        return lambda: np.count_nonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))

    def histogram() -> object:
        high = intensity > 1200
        keys = cls[high]
        return np.bincount(keys), np.bincount(keys, weights=intensity[high])

    return {
        "count_between_small": between("count_between_small"),
        "count_between_large": between("count_between_large"),
        "group_by_classification": lambda: (np.bincount(cls), np.bincount(cls, weights=z)),
        "high_intensity_histogram": histogram,
    }


# -- the run ----------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes()) -> Tuple[Result, Dict]:
    rng = np.random.default_rng(seed)
    result = Result()
    speed = SpeedProbe()
    scene, cloud = inputs.cloud(sizes.points, seed)
    paths = inputs.tiles(workdir / "tiles", cloud)
    del cloud
    # Roads and land use belong to the fixed scene, like its terrain.
    osm = generate_osm(inputs.EXTENT, seed=inputs.SCENE_SEED)
    ua = generate_urban_atlas(
        inputs.EXTENT, terrain=scene.terrain, osm=osm, seed=inputs.SCENE_SEED
    )
    roads = {
        "road_id": np.array([r.road_id for r in osm.roads]),
        "class": np.array([r.class_code for r in osm.roads]),
        "name": [r.name for r in osm.roads],
        "geom": [r.geometry for r in osm.roads],
    }
    zones = {
        "zone_id": np.array([z.zone_id for z in ua.zones]),
        "code": np.array([z.code for z in ua.zones]),
        "label": [z.label for z in ua.zones],
        "geom": [z.geometry for z in ua.zones],
    }
    boxes = between_boxes(rng)
    mix = statements(boxes)
    names = list(mix)
    # References read the rows back exactly as the database will hold them.
    oracle = PointCloudDB()
    inputs.load(oracle, "lidar", paths)
    table = oracle.table("lidar")
    cols = {
        c: np.asarray(table.column(c).values)
        for c in ("x", "y", "z", "classification", "intensity")
    }
    want = references(
        boxes,
        cols,
        list(zip(roads["class"].tolist(), roads["geom"])),
        list(zip(zones["code"].tolist(), zones["geom"])),
    )
    del oracle, table

    def setup() -> Tuple[PointCloudDB, float]:
        """Load, register, pack and answer once; returns the database and
        the CPU seconds taken."""
        t0 = cpu_clock()
        db = PointCloudDB()
        inputs.load(db, "lidar", paths)
        db.register_vector("roads", roads)
        db.register_vector("ua_zones", zones)
        db.compress("lidar")
        first = db.sql(mix[names[0]])
        elapsed = cpu_clock() - t0
        if not matches(first.rows, want[names[0]]):
            raise RuntimeError(f"first answer wrong: {first.rows}")
        return db, elapsed

    def measure(
        db: PointCloudDB,
        budget: float,
        min_ops: int,
        recorder: Optional[SpanRecorder],
        load_rates: Optional[List[float]] = None,
    ) -> Tuple[Latencies, Latencies, Dict[str, List[float]]]:
        """Whole rounds of the mix until ``budget`` seconds and ``min_ops``
        statements have passed; CPU and wall-clock latencies, and the wall
        times per statement.  With ``load_rates``, each round ends with a
        bulk load of the tiles into a database dropped at once, its rate
        appended there.  Loads made during set-up, in a process's first
        seconds, spread 33 % between runs; loads spread over the run,
        8 %."""
        cpu = Latencies()
        wall = Latencies()
        by_name: Dict[str, List[float]] = {n: [] for n in names}
        end = clock() + budget
        while clock() < end or len(cpu.values) < min_ops:
            for name in names:
                t0, c0 = clock(), cpu_clock()
                with operation(recorder):
                    try:
                        rows = db.sql(mix[name]).rows
                    except Exception as exc:  # a failed statement is counted, not fatal
                        result.notes.append(f"{name}: {type(exc).__name__}: {exc}")
                        rows = None
                elapsed, cpu_s = clock() - t0, cpu_clock() - c0
                result.attempted += 1
                if rows is None or not matches(rows, want[name]):
                    result.failed += 1
                    if rows is not None:
                        result.correct = False
                    cpu.add(None)
                    wall.add(None)
                else:
                    cpu.add(cpu_s)
                    wall.add(elapsed)
                    by_name[name].append(elapsed)
                speed.tick()
            if load_rates is not None:
                load_rates.append(inputs.load(PointCloudDB(), "lidar", paths))
        return cpu, wall, by_name

    setup_times: List[float] = []
    # Each set-up reuses the memory the one before it freed, as in a
    # long-running process.
    for _ in range(sizes.setups):
        speed.tick()
        db, elapsed = setup()
        setup_times.append(elapsed)

    if not trace:
        load_rates: List[float] = []
        lat, wall, _ = measure(db, seconds, MIN_SAMPLES, None, load_rates)
        usage = db.storage_report()["lidar"]
        answered = [v for v in lat.values if math.isfinite(v)]
        measured = put_times(
            result,
            speed,
            setup_times,
            lat,
            len(answered) / sum(answered),
            median(load_rates),
        )
        result.put("rss_mb", peak_rss_mb(), "MB")
        result.put(
            "bytes_per_point",
            (usage["column_bytes"] + usage["imprint_bytes"] + usage["compressed_bytes"])
            / usage["rows"],
            "B",
        )
    else:
        _, plain, plain_by_name = measure(db, seconds / 2, 1, None)
        recorder = SpanRecorder()
        install(recorder)
        db, _elapsed = setup()
        _, traced, _ = measure(db, seconds / 2, 1, recorder)
        metrics = layer_metrics(recorder.spans, len(traced.values))
        floors = numpy_floors(boxes, cols)
        floor_s = sum(_median_time(f) for f in floors.values())
        statement_s = sum(median(plain_by_name[n]) for n in floors)
        metrics.update(
            {
                "sql.floor_ratio": statement_s / floor_s,
                "bench.wall_p50_ms": plain.p50_ms(),
                "bench.trace_overhead_pct": (traced.p50_ms() / plain.p50_ms() - 1.0)
                * 100.0,
                "bench.fail_ratio": result.failed / result.attempted,
            }
        )
        for name, unit in PER_LAYER_UNITS.items():
            result.put(name, metrics[name], unit)
    info = {
        "points": sizes.points,
        "statements": mix,
        "roads": len(osm.roads),
        "zones": len(ua.zones),
    }
    if not trace:
        info.update(measured, wall_p50_ms=wall.p50_ms())
    return result, info


def _median_time(fn: Callable[[], object], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return median(times)
