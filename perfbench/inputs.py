"""Seeded inputs shared by the workloads: an AHN-like cloud over a
2 x 2 km RD-like extent, written as a grid of LAS tiles.

The city the survey flies over (terrain, water, buildings, vegetation,
roads and land use) is one fixed scene, as the paper's AHN2, OSM and
Urban Atlas are fixed datasets; ``--seed`` draws the survey itself (every
point's position, class noise, elevation and intensity) and the queries.
With a scene drawn per seed as well, the CPU p50 of ``viewport`` spread
12 % over five seeds, against 7 % with the fixed scene.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import PointCloudDB
from repro.datasets.lidar import (
    LidarScene,
    generate_points,
    make_scene,
    write_cloud_tiles,
)
from repro.gis.envelope import Box

from .common import cpu_clock

EXTENT = Box(85_000.0, 445_000.0, 87_000.0, 447_000.0)

#: The seed of the fixed scene.
SCENE_SEED = 0

#: Tiles per axis of the bulk-load grid (the AHN2 file layout, scaled).
TILE_GRID = 4


def cloud(n_points: int, seed: int) -> Tuple[LidarScene, Dict[str, np.ndarray]]:
    """A flightline-ordered survey of the fixed scene, drawn from ``seed``."""
    scene = make_scene(EXTENT, seed=SCENE_SEED)
    return scene, generate_points(scene, n_points, seed=seed)


def tiles(directory: Path, columns: Dict[str, np.ndarray]) -> List[Path]:
    """``columns`` as a ``TILE_GRID`` x ``TILE_GRID`` grid of LAS files."""
    return write_cloud_tiles(directory, columns, EXTENT, TILE_GRID, TILE_GRID)


def isclose(got: float, want: float) -> bool:
    """Equal up to float summation order."""
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def load(db: PointCloudDB, table: str, paths: Sequence[Path]) -> float:
    """Create point cloud ``table`` in ``db`` and bulk-load ``paths`` into
    it; returns the load rate in million points per CPU second."""
    db.create_pointcloud(table)
    t0 = cpu_clock()
    stats = db.load_las(table, paths)
    return stats.n_points / (cpu_clock() - t0) / 1e6
