"""Thread-scaling measurement for the morsel-driven query path.

Runs the same query workload at several thread counts and reports
wall-clock seconds plus the speedup relative to ``threads=1``.  The
report deliberately embeds the machine's core count: a scaling number
without it is meaningless (on a 1-core container every speedup is ~1x
by construction, and the JSON should say so rather than hide it).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..engine.parallel import hardware_threads
from ..obs.metrics import get_registry
from ..obs.queries import get_queries
from .harness import best_of

DEFAULT_THREADS = (1, 2, 4, 8)


def machine_info() -> Dict[str, object]:
    """The context every scaling number needs to be interpreted."""
    return {
        "hardware_threads": hardware_threads(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def metrics_snapshot() -> Dict[str, object]:
    """The metrics registry's current state, for embedding in reports.

    Gives bench JSON the work counters behind the timings — segments
    skipped vs probed, imprint builds, latency histogram percentiles —
    so a regression diff can say *why* a number moved, not just that it
    did.
    """
    return get_registry().snapshot()


def sweep(
    run_query: Callable[[int], object],
    thread_counts: Sequence[int] = DEFAULT_THREADS,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Time ``run_query(threads)`` at each thread count (best of
    ``repeats``) and annotate each row with the speedup vs the first
    (serial) entry.

    Each row also embeds the cell's resource attribution (CPU seconds
    incl. morsel workers, rows/bytes touched — summed over the repeats),
    so a scaling report shows not just that 4 threads were 3x faster but
    that they burned the same CPU doing it.
    """
    rows: List[Dict[str, object]] = []
    for threads in thread_counts:
        with get_queries().track("bench", detail={"threads": threads}) as record:
            seconds = best_of(lambda: run_query(threads), repeats)
        rows.append(
            {
                "threads": threads,
                "seconds": seconds,
                "resources": record.usage.to_dict(),
            }
        )
    base = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = (base / row["seconds"]) if row["seconds"] > 0 else 0.0
    return rows


def write_report(path, payload: Dict[str, object]) -> Path:
    """Write a machine-readable scaling report (JSON, one object)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
