"""Per-query resource attribution: CPU time, allocations, data touched.

Wall-clock phase timings (:class:`~repro.core.query.QueryStats`, spans)
say how long a query took; :class:`ResourceUsage` says what it
*consumed* while doing so — the difference between "slow because the
machine was busy" and "slow because the query did a lot of work".

The usage is accumulated on the query's own registry record
(:class:`~repro.obs.queries.ActiveQuery`), which
:meth:`~repro.obs.queries.QueryRegistry.track` opens and closes:

* **CPU seconds** — thread CPU time (``time.thread_time``) of the
  calling thread, measured by ``track`` at exit, plus the CPU morsel
  workers burn on the query's behalf: each worker of
  :func:`repro.engine.parallel.run_tasks` credits its own thread-CPU
  delta to the record it finds through ``current_query()``.
* **Peak allocations** — opt-in via :mod:`tracemalloc`: when tracing is
  active (``tracemalloc.start()`` or ``REPRO_TRACEMALLOC=1``), ``track``
  resets the peak at entry and reports the high-water mark of traced
  allocations over the query.
* **Rows / bytes touched** — the scan operators report how much column
  data each select actually read (post-candidate-list, so an
  imprint-filtered query reports the small number the index earned it).
"""

from __future__ import annotations

import os
import tracemalloc
from dataclasses import dataclass
from typing import Dict, Optional

#: Environment switch: start tracemalloc at the first tracked query so
#: peak allocation attribution is on for the whole process.
TRACEMALLOC_ENV = "REPRO_TRACEMALLOC"

_FALSY = ("", "0", "false", "no", "off")


def sample_allocations() -> bool:
    """Whether queries sample peak allocations: tracemalloc is already
    tracing, or ``REPRO_TRACEMALLOC`` asks for it."""
    if tracemalloc.is_tracing():
        return True
    return os.environ.get(TRACEMALLOC_ENV, "").strip().lower() not in _FALSY


@dataclass
class ResourceUsage:
    """What one query consumed; attached to ``QueryStats.resources``."""

    #: Total CPU seconds: the calling thread's delta plus worker CPU.
    cpu_seconds: float = 0.0
    #: The portion of :attr:`cpu_seconds` burned by morsel workers.
    worker_cpu_seconds: float = 0.0
    #: High-water mark of traced allocations (bytes) over the query, or
    #: ``None`` when tracemalloc sampling was off.
    peak_alloc_bytes: Optional[int] = None
    #: Rows the scan operators actually read (post candidate list).
    rows_touched: int = 0
    #: Column bytes those reads moved.
    bytes_touched: int = 0
    #: Compressed bytes packed scans read in place (the PR 6 byte split:
    #: what actually crossed memory on the packed path).
    encoded_bytes: int = 0
    #: Plain-equivalent bytes of everything scanned — packed scans count
    #: what decompressing would have cost, plain scans their array size.
    materialized_bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly record (slow log, flight dumps, bench reports)."""
        return {
            "cpu_seconds": self.cpu_seconds,
            "worker_cpu_seconds": self.worker_cpu_seconds,
            "peak_alloc_bytes": self.peak_alloc_bytes,
            "rows_touched": self.rows_touched,
            "bytes_touched": self.bytes_touched,
            "encoded_bytes": self.encoded_bytes,
            "materialized_bytes": self.materialized_bytes,
        }
