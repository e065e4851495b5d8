"""The segmented range scan: zone verdicts in, sorted oids out.

The paper's filter step is one scan that skips data with a lightweight
per-segment summary — column imprints, or the zone maps of the packed
segments.  Both summaries share the ``64Ki``-row segment grid, so the
scan around them is one loop, and it lives here:

1. the caller classifies every segment (SKIP / FULL / PROBE, see
   :func:`repro.engine.kernels.zone_verdict`);
2. :func:`scan_segments` fans the PROBE segments out over
   :func:`repro.engine.parallel.run_tasks` (which checks the query
   deadline before every task), calling the caller's per-segment probe;
3. it accounts the scan once — :class:`ScanStats`, live progress on the
   active query, the bytes credited to its record and one batched
   heat update — and gathers FULL ranges and probe hits in segment order.

A probe returns its segment's matching global oids, the bytes it read,
and whether those bytes were read in encoded form.  The imprint probe
reads decoded values; the packed probe reads encoded payloads unless its
block needs a decode fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..obs import heat as _heat
from ..obs import queries as _queries
from ..obs.metrics import get_registry
from . import parallel
from .kernels import ZONE_FULL, ZONE_PROBE, ZONE_SKIP

#: Test-injection point: called with each PROBE segment's index just
#: before its probe runs.  The live-introspection tests install a
#: sleeping hook here to make scans slow enough to watch
#: ``/debug/queries`` progress tick and to land deadline checks
#: mid-scan.  ``None`` (production) costs one read per scan.
probe_hook: Optional[Callable[[int], None]] = None

#: One segment probe's answer: matching global oids (sorted), bytes
#: read, and whether they were read encoded (packed) or decoded.
Probe = Tuple[NDArray[np.int64], int, bool]

#: ``(segment, encoded_bytes, materialized_bytes)`` per probed segment,
#: as :meth:`repro.obs.heat.HeatMap.record_scan` takes them.
HeatProbe = Tuple[int, int, int]


@dataclass
class ScanStats:
    """What one segmented scan actually did, for attribution."""

    segments_skipped: int = 0
    segments_full: int = 0
    segments_probed: int = 0
    #: Probed segments evaluated on the packed representation.
    packed_probes: int = 0
    #: Encoded payload bytes the probes scanned.
    encoded_bytes: int = 0
    #: Bytes of decoded values the probes read.
    materialized_bytes: int = 0
    #: Rows of the probed segments (zone-map answers read no rows).
    rows_in: int = 0
    rows_out: int = 0


def credit_scan(
    column: str,
    rows: int,
    encoded: int,
    materialized: int,
    probed: Sequence[HeatProbe],
    skipped: Sequence[int] = (),
    full: Sequence[int] = (),
) -> None:
    """Credit a scan's data volume to the active query's record and
    fold its per-segment outcomes into the heat map (one batched
    update per scan).  Zone-map skips and wholesale accepts read no
    data, so only the bytes the probes moved count."""
    active = _queries.current_query()
    if active is not None and rows:
        active.add_touched(rows=rows, nbytes=encoded + materialized)
        active.add_scan_bytes(encoded=encoded, materialized=materialized)
    heat = _heat.maybe_heat()
    if heat is not None:
        heat.record_scan(column, probed=probed, skipped=skipped, full=full)


def scan_segments(
    column: str,
    bounds: Sequence[Tuple[int, int]],
    verdicts: Sequence[int],
    probe: Callable[[int], Probe],
    threads: Optional[int] = None,
    stats: Optional[ScanStats] = None,
) -> NDArray[np.int64]:
    """Sorted global oids of a range scan over ``len(bounds)`` segments.

    ``bounds[i]`` is segment ``i``'s ``[start, stop)`` row range and
    ``verdicts[i]`` its zone-map verdict; ``probe(i)`` runs only for
    PROBE segments, fanned out over ``threads`` workers.  ``stats``
    accumulates the scan's counts and bytes; ``column`` names the heat
    entry.
    """
    stats = stats if stats is not None else ScanStats()
    probes = [i for i, v in enumerate(verdicts) if v == ZONE_PROBE]
    skipped = [i for i, v in enumerate(verdicts) if v == ZONE_SKIP]
    full = [i for i, v in enumerate(verdicts) if v == ZONE_FULL]
    stats.segments_skipped += len(skipped)
    stats.segments_full += len(full)
    stats.segments_probed += len(probes)
    active = _queries.current_query()
    if active is not None:
        # Live progress over every segment of the scan: zone-map answers
        # complete at once, probes tick one by one as they finish.
        active.add_segments(total=len(verdicts), done=len(verdicts) - len(probes))
    hook = probe_hook

    def probe_one(i: int) -> Probe:
        if hook is not None:
            hook(i)
        result = probe(i)
        if active is not None:
            active.add_segments(done=1)
        return result

    results = parallel.run_tasks(probe_one, probes, threads)
    hits = dict(zip(probes, results))
    heat_probed: List[HeatProbe] = []
    rows = encoded = materialized = packed_probes = 0
    for i, (_oids, nbytes, packed) in hits.items():
        start, stop = bounds[i]
        rows += stop - start
        if packed:
            packed_probes += 1
            encoded += nbytes
            heat_probed.append((i, nbytes, 0))
        else:
            materialized += nbytes
            heat_probed.append((i, 0, nbytes))
    stats.rows_in += rows
    stats.packed_probes += packed_probes
    stats.encoded_bytes += encoded
    stats.materialized_bytes += materialized
    credit_scan(column, rows, encoded, materialized, heat_probed, skipped, full)
    if packed_probes:
        get_registry().counter("compression.packed_predicate_hits").inc(
            packed_probes
        )

    pieces: List[NDArray[np.int64]] = []
    for i, verdict in enumerate(verdicts):
        if verdict == ZONE_FULL:
            pieces.append(np.arange(*bounds[i], dtype=np.int64))
        elif verdict == ZONE_PROBE and hits[i][0].shape[0]:
            pieces.append(hits[i][0])
    if not pieces:
        out = np.empty(0, dtype=np.int64)
    else:
        out = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    stats.rows_out += int(out.shape[0])
    return out
