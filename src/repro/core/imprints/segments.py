"""Column imprints: zone maps + per-segment imprint vectors.

The column imprints index of the SIGMOD'13 / paper design composes three
pieces — a :class:`~.histogram.BinScheme`, per-cacheline 64-bit vectors,
and the ``(counter, repeat)`` cacheline dictionary.  Query evaluation
follows the paper: build the 64-bit *query mask* of bins intersecting
``[lo, hi]``, AND it against each stored imprint vector (each tested
once, however many cache lines it covers), expand the matching vectors
to candidate cache lines, and run the exact range predicate only over
those lines — "limit data access, and thus minimise memory traffic".

:class:`SegmentedImprints` cuts the column into fixed-size,
cacheline-aligned **segments** and gives each one

* a ``(min, max)`` **zone map** — queries skip a segment (or accept it
  wholesale) without touching its imprint or its data, and
* its own bin scheme + imprint vectors + cacheline dictionary, built from
  that segment's values only.

A single segment (``segment_rows=len(column)``) is the flat, whole-column
imprint.  Segments are the unit of everything the engine wants to scale:

* **build** — segments are independent, so the first range query fans the
  imprint construction out across the worker pool;
* **append** — new rows only ever create (or complete) trailing segments;
  the existing ones are immutable, so ``extend`` is O(appended), not O(n);
* **probe** — each segment's probe + exact verification is a morsel of
  the segmented-scan driver (:mod:`repro.engine.scan`), and per-segment
  results concatenate in segment order into the usual sorted candidate
  list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from ...engine.column import Column
from ...engine.kernels import ZONE_FULL, ZONE_PROBE, ZONE_SKIP, zone_verdict
from ...engine.parallel import run_tasks
from ...engine.scan import Probe, ScanStats, scan_segments
from ...obs import queries as _queries
from . import bitvec, dictionary
from .histogram import DEFAULT_SAMPLE, MAX_BINS, BinScheme, build_bins

#: Default segment length in rows.  A multiple of 64 so it is aligned to
#: whole cache lines for every supported dtype (vpc is a power of two
#: <= 64 at the default cacheline size), and big enough that per-segment
#: Python overhead stays far below the numpy kernels it wraps.
DEFAULT_SEGMENT_ROWS = 64 * 1024


@dataclass(frozen=True)
class ImprintStats:
    """Size and shape diagnostics for one imprint (E2/E4 benches)."""

    n_rows: int
    n_lines: int
    n_bins: int
    n_entries: int
    n_vectors: int
    index_bytes: int
    column_bytes: int

    @property
    def overhead(self) -> float:
        """Index bytes as a fraction of the indexed column bytes — the
        quantity the paper reports as "5-12% storage overhead"."""
        return (
            self.index_bytes / self.column_bytes if self.column_bytes else 0.0
        )

    @property
    def dict_compression(self) -> float:
        """Uncompressed per-line vectors bytes / stored dictionary bytes."""
        raw = 8 * self.n_lines
        dict_bytes = 4 * self.n_entries + 8 * self.n_vectors
        return raw / dict_bytes if dict_bytes else float("inf")


@dataclass
class SegmentImprint:
    """One immutable segment of a segmented imprints index.

    ``start``/``stop`` are row positions in the column; ``zmin``/``zmax``
    the segment's value range (the zone map); the rest is the segment's
    bin scheme, cacheline dictionary and per-vector line coverage.
    """

    start: int
    stop: int
    zmin: object
    zmax: object
    scheme: BinScheme
    cdict: dictionary.CachelineDict
    coverage: NDArray[Any]

    @property
    def n_rows(self) -> int:
        return self.stop - self.start

    @property
    def n_lines(self) -> int:
        return self.cdict.n_lines

    @property
    def nbytes(self) -> int:
        """Dictionary + borders + the two zone-map values (16 bytes)."""
        return self.cdict.nbytes + self.scheme.nbytes + 16


def build_segment(
    values: NDArray[Any],
    start: int,
    stop: int,
    vpc: int,
    max_bins: int = MAX_BINS,
    sample_size: int = DEFAULT_SAMPLE,
    max_counter: int = dictionary.MAX_COUNTER,
    zone: Optional[Tuple[Any, Any]] = None,
) -> SegmentImprint:
    """Build one segment's imprint from the column slice ``[start, stop)``.

    Pure function of the slice — safe to run on any worker thread.  Each
    build seeds its own sampling RNG, so parallel and serial builds produce
    identical indexes.  ``zone`` supplies a precomputed ``(zmin, zmax)``
    when the caller already knows the range — the compressed mirror's FOR
    headers carry it for free, saving the min/max sweep here.
    """
    part = values[start:stop]
    scheme = build_bins(part, max_bins=max_bins, sample_size=sample_size)
    vectors = bitvec.build_vectors(part, scheme, vpc)
    cdict = dictionary.compress(vectors, max_counter=max_counter)
    if zone is None:
        zone = (part.min(), part.max())
    return SegmentImprint(
        start=start,
        stop=stop,
        zmin=zone[0],
        zmax=zone[1],
        scheme=scheme,
        cdict=cdict,
        coverage=cdict.coverage(),
    )


class SegmentedImprints:
    """A segmented imprints index over a snapshot of one column.

    ``query`` returns the exact sorted oids over the indexed prefix, the
    candidate-list contract of the engine's select operators; builds,
    appends and probes are segment-granular.  The
    :class:`~.manager.ImprintsManager` builds these lazily.

    Parameters
    ----------
    column:
        The column to index (snapshot length recorded at build time).
    segment_rows:
        Segment length in rows; rounded up to a whole number of cache
        lines so segment borders never split an imprint vector.
    threads:
        Worker count for the initial build (``None`` = engine default,
        ``1`` = serial).
    max_bins:
        Per-segment bin budget, at most 64.
    cacheline_bytes:
        Modelled cache line size; with the column's itemsize this sets the
        vector granularity (8 doubles per 64-byte line by default).
    sample_size:
        Sample used to derive each segment's bins.
    max_counter:
        Dictionary counter cap (24-bit in MonetDB).
    """

    def __init__(
        self,
        column: Column,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        threads: Optional[int] = None,
        max_bins: int = MAX_BINS,
        cacheline_bytes: int = bitvec.CACHELINE_BYTES,
        sample_size: int = DEFAULT_SAMPLE,
        max_counter: int = dictionary.MAX_COUNTER,
    ) -> None:
        if len(column) == 0:
            raise ValueError("cannot build imprints over an empty column")
        if segment_rows < 1:
            raise ValueError("segment_rows must be positive")
        self.column = column
        self.vpc = bitvec.values_per_cacheline(
            column.dtype.itemsize, cacheline_bytes
        )
        # Align segments to whole cache lines.
        self.segment_rows = ((segment_rows + self.vpc - 1) // self.vpc) * self.vpc
        self.max_bins = max_bins
        self.sample_size = sample_size
        self.max_counter = max_counter
        self.segments: List[SegmentImprint] = []
        self.n_rows = 0
        self.extend(threads=threads)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        column: Column,
        vpc: int,
        segment_rows: int,
        n_rows: int,
        segments: List[SegmentImprint],
    ) -> "SegmentedImprints":
        """Reassemble an index from persisted parts (see ``persist``)."""
        instance = cls.__new__(cls)
        instance.column = column
        instance.vpc = vpc
        instance.segment_rows = segment_rows
        instance.max_bins = MAX_BINS
        instance.sample_size = DEFAULT_SAMPLE
        instance.max_counter = dictionary.MAX_COUNTER
        instance.segments = segments
        instance.n_rows = n_rows
        return instance

    def extend(self, threads: Optional[int] = None) -> int:
        """Index rows appended since the last build; returns segments built.

        Existing full segments are immutable and untouched.  A trailing
        *partial* segment is rebuilt (bounded by ``segment_rows``, so still
        O(appended + one segment)); everything beyond it is new.  The
        per-segment builds fan out over the worker pool.
        """
        values = np.asarray(self.column.values)
        n = values.shape[0]
        if n == self.n_rows:
            return 0
        if n < self.n_rows:
            # Columns are append-only; a shrunk column means this index
            # belongs to different data.  Rebuild from scratch.
            self.segments = []
            self.n_rows = 0
        if self.segments and self.segments[-1].n_rows < self.segment_rows:
            rebuild_from = self.segments.pop().start
        else:
            rebuild_from = self.n_rows
        spans = [
            (start, min(start + self.segment_rows, n))
            for start in range(rebuild_from, n, self.segment_rows)
        ]
        zones = self._packed_zones()
        built = run_tasks(
            lambda span: build_segment(
                values,
                span[0],
                span[1],
                self.vpc,
                max_bins=self.max_bins,
                sample_size=self.sample_size,
                max_counter=self.max_counter,
                zone=zones.get(span),
            ),
            spans,
            threads=threads,
        )
        self.segments.extend(built)
        self.n_rows = n
        return len(spans)

    def _packed_zones(self) -> Dict[Tuple[int, int], Tuple[Any, Any]]:
        """Zone maps the column's compressed mirror already knows.

        Every :class:`~repro.engine.compression.CompressedBlock` records
        its value range at encode time (for FOR blocks it *is* the
        header: reference and reference + span), so any imprint segment
        that lines up with a mirror segment gets its zone map without a
        min/max sweep.
        """
        packed = self.column.packed
        if packed is None:
            return {}
        zones: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        for i, block in enumerate(packed.blocks):
            if block.zmin is not None and block.zmax is not None:
                zones[packed.segment_bounds(i)] = (block.zmin, block.zmax)
        return zones

    # -- bookkeeping -----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_lines(self) -> int:
        return sum(seg.n_lines for seg in self.segments)

    @property
    def stale(self) -> bool:
        """True when the column has grown past the indexed snapshot."""
        return len(self.column) != self.n_rows

    @property
    def nbytes(self) -> int:
        """Total index bytes across all segments."""
        return sum(seg.nbytes for seg in self.segments)

    def stats(self) -> ImprintStats:
        """Aggregate :class:`ImprintStats` over all segments."""
        return ImprintStats(
            n_rows=self.n_rows,
            n_lines=self.n_lines,
            n_bins=max((seg.scheme.n_bins for seg in self.segments), default=0),
            n_entries=sum(seg.cdict.n_entries for seg in self.segments),
            n_vectors=sum(
                seg.cdict.vectors.shape[0] for seg in self.segments
            ),
            index_bytes=self.nbytes,
            column_bytes=self.n_rows * self.column.dtype.itemsize,
        )

    # -- query -----------------------------------------------------------------

    def _candidate_lines(self, seg: SegmentImprint, lo: Optional[Any], hi: Optional[Any]) -> NDArray[Any]:
        """Local candidate-line indices for one probed segment."""
        mask = seg.scheme.range_mask(lo, hi)
        if mask == 0:
            return np.empty(0, dtype=np.int64)
        vec_match = bitvec.match_vectors(seg.cdict.vectors, mask)
        if seg.cdict.vectors.shape[0] != seg.n_lines:
            vec_match = np.repeat(vec_match, seg.coverage)
        return np.flatnonzero(vec_match)

    def _probe(
        self,
        values: NDArray[Any],
        seg: SegmentImprint,
        lo: Optional[Any],
        hi: Optional[Any],
        lo_inc: bool,
        hi_inc: bool,
    ) -> NDArray[Any]:
        """Exact oids for one probed segment: imprint probe + verification."""
        lines = self._candidate_lines(seg, lo, hi)
        if lines.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        part = values[seg.start : seg.stop]
        vpc = self.vpc
        n_seg = seg.n_rows

        def check(vals: NDArray[Any]) -> NDArray[Any]:
            mask = np.ones(vals.shape, dtype=bool)
            if lo is not None:
                mask &= (vals >= lo) if lo_inc else (vals > lo)
            if hi is not None:
                mask &= (vals <= hi) if hi_inc else (vals < hi)
            return mask

        n_full = n_seg // vpc
        full_lines = lines[lines < n_full]
        pieces: List[NDArray[Any]] = []
        if full_lines.shape[0]:
            blocks = part[: n_full * vpc].reshape(n_full, vpc)[full_lines]
            hit = check(blocks)
            base = full_lines * vpc
            pieces.append((base[:, None] + np.arange(vpc, dtype=np.int64))[hit])
        if lines[-1] >= n_full and n_seg > n_full * vpc:
            tail = part[n_full * vpc : n_seg]
            pieces.append(np.flatnonzero(check(tail)) + n_full * vpc)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        local = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        return local + seg.start

    def query(
        self,
        lo: Optional[Any],
        hi: Optional[Any],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        threads: Optional[int] = None,
        stats: Optional[ScanStats] = None,
    ) -> NDArray[np.int64]:
        """Exact range select over the indexed prefix, sorted oids.

        Zone maps first: disjoint segments are skipped and fully-covered
        segments accepted wholesale, both without touching data.  Only the
        straddling segments pay an imprint probe + exact verification, and
        those probes fan out over ``threads`` workers through the
        segmented-scan driver, which fills ``stats``.
        """
        values = np.asarray(self.column.values)
        itemsize = int(values.itemsize)
        verdicts = [
            zone_verdict(seg.zmin, seg.zmax, lo, hi, lo_inclusive, hi_inclusive)
            for seg in self.segments
        ]

        def probe(i: int) -> Probe:
            # Imprint probes verify decoded values: all bytes materialized.
            seg = self.segments[i]
            oids = self._probe(values, seg, lo, hi, lo_inclusive, hi_inclusive)
            return oids, seg.n_rows * itemsize, False

        bounds = [(seg.start, seg.stop) for seg in self.segments]
        return scan_segments(
            self.column.name, bounds, verdicts, probe, threads, stats
        )

    # -- diagnostics -----------------------------------------------------------

    def candidate_rows(self, lo: Optional[Any], hi: Optional[Any]) -> NDArray[Any]:
        """Candidate oids (superset of the exact result), sorted."""
        pieces: List[NDArray[Any]] = []
        for seg in self.segments:
            _queries.check_deadline()
            verdict = zone_verdict(seg.zmin, seg.zmax, lo, hi)
            if verdict == ZONE_SKIP:
                continue
            if verdict == ZONE_FULL:
                pieces.append(np.arange(seg.start, seg.stop, dtype=np.int64))
                continue
            lines = self._candidate_lines(seg, lo, hi)
            if lines.shape[0] == 0:
                continue
            rows = (
                lines[:, None] * self.vpc + np.arange(self.vpc, dtype=np.int64)
            ).ravel() + seg.start
            pieces.append(rows[rows < seg.stop])
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def scanned_fraction(self, lo: Optional[Any], hi: Optional[Any]) -> float:
        """Fraction of cache lines whose *data* the query must touch.

        Zone-map skips and wholesale accepts both cost zero data access,
        so only probed segments' candidate lines count.
        """
        total = self.n_lines
        if total == 0:
            return 0.0
        touched = 0
        for seg in self.segments:
            _queries.check_deadline()
            if zone_verdict(seg.zmin, seg.zmax, lo, hi) == ZONE_PROBE:
                touched += int(self._candidate_lines(seg, lo, hi).shape[0])
        return float(touched / total)

    def false_positive_rate(self, lo: Optional[Any], hi: Optional[Any]) -> float:
        """Fraction of candidate rows the exact check discards."""
        rows = self.candidate_rows(lo, hi)
        if rows.shape[0] == 0:
            return 0.0
        exact = self.query(lo, hi)
        return float(1.0 - exact.shape[0] / rows.shape[0])
