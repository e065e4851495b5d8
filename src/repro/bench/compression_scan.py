"""Compressed-execution measurement: packed scans vs. plain scans.

The compression bench (``benchmarks/test_bench_compression.py``) builds
the paper's LAS-style integer coordinate columns, packs them into the
per-segment execution format (:mod:`repro.engine.compressed`) and runs
the E-series selectivity sweep twice per query — once on the packed
segments, once on the plain numpy arrays — recording wall-clock seconds
*and* the bytes each path actually moved (via a query-registry record,
the same accounting ``EXPLAIN ANALYZE`` reports).

The resulting ``BENCH_compression.json`` is the artifact behind the
"evaluate without decompressing" claim: packed range scans must touch at
most half the bytes of the plain scan (minimal-width offsets plus
zone-map pruning) at no worse throughput.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..core.sfc import morton_encode, quantize
from ..engine.select import range_select, theta_select
from ..engine.table import Table
from ..gis.envelope import Box
from ..obs.queries import get_queries
from .harness import best_of

#: LAS-style coordinate resolution: centimetres, as AHN2 ships.
DEFAULT_SCALE = 0.01

#: Selectivity fractions for the E-series range sweep.
DEFAULT_FRACTIONS = (0.001, 0.01, 0.1, 0.5)


def las_integer_columns(
    cloud: Dict[str, NDArray[Any]], extent: Box, scale: float = DEFAULT_SCALE
) -> Dict[str, NDArray[Any]]:
    """The cloud's columns with x/y/z as LAS integer coordinates.

    LAS files store coordinates as ``int32`` counts of a scale unit from
    an offset; the float values the generator produces are the *decoded*
    form.  Re-quantising reproduces the integer columns the paper's
    loader keeps (and that FOR + bit-packing is designed for).
    """
    out: Dict[str, NDArray[Any]] = {}
    offsets = {"x": extent.xmin, "y": extent.ymin, "z": 0.0}
    for name, values in cloud.items():
        if name in offsets:
            out[name] = np.round(
                (values - offsets[name]) / scale
            ).astype(np.int64)
        else:
            out[name] = values
    return out


def morton_order(
    columns: Dict[str, NDArray[Any]], extent: Box, scale: float = DEFAULT_SCALE
) -> Dict[str, NDArray[Any]]:
    """All columns reordered along the Z-order curve of (x, y).

    The paper's stores sort point blocks on a space-filling curve before
    indexing (``BlockStore(sort="morton")``, ``lassort``); zone maps and
    imprints alike depend on that spatial clustering.  The bench applies
    the same ordering so packed segments carry tight zones.
    """
    span_x = (extent.width / scale) or 1.0
    span_y = (extent.height / scale) or 1.0
    codes = morton_encode(
        quantize(columns["x"], 0.0, span_x), quantize(columns["y"], 0.0, span_y)
    )
    order = np.argsort(codes, kind="stable")
    return {name: arr[order] for name, arr in columns.items()}


def build_table(
    columns: Dict[str, NDArray[Any]], segment_rows: Optional[int] = None
) -> Table:
    """A packed table over ``columns`` (compression mirrors built)."""
    table = Table(
        "bench", [(name, arr.dtype) for name, arr in columns.items()]
    )
    table.append_columns(columns)
    table.compress(segment_rows=segment_rows)
    return table


def scan_specs(
    table: Table,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> List[Dict[str, Any]]:
    """The E-series scan workload: range sweeps on x and y plus one
    dictionary-coded equality probe on classification.

    Range bounds are centred quantiles of the actual column values, so a
    fraction maps to (approximately) that result selectivity whatever the
    coordinate distribution.
    """
    specs: List[Dict[str, Any]] = []
    for column in ("x", "y"):
        values = table.column(column).values
        for fraction in fractions:
            lo_q, hi_q = 0.5 - fraction / 2, 0.5 + fraction / 2
            lo, hi = np.quantile(values, [lo_q, hi_q])
            specs.append(
                {
                    "name": f"{column}_sel_{fraction:g}",
                    "kind": "range",
                    "column": column,
                    "lo": float(lo),
                    "hi": float(hi),
                }
            )
    if "classification" in table:
        cls = table.column("classification").values
        constant = int(np.bincount(cls).argmax())
        specs.append(
            {
                "name": "classification_eq",
                "kind": "theta",
                "column": "classification",
                "op": "==",
                "constant": constant,
            }
        )
    return specs


def _run_spec(table: Table, spec: Dict[str, Any]) -> NDArray[Any]:
    column = table.column(spec["column"])
    if spec["kind"] == "range":
        return range_select(column, spec["lo"], spec["hi"])
    return theta_select(column, spec["op"], spec["constant"])


def _measure(
    table: Table, spec: Dict[str, Any], repeats: int
) -> Tuple[Dict[str, object], int]:
    """Best-of seconds plus one attributed run's rows/bytes touched."""
    with get_queries().track("bench", detail={"spec": spec["name"]}) as record:
        result = _run_spec(table, spec)
    seconds = best_of(lambda: _run_spec(table, spec), repeats)
    n = len(table)
    return (
        {
            "seconds": seconds,
            "bytes_touched": int(record.usage.bytes_touched),
            "rows_touched": int(record.usage.rows_touched),
            "throughput_mpts": (n / seconds / 1e6) if seconds > 0 else 0.0,
        },
        int(result.shape[0]),
    )


def measure_query(
    table: Table, spec: Dict[str, Any], repeats: int = 3
) -> Dict[str, object]:
    """One workload query measured packed then plain.

    The plain leg drops the column's compression mirror for the duration
    so both paths run through the same :mod:`repro.engine.select`
    operators; results are asserted identical.
    """
    column = table.column(spec["column"])
    packed_mirror = column.packed
    packed_leg, packed_rows = _measure(table, spec, repeats)
    column.drop_packed()
    try:
        plain_leg, plain_rows = _measure(table, spec, repeats)
    finally:
        if packed_mirror is not None:
            column.adopt_packed(packed_mirror)
    if packed_rows != plain_rows:
        raise AssertionError(
            f"{spec['name']}: packed returned {packed_rows} rows, "
            f"plain {plain_rows}"
        )
    packed_bytes = int(packed_leg["bytes_touched"])  # type: ignore[arg-type]
    plain_bytes = int(plain_leg["bytes_touched"])  # type: ignore[arg-type]
    return {
        "name": spec["name"],
        "column": spec["column"],
        "result_rows": packed_rows,
        "packed": packed_leg,
        "plain": plain_leg,
        "bytes_reduction": (
            plain_bytes / packed_bytes if packed_bytes > 0 else float("inf")
        ),
        "speedup": (
            float(plain_leg["seconds"]) / float(packed_leg["seconds"])  # type: ignore[arg-type]
            if float(packed_leg["seconds"]) > 0  # type: ignore[arg-type]
            else float("inf")
        ),
    }


def column_breakdown(table: Table) -> List[Dict[str, object]]:
    """Per-column scheme mix and bytes/point, packed vs plain."""
    n = max(1, len(table))
    rows: List[Dict[str, object]] = []
    for name, report in sorted(table.compression_report().items()):
        nbytes = int(report["nbytes"])  # type: ignore[arg-type]
        plain = int(report["plain_nbytes"])  # type: ignore[arg-type]
        rows.append(
            {
                "name": name,
                "schemes": report["schemes"],
                "segments": report["segments"],
                "nbytes": nbytes,
                "plain_nbytes": plain,
                "bytes_per_point": nbytes / n,
                "plain_bytes_per_point": plain / n,
            }
        )
    return rows
