"""The per-layer split: which program functions are wrapped, and how
their spans reduce to the per-layer metrics of ``BENCHMARK.json``.

Every layer time is reported per operation (a request, a statement, a
query or an append): the layer's time summed over the run's operations,
divided by their count.  The spans read the wall clock, so the times
compare with ``bench.wall_p50_ms`` and show each layer's share of
blocking time.
A layer a workload never enters reads zero.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .spans import (
    Span,
    SpanRecorder,
    has_ancestor,
    rebind_everywhere,
    self_times,
    wrap_context_method,
    wrap_function,
    wrap_method,
)

#: Root span names that mark one measured operation.
OP_ROOTS = ("bench.op", "serve.handle")


def install(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every measured layer."""
    import repro.cli  # noqa: F401 - loads every module that aliases below
    from repro.engine.parallel import run_tasks
    from repro.api import PointCloudDB
    from repro.core.imprints.manager import ImprintsManager
    from repro.core.query import SpatialSelect
    from repro.engine.compressed import CompressedColumn, ScanStats
    from repro.obs.queries import QueryRegistry
    from repro.serve.admission import AdmissionController
    from repro.serve.service import QueryService
    from repro.serve.snapshot import SnapshotManager
    from repro.sql.executor import Session

    def handle_meta(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        meta = out.headers.get("X-Repro-Meta")
        if meta is not None:
            span.attrs["query_id"] = json.loads(meta).get("query_id")

    def encoded(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        span.attrs["bytes"] = len(out)

    def query_stats(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        stats = out.stats
        span.attrs.update(
            probed=stats.n_segments_probed,
            skipped=stats.n_segments_skipped,
            candidates=stats.n_filter_candidates,
            results=stats.n_results,
        )

    def refine_stats(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        span.attrs.update(
            candidates=len(args[0]), exact=out[1].points_tested_exact
        )

    def sql_profile(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        span.attrs.update(args[0].last_profile)

    def loaded(span: Span, args: tuple, kwargs: dict, out: Any) -> None:
        span.attrs.update(files=out.n_files, points=out.n_points)

    wrap_method(recorder, QueryService, "handle", "serve.handle", handle_meta)
    wrap_context_method(
        recorder, AdmissionController, "admit", "serve.admission_wait", False
    )
    wrap_context_method(recorder, SnapshotManager, "pin", "serve.pin", True)
    wrap_function(
        recorder, "repro.serve.wire", "encode_columns", "wire.encode", encoded
    )
    wrap_method(recorder, SpatialSelect, "query", "query", query_stats)
    wrap_method(
        recorder, ImprintsManager, "range_select", "imprints.range_select"
    )
    wrap_method(recorder, ImprintsManager, "ensure", "imprints.ensure")
    wrap_function(
        recorder, "repro.engine.select", "range_select", "select.range_select"
    )
    wrap_function(recorder, "repro.core.refine", "refine", "refine", refine_stats)
    wrap_function(recorder, "repro.sql.parser", "parse", "sql.parse")
    wrap_method(recorder, Session, "execute", "sql.execute", sql_profile)
    wrap_function(
        recorder, "repro.las.binloader", "load_files", "las.load", loaded
    )
    wrap_method(recorder, PointCloudDB, "save", "storage.save")
    wrap_context_method(recorder, QueryRegistry, "track", "obs.track", True)

    packed_select = CompressedColumn.range_select

    def compressed_range_select(
        self: Any, lo: Any, hi: Any, *args: Any, **kwargs: Any
    ) -> Any:
        # The stats argument is the last of six; a caller that passes
        # none gets a private one so the scan volume can still be read.
        if len(args) >= 4:
            if args[3] is None:
                args = args[:3] + (ScanStats(),) + args[4:]
            stats = args[3]
        else:
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = ScanStats()
        before = (stats.encoded_bytes + stats.materialized_bytes, stats.rows_in)
        span = recorder.open("compressed.range_select")
        try:
            return packed_select(self, lo, hi, *args, **kwargs)
        finally:
            recorder.close(span)
            span.attrs.update(
                bytes=stats.encoded_bytes + stats.materialized_bytes - before[0],
                rows=stats.rows_in - before[1],
            )

    CompressedColumn.range_select = compressed_range_select

    def counted_run_tasks(fn: Any, tasks: Any, *args: Any, **kwargs: Any) -> Any:
        tasks = list(tasks)
        span = recorder.open("parallel.run_tasks")
        span.attrs["tasks"] = len(tasks)
        try:
            return run_tasks(fn, tasks, *args, **kwargs)
        finally:
            recorder.close(span)

    rebind_everywhere(run_tasks, counted_run_tasks)


#: Every per-layer metric name and its unit, in ``BENCHMARK.json`` order.
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.http_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.pin_ms": "ms",
    "serve.service_self_ms": "ms",
    "serve.shed_ratio": "ratio",
    "wire.encode_ms": "ms",
    "wire.bytes_per_req": "B",
    "query.ms": "ms",
    "query.self_ms": "ms",
    "imprints.range_select_ms": "ms",
    "imprints.ensure_ms": "ms",
    "imprints.probed_ratio": "ratio",
    "imprints.candidates_per_result": "ratio",
    "select.range_select_ms": "ms",
    "compressed.range_select_ms": "ms",
    "compressed.bytes_per_row": "B",
    "filter.floor_ratio": "ratio",
    "sql.floor_ratio": "ratio",
    "refine.ms": "ms",
    "refine.exact_fraction": "ratio",
    "sql.parse_ms": "ms",
    "sql.join_filter_ms": "ms",
    "sql.project_ms": "ms",
    "sql.spatial_ms": "ms",
    "las.load_ms": "ms",
    "las.mpts_s": "Mpts/s",
    "storage.save_s": "s",
    "parallel.tasks_per_call": "count",
    "parallel.single_task_ratio": "ratio",
    "obs.track_ms": "ms",
    "bench.open_p50_ms": "ms",
    "bench.open_p90_ms": "ms",
    "bench.max_rate_rps": "req/s",
    "bench.gen_lag_p99_ms": "ms",
    "bench.wall_p50_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.fail_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def in_operation(spans: Iterable[Span]) -> List[Span]:
    """The spans that belong to a measured operation (not to set-up)."""
    spans = list(spans)
    roots = {s.id for s in spans if s.parent is None and s.name in OP_ROOTS}
    return [s for s in spans if s.op in roots]


def filter_seconds(spans: Iterable[Span]) -> float:
    """Time the spatial queries spent in their filter step: the imprint
    and plain range selects called directly by ``SpatialSelect.query``."""
    spans = list(spans)
    queries = {s.id for s in spans if s.name == "query"}
    return sum(
        s.duration
        for s in spans
        if s.parent in queries
        and s.name in ("imprints.range_select", "select.range_select")
    )


def layer_metrics(spans: Iterable[Span], n_ops: int) -> Dict[str, float]:
    """Reduce a run's spans to the per-layer metrics they determine.

    ``spans`` is every span of the run, set-up included; load and save
    metrics use all of them, the rest only those inside an operation.
    Metrics the spans cannot give (HTTP time, shedding, floors, lateness,
    overhead, failures) read 0 until the workload that measures them
    fills them in.
    """
    spans = list(spans)
    ops = in_operation(spans)
    own = self_times(ops)
    by_id = {s.id: s for s in ops}
    total: Dict[str, float] = {}
    self_total: Dict[str, float] = {}
    for span in ops:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + own[span.id]

    def per_op_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3, n_ops)

    def attr_sum(name: str, key: str, among: Iterable[Span] = ops) -> float:
        return float(sum(s.attrs.get(key, 0) for s in among if s.name == name))

    queries = [s for s in ops if s.name == "query"]
    statements = [s for s in ops if s.name == "sql.execute"]
    tasks = [s for s in ops if s.name == "parallel.run_tasks"]
    # Loads that are operations (appends) when there are any, else the
    # bulk loads of set-up.
    loads = [s for s in ops if s.name == "las.load"] or [
        s for s in spans if s.name == "las.load"
    ]
    saves = [s for s in spans if s.name == "storage.save"]
    probed = attr_sum("query", "probed")
    load_seconds = sum(s.duration for s in loads)
    return {
        **dict.fromkeys(PER_LAYER_UNITS, 0.0),
        "serve.admission_wait_ms": per_op_ms(total.get("serve.admission_wait", 0.0)),
        "serve.pin_ms": per_op_ms(total.get("serve.pin", 0.0)),
        "serve.service_self_ms": per_op_ms(self_total.get("serve.handle", 0.0)),
        "wire.encode_ms": per_op_ms(total.get("wire.encode", 0.0)),
        "wire.bytes_per_req": _ratio(attr_sum("wire.encode", "bytes"), n_ops),
        "query.ms": per_op_ms(total.get("query", 0.0)),
        "query.self_ms": per_op_ms(self_total.get("query", 0.0)),
        "imprints.range_select_ms": per_op_ms(
            total.get("imprints.range_select", 0.0)
        ),
        "imprints.ensure_ms": per_op_ms(total.get("imprints.ensure", 0.0)),
        "imprints.probed_ratio": _ratio(
            probed, probed + attr_sum("query", "skipped")
        ),
        "imprints.candidates_per_result": _ratio(
            attr_sum("query", "candidates"), attr_sum("query", "results")
        ),
        "select.range_select_ms": per_op_ms(total.get("select.range_select", 0.0)),
        "compressed.range_select_ms": per_op_ms(
            total.get("compressed.range_select", 0.0)
        ),
        "compressed.bytes_per_row": _ratio(
            attr_sum("compressed.range_select", "bytes"),
            attr_sum("compressed.range_select", "rows"),
        ),
        "refine.ms": per_op_ms(total.get("refine", 0.0)),
        "refine.exact_fraction": _ratio(
            attr_sum("refine", "exact"), attr_sum("refine", "candidates")
        ),
        "sql.parse_ms": per_op_ms(total.get("sql.parse", 0.0)),
        "sql.join_filter_ms": per_op_ms(
            attr_sum("sql.execute", "join_filter", statements)
        ),
        "sql.project_ms": per_op_ms(attr_sum("sql.execute", "project", statements)),
        "sql.spatial_ms": per_op_ms(
            sum(s.duration for s in queries if has_ancestor(s, "sql.execute", by_id))
        ),
        "las.load_ms": _ratio(load_seconds * 1e3, attr_sum("las.load", "files", loads)),
        "las.mpts_s": _ratio(attr_sum("las.load", "points", loads) / 1e6, load_seconds),
        "storage.save_s": _ratio(sum(s.duration for s in saves), len(saves)),
        "parallel.tasks_per_call": _ratio(
            attr_sum("parallel.run_tasks", "tasks", tasks), len(tasks)
        ),
        "parallel.single_task_ratio": _ratio(
            sum(1 for s in tasks if s.attrs["tasks"] <= 1), len(tasks)
        ),
        "obs.track_ms": per_op_ms(total.get("obs.track", 0.0)),
    }
