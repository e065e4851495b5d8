"""Query execution: vectorised evaluation with an imprints fast path.

The executor mirrors the paper's architecture instead of being a toy
interpreter:

* **Spatial predicate push-down** — a WHERE conjunct of the form
  ``ST_Contains(<const geometry>, ST_Point(t.x, t.y))`` (or
  ``ST_DWithin(..., d)`` / ``ST_Intersects``) against a relation that was
  registered as a point table is routed through
  :class:`repro.core.query.SpatialSelect` — i.e. through the column
  imprints filter and grid refinement.  Everything else evaluates as
  vectorised numpy expressions.
* **Joins** — inner/cross joins filter the smaller relations and probe
  the point table per outer row, which is exactly how the Scenario-2
  queries ("LIDAR points near a fast transit road") want to run: one
  imprints-backed spatial probe per zone.  Every join strategy yields a
  join index (one row-id array per table binding); column values are
  gathered late, only for the columns the query references.
* **Aggregation** — ``GROUP BY`` groups once per statement through
  :mod:`repro.engine.aggregate` and evaluates every select item as one
  value per group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.imprints import ImprintsManager
from ..core.query import QueryStats, SpatialSelect
from ..engine.aggregate import Grouping, group_rows
from ..engine.column import Column
from ..engine.join import hash_join
from ..engine.scan import ScanStats
from ..engine.select import range_select as engine_range_select
from ..engine.table import Table
from ..gis.geometry import Geometry
from ..obs.context import ObsContext, default_context
from ..obs.queries import get_queries
from ..obs.resources import ResourceTracker, ResourceUsage
from ..obs.timing import now
from ..obs.trace import format_tree, maybe_span
from . import ast
from .functions import AGGREGATES, call
from .parser import parse

#: ``EXPLAIN [ANALYZE] <select>`` prefix, handled before the SELECT parser.
_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\s+", re.IGNORECASE)


class SqlExecutionError(ValueError):
    """Raised on semantic errors: unknown tables/columns, bad aggregates."""


@dataclass
class Relation:
    """A queryable relation: named columns plus optional index access.

    ``spatial`` enables the two-step pipeline for spatial conjuncts;
    ``table``/``manager`` enable imprints on *any* column for plain range
    conjuncts (MonetDB builds imprints for whatever column a range query
    first touches, not just coordinates).
    """

    name: str
    columns: Dict[str, np.ndarray]
    spatial: Optional[SpatialSelect] = None
    table: Optional[Table] = None
    manager: Optional[ImprintsManager] = None

    def __post_init__(self) -> None:
        lengths = {arr.shape[0] for arr in self.columns.values()}
        if len(lengths) > 1:
            raise SqlExecutionError(
                f"relation {self.name!r} has ragged columns {sorted(lengths)}"
            )
        self.n_rows = lengths.pop() if lengths else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SqlExecutionError(
                f"relation {self.name!r} has no column {name!r}"
            ) from None

    def refresh(self) -> None:
        """Re-snapshot from the backing table if it grew since
        registration (keeps long-lived sessions append-consistent)."""
        if self.table is None or len(self.table) == self.n_rows:
            return
        self.columns = {
            name: np.asarray(self.table.column(name).values)
            for name in self.table.column_names
        }
        self.n_rows = len(self.table)


@dataclass
class Result:
    """A query result: column names and row tuples."""

    columns: List[str]
    rows: List[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]

    def scalar(self):
        """The single value of a 1x1 result (aggregates)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlExecutionError(
                f"scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class Session:
    """A SQL session over registered relations.

    Parameters
    ----------
    manager:
        Shared imprints manager for point tables (created when omitted).
    obs:
        The observability context queries run under (tracer, metrics,
        query registry); the process default when omitted, so existing
        callers keep the singleton behaviour.
    """

    def __init__(
        self,
        manager: Optional[ImprintsManager] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.manager = manager if manager is not None else ImprintsManager()
        self.obs = obs if obs is not None else default_context()
        self._relations: Dict[str, Relation] = {}
        #: Per-phase wall-clock seconds of the most recent execute() —
        #: the demo's "execution time spent in each operator" view.
        self.last_profile: Dict[str, float] = {}
        #: Resource attribution (CPU, allocations, data touched) of the
        #: most recent execute(); None before the first query.
        self.last_resources: Optional[ResourceUsage] = None
        #: Registry identity of the most recent execute() (None before
        #: the first query and after EXPLAIN, which is not tracked).
        self.last_query_id: Optional[str] = None

    # -- registration ---------------------------------------------------------------

    def register_table(
        self,
        table: Table,
        point_columns: Optional[Tuple[str, str]] = ("x", "y"),
    ) -> Relation:
        """Register an engine flat table.

        With ``point_columns`` the relation gets a :class:`SpatialSelect`
        and spatial WHERE conjuncts on those columns use the imprints
        pipeline.
        """
        columns = {
            name: np.asarray(table.column(name).values)
            for name in table.column_names
        }
        spatial = None
        if point_columns is not None:
            x_col, y_col = point_columns
            if x_col in table and y_col in table:
                spatial = SpatialSelect(
                    table,
                    x_column=x_col,
                    y_column=y_col,
                    manager=self.manager,
                    threads=self.manager.threads,
                )
        relation = Relation(
            name=table.name,
            columns=columns,
            spatial=spatial,
            table=table,
            manager=self.manager,
        )
        self._relations[table.name] = relation
        return relation

    def register_columns(self, name: str, columns: Dict[str, Sequence]) -> Relation:
        """Register an ad-hoc relation (object columns allowed: strings,
        geometries)."""
        arrays: Dict[str, np.ndarray] = {}
        for col_name, values in columns.items():
            arr = np.asarray(values)
            if arr.dtype.kind in "OU" or (
                arr.dtype == object
            ):
                out = np.empty(len(values), dtype=object)
                out[:] = list(values)
                arr = out
            arrays[col_name] = arr
        relation = Relation(name=name, columns=arrays)
        self._relations[name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SqlExecutionError(f"unknown table {name!r}") from None

    # -- execution ---------------------------------------------------------------------

    def execute(self, sql: str, timeout_s: Optional[float] = None) -> Result:
        """Parse and run one SELECT statement.

        ``EXPLAIN <select>`` returns the plan text as a one-column result;
        ``EXPLAIN ANALYZE <select>`` runs the query under the tracer and
        returns the per-operator span tree (timings + cardinalities).

        ``last_profile`` afterwards holds per-phase seconds:
        ``parse``, ``join_filter`` (scans, index probes, joins),
        ``project`` (projection/aggregation/order/limit) and ``total``.

        ``timeout_s`` arms a cooperative deadline checked at morsel and
        segment boundaries; exceeding it raises
        :class:`~repro.obs.queries.QueryCancelled` (a spatial sub-query
        inherits the tighter of its own and this deadline).
        """
        prefix = _EXPLAIN_RE.match(sql)
        if prefix is not None:
            body = sql[prefix.end():]
            text = (
                self.explain_analyze(body)
                if prefix.group(1)
                else self.explain(body)
            )
            return Result(
                columns=["plan"], rows=[(line,) for line in text.splitlines()]
            )

        # The tracker nests inside any caller's tracker (the spatial
        # sub-query's own tracker nests inside this one in turn), so the
        # SQL statement's attribution includes its index probes.
        tracker = ResourceTracker()
        with self.obs.activate(), get_queries().track(
            "sql",
            detail={"sql": sql.strip()},
            timeout_s=timeout_s,
            tracker=tracker,
        ) as active, tracker, maybe_span(
            "sql.query", sql=sql.strip()
        ) as query_span:
            query_span.set(query_id=active.query_id)
            trace_id = getattr(query_span, "trace_id", 0)
            if trace_id:
                active.set_trace(int(trace_id))
            t0 = now()
            active.set_phase("parse")
            with maybe_span("sql.parse"):
                select = parse(sql)
            t1 = now()
            active.set_phase("execute")
            result, t_join = self._run_profiled(select)
            t2 = now()
            query_span.set(rows_out=len(result.rows))
        self.last_resources = tracker.usage
        self.last_query_id = active.query_id
        self.last_profile = {
            "parse": t1 - t0,
            "join_filter": t_join,
            "project": (t2 - t1) - t_join,
            "total": t2 - t0,
        }
        registry = self.obs.registry
        registry.counter("sql.queries").inc()
        registry.histogram("sql.seconds").observe(t2 - t0)
        return result

    def _run_profiled(self, select: ast.Select):
        refs: List[ast.TableRef] = list(select.tables)
        conjuncts: List[ast.Node] = []
        for table_ref, condition in select.joins:
            refs.append(table_ref)
            conjuncts.extend(_conjuncts_of(condition))
        conjuncts.extend(_conjuncts_of(select.where))

        bindings = []
        seen = set()
        for ref in refs:
            if ref.binding in seen:
                raise SqlExecutionError(
                    f"duplicate table binding {ref.binding!r}"
                )
            seen.add(ref.binding)
            relation = self.relation(ref.name)
            relation.refresh()
            bindings.append((ref.binding, relation))

        t0 = now()
        frame = _join(bindings, conjuncts)
        t_join = now() - t0
        return _project(select, frame), t_join

    def explain(self, sql: str) -> str:
        """The query plan as text (the demo lets users "see the plans of
        the queries", Section 4.2).

        Shows the join strategy, which conjuncts push down through which
        index (spatial pipeline / column imprint), and what remains as
        residual vectorised filters.
        """
        select = parse(sql)
        refs: List[ast.TableRef] = list(select.tables)
        conjuncts: List[ast.Node] = []
        for table_ref, condition in select.joins:
            refs.append(table_ref)
            conjuncts.extend(_conjuncts_of(condition))
        conjuncts.extend(_conjuncts_of(select.where))
        bindings = [(ref.binding, self.relation(ref.name)) for ref in refs]
        return _explain_plan(select, bindings, conjuncts)

    def explain_analyze(self, sql: str) -> str:
        """Run the query under the tracer and render the operator tree.

        Each line is one span: operator name, wall-clock milliseconds and
        the attributes the operator recorded (rows in/out, segments
        skipped/probed, ...).  Works whether or not tracing is enabled
        globally — the capture context force-enables it for this query.
        """
        tracer = self.obs.tracer
        with tracer.capture() as spans:
            result = self.execute(sql)
        roots = [s for s in spans if s.name == "sql.query"]
        if roots:
            trace_id = roots[-1].trace_id
            spans = [s for s in spans if s.trace_id == trace_id]
        tree = format_tree(spans)
        footer = ""
        usage = self.last_resources
        if usage is not None:
            footer = (
                f"cpu: {usage.cpu_seconds * 1e3:.3f} ms"
                f" (workers {usage.worker_cpu_seconds * 1e3:.3f} ms)"
                f"; touched: {usage.rows_touched} rows"
                f" / {usage.bytes_touched} bytes"
            )
            if usage.peak_alloc_bytes is not None:
                footer += f"; peak alloc: {usage.peak_alloc_bytes} bytes"
            footer += "\n"
        footer += f"rows returned: {len(result.rows)}"
        return tree + ("\n" if tree else "") + footer



# -- the evaluation frame -----------------------------------------------------------


#: Scalar bindings of enclosing nested-loop rows: ``binding -> (columns, row)``.
_Outer = Dict[str, Tuple[Dict[str, np.ndarray], int]]


class _Frame:
    """A join-index frame: per binding, the relation's columns and one
    aligned ``int64`` row-id array.

    Values are fetched late: a column is gathered on its first lookup and
    cached.  ``outer`` holds scalar bindings (one row of an enclosing
    nested-loop relation).  A bare column name resolves to the one row-id
    binding that has it, else to the one scalar binding that has it.
    """

    def __init__(
        self,
        bindings: Dict[str, Tuple[Dict[str, np.ndarray], np.ndarray]],
        n_rows: int,
        outer: Optional[_Outer] = None,
    ) -> None:
        self.bindings = bindings
        self.outer = outer if outer is not None else {}
        self.n_rows = n_rows
        self._gathered: Dict[Tuple[str, str], object] = {}

    def lookup(self, ref: ast.ColumnRef):
        binding = ref.table if ref.table is not None else self._owner(ref.name)
        key = (binding, ref.name)
        if key not in self._gathered:
            columns, rows = self.bindings.get(binding) or self.outer.get(
                binding, ({}, 0)
            )
            if ref.name not in columns:
                raise SqlExecutionError(f"unknown column {ref.qualified!r}")
            self._gathered[key] = columns[ref.name][rows]
        return self._gathered[key]

    def _owner(self, name: str) -> str:
        for level in (self.bindings, self.outer):
            owners = [b for b, (columns, _) in level.items() if name in columns]
            if len(owners) > 1:
                raise SqlExecutionError(f"ambiguous column {name!r}")
            if owners:
                return owners[0]
        raise SqlExecutionError(f"unknown column {name!r}")

    def take(self, mask: np.ndarray) -> "_Frame":
        """The frame rows where ``mask`` holds (row ids only, no values)."""
        return _Frame(
            {b: (cols, rows[mask]) for b, (cols, rows) in self.bindings.items()},
            n_rows=int(np.count_nonzero(mask)),
            outer=self.outer,
        )

    def star(self) -> List[Tuple[str, np.ndarray]]:
        """Every row-id binding's columns, qualified, in binding order."""
        return [
            (f"{binding}.{name}", self.lookup(ast.ColumnRef(name, binding)))
            for binding, (columns, _) in self.bindings.items()
            for name in columns
        ]


def _evaluate(node: ast.Node, frame: _Frame):
    """Evaluate an expression to a scalar or an array of frame length."""
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.ColumnRef):
        return frame.lookup(node)
    if isinstance(node, ast.UnaryOp):
        return _unary(node.op, _evaluate(node.operand, frame))
    if isinstance(node, ast.BinOp):
        return _binop(
            node.op, _evaluate(node.left, frame), _evaluate(node.right, frame)
        )
    if isinstance(node, ast.Between):
        value = _evaluate(node.expr, frame)
        low = _evaluate(node.low, frame)
        high = _evaluate(node.high, frame)
        result = (value >= low) & (value <= high)
        return ~result if node.negated else result
    if isinstance(node, ast.InList):
        value = _evaluate(node.expr, frame)
        options = [_evaluate(opt, frame) for opt in node.options]
        if isinstance(value, np.ndarray):
            result = np.zeros(value.shape[0], dtype=bool)
            for opt in options:
                result |= value == opt
            return ~result if node.negated else result
        result = any(value == opt for opt in options)
        return (not result) if node.negated else result
    if isinstance(node, ast.FuncCall):
        if node.name in AGGREGATES:
            raise SqlExecutionError(
                f"aggregate {node.name}() is not allowed here"
            )
        args = [_evaluate(arg, frame) for arg in node.args]
        return call(node.name, args)
    if isinstance(node, ast.Star):
        raise SqlExecutionError("* is only valid as a select item or in count(*)")
    raise SqlExecutionError(f"cannot evaluate {type(node).__name__}")


def _unary(op: str, value):
    if op == "-":
        return -value
    if op == "not":
        return ~_as_bool(value) if isinstance(value, np.ndarray) else not value
    raise SqlExecutionError(f"unknown unary op {op!r}")


def _binop(op: str, left, right):
    """One operator over scalars or aligned arrays (element-wise)."""
    if op == "and":
        return _as_bool(left) & _as_bool(right)
    if op == "or":
        return _as_bool(left) | _as_bool(right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise SqlExecutionError(f"unknown operator {op!r}")


def _as_bool(value):
    if isinstance(value, np.ndarray):
        return value.astype(bool)
    return bool(value)


def _mask(conjuncts: List[ast.Node], frame: _Frame) -> np.ndarray:
    """The frame rows satisfying every conjunct."""
    mask = np.ones(frame.n_rows, dtype=bool)
    for conjunct in conjuncts:
        mask &= _as_bool(_evaluate(conjunct, frame))
    return mask


# -- spatial push-down ----------------------------------------------------------------


_SPATIAL_FUNCS = {"st_contains", "st_within", "st_intersects", "st_dwithin"}


def _conjuncts_of(node: Optional[ast.Node]) -> List[ast.Node]:
    if node is None:
        return []
    if isinstance(node, ast.BinOp) and node.op == "and":
        return _conjuncts_of(node.left) + _conjuncts_of(node.right)
    return [node]


def _refs_binding(node: ast.Node, binding: str, bare_ok: set) -> bool:
    """Does the expression reference columns of the given binding?"""
    for ref in ast.column_refs(node):
        if ref.table == binding:
            return True
        if ref.table is None and ref.name in bare_ok:
            return True
    return False


def _match_spatial(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[Tuple[ast.Node, str, Optional[ast.Node]]]:
    """Recognise a pushable spatial conjunct against the point relation.

    Returns ``(geometry_expr, predicate, distance_expr)`` when the
    conjunct is ``ST_Contains(G, ST_Point(x, y))`` (or within/intersects/
    dwithin variants) with G free of this relation's columns and (x, y)
    the relation's registered point columns.
    """
    if relation.spatial is None or not isinstance(conjunct, ast.FuncCall):
        return None
    name = conjunct.name
    if name not in _SPATIAL_FUNCS:
        return None
    args = list(conjunct.args)
    distance = None
    if name == "st_dwithin":
        if len(args) != 3:
            return None
        distance = args.pop()
    elif len(args) != 2:
        return None

    x_col = relation.spatial.x_column
    y_col = relation.spatial.y_column

    def is_point_of_relation(node: ast.Node) -> bool:
        if not (isinstance(node, ast.FuncCall) and node.name in ("st_point", "st_makepoint")):
            return False
        if len(node.args) != 2:
            return False
        ax, ay = node.args
        return (
            isinstance(ax, ast.ColumnRef)
            and isinstance(ay, ast.ColumnRef)
            and ax.name == x_col
            and ay.name == y_col
            and (ax.table in (None, binding))
            and (ay.table in (None, binding))
        )

    bare = set(relation.columns)
    for i, arg in enumerate(args):
        other = args[1 - i]
        if is_point_of_relation(arg) and not _refs_binding(other, binding, bare):
            if distance is not None and _refs_binding(distance, binding, bare):
                return None
            predicate = "dwithin" if name == "st_dwithin" else "contains"
            if name == "st_within" and i == 1:
                # ST_Within(G, point): the point must contain G -> not pushable.
                return None
            if name == "st_contains" and i == 0:
                # ST_Contains(point, G): only true for point == G -> skip.
                return None
            return other, predicate, distance
    return None


_RANGE_OPS = {"<", "<=", ">", ">=", "="}


def _match_range(
    conjunct: ast.Node, binding: str, relation: Relation
) -> Optional[Tuple[str, ast.Node, ast.Node, bool, bool]]:
    """Recognise an imprint-pushable range conjunct on this relation.

    Returns ``(column, lo_expr, hi_expr, lo_inclusive, hi_inclusive)``
    (either bound may be None) for patterns like ``t.z > c``,
    ``c >= t.z``, ``t.z = c`` and ``t.z BETWEEN a AND b``.  Pushable
    means the relation can serve the range from an index-shaped access
    path: an imprints manager, or a compressed execution mirror whose
    packed segments the select kernels scan directly.
    """
    if relation.table is None:
        return None

    def own_column(node: ast.Node) -> Optional[str]:
        if not isinstance(node, ast.ColumnRef):
            return None
        if node.table not in (None, binding):
            return None
        if node.name not in relation.columns:
            return None
        # Imprints only make sense on numeric columns.
        if relation.columns[node.name].dtype == object:
            return None
        if relation.manager is None and (
            relation.table is None
            or node.name not in relation.table
            or relation.table.column(node.name).packed is None
        ):
            return None
        return node.name

    bare = set(relation.columns)
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        name = own_column(conjunct.expr)
        if name is None:
            return None
        if _refs_binding(conjunct.low, binding, bare) or _refs_binding(
            conjunct.high, binding, bare
        ):
            return None
        return (name, conjunct.low, conjunct.high, True, True)
    if isinstance(conjunct, ast.BinOp) and conjunct.op in _RANGE_OPS:
        for col_side, const_side, flip in (
            (conjunct.left, conjunct.right, False),
            (conjunct.right, conjunct.left, True),
        ):
            name = own_column(col_side)
            if name is None or _refs_binding(const_side, binding, bare):
                continue
            op = conjunct.op
            if flip:  # c OP column  ->  column OP' c
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
            if op == "=":
                return (name, const_side, const_side, True, True)
            if op in ("<", "<="):
                return (name, None, const_side, True, op == "<=")
            return (name, const_side, None, op == ">=", True)
    return None


def _range_via_packed(relation: Relation, name: str) -> bool:
    """Serve a pushed range from the column's packed segments?

    A *built* imprint still wins (bit-level filtering beats zone maps on
    straddling segments); otherwise an existing compressed mirror is
    used as-is instead of paying a lazy imprint build — its encode-time
    zone maps already prune segments, and the packed kernels evaluate
    the rest without decoding.
    """
    if relation.table is None or name not in relation.table:
        return False
    if relation.table.column(name).packed is None:
        return False
    if relation.manager is None:
        return True
    return relation.manager.get(relation.table, name) is None


def _filter_relation(
    binding: str,
    relation: Relation,
    conjuncts: List[ast.Node],
    outer: _Outer,
) -> np.ndarray:
    """Row indices of ``relation`` satisfying the conjuncts.

    Spatial conjuncts route through the imprints pipeline; the rest
    evaluate vectorised over the surviving candidates.  ``outer`` supplies
    scalar bindings from enclosing join loops.
    """
    with maybe_span(
        "scan", table=relation.name, binding=binding, rows_in=relation.n_rows
    ) as scan_span:
        result = _filter_relation_inner(binding, relation, conjuncts, outer)
        scan_span.set(rows_out=int(result.shape[0]))
    return result


def _filter_relation_inner(
    binding: str,
    relation: Relation,
    conjuncts: List[ast.Node],
    outer: _Outer,
) -> np.ndarray:
    scalar_frame = _Frame({}, n_rows=0, outer=outer)
    candidates: Optional[np.ndarray] = None
    residual: List[ast.Node] = []

    for conjunct in conjuncts:
        matched = _match_spatial(conjunct, binding, relation)
        if matched is None:
            residual.append(conjunct)
            continue
        geom_expr, predicate, distance_expr = matched
        geometry = _evaluate(geom_expr, scalar_frame)
        if not isinstance(geometry, Geometry):
            raise SqlExecutionError(
                "spatial predicate needs a geometry argument"
            )
        distance = (
            float(_evaluate(distance_expr, scalar_frame))
            if distance_expr is not None
            else 0.0
        )
        with maybe_span(
            "filter.spatial",
            predicate=predicate,
            expr=_describe_expr(conjunct),
        ) as spatial_span:
            query_result = relation.spatial.query(geometry, predicate, distance)
            oids = query_result.oids
            spatial_span.set(
                rows_out=int(oids.shape[0]),
                segments_skipped=query_result.stats.n_segments_skipped,
                segments_probed=query_result.stats.n_segments_probed,
            )
        candidates = (
            oids
            if candidates is None
            else np.intersect1d(candidates, oids, assume_unique=True)
        )

    if candidates is None:
        # No spatial index hit: push one plain range conjunct through its
        # column's imprint (built lazily, exactly MonetDB's trigger).
        for position, conjunct in enumerate(residual):
            matched = _match_range(conjunct, binding, relation)
            if matched is None:
                continue
            name, lo_expr, hi_expr, lo_inc, hi_inc = matched
            lo = (
                _evaluate(lo_expr, scalar_frame) if lo_expr is not None else None
            )
            hi = (
                _evaluate(hi_expr, scalar_frame) if hi_expr is not None else None
            )
            with maybe_span(
                "filter.range", column=name, expr=_describe_expr(conjunct)
            ) as range_span:
                stats = QueryStats()
                if _range_via_packed(relation, name):
                    scan = ScanStats()
                    candidates = engine_range_select(
                        relation.table.column(name),
                        lo,
                        hi,
                        lo_inc,
                        hi_inc,
                        stats=scan,
                    )
                    stats.add_scan(scan)
                    range_span.set(access="packed")
                else:
                    candidates = relation.manager.range_select(
                        relation.table,
                        name,
                        lo,
                        hi,
                        lo_inc,
                        hi_inc,
                        stats=stats,
                    )
                range_span.set(
                    rows_out=int(candidates.shape[0]),
                    segments_skipped=stats.n_segments_skipped,
                    segments_probed=stats.n_segments_probed,
                )
            del residual[position]
            break

    if candidates is None:
        candidates = np.arange(relation.n_rows, dtype=np.int64)
    if not residual or candidates.shape[0] == 0:
        return candidates

    with maybe_span("filter.residual", conjuncts=len(residual)) as residual_span:
        frame = _Frame(
            {binding: (relation.columns, candidates)},
            n_rows=candidates.shape[0],
            outer=outer,
        )
        result = candidates[_mask(residual, frame)]
        residual_span.set(
            rows_in=int(candidates.shape[0]), rows_out=int(result.shape[0])
        )
    return result


# -- joins -----------------------------------------------------------------------------


def _applicable(conjunct: ast.Node, available: set, bindings_bare: Dict[str, set]) -> bool:
    """Can the conjunct be evaluated once ``available`` bindings are bound?"""
    for ref in ast.column_refs(conjunct):
        if ref.table is not None:
            if ref.table not in available:
                return False
        else:
            owners = {
                b for b, cols in bindings_bare.items() if ref.name in cols
            }
            if not owners <= available:
                return False
    return True


def _match_equi_join(
    conjunct: ast.Node, binding_a: str, binding_b: str, bare: Dict[str, set]
) -> Optional[Tuple[str, str]]:
    """Recognise ``a.col = b.col`` between exactly the two bindings.

    Returns the (a_column, b_column) pair or None.
    """
    if not (isinstance(conjunct, ast.BinOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None

    def owner(ref: ast.ColumnRef) -> Optional[str]:
        if ref.table is not None:
            return ref.table if ref.table in (binding_a, binding_b) else None
        holders = [b for b in (binding_a, binding_b) if ref.name in bare[b]]
        return holders[0] if len(holders) == 1 else None

    owner_left, owner_right = owner(left), owner(right)
    if owner_left == binding_a and owner_right == binding_b:
        return (left.name, right.name)
    if owner_left == binding_b and owner_right == binding_a:
        return (right.name, left.name)
    return None


def _hash_equi_join(
    bindings: List[Tuple[str, Relation]],
    conjuncts: List[ast.Node],
    key_cols: Tuple[str, str],
    equi_conjunct: ast.Node,
    bindings_bare: Dict[str, set],
) -> _Frame:
    """Two-relation equality join via the engine's hash join."""
    (binding_a, rel_a), (binding_b, rel_b) = bindings
    col_a, col_b = key_cols

    with maybe_span(
        "join.hash",
        left=rel_a.name,
        right=rel_b.name,
        on=f"{binding_a}.{col_a} = {binding_b}.{col_b}",
    ) as join_span:
        remaining = [c for c in conjuncts if c is not equi_conjunct]
        own_a = [c for c in remaining if _applicable(c, {binding_a}, bindings_bare)]
        own_b = [c for c in remaining if _applicable(c, {binding_b}, bindings_bare)]
        residual = [c for c in remaining if c not in own_a and c not in own_b]
        idx_a = _filter_relation(binding_a, rel_a, own_a, outer={})
        idx_b = _filter_relation(binding_b, rel_b, own_b, outer={})

        left = Column.from_array("l", np.asarray(rel_a.columns[col_a]))
        right = Column.from_array("r", np.asarray(rel_b.columns[col_b]))
        pairs_a, pairs_b = hash_join(
            left, right, left_candidates=idx_a, right_candidates=idx_b
        )
        frame = _Frame(
            {binding_a: (rel_a.columns, pairs_a), binding_b: (rel_b.columns, pairs_b)},
            n_rows=pairs_a.shape[0],
        )
        join_span.set(rows_out=frame.n_rows)
        if residual:
            frame = frame.take(_mask(residual, frame))
            join_span.set(rows_out=frame.n_rows)
    return frame


def _join(
    bindings: List[Tuple[str, Relation]], conjuncts: List[ast.Node]
) -> _Frame:
    """Materialise the (filtered) join of the registered relations.

    Two relations joined on plain column equality use the engine's hash
    join; otherwise the largest relation becomes the inner probe (it is
    the point table in every demo query) and the others iterate as outer
    loops with their own single-table filters applied first.
    """
    bindings_bare = {b: set(rel.columns) for b, rel in bindings}

    if len(bindings) == 2:
        binding_a, binding_b = bindings[0][0], bindings[1][0]
        for conjunct in conjuncts:
            key_cols = _match_equi_join(
                conjunct, binding_a, binding_b, bindings_bare
            )
            if key_cols is not None and not (
                bindings[0][1].columns[key_cols[0]].dtype == object
                or bindings[1][1].columns[key_cols[1]].dtype == object
            ):
                return _hash_equi_join(
                    bindings, conjuncts, key_cols, conjunct, bindings_bare
                )

    if len(bindings) == 1:
        binding, relation = bindings[0]
        idx = _filter_relation(binding, relation, conjuncts, outer={})
        return _Frame({binding: (relation.columns, idx)}, n_rows=idx.shape[0])

    # Multi-way: probe = largest relation; outers = the rest, in order.
    probe_pos = max(range(len(bindings)), key=lambda i: bindings[i][1].n_rows)
    probe_binding, probe_relation = bindings[probe_pos]
    outers = [b for i, b in enumerate(bindings) if i != probe_pos]

    with maybe_span(
        "join.nested_loop",
        probe=probe_relation.name,
        outers=len(outers),
    ) as join_span:
        # Per-outer single-table filters run once, before the loops.
        remaining = list(conjuncts)
        outer_rows: List[Tuple[str, Relation, np.ndarray]] = []
        for binding, relation in outers:
            own = [
                c
                for c in remaining
                if _applicable(c, {binding}, bindings_bare)
            ]
            remaining = [c for c in remaining if c not in own]
            idx = _filter_relation(binding, relation, own, outer={})
            outer_rows.append((binding, relation, idx))

        # Join index: per binding, the row-id runs of each probe hit; an
        # outer row repeats once per probe row it matched.
        row_ids: Dict[str, List[np.ndarray]] = {
            binding: [] for binding, _, _ in outer_rows
        }
        row_ids[probe_binding] = []

        def recurse(level: int, outer_env: _Outer) -> None:
            if level == len(outer_rows):
                idx = _filter_relation(
                    probe_binding, probe_relation, remaining, outer=outer_env
                )
                row_ids[probe_binding].append(idx)
                for binding, (_, row) in outer_env.items():
                    row_ids[binding].append(
                        np.full(idx.shape[0], row, dtype=np.int64)
                    )
                return
            binding, relation, idx = outer_rows[level]
            for row in idx:
                recurse(level + 1, {**outer_env, binding: (relation.columns, row)})

        recurse(0, {})

        relations = dict(bindings)
        frame = _Frame(
            {
                binding: (
                    relations[binding].columns,
                    np.concatenate(runs) if runs else np.empty(0, dtype=np.int64),
                )
                for binding, runs in row_ids.items()
            },
            n_rows=sum(run.shape[0] for run in row_ids[probe_binding]),
        )
        join_span.set(rows_out=frame.n_rows)
    return frame


# -- projection and aggregation ------------------------------------------------------------


def _has_aggregate(node: ast.Node) -> bool:
    return any(
        isinstance(n, ast.FuncCall) and n.name in AGGREGATES
        for n in ast.walk(node)
    )


def _item_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"col{position}"


def _project(select: ast.Select, frame: _Frame) -> Result:
    aggregate_query = bool(select.group_by) or any(
        _has_aggregate(item.expr) for item in select.items
    )
    if aggregate_query:
        with maybe_span("aggregate", rows_in=frame.n_rows) as span:
            result, n_groups = _aggregate(select, frame)
            span.set(rows_out=len(result.rows), groups=n_groups)
    else:
        with maybe_span("project", rows_in=frame.n_rows) as span:
            result = _plain_project(select, frame)
            span.set(rows_out=len(result.rows))

    if select.distinct:
        seen = set()
        deduped = []
        for row in result.rows:
            try:
                key = row
                hash(key)
            except TypeError:
                key = tuple(repr(v) for v in row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        result = Result(columns=result.columns, rows=deduped)

    if select.order_by:
        keys = []
        for order_item in reversed(select.order_by):
            values = _evaluate_ordering(order_item.expr, result, frame)
            keys.append((values, order_item.descending))
        indices = list(range(len(result.rows)))
        for values, descending in keys:
            indices.sort(key=lambda i: values[i], reverse=descending)
        result = Result(
            columns=result.columns, rows=[result.rows[i] for i in indices]
        )
    if select.limit is not None:
        result = Result(columns=result.columns, rows=result.rows[: select.limit])
    return result


def _column_as_array(values: list) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _evaluate_ordering(expr: ast.Node, result: Result, frame: _Frame) -> list:
    """ORDER BY resolves against output aliases first, then input columns."""
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        if expr.name in result.columns:
            return result.column(expr.name)
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        # ORDER BY <position>
        position = expr.value - 1
        if not 0 <= position < len(result.columns):
            raise SqlExecutionError(f"ORDER BY position {expr.value} out of range")
        return [row[position] for row in result.rows]
    # Evaluate against the output columns (a ``t.x`` name from ``*``
    # keeps its binding); for plain projections (result rows align 1:1
    # with input rows) fall back to the input frame so ORDER BY may use
    # columns that were not selected.
    n_rows = len(result.rows)
    outputs: Dict[str, Tuple[Dict[str, np.ndarray], np.ndarray]] = {}
    for name in result.columns:
        binding, _, column = name.rpartition(".")
        columns, _ = outputs.setdefault(binding, ({}, np.arange(n_rows)))
        columns[column] = _column_as_array(result.column(name))
    out_frame = _Frame(outputs, n_rows=n_rows)
    try:
        value = _evaluate(expr, out_frame)
    except SqlExecutionError:
        if frame.n_rows != len(result.rows):
            raise
        value = _evaluate(expr, frame)
    if not isinstance(value, np.ndarray):
        return [value] * len(result.rows)
    return value.tolist()


def _plain_project(select: ast.Select, frame: _Frame) -> Result:
    columns: List[str] = []
    values: List[list] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expr, ast.Star):
            for name, arr in frame.star():
                columns.append(name)
                values.append(_python_values(arr, frame.n_rows))
            continue
        columns.append(_item_name(item, position))
        values.append(_python_values(_evaluate(item.expr, frame), frame.n_rows))
    return Result(columns=columns, rows=list(zip(*values)))


def _python_values(value, n_rows: int) -> list:
    """An output column as plain Python values, a scalar repeated."""
    if not isinstance(value, np.ndarray):
        return [_to_python(value)] * n_rows
    if value.dtype == object:
        return [_to_python(v) for v in value]
    return value.tolist()


def _to_python(value):
    """Numpy scalars -> plain Python values in result rows."""
    if isinstance(value, np.generic):
        return value.item()
    return value


# -- EXPLAIN ---------------------------------------------------------------------


def _describe_expr(node: ast.Node) -> str:
    """Compact textual form of an expression for plan output."""
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.ColumnRef):
        return node.qualified
    if isinstance(node, ast.Star):
        return "*"
    if isinstance(node, ast.FuncCall):
        return f"{node.name}({', '.join(_describe_expr(a) for a in node.args)})"
    if isinstance(node, ast.UnaryOp):
        return f"{node.op} {_describe_expr(node.operand)}"
    if isinstance(node, ast.BinOp):
        return (
            f"({_describe_expr(node.left)} {node.op} "
            f"{_describe_expr(node.right)})"
        )
    if isinstance(node, ast.Between):
        word = "not between" if node.negated else "between"
        return (
            f"({_describe_expr(node.expr)} {word} "
            f"{_describe_expr(node.low)} and {_describe_expr(node.high)})"
        )
    if isinstance(node, ast.InList):
        word = "not in" if node.negated else "in"
        inner = ", ".join(_describe_expr(o) for o in node.options)
        return f"({_describe_expr(node.expr)} {word} ({inner}))"
    return type(node).__name__


def _explain_relation_access(
    binding: str, relation: Relation, conjuncts: List[ast.Node]
) -> List[str]:
    """Plan lines for one relation's conjuncts (mirrors _filter_relation)."""
    lines = [f"access {relation.name} as {binding} ({relation.n_rows} rows)"]
    residual: List[ast.Node] = []
    spatial_seen = False
    for conjunct in conjuncts:
        matched = _match_spatial(conjunct, binding, relation)
        if matched is not None:
            _geom, predicate, _dist = matched
            lines.append(
                f"  spatial filter [{predicate}] via imprints + grid "
                f"refinement: {_describe_expr(conjunct)}"
            )
            spatial_seen = True
            continue
        residual.append(conjunct)
    if not spatial_seen:
        for conjunct in list(residual):
            matched = _match_range(conjunct, binding, relation)
            if matched is not None:
                column = matched[0]
                access = (
                    "packed segments"
                    if _range_via_packed(relation, column)
                    else "imprint"
                )
                lines.append(
                    f"  range filter via {access} on {column!r}: "
                    f"{_describe_expr(conjunct)}"
                )
                residual.remove(conjunct)
                break
    for conjunct in residual:
        lines.append(f"  residual scan filter: {_describe_expr(conjunct)}")
    return lines


def _explain_plan(
    select: ast.Select,
    bindings: List[Tuple[str, Relation]],
    conjuncts: List[ast.Node],
) -> str:
    bindings_bare = {b: set(rel.columns) for b, rel in bindings}
    lines: List[str] = []

    if len(bindings) == 1:
        binding, relation = bindings[0]
        lines.extend(_explain_relation_access(binding, relation, conjuncts))
    elif len(bindings) == 2 and any(
        _match_equi_join(c, bindings[0][0], bindings[1][0], bindings_bare)
        for c in conjuncts
    ):
        equi = next(
            c
            for c in conjuncts
            if _match_equi_join(c, bindings[0][0], bindings[1][0], bindings_bare)
        )
        lines.append(f"hash join on {_describe_expr(equi)}")
        rest = [c for c in conjuncts if c is not equi]
        for binding, relation in bindings:
            own = [c for c in rest if _applicable(c, {binding}, bindings_bare)]
            lines.extend(
                "  " + line
                for line in _explain_relation_access(binding, relation, own)
            )
    else:
        probe_pos = max(
            range(len(bindings)), key=lambda i: bindings[i][1].n_rows
        )
        probe_binding, probe_relation = bindings[probe_pos]
        rest = list(conjuncts)
        lines.append("nested-loop join")
        for i, (binding, relation) in enumerate(bindings):
            if i == probe_pos:
                continue
            own = [c for c in rest if _applicable(c, {binding}, bindings_bare)]
            rest = [c for c in rest if c not in own]
            lines.append(f"  outer loop over {relation.name} as {binding}:")
            lines.extend(
                "    " + line
                for line in _explain_relation_access(binding, relation, own)
            )
        lines.append(f"  inner probe per outer row:")
        lines.extend(
            "    " + line
            for line in _explain_relation_access(
                probe_binding, probe_relation, rest
            )
        )

    if select.group_by:
        keys = ", ".join(_describe_expr(e) for e in select.group_by)
        lines.append(f"group by {keys}")
        if select.having is not None:
            lines.append(f"having {_describe_expr(select.having)}")
    elif any(_has_aggregate(item.expr) for item in select.items):
        lines.append("aggregate (single group)")
    if select.distinct:
        lines.append("distinct")
    if select.order_by:
        keys = ", ".join(
            _describe_expr(o.expr) + (" desc" if o.descending else "")
            for o in select.order_by
        )
        lines.append(f"order by {keys}")
    if select.limit is not None:
        lines.append(f"limit {select.limit}")
    return "\n".join(lines)


def _aggregate(select: ast.Select, frame: _Frame) -> Tuple[Result, int]:
    """Group the frame once, evaluate every item as one value per group.

    Returns the result and the number of groups before ``HAVING``.
    """
    keys = []
    for expr in select.group_by:
        value = _evaluate(expr, frame)
        if not isinstance(value, np.ndarray):
            raise SqlExecutionError("GROUP BY expression must reference columns")
        keys.append(value)
    grouping = group_rows(keys, frame.n_rows)
    kept = np.arange(grouping.n_groups)
    if select.having is not None:
        keep = _per_group(select.having, frame, grouping)
        kept = kept[np.broadcast_to(_as_bool(keep), kept.shape)]

    columns, values = [], []
    for position, item in enumerate(select.items):
        value = _per_group(item.expr, frame, grouping)
        columns.append(_item_name(item, position))
        values.append(
            _python_values(
                value[kept] if isinstance(value, np.ndarray) else value,
                kept.shape[0],
            )
        )
    return Result(columns=columns, rows=list(zip(*values))), grouping.n_groups


def _per_group(node: ast.Node, frame: _Frame, grouping: Grouping):
    """A select expression in aggregate context, one value per group.

    Aggregate calls reduce over the grouping, operators over them apply
    element-wise, and anything else must be group-constant: it is
    evaluated once on the frame and read at each group's first row.
    """
    if isinstance(node, ast.FuncCall) and node.name in AGGREGATES:
        return _apply_aggregate(node, frame, grouping)
    if isinstance(node, ast.BinOp):
        return _binop(
            node.op,
            _per_group(node.left, frame, grouping),
            _per_group(node.right, frame, grouping),
        )
    if isinstance(node, ast.UnaryOp):
        return _unary(node.op, _per_group(node.operand, frame, grouping))
    value = _evaluate(node, frame)
    if not isinstance(value, np.ndarray):
        return value
    return value[grouping.first] if frame.n_rows else None


def _apply_aggregate(node: ast.FuncCall, frame: _Frame, grouping: Grouping):
    if len(node.args) != 1:
        raise SqlExecutionError(f"{node.name}() takes one argument")
    (arg,) = node.args
    if node.name == "count":
        if not isinstance(arg, ast.Star):
            _evaluate(arg, frame)  # unknown columns still raise
        return grouping.aggregate("count")
    value = _evaluate(arg, frame)
    if not isinstance(value, np.ndarray):
        value = np.full(frame.n_rows, value, dtype=np.float64)
    return grouping.aggregate(node.name, value)
