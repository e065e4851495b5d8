"""Scoped observability contexts.

Before this module, the engine's observability state was process-global:
one tracer, one metrics registry, one flight recorder.  Two databases —
or two concurrent sessions of the query service ROADMAP item 1 builds —
could not be observed, billed or rate-limited independently.

:class:`ObsContext` bundles the per-scope state (tracer + metrics
registry + query registry + cumulative resource usage + optional flight
recorder) into one object owned by a
:class:`~repro.api.PointCloudDB` / :class:`~repro.sql.executor.Session`
and resolved through a :mod:`contextvars` variable:

* ``with context.activate():`` makes it the current context; every
  ``get_tracer()`` / ``get_registry()`` / ``get_queries()`` /
  ``get_flight_recorder()`` and every ``maybe_span`` below that point
  resolves to it — including inside morsel workers, because
  :func:`repro.engine.parallel.run_tasks` copies the submitting
  thread's context into each worker.
* Code that never activates a context sees :func:`default_context`,
  a lazy singleton wrapping the original module singletons — the
  pre-context API (``get_tracer()`` etc.) behaves exactly as before.

For the upcoming cross-process scatter-gather (ROADMAP item 2) the
context serializes its trace position to a W3C-traceparent-style token
(``00-<trace_id>-<span_id>-01``); a child process context built with
:meth:`ObsContext.fresh` ``(traceparent=...)`` adopts it, so root spans
in the child join the parent's trace and the pieces stitch back into
one tree.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ._context_state import CURRENT
from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .queries import QueryRegistry
from .resources import ResourceUsage
from .trace import RemoteParent, Tracer

__all__ = [
    "ObsContext",
    "current_context",
    "default_context",
    "format_traceparent",
    "parse_traceparent",
]

#: The only traceparent version we emit or accept.
TRACEPARENT_VERSION = "00"


def format_traceparent(trace_id: int, span_id: int) -> str:
    """``00-<032x trace>-<016x span>-01`` (W3C Trace Context shaped)."""
    trace_part = trace_id & ((1 << 128) - 1)
    span_part = span_id & ((1 << 64) - 1)
    return f"{TRACEPARENT_VERSION}-{trace_part:032x}-{span_part:016x}-01"


def parse_traceparent(token: str) -> RemoteParent:
    """Parse a traceparent token into a :class:`RemoteParent`.

    Raises :class:`ValueError` on a malformed token, an unknown version,
    or the all-zero ids the spec reserves for "no trace".
    """
    parts = token.strip().split("-")
    if len(parts) != 4:
        raise ValueError(f"malformed traceparent: {token!r}")
    version, trace_hex, span_hex, _flags = parts
    if version != TRACEPARENT_VERSION:
        raise ValueError(f"unsupported traceparent version: {version!r}")
    if len(trace_hex) != 32 or len(span_hex) != 16:
        raise ValueError(f"malformed traceparent ids: {token!r}")
    try:
        trace_id = int(trace_hex, 16)
        span_id = int(span_hex, 16)
    except ValueError:
        raise ValueError(f"non-hex traceparent ids: {token!r}") from None
    if trace_id == 0 or span_id == 0:
        raise ValueError(f"all-zero traceparent ids: {token!r}")
    return RemoteParent(trace_id=trace_id, span_id=span_id)


class ObsContext:
    """One scope's observability state: tracer, metrics, queries, usage.

    ``resources`` accumulates the :class:`ResourceUsage` of every root
    query record finished while this context was active (a nested
    record's usage is part of its root's), giving per-database /
    per-session cumulative attribution for quotas and billing.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        queries: Optional[QueryRegistry] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queries = queries if queries is not None else QueryRegistry()
        self.recorder = recorder
        self.resources = ResourceUsage()
        self._lock = threading.Lock()

    @classmethod
    def fresh(
        cls,
        traceparent: Optional[str] = None,
        enabled: Optional[bool] = None,
    ) -> "ObsContext":
        """A fully isolated context (own tracer/registry/query registry).

        ``traceparent`` adopts a remote trace position so this context's
        root spans join a trace started in another process; ``enabled``
        forces tracing on/off (default: the ``REPRO_TRACE`` switch).
        """
        context = cls(tracer=Tracer(enabled=enabled))
        if traceparent is not None:
            context.adopt_traceparent(traceparent)
        return context

    # -- activation --------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["ObsContext"]:
        """Make this the current context for the duration of the block."""
        token = CURRENT.set(self)
        try:
            yield self
        finally:
            CURRENT.reset(token)

    # -- cross-process propagation ----------------------------------------

    def traceparent(self) -> Optional[str]:
        """This context's trace position as a token, or ``None``.

        Prefers the innermost open span on the calling thread; falls
        back to an adopted remote parent, so a context can re-propagate
        a token it received even before starting spans of its own.
        """
        span = self.tracer.current()
        if span is not None and span.trace_id:
            return format_traceparent(span.trace_id, span.span_id)
        remote = self.tracer.remote_parent
        if remote is not None:
            return format_traceparent(remote.trace_id, remote.span_id)
        return None

    def adopt_traceparent(self, token: str) -> "ObsContext":
        """Join the trace described by ``token`` (see module docstring)."""
        self.tracer.remote_parent = parse_traceparent(token)
        return self

    # -- flight recorder ---------------------------------------------------

    def flight(self) -> FlightRecorder:
        """This context's flight recorder, created lazily and bound to
        its tracer/registry/query registry.  The default context hands
        back the process-wide recorder instead of shadowing it."""
        with self._lock:
            if self.recorder is None:
                if self is _peek_default():
                    from .flight import get_flight_recorder

                    self.recorder = get_flight_recorder()
                else:
                    self.recorder = FlightRecorder(
                        tracer=self.tracer,
                        registry=self.registry,
                        queries=self.queries,
                    )
            return self.recorder

    # -- resource accumulation --------------------------------------------

    def absorb_usage(self, usage: ResourceUsage) -> None:
        """Fold one finished root record's usage into the context total."""
        with self._lock:
            self.resources.cpu_seconds += usage.cpu_seconds
            self.resources.worker_cpu_seconds += usage.worker_cpu_seconds
            self.resources.rows_touched += usage.rows_touched
            self.resources.bytes_touched += usage.bytes_touched
            self.resources.encoded_bytes += usage.encoded_bytes
            self.resources.materialized_bytes += usage.materialized_bytes
            if usage.peak_alloc_bytes is not None:
                current = self.resources.peak_alloc_bytes
                self.resources.peak_alloc_bytes = (
                    usage.peak_alloc_bytes
                    if current is None
                    else max(current, usage.peak_alloc_bytes)
                )


_default: Optional[ObsContext] = None
_default_lock = threading.Lock()


def _peek_default() -> Optional[ObsContext]:
    return _default


def default_context() -> ObsContext:
    """The process default: a context wrapping the module singletons.

    This is what preserves API compatibility — every pre-context caller
    of ``get_tracer()`` / ``get_registry()`` and every new context-aware
    caller that never activates a custom context observe the same state.
    """
    global _default
    with _default_lock:
        if _default is None:
            from . import metrics as _metrics
            from . import queries as _queries
            from . import trace as _trace

            _default = ObsContext(
                tracer=_trace._global_tracer,
                registry=_metrics._global_registry,
                queries=_queries._global_queries,
            )
        return _default


def current_context() -> ObsContext:
    """The active context, else :func:`default_context`."""
    context = CURRENT.get()
    return context if context is not None else default_context()
