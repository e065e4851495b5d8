"""Morsel-driven parallel execution for the scan/probe hot path.

HyPer-style morsel-driven parallelism (Leis et al., SIGMOD 2014) splits a
column into fixed-size row ranges ("morsels") and lets a pool of workers
pull them off a shared queue.  The kernels this engine runs per morsel —
numpy comparisons, gathers, bitwise ops — all release the GIL, so plain
threads scale them across cores without any serialisation of the data.

Three pieces live here:

* a **shared, lazily created** :class:`~concurrent.futures.ThreadPoolExecutor`
  (one per process, sized to the machine; creating pools per query would
  dwarf the work being parallelised),
* :func:`morsels`, the splitter that aligns morsel boundaries to a
  requested granularity (imprint cache lines, segment rows), and
* :func:`run_tasks`, the scheduler: evaluate ``fn`` over a task list with
  at most ``threads`` workers, returning results **in task order** so that
  concatenated per-morsel outputs are bit-identical to a serial run.

``threads=1`` never touches the pool — it is the exact serial path.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import queries as _queries
from ..obs import trace as _trace
from ..obs.metrics import get_registry

T = TypeVar("T")
R = TypeVar("R")

#: Default morsel granularity in rows.  Large enough that per-task Python
#: overhead is noise next to the numpy kernel, small enough that a column
#: of a few hundred thousand rows still splits across every core.
MORSEL_ROWS = 64 * 1024

#: Below this many rows a scan is not worth fanning out at all.
MIN_PARALLEL_ROWS = 32 * 1024

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def hardware_threads() -> int:
    """Usable hardware threads (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_threads() -> int:
    """The engine-wide default worker count.

    ``REPRO_THREADS`` overrides the hardware count, which is how the
    benches pin the serial baseline without code changes.
    """
    env = os.environ.get("REPRO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return hardware_threads()


def resolve_threads(threads: Optional[int]) -> int:
    """Normalise a ``threads=`` knob: ``None``/``0`` mean the default."""
    if threads is None or threads <= 0:
        return default_threads()
    return max(1, int(threads))


def get_pool() -> ThreadPoolExecutor:
    """The process-wide worker pool, created on first parallel call."""
    global _pool
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                # Sized above the core count so an explicit threads=N above
                # it (correctness sweeps, IO-ish workloads) still gets N
                # concurrent workers; idle threads cost nothing.
                _pool = ThreadPoolExecutor(
                    max_workers=max(8, 2 * hardware_threads()),
                    thread_name_prefix="repro-morsel",
                )
    return _pool


def morsels(
    n_rows: int, morsel_rows: int = MORSEL_ROWS, align: int = 1
) -> List[Tuple[int, int]]:
    """Split ``[0, n_rows)`` into ``(start, stop)`` morsels.

    ``align`` forces every boundary except the last onto a multiple (an
    imprint cache line, a segment border), so per-morsel index probes see
    whole units.
    """
    if n_rows <= 0:
        return []
    align = max(1, align)
    size = max(align, (morsel_rows // align) * align)
    return [(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def run_tasks(
    fn: Callable[[T], R], tasks: Sequence[T], threads: Optional[int] = None
) -> List[R]:
    """Evaluate ``fn`` over ``tasks`` with at most ``threads`` workers.

    Results come back in task order whatever the completion order, so
    callers can concatenate per-morsel arrays and get exactly the serial
    answer.  With one worker (or one task) the pool is bypassed entirely.

    With tracing enabled each task gets its own ``parallel.task`` span,
    parented to the span that was open when ``run_tasks`` was called —
    worker threads do not inherit the caller's span stack, so the parent
    is handed over explicitly.  Tracing off adds one boolean check.

    Workers run inside a copy of the submitting thread's
    :mod:`contextvars` context, so the caller's
    :class:`~repro.obs.context.ObsContext` and active
    :class:`~repro.obs.queries.ActiveQuery` resolve identically on the
    workers: per-worker spans land in the submitting query's trace, and
    cooperative deadline checks (one per morsel, before each task) see
    the query's deadline, and workers credit their CPU to its record.
    """
    tasks = list(tasks)
    n_workers = min(resolve_threads(threads), len(tasks))
    tracer = _trace.get_tracer()
    recording = tracer.enabled
    parent = tracer.current() if recording else None
    if recording and tasks:
        get_registry().counter("parallel.tasks").inc(len(tasks))

    def run_one(i: int) -> R:
        _queries.check_deadline()
        if recording:
            with tracer.span("parallel.task", parent=parent) as span:
                span.set(index=i)
                return fn(tasks[i])
        return fn(tasks[i])

    if n_workers <= 1:
        # Serial path: the tasks run on the caller's thread, whose CPU
        # the query record already measures — adding it again would
        # double count, so no attribution here.
        return [run_one(i) for i in range(len(tasks))]

    results: List[R] = [None] * len(tasks)  # type: ignore[list-item]
    errors: List[BaseException] = []
    cursor = iter(range(len(tasks)))
    cursor_lock = threading.Lock()

    def worker() -> None:
        # Morsel-driven: each worker pulls the next unclaimed task until
        # the queue drains, so skewed task costs self-balance.  The query
        # record arrives with the copied context; the worker credits its
        # CPU to it (one reading per drain: thread_time is a syscall) and,
        # as the profiler samples *threads*, binds itself in the thread
        # map for the drain.  Pool threads are reused across queries,
        # which makes the unbind mandatory.
        active = _queries.current_query()
        if active is None:
            _drain()
            return
        registry = _queries.get_queries()
        registry.bind_thread(active)
        cpu0 = time.thread_time()
        try:
            _drain()
        finally:
            registry.unbind_thread()
            active.add_cpu(time.thread_time() - cpu0)

    def _drain() -> None:
        while True:
            with cursor_lock:
                if errors:
                    return
                try:
                    i = next(cursor)
                except StopIteration:
                    return
            try:
                results[i] = run_one(i)
            except BaseException as exc:
                # Deliberately broad, and baselined for repro-check's
                # crash-transparency rule: the exception (InjectedCrash
                # included) is stashed and re-raised on the *caller's*
                # thread below — a raise here would vanish into the pool.
                with cursor_lock:
                    errors.append(exc)
                return

    pool = get_pool()
    # Each worker enters its own copy of the caller's context (a single
    # contextvars.Context cannot be active on two threads at once).
    caller_ctx = contextvars.copy_context()
    futures = [
        pool.submit(caller_ctx.copy().run, worker) for _ in range(n_workers)
    ]
    for future in futures:
        future.result()
    if errors:
        raise errors[0]
    return results
