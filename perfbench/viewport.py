"""Workload ``viewport``: map navigation against the query daemon.

The paper's first scenario.  The daemon (``python -m repro.cli serve``)
runs in its own process and serves a store bulk-loaded from a LAS tile
grid.  Requests are ``POST /v1/query`` bounding boxes answered in the
columnar wire format; they come in pan-and-zoom sessions whose
viewports overlap, at four zooms from 0.01 % to 25 % of the extent.

``p50_cpu_ms``, ``p90_cpu_ms`` and ``ops_per_cpu_s`` come from one
client in a closed loop that hands each request straight to the daemon's
:class:`~repro.serve.service.QueryService` (admission, snapshot pin,
query, materialisation, wire encoding), in process, and reads the
process's CPU clock around each request; they are scaled to the
reference speed (:class:`~perfbench.common.SpeedProbe`).  The traced run adds
the daemon as users run it, over HTTP: requests due on a seeded Poisson
schedule at a fixed reference rate, each timed from when it was due, so
a stall also delays the requests behind it; a fixed ladder of rates
probed for the highest one that keeps p90 within ``P90_LIMIT_MS``, 99 %
of requests answered and no growing backlog; and the HTTP transport's
share of each request.

Why the end-to-end figures leave HTTP out: on a shared virtual machine
every request crossing to the daemon process waits for the hypervisor to
run it, and that wait follows other guests' load.  Over ten runs against
the daemon, the quartile spread of p90 was 39 % and of throughput 26 %,
and the ladder's highest passing rate ranged from 35 to 93 req/s.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import PointCloudDB
from repro.gis.envelope import Box
from repro.serve.admission import AdmissionRejected
from repro.serve.service import QueryService
from repro.serve.snapshot import SnapshotManager
from repro.serve.wire import decode_columns

from . import inputs
from .common import (
    MIN_SAMPLES,
    ROOT,
    Latencies,
    Result,
    SpeedProbe,
    cpu_clock,
    median,
    peak_rss_mb,
    percentile,
    put_times,
    warn,
)
from .layers import PER_LAYER_UNITS, filter_seconds, install, layer_metrics
from .spans import Span, SpanRecorder, clock

#: Area share of the extent a viewport covers, per zoom level.
ZOOMS = (0.0001, 0.01, 0.04, 0.25)

#: The zoom level of each view of a session: pan at 1 %, zoom in and
#: pan, zoom out through 4 % to 25 % and back, and once more in and out.
#: Every session follows it, so the mix is the same for every seed: 20 %
#: of views at 0.01 %, 40 % at 1 %, 35 % at 4 % and 5 % at 25 %.  The
#: median request then lies inside the 1 % level and p90 inside the 4 %
#: level, not in the gap between two levels.
SESSION_LEVELS = (1, 1, 0, 0, 1, 1, 2, 2, 3, 2, 2, 1, 1, 0, 0, 1, 1, 2, 2, 2)

#: Rows a response carries at most.
LIMIT = 10_000

#: The latency limit of the rate ladder.
P90_LIMIT_MS = 50.0

#: A probe's backlog grows when its last quarter of requests waited this
#: much longer to be sent, on average, than its first quarter.
BACKLOG_GROWTH_S = 0.025

#: How long before a request is due the open loop stops sleeping and
#: spins instead.
SPIN_S = 0.002

#: Open-loop lateness above which a run is flagged as not trustworthy.
GEN_LAG_FLAG_MS = 5.0

#: Longest the client waits for one response; the daemon answers any
#: single request of this workload in well under a tenth of that.
REQUEST_TIMEOUT_S = 2.0

#: How long a daemon gets to write its spans, and to exit.
STOP_TIMEOUT_S = 10.0

#: Seconds between the bulk loads timed during the closed loop.
LOAD_EVERY_S = 2.0

#: Times the daemon may stop answering in one run before the run gives up.
MAX_HANGS = 3

_SERVING = re.compile(r"serving queries on http://127\.0\.0\.1:(\d+)")


@dataclass
class Sizes:
    points: int = 1_000_000
    sessions: int = 32
    reference_rate: float = 20.0
    #: The rates the traced run probes; neighbours are 8 % apart, and the
    #: lowest and highest bracket the capacity of a 2-core host.
    ladder: Tuple[float, ...] = tuple(round(30.0 * 1.08**k, 1) for k in range(20))
    setups: int = 5

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            points=20_000,
            sessions=2,
            reference_rate=30.0,
            ladder=(20.0, 40.0),
            setups=1,
        )


# -- requests and their answers ---------------------------------------------


@dataclass
class Viewport:
    box: Box
    n_results: int = 0
    n_returned: int = 0
    sum_x: float = 0.0
    sum_y: float = 0.0
    #: The body of the first answer that checked out; later answers to
    #: the same view must repeat it byte for byte.
    verified: Optional[bytes] = None

    def request(self) -> Dict[str, object]:
        b = self.box
        return {
            "table": "points",
            "bbox": [b.xmin, b.ymin, b.xmax, b.ymax],
            "format": "columnar",
            "columns": ["x", "y", "z"],
            "limit": LIMIT,
        }

    def payload(self) -> bytes:
        return json.dumps(self.request()).encode("utf-8")

    def check(self, status: int, meta: Optional[str], body: bytes) -> bool:
        """Whether a response is the right answer for this view."""
        if status != 200 or meta is None:
            return False
        info = json.loads(meta)
        if info.get("n_results") != self.n_results:
            return False
        if info.get("n_returned") != self.n_returned:
            return False
        if self.verified is not None:
            return body == self.verified
        columns = decode_columns(body)
        x, y = columns["x"], columns["y"]
        b = self.box
        ok = (
            x.shape[0] == self.n_returned
            and columns["z"].shape[0] == self.n_returned
            and bool(np.all((x >= b.xmin) & (x <= b.xmax)))
            and bool(np.all((y >= b.ymin) & (y <= b.ymax)))
            and inputs.isclose(float(x.sum()), self.sum_x)
            and inputs.isclose(float(y.sum()), self.sum_y)
        )
        if ok:
            self.verified = body
        return ok


def sessions(rng: np.random.Generator, n_sessions: int) -> List[List[Box]]:
    """Pan-and-zoom sessions over seeded places.  A zoom keeps the view's
    centre; a pan moves it by a third to a half of the view, so
    consecutive views overlap."""
    ext = inputs.EXTENT
    out: List[List[Box]] = []
    for _ in range(n_sessions):
        cx = float(rng.uniform(ext.xmin, ext.xmax))
        cy = float(rng.uniform(ext.ymin, ext.ymax))
        views: List[Box] = []
        previous = None
        for level in SESSION_LEVELS:
            half = ext.width * math.sqrt(ZOOMS[level]) / 2
            if level == previous:
                angle = rng.uniform(0, 2 * math.pi)
                step = rng.uniform(2 / 3, 1.0) * half
                cx += step * math.cos(angle)
                cy += step * math.sin(angle)
            cx = min(max(cx, ext.xmin + half), ext.xmax - half)
            cy = min(max(cy, ext.ymin + half), ext.ymax - half)
            views.append(Box(cx - half, cy - half, cx + half, cy + half))
            previous = level
        out.append(views)
    return out


def answer(viewports: Sequence[Viewport], xs: np.ndarray, ys: np.ndarray) -> None:
    """Fill in each viewport's expected answer with a numpy bbox oracle
    over the store's rows (in store order, so truncation matches)."""
    order = np.argsort(xs, kind="stable")
    sorted_x = xs[order]
    for view in viewports:
        b = view.box
        lo = np.searchsorted(sorted_x, b.xmin, side="left")
        hi = np.searchsorted(sorted_x, b.xmax, side="right")
        rows = order[lo:hi]
        rows = np.sort(rows[(ys[rows] >= b.ymin) & (ys[rows] <= b.ymax)])
        first = rows[:LIMIT]
        view.n_results = int(rows.shape[0])
        view.n_returned = int(first.shape[0])
        view.sum_x = float(xs[first].sum())
        view.sum_y = float(ys[first].sum())


def post(port: int, body: bytes) -> Tuple[int, Optional[str], bytes]:
    """One request on a fresh connection; status 0 when none came back."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST", "/v1/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        data = response.read()
        return response.status, response.getheader("X-Repro-Meta"), data
    except (OSError, http.client.HTTPException):
        return 0, None, b""
    finally:
        conn.close()


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """``repro-gis serve`` in a child process, in the run's workspace.

    A traced daemon runs through :mod:`perfbench.daemon`, which wraps the
    layers before handing over to the same CLI entry point and writes its
    spans out on SIGUSR2.  A daemon that stopped answering is killed
    and started again on the same store (:meth:`restart`); the spans of a
    killed daemon are lost.
    """

    def __init__(self, store: Path, workdir: Path, traced: bool) -> None:
        self.store = store
        self.workdir = workdir
        self.traced = traced
        self.spans: List[Span] = []
        self.starts = 0
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None

    def _path(self, kind: str) -> Path:
        return self.workdir / f"daemon-{self.store.name}-{self.starts}.{kind}"

    def start(self, timeout_s: float = 120.0) -> int:
        self.starts += 1
        env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if self.traced:
            paths.append(str(ROOT))
            cmd = [sys.executable, "-m", "perfbench.daemon", str(self._path("json"))]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        cmd += ["serve", str(self.store), "--port", "0"]
        log_path = self._path("log")
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and self.proc.poll() is None:
            found = _SERVING.search(log_path.read_text(errors="replace"))
            if found:
                self.port = int(found.group(1))
                return self.port
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("daemon did not start:\n" + log_path.read_text(errors="replace"))

    def stop(self) -> None:
        """Collect a traced daemon's spans, then interrupt it (the CLI
        drains and exits) and reap it; one that does not exit is killed."""
        if self.proc is None:
            return
        if self.traced:
            self._collect_spans()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            warn("the daemon did not exit on SIGINT; killing it")
            self.kill()
        self.proc = None

    def _collect_spans(self) -> None:
        """Ask the daemon for its spans (SIGUSR2) and read them in."""
        path = self._path("json")
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while not path.exists():
            if time.monotonic() > deadline:
                warn("the traced daemon did not write its spans")
                return
            time.sleep(0.01)
        # Span ids restart in each process; keep them apart.
        shift = self.starts << 40
        for row in json.loads(path.read_text()):
            span = Span.from_list(row)
            span.id += shift
            span.op += shift
            if span.parent is not None:
                span.parent += shift
            self.spans.append(span)

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def restart(self) -> int:
        self.kill()
        return self.start()


# -- load ---------------------------------------------------------------------


@dataclass
class Sent:
    """One request: when it was due, sent and answered."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    status: int = 0
    ok: bool = False
    query_id: Optional[str] = None
    #: CPU seconds this process spent on it (in-process requests only).
    cpu: float = 0.0

    @property
    def latency(self) -> Optional[float]:
        """Seconds from due to answered; ``None`` when it failed."""
        return self.done - self.due if self.ok else None


class DaemonHung(Exception):
    """A request got no answer at all (timeout, refused connection)."""

    def __init__(self, requests: Sequence[Sent] = ()) -> None:
        super().__init__("the daemon stopped answering")
        self.requests = list(requests)


@dataclass
class Phase:
    """The requests of one stretch of load; ``rate`` is 0 for a closed loop."""

    rate: float
    requests: List[Sent] = field(default_factory=list)

    def latencies(self) -> Latencies:
        lat = Latencies()
        for sent in self.requests:
            lat.add(sent.latency)
        return lat

    def cpu_latencies(self) -> Latencies:
        lat = Latencies()
        for sent in self.requests:
            lat.add(sent.cpu if sent.ok else None)
        return lat

    def cpu_throughput(self) -> float:
        """Requests answered correctly per CPU second spent on them."""
        answered = [s for s in self.requests if s.ok]
        return len(answered) / sum(s.cpu for s in answered)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.requests if not s.ok)

    @property
    def shed(self) -> int:
        return sum(1 for s in self.requests if s.status in (429, 503))

    def backlog_grows(self) -> bool:
        waits = [s.sent - s.due for s in self.requests]
        quarter = max(1, len(waits) // 4)
        first = sum(waits[:quarter]) / quarter
        last = sum(waits[-quarter:]) / quarter
        return last - first > BACKLOG_GROWTH_S

    def passes(self) -> bool:
        return (
            self.latencies().tail_ms() <= P90_LIMIT_MS
            and self.failed <= 0.01 * len(self.requests)
            and not self.backlog_grows()
        )

    def throughput(self) -> float:
        """Requests answered correctly per second of an open-loop phase."""
        answered = [s for s in self.requests if s.ok]
        span = max(s.done for s in self.requests) - self.requests[0].due
        return len(answered) / span


#: Sends one view and returns (status, ``X-Repro-Meta``, body); status 0
#: when no answer came back.
Ask = Callable[[Viewport], Tuple[int, Optional[str], bytes]]


def over_http(port: int) -> Ask:
    """Requests to the daemon listening on ``port``."""
    return lambda view: post(port, view.payload())


def in_process(service: QueryService) -> Ask:
    """Requests handed straight to a :class:`QueryService`, as the
    daemon's HTTP handler does, without the transport."""

    def ask(view: Viewport) -> Tuple[int, Optional[str], bytes]:
        try:
            response = service.handle("query", view.request())
        except AdmissionRejected as exc:
            return (503 if exc.reason == "draining" else 429), None, b""
        except Exception:  # the HTTP layer answers these 4xx/500
            traceback.print_exc()
            return 500, None, b""
        return 200, response.headers.get("X-Repro-Meta"), response.body or b""

    return ask


def _send(ask: Ask, view: Viewport, sent: Sent, phase: Phase) -> None:
    status, meta, body = ask(view)
    sent.done = clock()
    sent.status = status
    if status == 0:
        raise DaemonHung(phase.requests)
    sent.ok = view.check(status, meta, body)
    if meta is not None:
        sent.query_id = json.loads(meta).get("query_id")


def open_loop(
    ask: Ask, stream: Sequence[Viewport], rate: float, n: int, rng: np.random.Generator
) -> Phase:
    """Send ``n`` requests of ``stream`` one at a time, due on a Poisson
    schedule at ``rate``.  A request is sent when it is due or, if the
    previous one is still out, as soon as that one is answered.

    Raises :class:`DaemonHung` when a request gets no answer at all.
    """
    # Poisson arrivals conditioned on their count: n due times spread
    # uniformly over exactly n / rate seconds, so every phase offers its
    # rate exactly and only the gaps are random.
    start = clock() + 0.02
    phase = Phase(rate)
    for i, due in enumerate(start + np.sort(rng.uniform(0.0, n / rate, size=n))):
        sent = Sent(due=float(due))
        phase.requests.append(sent)
        free = clock()
        # Sleep to just before the due time, then spin: waking from a
        # sleep on a virtual machine is late by a varying amount.
        if sent.due - free > SPIN_S:
            time.sleep(sent.due - free - SPIN_S)
        while clock() < sent.due:
            pass
        sent.sent = clock()
        sent.lag = sent.sent - max(sent.due, free)
        _send(ask, stream[i % len(stream)], sent, phase)
    return phase


def closed_loop(
    ask: Ask,
    stream: Sequence[Viewport],
    seconds: float,
    revive: Callable[[], None],
    between: Optional[Callable[[], None]] = None,
) -> Phase:
    """One client sending the next request of ``stream`` as soon as the
    previous one is answered, until ``seconds`` of waiting for answers,
    calling ``between`` after each.  A request that gets no answer fails;
    ``revive`` then restarts the daemon and the loop goes on."""
    phase = Phase(0.0)
    busy = 0.0
    i = 0
    while busy < seconds or len(phase.requests) < MIN_SAMPLES:
        sent = Sent(due=clock())
        sent.sent = sent.due
        phase.requests.append(sent)
        cpu0 = cpu_clock()
        try:
            _send(ask, stream[i % len(stream)], sent, phase)
            sent.cpu = cpu_clock() - cpu0
            busy += sent.done - sent.sent
        except DaemonHung:
            revive()
        if between is not None:
            between()
        i += 1
    return phase


# -- the run ------------------------------------------------------------------


def _store_bytes(store: Path) -> int:
    """Bytes of the persisted store (columns, imprints, packed mirrors);
    the daemon's heat journal is not part of it."""
    return sum(
        p.stat().st_size for p in store.rglob("*") if p.is_file() and p.name != "heat.jsonl"
    )


def run(seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes()) -> Tuple[Result, Dict]:
    rng = np.random.default_rng(seed)
    result = Result()
    speed = SpeedProbe()
    _scene, cloud = inputs.cloud(sizes.points, seed)
    paths = inputs.tiles(workdir / "tiles", cloud)
    del cloud
    views = [Viewport(b) for s in sessions(rng, sizes.sessions) for b in s]
    # The oracle reads the rows back exactly as the store will hold them.
    oracle = PointCloudDB()
    inputs.load(oracle, "points", paths)
    xs = np.asarray(oracle.table("points").column("x").values)
    ys = np.asarray(oracle.table("points").column("y").values)
    answer(views, xs, ys)
    # Sessions run one after another, each in its pan-and-zoom order; every
    # phase starts at the first and starts over after the last.
    stream = views
    first = min(views, key=lambda v: (v.n_results == 0, v.n_results))
    lost: List[Sent] = []  # requests of phases cut short by a hung daemon

    def setup(name: str) -> Tuple[QueryService, float]:
        """Bulk load, save, open the store as the daemon does, answer once;
        returns the service and the CPU seconds taken."""
        t0 = cpu_clock()
        db = PointCloudDB()
        inputs.load(db, "points", paths)
        db.save(workdir / name)
        snapshots = SnapshotManager(directory=workdir / name)
        snapshots.open()
        service = QueryService(snapshots)
        status, meta, body = in_process(service)(first)
        elapsed = cpu_clock() - t0
        if not first.check(status, meta, body):
            raise RuntimeError(f"first answer wrong (status {status})")
        return service, elapsed

    def warm(ask: Ask) -> None:
        """Every view once: builds both axes' imprints, reads the store's
        pages in, and checks each view's first answer in full."""
        for view in stream:
            status, meta, body = ask(view)
            if status == 0:
                raise DaemonHung()
            if not view.check(status, meta, body):
                raise RuntimeError("wrong answer while warming up")

    def start(daemon: Daemon) -> Ask:
        """Start (or restart) the daemon and warm it."""
        while True:
            ask = over_http(daemon.restart())
            try:
                warm(ask)
                return ask
            except DaemonHung:
                note_hang()

    def note_hang() -> None:
        result.notes.append("daemon_restarted")
        if result.notes.count("daemon_restarted") > MAX_HANGS:
            raise RuntimeError(f"the daemon stopped answering {MAX_HANGS + 1} times")
        warn("the daemon stopped answering; restarting it")

    def client(daemon: Daemon) -> Tuple[Ask, Callable[[], None]]:
        """Start the daemon; returns an ``ask`` that survives restarts and
        the ``revive`` that restarts it after a hang."""
        current = [start(daemon)]

        def revive() -> None:
            note_hang()
            current[0] = start(daemon)

        return (lambda view: current[0](view)), revive

    def measured(ask: Ask, revive: Callable[[], None], load: Callable[[], Phase]) -> Phase:
        """Run an open-loop ``load`` on the daemon; when it stops answering,
        restart it and run the load again.  Unanswered requests fail."""
        while True:
            try:
                return load()
            except DaemonHung as hang:
                lost.extend(hang.requests)
                revive()

    def ladder(ask: Ask, revive: Callable[[], None], budget: float) -> Tuple[Optional[Phase], List[Phase]]:
        """Bisection over the ladder, assuming a rate that meets the limits
        is met by every lower rate too; returns the highest passing probe."""
        probe_seconds = budget / math.ceil(math.log2(len(sizes.ladder) + 1))
        lo, hi = -1, len(sizes.ladder)
        best: Optional[Phase] = None
        probes: List[Phase] = []
        while hi - lo > 1:
            mid = (lo + hi) // 2
            rate = sizes.ladder[mid]
            time.sleep(0.2)  # let the previous probe drain
            n = max(2 * MIN_SAMPLES, int(rate * probe_seconds))
            probe = measured(ask, revive, lambda: open_loop(ask, stream, rate, n, rng))
            probes.append(probe)
            if probe.passes():
                lo, best = mid, probe
            else:
                hi = mid
        if best is None:
            warn("the lowest ladder rate already misses the limits")
            result.notes.append("ladder_bottom_failed")
        elif lo == len(sizes.ladder) - 1:
            warn("the top ladder rate still meets the limits")
            result.notes.append("ladder_top_passed")
        return best, probes

    def never_hangs() -> None:
        raise RuntimeError("an in-process request went unanswered")

    setup_times: List[float] = []
    # Each set-up reuses the memory the one before it freed, as in a
    # long-running process.
    for k in range(sizes.setups):
        speed.tick()
        service, elapsed = setup(f"store{k}")
        setup_times.append(elapsed)
    load_rates: List[float] = []
    next_load = [0.0]

    def between() -> None:
        """Probe the host's speed and, every ``LOAD_EVERY_S``, time a bulk
        load of the tiles into a database dropped at once.  Loads made
        during set-up, in a process's first seconds, spread 24 % between
        runs; loads spread over the run, 15 %."""
        speed.tick()
        if clock() >= next_load[0]:
            load_rates.append(inputs.load(PointCloudDB(), "points", paths))
            next_load[0] = clock() + LOAD_EVERY_S
    store = workdir / f"store{sizes.setups - 1}"
    warm(in_process(service))
    phases: List[Phase] = []
    if not trace:
        closed = closed_loop(in_process(service), stream, seconds, never_hangs, between)
        phases.append(closed)
    else:
        part = seconds / 5
        plain = closed_loop(in_process(service), stream, part, never_hangs)
        # The daemon as users run it: paced load and the rate ladder.
        daemon = Daemon(store, workdir, False)
        try:
            ask, revive = client(daemon)
            n_ref = max(MIN_SAMPLES, int(part * sizes.reference_rate))
            reference = measured(
                ask, revive, lambda: open_loop(ask, stream, sizes.reference_rate, n_ref, rng)
            )
            best, probes = ladder(ask, revive, part)
        finally:
            daemon.stop()
        recorder = SpanRecorder()
        install(recorder)
        service, _elapsed = setup("store-traced")
        n_setup = len(recorder.spans)
        warm(in_process(service))
        n_warm = len(recorder.spans)
        closed = closed_loop(in_process(service), stream, part, never_hangs)
        spans = recorder.spans[:n_setup] + recorder.spans[n_warm:]
        # The HTTP transport's share: round trip less the service's time.
        traced_daemon = Daemon(workdir / "store-traced", workdir, True)
        try:
            ask, revive = client(traced_daemon)
            served = closed_loop(ask, stream, part, revive)
        finally:
            traced_daemon.stop()
        phases += [plain, reference] + probes + [closed, served]

    requests = [s for p in phases for s in p.requests]
    result.attempted = len(requests) + len(lost)
    result.failed = sum(1 for s in requests + lost if not s.ok)
    # A wrong answer makes the run incorrect; a request the daemon never
    # answered, or shed, counts as failed.
    result.correct = all(s.ok or s.status in (0, 429, 503) for s in requests + lost)

    if trace:
        paced = [s for p in phases if p.rate for s in p.requests]
        lag_p99 = percentile([s.lag for s in paced], 0.99) * 1e3
        if lag_p99 > GEN_LAG_FLAG_MS:
            warn(f"generator ran {lag_p99:.1f} ms late at p99: open-loop latencies are not trustworthy")
            result.notes.append("generator_behind")
        handled = [s for s in spans if s.name == "serve.handle"]
        metrics = layer_metrics(spans, len(handled))
        handle_by_id = {
            s.attrs.get("query_id"): s.duration
            for s in traced_daemon.spans
            if s.name == "serve.handle"
        }
        http_ms = [
            (s.done - s.sent - handle_by_id[s.query_id]) * 1e3
            for s in served.requests
            if s.ok and s.query_id in handle_by_id
        ]
        metrics.update(
            {
                "serve.http_ms": sum(http_ms) / len(http_ms),
                "serve.shed_ratio": sum(p.shed for p in phases) / len(requests),
                "filter.floor_ratio": filter_seconds(spans)
                / len(handled)
                / _numpy_floor_seconds(views, xs, ys),
                "bench.open_p50_ms": reference.latencies().p50_ms(),
                "bench.open_p90_ms": reference.latencies().tail_ms(),
                "bench.max_rate_rps": best.throughput() if best is not None else 0.0,
                "bench.gen_lag_p99_ms": lag_p99,
                "bench.wall_p50_ms": plain.latencies().p50_ms(),
                "bench.trace_overhead_pct": (
                    closed.latencies().p50_ms() / plain.latencies().p50_ms() - 1.0
                )
                * 100.0,
                "bench.fail_ratio": result.failed / result.attempted,
            }
        )
        for name, unit in PER_LAYER_UNITS.items():
            result.put(name, metrics[name], unit)
    else:
        measured = put_times(
            result,
            speed,
            setup_times,
            closed.cpu_latencies(),
            closed.cpu_throughput(),
            median(load_rates),
        )
        result.put("rss_mb", peak_rss_mb(), "MB")
        result.put("bytes_per_point", _store_bytes(store) / sizes.points, "B")
    info = {
        "points": sizes.points,
        "viewports": len(views),
        "reference_rate": sizes.reference_rate,
        "ladder": list(sizes.ladder),
    }
    if not trace:
        info.update(measured, wall_p50_ms=closed.latencies().p50_ms())
    if trace:
        info.update(
            {
                # Latency at each ladder rate probed.
                "ladder_p50_p90_ms": {
                    p.rate: [round(p.latencies().p50_ms(), 2), round(p.latencies().tail_ms(), 2)]
                    for p in probes
                },
                "max_passing_rate": best.rate if best is not None else None,
                "daemon_restarts": result.notes.count("daemon_restarted"),
            }
        )
    return result, info


def _numpy_floor_seconds(views: Sequence[Viewport], xs: np.ndarray, ys: np.ndarray) -> float:
    """Mean seconds of a hand-written numpy bbox mask over the store's
    arrays, for the viewports requests draw from."""
    t0 = clock()
    for view in views:
        b = view.box
        np.flatnonzero((xs >= b.xmin) & (xs <= b.xmax) & (ys >= b.ymin) & (ys <= b.ymax))
    return (clock() - t0) / len(views)
