"""The benchmark's own tests: python3 -m pytest perfbench/tests

They check the metric names and units, how failures count, the
self-time reduction, and that a tiny run of every workload is correct
and reports exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import http.server
import json
import math
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import append_navigate, common, thematic_sql, viewport
from perfbench.layers import PER_LAYER_UNITS
from perfbench.spans import Span, covered, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_metric_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + list(E2E) + list(LAYERS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(E2E.values()) + list(LAYERS.values()):
        assert UNIT.match(unit), unit
    assert LAYERS == PER_LAYER_UNITS


# -- failures ----------------------------------------------------------------


class _Refusing(http.server.BaseHTTPRequestHandler):
    """Answers every request 429, or never answers in time when slow."""

    slow = False

    def do_POST(self):  # noqa: N802 - http.server's naming
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.slow:
            time.sleep(1.0)
        body = b'{"error": "rejected"}'
        self.send_response(429)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("slow", [False, True], ids=["429", "timeout"])
def test_shed_or_timed_out_request_fails_and_misses_the_limit(monkeypatch, slow):
    monkeypatch.setattr(viewport, "REQUEST_TIMEOUT_S", 0.2)
    handler = type("Handler", (_Refusing,), {"slow": slow})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.handle_error = lambda request, address: None  # the client hung up
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        view = viewport.Viewport(viewport.inputs.EXTENT)
        status, meta, body = viewport.post(server.server_address[1], view.payload())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert status == (0 if slow else 429)
    assert not view.check(status, meta, body)

    # One such request among fast ones: counted failed, and as a latency
    # beyond every limit.
    phase = viewport.Phase(rate=10.0)
    for k in range(common.MIN_SAMPLES):
        sent = viewport.Sent(due=float(k), sent=float(k), done=k + 0.001, status=200, ok=True)
        phase.requests.append(sent)
    phase.requests[-1] = viewport.Sent(due=99.0, sent=99.0, done=99.001, status=status, ok=False)
    assert phase.failed == 1
    assert math.isinf(max(phase.latencies().values))
    assert phase.shed == (0 if slow else 1)
    # Enough of them and the rate misses the latency limit.
    for k in range(15):
        phase.requests[k] = viewport.Sent(due=k, sent=k, done=k + 0.001, status=status)
    assert math.isinf(phase.latencies().tail_ms())
    assert not phase.passes()


def test_latency_tail_needs_ten_samples_beyond_it():
    lat = common.Latencies()
    for k in range(common.MIN_SAMPLES - 1):
        lat.add(k / 1e3)
    with pytest.raises(ValueError):
        lat.tail_ms()
    lat.add(None)
    assert common.beyond_tail(len(lat.values)) == 10
    assert lat.tail_ms() == pytest.approx(89.0)
    for _ in range(20):
        lat.add(None)
    assert math.isinf(lat.tail_ms())


def test_times_are_put_at_the_reference_speed():
    probe = common.SpeedProbe()
    probe.tick()
    assert len(probe.times) == 1
    probe.tick()  # too soon after the first
    assert len(probe.times) == 1
    # A host on which the probe runs twice as fast as the reference.
    probe.times = [common.PROBE_REFERENCE_MS / 2e3] * 3
    lat = common.Latencies()
    for _ in range(common.MIN_SAMPLES):
        lat.add(0.001)
    result = common.Result()
    stamp = common.put_times(result, probe, [0.5], lat, 10.0, 4.0)
    values = {k: v["value"] for k, v in result.metrics.items()}
    assert values == pytest.approx(
        {
            "setup_s": 1.0,
            "p50_cpu_ms": 2.0,
            "p90_cpu_ms": 2.0,
            "ops_per_cpu_s": 5.0,
            "append_mpts_s": 2.0,
        }
    )
    assert stamp["measured"]["p50_cpu_ms"] == pytest.approx(1.0)
    assert stamp["probe_ms"] == pytest.approx(common.PROBE_REFERENCE_MS / 2)


# -- self time ----------------------------------------------------------------


def _span(span_id, name, start, end, parent=None):
    span = Span(span_id, name, start, parent, 1)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a (another thread)
        _span(4, "a.child", 2.0, 3.0, parent=2),
        _span(5, "late", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    assert covered([], 0.0, 1.0) == 0.0


# -- tiny runs ----------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("module", [viewport, thematic_sql, append_navigate])
def test_tiny_run_is_correct_and_complete(module, trace):
    with common.Workspace() as workspace:
        result, _info = module.run(3, 2.0, trace, workspace.path, module.Sizes.tiny())
    assert workspace.leftovers() == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    want = LAYERS if trace else E2E
    assert {k: v["unit"] for k, v in result.metrics.items()} == want
    for name, metric in result.metrics.items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        values = {k: v["value"] for k, v in result.metrics.items()}
        if module is viewport:
            assert values["refine.ms"] == 0.0
            assert values["serve.http_ms"] > 0 and values["wire.encode_ms"] > 0
        else:
            bypassed = [k for k in values if k.startswith(("serve.", "wire."))]
            assert bypassed and all(values[k] == 0.0 for k in bypassed)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "viewport", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
