"""Shared pieces of the workloads: run layout, statistics, the result
line, the result stamp and the check that a run leaves no file behind."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The checkout the benchmark runs from (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for one run, inside the checkout and ignored by git.
WORK_PARENT = ROOT / ".perfbench-work"

#: Directories whose contents a run may change: interpreter caches, the
#: run's own workspace and version-control metadata.
_IGNORED_PARTS = {"__pycache__", ".perfbench-work", ".git"}

#: The percentile a latency tail is reported at, and how many samples
#: must lie beyond it for the figure to mean anything.
TAIL_Q = 0.90
TAIL_MIN_BEYOND = 10

#: Samples a phase needs so that ``TAIL_MIN_BEYOND`` lie beyond the tail.
MIN_SAMPLES = round(TAIL_MIN_BEYOND / (1 - TAIL_Q))


#: The clock every end-to-end time is read from: CPU seconds of this
#: process, all its threads summed.  The kernel leaves out the time the
#: hypervisor ran other guests instead (steal), which on a shared host
#: moved the wall-clock p50 of ``viewport`` from 4.9 to 7.5 ms between
#: runs of the same code.
cpu_clock = time.process_time


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tree_files(root: Path = ROOT) -> set:
    """Every file under ``root`` that a run must not add to."""
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _IGNORED_PARTS]
        for name in filenames:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


class Workspace:
    """A private scratch directory that holds every file the run writes.

    The process moves into it and points the program's dump and log
    locations at it, so nothing lands in the checkout; on exit the
    directory is removed and the checkout is compared with its state at
    start.
    """

    def __init__(self) -> None:
        self.before = tree_files()
        WORK_PARENT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
        self._cwd = os.getcwd()
        self._environ = dict(os.environ)
        # The program's own defaults apply: no inherited REPRO_* setting
        # may change what is measured.  Only the two output locations
        # that would otherwise be the working directory are set.
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ["REPRO_FLIGHT_DIR"] = str(self.path)
        os.environ["REPRO_SLOW_QUERY_LOG"] = str(self.path / "slow-query.jsonl")
        os.chdir(self.path)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc: object) -> None:
        os.chdir(self._cwd)
        os.environ.clear()
        os.environ.update(self._environ)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    def leftovers(self) -> List[str]:
        """Files the run added to the checkout outside its workspace."""
        return sorted(tree_files() - self.before)


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the smallest value with a share ``q`` of
    the sample at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond_tail(n: int, q: float = TAIL_Q) -> int:
    """How many of ``n`` samples lie beyond the ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


@dataclass
class Latencies:
    """Per-operation latencies in seconds; a failed operation is ``inf``,
    so it counts against every latency limit."""

    values: List[float] = field(default_factory=list)

    def add(self, seconds: Optional[float]) -> None:
        self.values.append(math.inf if seconds is None else seconds)

    def p50_ms(self) -> float:
        return percentile(self.values, 0.5) * 1e3

    def tail_ms(self) -> float:
        """The ``TAIL_Q`` percentile; refuses a sample too small for it."""
        if beyond_tail(len(self.values)) < TAIL_MIN_BEYOND:
            raise ValueError(
                f"{len(self.values)} samples leave fewer than "
                f"{TAIL_MIN_BEYOND} beyond p{int(TAIL_Q * 100)}"
            )
        return percentile(self.values, TAIL_Q) * 1e3


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 0.5)


# -- output ----------------------------------------------------------------


@dataclass
class Result:
    """What one run reports: correctness, counts and named metrics."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name} reported twice")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def stamp(workload: str, seed: int, seconds: int, trace: bool, **sizes: object) -> Dict:
    """The record every result carries: hardware, software and inputs."""
    import numpy

    from repro.engine.parallel import default_threads

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "os_cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "program_threads": default_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **sizes,
    }


def peak_rss_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_ticks() -> List[int]:
    """The host's CPU time counters (``/proc/stat``), in clock ticks."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between:
    a run on a host that stole much is slower for reasons outside the
    program."""
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(1, sum(delta))


# -- host speed ------------------------------------------------------------


#: CPU milliseconds of one probe on the host the benchmark was built on.
PROBE_REFERENCE_MS = 2.2

#: Wall-clock seconds between probes.
PROBE_EVERY_S = 0.2


class SpeedProbe:
    """How fast the host runs during a run, from a fixed piece of work.

    On a shared host the CPU time of the same work moves by 10-15 % from
    one minute to the next, as other guests come and go on the same
    cores and caches.  Between operations, at most every
    ``PROBE_EVERY_S`` seconds, the probe does the same numpy work (a
    gather of 128Ki random elements of a 256Ki-element array and a sort
    of 64Ki elements) and times it on the calling thread's CPU clock, so
    no thread of the program counts towards it.  The array (2 MiB) stays
    below the size for which numpy asks the kernel for huge pages; with
    an 8 MiB array the probe's median spread 16 % over ten runs of
    ``thematic_sql``, against 6 % with this one.  :meth:`scale` turns
    the run's CPU times into those of a host on which the probe takes
    ``PROBE_REFERENCE_MS``.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._values = rng.random(1 << 18)
        self._index = rng.integers(0, 1 << 18, 1 << 17)
        self._last = -math.inf
        self.times: List[float] = []

    def tick(self) -> None:
        """Probe, unless the last probe was less than ``PROBE_EVERY_S`` ago."""
        now = time.perf_counter()
        if now - self._last < PROBE_EVERY_S:
            return
        import numpy as np

        t0 = time.thread_time()
        self._values[self._index].sum()
        np.sort(self._values[: 1 << 16])
        self.times.append(time.thread_time() - t0)
        self._last = time.perf_counter()

    def median_ms(self) -> float:
        return median(self.times) * 1e3

    def scale(self) -> float:
        """Reference probe time over this run's median probe time."""
        return PROBE_REFERENCE_MS / self.median_ms()


def put_times(
    result: "Result",
    probe: SpeedProbe,
    setup_times: Sequence[float],
    lat: Latencies,
    ops_per_cpu_s: float,
    append_mpts_s: float,
) -> Dict[str, object]:
    """Put the end-to-end times, in CPU time at the reference speed;
    returns them as measured, and the probe, for the result stamp."""
    scale = probe.scale()
    raw = {
        "setup_s": median(setup_times),
        "p50_cpu_ms": lat.p50_ms(),
        "p90_cpu_ms": lat.tail_ms(),
        "ops_per_cpu_s": ops_per_cpu_s,
        "append_mpts_s": append_mpts_s,
    }
    result.put("setup_s", raw["setup_s"] * scale, "s")
    result.put("p50_cpu_ms", raw["p50_cpu_ms"] * scale, "ms")
    result.put("p90_cpu_ms", raw["p90_cpu_ms"] * scale, "ms")
    result.put("ops_per_cpu_s", ops_per_cpu_s / scale, "ops/s")
    result.put("append_mpts_s", append_mpts_s / scale, "Mpts/s")
    return {"measured": raw, "probe_ms": probe.median_ms(), "probes": len(probe.times)}


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
