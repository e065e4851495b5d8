"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload viewport --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``).  The line before it is the result stamp: hardware,
software versions, seed and input sizes.  The exit code is 0 only when
every answer was right and the run left no file in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("viewport", "thematic_sql", "append_navigate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A terminated run still stops its daemon and removes its workspace.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench import append_navigate, common, thematic_sql, viewport

    module = {
        "viewport": viewport,
        "thematic_sql": thematic_sql,
        "append_navigate": append_navigate,
    }[args.workload]
    steal0 = common.cpu_ticks()
    with common.Workspace() as workspace:
        result, info = module.run(
            args.seed, args.seconds, bool(args.trace), workspace.path
        )
    leftovers = workspace.leftovers()
    if leftovers:
        common.warn(f"the run left files in the checkout: {leftovers[:10]}")
        result.correct = False
    stamp = common.stamp(args.workload, args.seed, args.seconds, bool(args.trace), **info)
    stamp["host_steal_pct"] = common.steal_pct(steal0, common.cpu_ticks())
    stamp["notes"] = result.notes
    print(json.dumps({"stamp": stamp}))
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
