"""The traced daemon: ``python -m perfbench.daemon SPANS_JSON serve ...``.

Wraps the measured layers, then runs the program's own CLI entry point
with the remaining arguments.  On SIGUSR2 the spans recorded so far are
written to ``SPANS_JSON`` (atomically), before the daemon is stopped, so
they survive a daemon that does not exit cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from perfbench.layers import install
from perfbench.spans import SpanRecorder


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)

    def dump(signum: int, frame: object) -> None:
        tmp = out_path + ".tmp"
        with open(tmp, "w") as out:
            json.dump([span.to_list() for span in list(recorder.spans)], out)
        os.replace(tmp, out_path)

    signal.signal(signal.SIGUSR2, dump)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
