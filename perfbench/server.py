"""ute-serve as a separate process, optionally traced.

``python -m perfbench.server --report R [--trace] -- <ute-serve args>``
runs the real ``ute-serve`` entry point; with ``--trace`` it first wraps
the server-side layer calls (see :func:`perfbench.tracer.instrument_server`).
On SIGINT the daemon shuts down and the launcher writes ``R``: its peak
resident memory and, when traced, its spans.

:class:`ServeProcess` is the benchmark's handle on one such daemon.
"""

from __future__ import annotations

import argparse
import json
import select
import sys
import time
from pathlib import Path
from typing import Any

from perfbench.common import peak_rss_mb, read_json, spawn, stop

READY_TIMEOUT_S = 60.0


class ServeProcess:
    """A ute-serve daemon over a repository root.  The constructor returns
    once the daemon listens; :attr:`launched` is when it was started."""

    def __init__(self, root: Path, logs: Path, name: str, *, traced: bool = False) -> None:
        self.report_path = logs / f"{name}.report.json"
        self.report_path.unlink(missing_ok=True)
        args = ["--report", str(self.report_path)]
        if traced:
            args.append("--trace")
        args += ["--", "--repository", str(root), "-p", "0", "--quiet"]
        self.launched = time.perf_counter()
        self.proc = spawn("perfbench.server", args, log=logs / f"{name}.log")
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            stop(self.proc)
            raise RuntimeError(f"ute-serve did not start (see {logs / (name + '.log')})")
        self.port = int(line.split("http://", 1)[1].split("/", 1)[0].rsplit(":", 1)[1])

    def stop(self) -> dict[str, Any]:
        """Shut the daemon down; returns its report (peak memory, spans)."""
        stop(self.proc)
        return read_json(self.report_path)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser("perfbench.server")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, instrument_server

        tracer = Tracer()
        instrument_server(tracer)
    from repro.cli import main_serve

    try:
        code = main_serve(argv[split + 1:])
    finally:
        report = {"peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            report["trace"] = tracer.export()
        Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
