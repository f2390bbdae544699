"""Shared pieces of the benchmark: the percentile rule, the ledger that
counts attempted and failed operations, HTTP and process helpers, and the
result record every workload returns."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes lives under here (inputs, outputs, traces).
WORK = ROOT / ".perfbench"

#: Reported tail: p99, or — with fewer than 1000 samples — the highest
#: percentile that still has at least ten samples beyond it.
TAIL_LEVEL = 99.0
TAIL_BEYOND = 10
#: Failure messages a ledger keeps (the counts are always complete).
MAX_PROBLEMS = 20


# ---------------------------------------------------------------------------
# Percentiles.


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile of ``values`` (``level`` in 0..100)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_level(n: int) -> float | None:
    """The percentile the tail is reported at for ``n`` samples: p99 when
    at least ten samples lie beyond it, else the highest percentile that
    has ten beyond it; None when fewer than eleven samples exist."""
    if n <= TAIL_BEYOND:
        return None
    return min(TAIL_LEVEL, 100.0 * (n - TAIL_BEYOND) / n)


def summarize(values: list[float]) -> dict[str, Any]:
    """Median and tail of a sample, with the tail's level and the sample
    count.  Without enough samples for any tail the maximum stands in and
    ``tail_level`` is None."""
    level = tail_level(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail": percentile(values, level) if level is not None else max(values),
        "tail_level": level,
    }


def tail_name(stats: dict[str, Any]) -> str:
    level = stats["tail_level"]
    label = "max" if level is None else f"p{level:.4g}"
    return f"{label} of n={stats['n']}"


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# Failure accounting.


class Ledger:
    """Counts attempted and failed operations.  Requests, pipeline stages,
    streamed records and output checks are all operations; a failure is a
    bad status, an exception, a timeout or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, ok: bool, what: str, n: int = 1) -> bool:
        """Record ``n`` operations that all passed (``ok``) or all failed."""
        self.attempted += n
        if not ok:
            self.failed += n
            self._note(what)
        return ok

    def fail(self, what: str) -> None:
        """Mark one already-counted operation as failed."""
        self.failed += 1
        self._note(what)

    def absorb(self, other: "Ledger") -> None:
        """Add another ledger's counts (one per client thread) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        for what in other.problems:
            self._note(what)

    def _note(self, what: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# HTTP.


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes
    seconds: float


def http(
    port: int,
    path: str,
    *,
    method: str = "GET",
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout: float = 60.0,
) -> Reply:
    """One request on a fresh connection (the server closes each one);
    ``seconds`` runs from connect to the last body byte."""
    start = time.perf_counter()
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        reply_headers = {k.lower(): v for k, v in response.getheaders()}
        status = response.status
    finally:
        conn.close()
    return Reply(status, reply_headers, data, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Processes.


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(module: str, args: list[str], *, log: Path) -> subprocess.Popen:
    """Start ``python -u -m module args`` with a line-oriented stdin and
    stdout pipe; stderr goes to ``log``."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "ab") as err:
        return subprocess.Popen(
            [sys.executable, "-u", "-m", module, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )


def stop(proc: subprocess.Popen, *, interrupt: bool = True, timeout: float = 30.0) -> int:
    """Stop a child, always reaping it: its stdin closes first (a child
    waiting for a command reads EOF and gives up), then SIGINT when
    ``interrupt``, then SIGKILL after ``timeout``."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    if proc.poll() is None and interrupt:
        proc.send_signal(signal.SIGINT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=timeout)
    finally:
        proc.stdout.close()


def read_json(path: Path) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def tree_bytes(*paths: Path) -> int:
    """Total size of the regular files under ``paths``."""
    total = 0
    for root in paths:
        if root.is_file():
            total += root.stat().st_size
            continue
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


# ---------------------------------------------------------------------------
# Results.


@dataclass
class Result:
    """What one workload run measured."""

    ledger: Ledger
    #: End-to-end metrics (name -> value) when untraced, per-layer when traced.
    metrics: dict[str, float]
    #: The input's size: raw events, records, trace bytes, frames, ...
    inputs: dict[str, Any]
    #: Everything else worth reading later (workload-specific names of the
    #: shared metrics, tail levels, stage times).
    details: dict[str, Any] = field(default_factory=dict)
    #: Span exports of every traced process (traced runs only).
    traces: dict[str, Any] = field(default_factory=dict)
