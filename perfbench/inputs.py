"""Seeded input generation, run before any timing starts.

Each workload's inputs come from ``--seed`` alone: the same seed writes
the same bytes.  Generation runs in its own process
(``python -m perfbench.inputs``) so neither its time nor its memory is
charged to the system under test, which only ever sees the files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any


#: bigtrace shape shared by explore and live: 2 nodes x 16 threads, 8 KB
#: frames (also the live writer's frame size, the ``replay_live`` default).
NODES = 2
THREADS_PER_NODE = 16
FRAME_BYTES = 8 * 1024
#: live: records per second of the replayed stream, the per-writer traffic
#: of ``benchmarks/test_live_follow.py`` (25 records per 50 ms publish gap).
LIVE_RATE = 500.0
#: live: a run's seconds are streamed in this many streams, one per set-up.
LIVE_STREAMS = 3


@dataclass(frozen=True)
class Sizes:
    """The input sizes a shrunken run (the benchmark's own tests) may
    override; the defaults are the benchmark's."""

    #: Table-1 synthetic rounds; 2194 rounds give ~128k raw events, the
    #: paper's second Table-1 column (128 378).
    ingest_rounds: int = 2194
    #: explore: 100k records, ~345 frames (>5x the 64-frame server cache).
    explore_records: int = 100_000


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def make_ingest(out: Path, seed: int, rounds: int) -> dict[str, Any]:
    """Raw traces of the Table-1 program (4 tasks x 4 threads).  The seed
    goes to ``TraceOptions.seed`` and picks the per-round compute time, so
    each seed's event times — and every byte derived from them — differ
    while the event mix stays the Table-1 one.  Sampler jitter stays off,
    the ``TraceOptions`` default."""
    from repro.tracing import TraceOptions
    from repro.tracing.rawfile import RawTraceReader
    from repro.workloads import run_synthetic
    from repro.workloads.synthetic import SyntheticConfig

    compute_ns = random.Random(seed).randrange(49_000, 51_001, 100)
    run = run_synthetic(
        out / "raw",
        SyntheticConfig(rounds=rounds, compute_ns=compute_ns),
        options=TraceOptions(global_clock_period_ns=100_000_000, seed=seed),
    )
    paths = sorted(Path(p) for p in run.raw_paths)
    events = 0
    for path in paths:
        with RawTraceReader(path) as reader:
            events += len(reader)
    return {
        "raw_paths": [str(p) for p in paths],
        "raw_files": len(paths),
        "raw_events": events,
        "compute_ns": compute_ns,
        "raw_bytes": sum(p.stat().st_size for p in paths),
        "sha256": _digest(paths),
    }


def make_bigtrace(out: Path, seed: int, n_records: int) -> dict[str, Any]:
    """A bigtrace SLOG file: ``n_records`` busy/gap records over
    ``NODES x THREADS_PER_NODE`` threads."""
    from repro.serve.session import DEFAULT_SERVER_CACHE
    from repro.utils.slog import SlogFile
    from repro.workloads.bigtrace import write_big_slog

    result = write_big_slog(
        out / "trace.slog",
        n_nodes=NODES,
        threads_per_node=THREADS_PER_NODE,
        n_records=n_records,
        frame_bytes=FRAME_BYTES,
        seed=seed,
    )
    with SlogFile(result.path) as slog:
        frames = len(slog.frames)
    return {
        "trace_path": str(result.path),
        "records": result.n_records,
        "trace_bytes": result.path.stat().st_size,
        "frames": frames,
        "server_cache_frames": DEFAULT_SERVER_CACHE,
        "frames_per_cache": frames / DEFAULT_SERVER_CACHE,
        "sha256": _digest([result.path]),
    }


def make_inputs(
    workload: str, out: Path, seed: int, seconds: float, sizes: Sizes = Sizes()
) -> dict[str, Any]:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        info = make_ingest(out, seed, sizes.ingest_rounds)
    elif workload == "explore":
        info = make_bigtrace(out, seed, sizes.explore_records)
    elif workload == "live":
        info = make_bigtrace(out, seed, max(1, round(LIVE_RATE * seconds / LIVE_STREAMS)))
        info["rate_per_s"] = LIVE_RATE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    info["seed"] = seed
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser("perfbench.inputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", default="{}", help="JSON overrides of Sizes")
    args = parser.parse_args(argv)
    sizes = Sizes(**json.loads(args.sizes))
    out = Path(args.out)
    info = make_inputs(args.workload, out, args.seed, args.seconds, sizes)
    info["sizes"] = asdict(sizes)
    (out / "inputs.json").write_text(json.dumps(info, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
