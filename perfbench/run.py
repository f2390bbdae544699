"""The benchmark of the trace pipeline: one command, three workloads.

    python3 perfbench/run.py --workload {ingest,explore,live} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package under ``src/`` is the
system measured.  Inputs are generated from ``--seed`` in a separate
process before any timing starts.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from
a traced run, plus the tracing overhead against an untraced pass of the
same run.  Human-readable lines come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Spans and full results are written under ``.perfbench/``.

See ``perfbench/RATIONALE.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ingest", "explore", "live")
#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "tail_latency_ms": "ms",
    "throughput_per_s": "1/s",
    "stored_bytes_per_input_byte": "ratio",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser("perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate(workload: str, seed: int, seconds: float, out: Path, sizes: dict | None = None) -> dict:
    """Generate the seeded inputs in a child process; returns their
    description (paths and sizes)."""
    from perfbench.common import child_env

    cmd = [sys.executable, "-m", "perfbench.inputs", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--out", str(out)]
    if sizes:
        cmd += ["--sizes", json.dumps(sizes)]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=600)
    return json.loads((out / "inputs.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, traced: bool, work: Path,
                 sizes: dict | None = None):
    """Generate inputs and run one workload; returns its Result with
    complete metrics (every end-to-end or every per-layer name)."""
    from perfbench import explore, ingest, layers, live

    info = generate(workload, seed, seconds, work / "inputs", sizes)
    module = {"ingest": ingest, "explore": explore, "live": live}[workload]
    result = module.run(work, info, seconds, traced)
    if traced:
        result.metrics = layers.complete(result.metrics)
    elif set(result.metrics) != set(END_TO_END):
        raise KeyError(f"end-to-end metrics {sorted(result.metrics)} != {sorted(END_TO_END)}")
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.common import WORK

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    began = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - began

    units = layers.UNITS if args.trace else END_TO_END
    ledger = result.ledger
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={wall:.1f}s")
    print("  input: " + ", ".join(f"{k}={v}" for k, v in result.inputs.items() if k != "sha256"))
    for name, value in result.metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for key, value in result.details.items():
        print(f"  [{key}] {value}")
    print(f"  operations attempted={ledger.attempted} failed={ledger.failed} "
          f"error_rate={ledger.error_rate:.6g}")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": result.inputs, "metrics": result.metrics,
        "details": result.details, "attempted": ledger.attempted,
        "failed": ledger.failed, "problems": ledger.problems,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if result.traces:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{tag}.json").write_text(json.dumps(result.traces))

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
