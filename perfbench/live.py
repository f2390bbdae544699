"""``live``: an open-loop record stream written live and followed.

A writer process replays a seeded bigtrace record stream through
``LiveSlogWriter`` at a fixed rate, publishing an epoch every 100 ms
(see :mod:`perfbench.live_writer`); this process tails the output with a
``FollowReader`` at the ``ute-tail`` default poll.  Each record's lag runs
from its due time to the poll that delivered it, so a writer that falls
behind shows up as lag even though it never drops a record.  A run
streams its records in three streams, one per set-up.  Write-side
record encoding and incremental indexing run beside read-side decoding;
convert, merge and the server never run.
"""

from __future__ import annotations

import select
import time
from pathlib import Path
from typing import Any

from repro.live import FollowReader
from repro.query import index_path_for
from repro.utils.slog import SlogFile

from perfbench import layers
from perfbench.common import (
    Ledger, Result, median, peak_rss_mb, read_json, spawn, stop, summarize, tail_name, tree_bytes,
)
from perfbench.inputs import LIVE_STREAMS as STREAMS
from perfbench.tracer import Tracer, instrument_follower

#: Set-ups per run: the streaming ones and two that only set up.
SETUPS = STREAMS + 2
#: ``ute-tail --poll`` default.
POLL_S = 0.05
READY_TIMEOUT_S = 60.0
#: Give up on a follower that has not seen the final epoch by then.
FOLLOW_SLACK_S = 120.0


class Writer:
    """One live writer process, constructed up to ``READY``."""

    def __init__(self, work: Path, trace: Path, rate: float, name: str, traced: bool) -> None:
        self.out = work / name / "live.slog"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.report_path = work / "logs" / f"{name}.report.json"
        args = ["--input", str(trace), "--out", str(self.out), "--rate", repr(rate),
                "--report", str(self.report_path)]
        if traced:
            args.append("--trace")
        self.launched = time.perf_counter()
        self.proc = spawn("perfbench.live_writer", args, log=work / "logs" / f"{name}.log")
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        if not ready or self.proc.stdout.readline().strip() != "READY":
            stop(self.proc, interrupt=False)
            raise RuntimeError(f"live writer {name} did not start")

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float) -> dict[str, Any]:
        stop(self.proc, interrupt=False, timeout=timeout)
        return read_json(self.report_path)


def attach(writer: Writer):
    return FollowReader(writer.out, poll_interval=POLL_S)


def follow(follower, deadline: float) -> dict[str, Any]:
    """Poll until the final epoch; every delivered batch is stamped with
    the monotonic time of the poll that returned it."""
    deliveries: list[tuple[float, list]] = []
    polls = hits = pseudo = 0
    final = False
    while time.monotonic() < deadline:
        event = follower.poll()
        now = time.monotonic()
        polls += 1
        if event is None:
            time.sleep(POLL_S)
            continue
        if event.kind == "final":
            final = True
            break
        hits += 1
        pseudo += event.n_pseudo
        deliveries.append((now, event.records))
    follower.close()
    return {"deliveries": deliveries, "polls": polls, "hits": hits,
            "pseudo": pseudo, "final": final}


def one_stream(work: Path, trace: Path, rate: float, n: int, name: str,
               traced: bool) -> dict[str, Any]:
    """Set up, stream, follow to the end; returns the writer's report and
    the follower's view."""
    writer = Writer(work, trace, rate, name, traced)
    try:
        follower = attach(writer)
        setup_s = time.perf_counter() - writer.launched
        writer.send("go")
        followed = follow(follower, time.monotonic() + n / rate + FOLLOW_SLACK_S)
        rss = peak_rss_mb()
    finally:
        report = writer.finish(timeout=FOLLOW_SLACK_S)
    return {"setup_s": setup_s, "report": report, "followed": followed, "out": writer.out,
            "rss": rss}


def check(stream: dict[str, Any], trace: Path, rate: float, ledger: Ledger) -> list[float]:
    """Exactly-once, in-order delivery and a finished file equal to the
    input; returns each delivered record's lag (seconds).  Every record is
    one operation; the file checks are one each."""
    with SlogFile(trace) as src:
        expected = src.records()
    report, followed = stream["report"], stream["followed"]
    ledger.count("start" in report, "live writer did not report its stream")
    ledger.count(followed["final"], "follower never saw the final epoch")
    ledger.count(followed["pseudo"] == 0, f"{followed['pseudo']} pseudo records in a stream of complete ones")
    delivered = [r for _t, records in followed["deliveries"] for r in records]
    wrong = sum(
        1 for i, record in enumerate(expected)
        if i >= len(delivered) or delivered[i] != record
    ) + max(0, len(delivered) - len(expected))
    ledger.count(True, "", n=len(expected))
    for _ in range(wrong):
        ledger.fail("record lost, duplicated or out of order at the follower")
    out = stream["out"]
    finished = out.exists() and index_path_for(out).exists()
    ledger.count(finished, "finished file or its sidecar missing")
    if finished:
        with SlogFile(out) as slog:
            ledger.count(slog.records() == expected, "finished file differs from the input stream")
    lags = []
    start = report.get("start", 0.0)
    i = 0
    for when, records in followed["deliveries"]:
        for _ in records:
            lags.append(when - (start + i / rate))
            i += 1
    return lags


def run(work: Path, info: dict[str, Any], seconds: float, traced: bool) -> Result:
    trace = Path(info["trace_path"])
    rate = float(info["rate_per_s"])
    n = info["records"]
    inputs = {k: info[k] for k in ("records", "rate_per_s", "trace_bytes", "frames", "sha256", "seed")}
    inputs["stream_seconds"] = n / rate
    inputs["streams"] = STREAMS
    ledger = Ledger()
    if traced:
        return _run_traced(work, trace, rate, n, inputs, ledger)

    # Set-up-only writers: the follower attaches, then finish() closes the
    # writer's stdin and it aborts.
    setups = []
    for i in range(SETUPS - STREAMS):
        writer = Writer(work, trace, rate, f"setup{i}", False)
        try:
            attach(writer).close()
            setups.append(time.perf_counter() - writer.launched)
        finally:
            writer.finish(timeout=30.0)
    # Each streaming set-up streams a third of the run, and the lag figures
    # are the median of the three streams' figures: one slow stretch of a
    # noisy machine moves one stream, not the result.
    streams = [one_stream(work, trace, rate, n, f"stream{i}", False) for i in range(STREAMS)]
    lags = [check(stream, trace, rate, ledger) for stream in streams]
    if not all(lags):
        raise RuntimeError("no record was delivered")
    lag_stats = [summarize(stream_lags) for stream_lags in lags]
    gaps = [gap for stream in streams for gap in stream["report"].get("epoch_gaps", [])]
    if not gaps:
        raise RuntimeError("fewer than two epochs were published during a stream")
    epoch_gap = median(gaps)
    setups += [stream["setup_s"] for stream in streams]
    reports = [stream["report"] for stream in streams]
    out = streams[-1]["out"]
    stored = tree_bytes(out, index_path_for(out)) / info["trace_bytes"]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": max(stream["rss"] + stream["report"].get("peak_rss_mb", 0.0)
                           for stream in streams),
        "latency_ms": median([stats["p50"] for stats in lag_stats]) * 1e3,
        "tail_latency_ms": median([stats["tail"] for stats in lag_stats]) * 1e3,
        "throughput_per_s": 1.0 / epoch_gap,
        "stored_bytes_per_input_byte": stored,
    }
    details = {
        "follow_lag_p50_ms": metrics["latency_ms"],
        "follow_lag_tail_ms": metrics["tail_latency_ms"],
        "follow_lag_tail": [tail_name(stats) for stats in lag_stats],
        "finalize_s": [r["close_s"] for r in reports],
        "generator_late_p50_ms": [r["late"]["p50"] * 1e3 for r in reports],
        "epochs": [r["epochs"] for r in reports],
        "epoch_gap_p50_ms": epoch_gap * 1e3,
        "setups_s": setups,
    }
    return Result(ledger, metrics, inputs, details)


def _run_traced(work: Path, trace: Path, rate: float, n: int,
                inputs: dict[str, Any], ledger: Ledger) -> Result:
    """An untraced stream (the overhead baseline), then one with the
    writer and the follower traced."""
    plain = one_stream(work, trace, rate, n, "plain", False)
    plain_lags = check(plain, trace, rate, ledger)
    tracer = Tracer()
    instrument_follower(tracer)
    try:
        traced = one_stream(work, trace, rate, n, "traced", True)
    finally:
        tracer.uninstall()
    traced_lags = check(traced, trace, rate, ledger)
    report, followed = traced["report"], traced["followed"]
    ledger.count("trace" in report, "traced live writer wrote no spans")
    exports = {"writer": report.get("trace", {}), "follower": tracer.export()}
    metrics = layers.per_layer(exports)
    writer_tallies = report.get("trace", {}).get("tallies", {})
    follower_tallies = exports["follower"]["tallies"]
    write = writer_tallies.get("live.write")
    decode = follower_tallies.get("codec.decode")
    delivered = len(traced_lags)
    out = traced["out"]
    if out.exists() and index_path_for(out).exists():
        metrics["index.sidecar_bytes_per_trace_byte"] = (
            index_path_for(out).stat().st_size / out.stat().st_size)
    metrics.update({
        "live.write_us_per_record": write[1] / write[0] * 1e6 if write else 0.0,
        "live.publish_ms": layers.median_span_ms([exports["writer"]], "live.publish"),
        "live.generator_late_ms": report["late"]["p50"] * 1e3 if "late" in report else 0.0,
        "live.follow_decode_us_per_record": decode[1] / delivered * 1e6 if decode and delivered else 0.0,
        "live.poll_hit_ratio": followed["hits"] / followed["polls"] if followed["polls"] else 0.0,
        "live.close_s": report.get("close_s", 0.0),
    })
    if plain_lags and traced_lags:
        metrics["trace.overhead_ms"] = (median(traced_lags) - median(plain_lags)) * 1e3
    details = {"untraced_lag_p50_ms": median(plain_lags) * 1e3 if plain_lags else None,
               "traced_lag_p50_ms": median(traced_lags) * 1e3 if traced_lags else None,
               "epochs": report.get("epochs")}
    return Result(ledger, metrics, inputs, details, exports)
