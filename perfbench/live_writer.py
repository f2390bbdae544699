"""The live writer process: an open-loop replay through ``LiveSlogWriter``.

``python -m perfbench.live_writer --input SRC --out OUT --rate R --report REP [--trace]``

The process loads the generated record stream, constructs the writer
(which publishes epoch 0 so followers can attach), prints ``READY`` and
waits for one line on stdin: ``go`` streams; anything else, or end of
input, aborts.

Record ``i`` is due at ``start + i / rate`` whatever happened before it
(open loop): the generator sleeps only when early, so a slow ``write`` or
``publish`` makes it late rather than slowing the schedule.  An epoch is
published at every 100 ms tick of the same clock (the ``--live-interval``
default); a tick that passes while the writer is busy is skipped, as a
timer that cannot fire mid-call would be.  ``close()`` then assembles the
finished file and its sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from perfbench.common import peak_rss_mb, summarize
from perfbench.inputs import FRAME_BYTES

PUBLISH_INTERVAL_S = 0.1
#: Lead time between "go" and the first record's due time.
START_DELAY_S = 0.05


def stream(writer, records, rate: float) -> dict:
    """Write ``records`` on schedule, publishing every tick; returns the
    schedule origin, how late each write started and when each publish
    returned."""
    start = time.monotonic() + START_DELAY_S
    late: list[float] = []
    published: list[float] = []
    next_tick = start + PUBLISH_INTERVAL_S
    for i, record in enumerate(records):
        due = start + i / rate
        while True:
            now = time.monotonic()
            if now >= next_tick:
                writer.publish(seal=True)
                now = time.monotonic()
                published.append(now)
                next_tick = start + PUBLISH_INTERVAL_S * (
                    math.floor((now - start) / PUBLISH_INTERVAL_S) + 1)
                continue
            if now >= due:
                break
            time.sleep(min(due, next_tick) - now)
        late.append(now - due)
        writer.write(record)
    return {"start": start, "late": late, "published": published}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser("perfbench.live_writer")
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.live import LiveSlogWriter
    from repro.utils.slog import SlogFile

    with SlogFile(args.input) as src:
        records = src.records()
        writer_args = dict(
            markers=src.markers, node_cpus=src.node_cpus, field_mask=src.field_mask,
            frame_bytes=FRAME_BYTES,
            ticks_per_sec=src.ticks_per_sec,
        )
        profile, threads = src.profile, src.thread_table
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer, instrument_live_writer

        tracer = Tracer()
        instrument_live_writer(tracer)
    writer = LiveSlogWriter(args.out, profile, threads, **writer_args)
    print("READY", flush=True)
    report: dict = {"records": len(records)}
    if sys.stdin.readline().strip() != "go":
        writer.abort()
    else:
        try:
            run = stream(writer, records, args.rate)
        except BaseException:
            writer.abort()
            raise
        closing = time.perf_counter()
        writer.close()
        report.update(
            start=run["start"],
            close_s=time.perf_counter() - closing,
            late=summarize(run["late"]),
            epoch_gaps=[b - a for a, b in zip(run["published"], run["published"][1:])],
            epochs=writer.epochs_published,
        )
    report["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        report["trace"] = tracer.export()
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
