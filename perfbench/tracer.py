"""In-memory span tracer installed around the library's public calls.

The benchmark does not change the program: in a traced run it replaces a
fixed list of public functions and methods with timing wrappers (and puts
the originals back afterwards).  Every wrapped call pushes a frame on a
per-thread stack, so nested calls know their parent and a layer's *self
time* is its duration minus the time of the wrapped calls inside it.

Two kinds of call are recorded:

* spans — one ``(id, parent, name, start, end, self)`` row per call, kept
  in memory and written out when the run ends;
* hot calls (per record or per event) — too many for one row each, so
  they only add to a per-name tally of calls, total time, self time and
  work units.  Spans feed the same tallies.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable

#: Layer of a tally name: the part before the first dot.
LAYERS = (
    "rawfile", "convert", "clocksync", "merge", "codec", "index",
    "repository", "stats", "view", "query", "serve", "live",
)


class Tracer:
    """Spans and tallies of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        #: name -> [calls, total_s, self_s, units]
        self.tallies: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str | Callable[[Any, tuple], str],
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        hot: bool = False,
        units: Callable[[Any, tuple], float] | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a frame named ``name`` (or
        named by ``name(result, args)`` once the call returns)."""
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][2] += end - start
        label = name(result, args) if callable(name) else name
        work = units(result, args) if units is not None else 0
        self._add(label, end - start, end - start - frame[2], work)
        if not hot:
            self.spans.append(
                (frame[0], frame[1], label, start, end, end - start - frame[2])
            )
        return result

    def _add(self, name: str, total: float, own: float, units: float) -> None:
        with self._lock:
            tally = self.tallies.get(name)
            if tally is None:
                tally = self.tallies[name] = [0, 0.0, 0.0, 0]
            tally[0] += 1
            tally[1] += total
            tally[2] += own
            tally[3] += units

    def span(self, name: str, fn: Callable, *args: Any, units=None, **kwargs: Any) -> Any:
        """Record one span around a direct call from the benchmark."""
        return self.call(name, fn, args, kwargs, units=units)

    # ------------------------------------------------------------- patching

    def patch(self, target: str, make: Callable[[Any], Callable]) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with
        ``make(original)``; :meth:`uninstall` puts the original back."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(
        self,
        target: str,
        name: str | Callable[[Any, tuple], str],
        *,
        hot: bool = False,
        units: Callable[[Any, tuple], float] | None = None,
    ) -> None:
        """Trace every call of ``target`` (see :meth:`patch`);
        ``units(result, args)`` counts the call's work."""

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, original, args, kwargs, hot=hot, units=units)

            return wrapper

        self.patch(target, make)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def export(self) -> dict[str, Any]:
        return {
            "spans": [list(s) for s in self.spans],
            "tallies": {k: list(v) for k, v in self.tallies.items()},
        }


def merge_tallies(*exports: dict[str, Any]) -> dict[str, list[float]]:
    """Sum the tallies of several processes' exports."""
    out: dict[str, list[float]] = {}
    for export in exports:
        for name, tally in export.get("tallies", {}).items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(tally):
                acc[i] += value
    return out


def layer_self_seconds(tallies: dict[str, list[float]]) -> dict[str, float]:
    """Self time per layer (every layer present, zero when not run)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, tally in tallies.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += tally[2]
    return out


def span_durations(exports: list[dict[str, Any]], name: str) -> list[float]:
    """Durations (seconds) of every span called ``name``."""
    return [
        s[4] - s[3] for export in exports for s in export.get("spans", [])
        if s[2] == name
    ]


# ---------------------------------------------------------------------------
# Instrumentation sets: which public calls each process wraps.

#: What a ``SlogFile`` frame read runs on a cache miss: the record decoder
#: (``read_frame``, and ``read_frame_batch`` on a salvaging reader) and the
#: columnar one (``read_frame_batch``).
SLOG_DECODERS = (
    "repro.utils.slog:SlogFile._decode_frame",
    "repro.query.columnar:decode_frame_batch",
)


def _count_decodes(tracer: Tracer, *decoders: str) -> None:
    """Count, per thread, the calls of ``decoders``: what a cached frame
    read runs only on a cache miss."""
    local = tracer._local

    def count(original: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            local.decodes = getattr(local, "decodes", 0) + 1
            return original(*args, **kwargs)

        return counted

    for decoder in decoders:
        tracer.patch(decoder, count)


def _cached_read(tracer: Tracer, target: str, cold: str, warm: str, size) -> None:
    """Wrap a cached frame read: a call during which this thread ran a
    decoder counted by :func:`_count_decodes` is a cold decode (``cold``),
    any other a cache hit (``warm``).  The reader's own miss counter
    cannot tell them apart: the server's threads share it."""
    local = tracer._local

    def make(original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = getattr(local, "decodes", 0)
            decoded: list[bool] = []

            def label(result: Any, _args: tuple) -> str:
                decoded.append(getattr(local, "decodes", 0) != before)
                return cold if decoded[0] else warm

            def units(result: Any, _args: tuple) -> int:
                return size(result) if decoded[0] else 0

            return tracer.call(label, original, args, kwargs, hot=True, units=units)

        return wrapper

    tracer.patch(target, make)


def instrument_pipeline(tracer: Tracer) -> None:
    """Batch tools run by the benchmark process (convert, merge)."""
    tracer.wrap("repro.tracing.rawfile:RawTraceReader.event_at", "rawfile.decode", hot=True)
    tracer.wrap("repro.core.records:IntervalRecord.encode", "codec.encode", hot=True)
    _count_decodes(tracer, "repro.core.reader:IntervalReader._decode_frame")
    _cached_read(tracer, "repro.core.reader:IntervalReader.read_frame",
                 "codec.decode_ute", "codec.hit_ute", len)
    tracer.wrap("repro.utils.merge:adjustment_from_pairs", "clocksync.fit")
    tracer.wrap("repro.clocksync.adjust:ClockAdjustment.adjust", "clocksync.adjust", hot=True)
    tracer.wrap("repro.clocksync.adjust:PiecewiseAdjustment.adjust", "clocksync.adjust", hot=True)


def instrument_server(tracer: Tracer) -> None:
    """The ute-serve process: repository, index, codec, view, query,
    statistics and the request handler."""
    tracer.wrap("repro.repository.registry:Repository.register", "repository.register")
    tracer.wrap(
        "repro.query:build_index", "index.build",
        units=lambda result, args: sum(f.n_records for f in result.frames),
    )
    tracer.wrap("repro.query:write_index", "index.write")
    tracer.wrap("repro.serve.session:load_fresh_index", "index.load")
    _count_decodes(tracer, *SLOG_DECODERS)
    _cached_read(tracer, "repro.utils.slog:SlogFile.read_frame",
                 "codec.decode", "codec.hit", len)
    _cached_read(tracer, "repro.utils.slog:SlogFile.read_frame_batch",
                 "codec.batch_decode", "codec.batch_hit", lambda batch: batch.n)

    def view_label(result: Any, args: tuple) -> str:
        return "view.aggregate" if args[0].last_view_aggregate else "view.exact"

    tracer.wrap("repro.viz.jumpshot:Jumpshot.view_svg_window", view_label)
    tracer.wrap("repro.serve.session:plan_query", "query.plan")
    tracer.wrap("repro.serve.session:execute_query", "query.exec")
    tracer.wrap("repro.serve.session:generate_tables", "stats.table")
    tracer.wrap("repro.serve.app:TraceServer._run_handler", "serve.handle")


def instrument_live_writer(tracer: Tracer) -> None:
    """The live writer process: per-record writes, epoch publishing and
    the incremental index it republishes."""
    tracer.wrap("repro.live.writer:_LiveWriterBase.write", "live.write", hot=True)
    tracer.wrap("repro.core.records:IntervalRecord.encode", "codec.encode", hot=True)
    tracer.wrap("repro.live.writer:_LiveWriterBase.publish", "live.publish")
    tracer.wrap("repro.live.writer:_IncrementalIndex.snapshot", "index.snapshot")
    tracer.wrap("repro.live.writer:write_index", "index.write")
    tracer.wrap("repro.query.indexfile:TraceIndex.encode", "index.encode")
    tracer.wrap("repro.live.writer:_LiveWriterBase.close", "live.close")


def instrument_follower(tracer: Tracer) -> None:
    """The follower: polls and the frame decodes behind them."""
    tracer.wrap("repro.live.reader:FollowReader.poll", "live.poll", hot=True)
    _count_decodes(tracer, *SLOG_DECODERS)
    _cached_read(tracer, "repro.utils.slog:SlogFile.read_frame",
                 "codec.decode", "codec.hit", len)
