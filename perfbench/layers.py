"""Per-layer metrics of a traced run, derived from span exports.

Every workload reports the whole list; a layer the workload never calls
reports 0 (its work count is zero), which is itself the prediction for a
change to that layer: no effect on this workload.
"""

from __future__ import annotations

from typing import Any

from perfbench.common import median, percentile
from perfbench.tracer import LAYERS, layer_self_seconds, merge_tallies, span_durations

ROUTES = (
    "view-aggregate", "view-exact", "frame", "utilization",
    "query-window", "query-full", "stats",
)
STAGES = ("convert", "merge", "register", "index", "view", "stats")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("convert.s_per_event", "s", "lower"),
    ("convert.bytes_written", "bytes", "lower"),
    ("merge.s_per_event", "s", "lower"),
    ("merge.bytes_written", "bytes", "lower"),
    ("codec.encode_us_per_record", "us", "lower"),
    ("codec.decode_us_per_record", "us", "lower"),
    ("codec.batch_decode_us_per_record", "us", "lower"),
    ("index.build_us_per_record", "us", "lower"),
    ("index.sidecar_bytes_per_trace_byte", "ratio", "lower"),
    ("index.load_ms", "ms", "lower"),
    ("repository.register_s", "s", "lower"),
    ("stats.table_s", "s", "lower"),
    ("stats.records_per_s", "1/s", "higher"),
    ("view.aggregate_ms", "ms", "lower"),
    ("view.exact_ms", "ms", "lower"),
    ("query.plan_ms", "ms", "lower"),
    ("query.exec_ms", "ms", "lower"),
    ("query.frames_decoded_per_planned", "ratio", "lower"),
    *[
        (f"serve.{route}.{q}_ms", "ms", "lower")
        for route in ROUTES
        for q in ("p50", "p95")
    ],
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.bytes_read_per_req", "bytes", "lower"),
    ("serve.not_modified_share", "ratio", "higher"),
    ("live.write_us_per_record", "us", "lower"),
    ("live.publish_ms", "ms", "lower"),
    ("live.generator_late_ms", "ms", "lower"),
    ("live.follow_decode_us_per_record", "us", "lower"),
    ("live.poll_hit_ratio", "ratio", "higher"),
    ("live.close_s", "s", "lower"),
    *[(f"self.{layer}_s", "s", "lower") for layer in LAYERS],
    *[(f"stage.{stage}_s", "s", "lower") for stage in STAGES],
    ("stage.unaccounted_s", "s", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]
NAMES = [name for name, _unit, _better in PER_LAYER]
UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _per_unit(tally: list[float] | None, scale: float) -> float:
    """Total seconds per work unit, times ``scale`` (0 without work)."""
    if not tally or not tally[3]:
        return 0.0
    return tally[1] / tally[3] * scale


def _per_call(tally: list[float] | None, scale: float) -> float:
    if not tally or not tally[0]:
        return 0.0
    return tally[1] / tally[0] * scale


def median_span_ms(exports: list[dict[str, Any]], name: str) -> float:
    durations = span_durations(exports, name)
    return median(durations) * 1e3 if durations else 0.0


def per_layer(exports: dict[str, dict[str, Any]]) -> dict[str, float]:
    """The span-derived metrics common to every workload."""
    tallies = merge_tallies(*exports.values())
    spans = list(exports.values())
    stats = tallies.get("stats.table")
    out = {
        "codec.encode_us_per_record": _per_call(tallies.get("codec.encode"), 1e6),
        "codec.decode_us_per_record": _per_unit(tallies.get("codec.decode"), 1e6),
        "codec.batch_decode_us_per_record": _per_unit(tallies.get("codec.batch_decode"), 1e6),
        "index.build_us_per_record": _per_unit(tallies.get("index.build"), 1e6),
        "index.load_ms": _per_call(tallies.get("index.load"), 1e3),
        "repository.register_s": _per_call(tallies.get("repository.register"), 1.0),
        "stats.table_s": _per_call(stats, 1.0),
        "view.aggregate_ms": median_span_ms(spans, "view.aggregate"),
        "view.exact_ms": median_span_ms(spans, "view.exact"),
        "query.plan_ms": median_span_ms(spans, "query.plan"),
        "query.exec_ms": median_span_ms(spans, "query.exec"),
    }
    for layer, seconds in layer_self_seconds(tallies).items():
        out[f"self.{layer}_s"] = seconds
    return out


def pipeline_metrics(
    exports: dict[str, dict[str, Any]], raw_events: int, checked: dict[str, Any]
) -> dict[str, float]:
    """Convert and merge in the paper's Table-1 unit (seconds per raw
    event), their output bytes, and the sidecar's size ratio."""
    tallies = merge_tallies(*exports.values())
    return {
        "convert.s_per_event": _per_call(tallies.get("convert"), 1.0) / raw_events,
        "convert.bytes_written": float(checked["convert_bytes"]),
        "merge.s_per_event": _per_call(tallies.get("merge"), 1.0) / raw_events,
        "merge.bytes_written": float(checked["merge_bytes"]),
        "index.sidecar_bytes_per_trace_byte": checked["sidecar_bytes"] / checked["trace_bytes"],
    }


def route_metrics(samples: dict[str, list[float]]) -> dict[str, float]:
    """Client-observed p50/p95 per serve route (seconds in, ms out)."""
    out = {}
    for route, values in samples.items():
        if values:
            out[f"serve.{route}.p50_ms"] = percentile(values, 50.0) * 1e3
            out[f"serve.{route}.p95_ms"] = percentile(values, 95.0) * 1e3
    return out


def complete(metrics: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric in report order, 0 where the run had none."""
    unknown = set(metrics) - set(NAMES)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in NAMES}
