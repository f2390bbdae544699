"""``ingest``: the paper's Figure-2 pipeline as one batch.

Raw traces of the Table-1 program go through ``convert_traces`` and
``merge_interval_files(slog_path=...)``; the SLOG is registered with a
running ute-serve (``POST /api/datasets`` -> ``Repository.register`` and
the background index build); then the first whole-run thread view and the
Figure-6 statistics table are requested.  Convert, merge, record encoding
and the index build do nearly all the work; the server answers two
requests.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable
from urllib.parse import quote

from repro.core.profilefmt import Profile
from repro.core.reader import IntervalReader
from repro.core.records import IntervalType
from repro.query import index_path_for
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile

from perfbench import layers
from perfbench.common import Ledger, Result, http, median, peak_rss_mb, tree_bytes
from perfbench.server import ServeProcess
from perfbench.tracer import LAYERS, Tracer, instrument_pipeline

SETUPS = 3
#: A pass (~11 s on 2 CPUs) is the unit of work, so the run length is a
#: pass count, not ``--seconds``.  The fastest pass is reported (min-of-N):
#: on a shared machine interference only ever slows a pass down.
PASSES = 2
INDEX_POLL_S = 0.025
INDEX_TIMEOUT_S = 120.0
#: Bins of the Figure-6 table, as in the paper.
FIG6_BINS = 50


def fig6_program(total_seconds: float, running_type: int) -> str:
    """The Figure-6 statlang table: duration of interesting (non-Running)
    intervals per node per 50 equal time bins."""
    return (
        "table name=interesting_by_node_bin\n"
        f"      condition=(type != {running_type})\n"
        '      x=("node", node)\n'
        f'      x=("bin", bin(start, 0, {total_seconds!r}, {FIG6_BINS}))\n'
        '      y=("sum(duration)", dura, sum)\n'
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _plain(name: str, fn: Callable, *args: Any, units=None, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def wait_index(port: int, name: str) -> str:
    """Poll the dataset listing until ``name``'s index build settles."""
    deadline = time.perf_counter() + INDEX_TIMEOUT_S
    while time.perf_counter() < deadline:
        reply = http(port, "/api/datasets")
        if reply.status == 200:
            for entry in json.loads(reply.body)["datasets"]:
                if entry["name"] == name and entry["index"] in ("ready", "failed"):
                    return entry["index"]
        time.sleep(INDEX_POLL_S)
    return "timeout"


def one_pass(
    port: int, out: Path, name: str, raw_paths: list[Path], call: Callable = _plain
) -> dict[str, Any]:
    """Raw files -> served view and table.  Returns stage times, the two
    end-to-end times and everything the output checks need.  ``call``
    wraps the library calls (a tracer's span, or a plain call)."""
    stages: dict[str, float] = {}
    mark = start = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[stage] = now - mark
        mark = now

    conv = call("convert", convert_traces, raw_paths, out / "ivl",
                units=lambda r, a: r.events_processed)
    lap("convert")
    slog_path = out / "run.slog"
    merged = call(
        "merge", merge_interval_files, conv.interval_paths, out / "merged.ute",
        Profile.read(conv.profile_path), slog_path=slog_path,
        units=lambda r, a: r.records_out,
    )
    lap("merge")
    register = http(port, f"/api/datasets?name={name}", method="POST",
                    body=slog_path.read_bytes())
    lap("register")
    index_state = wait_index(port, name)
    lap("index")
    with SlogFile(slog_path) as slog:
        t0, t1 = (t / slog.ticks_per_sec for t in slog.time_range)
        nodes = sorted(slog.node_cpus)
    view = http(port, f"/api/d/{name}/view/thread?window={t0!r}:{t1!r}")
    lap("view")
    first_view = mark - start
    program = fig6_program(t1, IntervalType.RUNNING)
    table = http(port, f"/api/d/{name}/stats?format=json&table={quote(program)}")
    lap("stats")
    return {
        "stages": stages,
        "first_view_s": first_view,
        "first_table_s": mark - start,
        "conv": conv,
        "merged": merged,
        "slog_path": slog_path,
        "nodes": nodes,
        "replies": {"register": register, "view": view, "stats": table},
        "index_state": index_state,
    }


def check_pass(p: dict[str, Any], info: dict[str, Any], root: Path, name: str,
               ledger: Ledger) -> dict[str, Any]:
    """Output checks of one pass; returns its digests and byte counts."""
    conv, merged, replies = p["conv"], p["merged"], p["replies"]
    ledger.count(conv.events_processed == info["raw_events"],
                 f"convert saw {conv.events_processed} of {info['raw_events']} raw events")
    profile = Profile.read(conv.profile_path)
    written = 0
    for path in conv.interval_paths:
        with IntervalReader(path, profile) as reader:
            written += reader.totals()[0]
    ledger.count(written == conv.records_written,
                 f"interval files hold {written} records, convert reported {conv.records_written}")
    with SlogFile(p["slog_path"]) as slog:
        n_records = sum(f.n_records for f in slog.frames)
        n_pseudo = sum(f.n_pseudo for f in slog.frames)
    ledger.count(
        (n_records, n_pseudo) == (merged.records_out + merged.pseudo_records, merged.pseudo_records),
        f"SLOG holds {n_records} records ({n_pseudo} pseudo), merge reported "
        f"{merged.records_out} + {merged.pseudo_records}",
    )
    ledger.count(replies["register"].status == 201,
                 f"register answered {replies['register'].status}")
    ledger.count(p["index_state"] == "ready", f"index build ended {p['index_state']}")
    view = replies["view"]
    ledger.count(view.status == 200 and view.headers.get("x-ute-bytes-read") == "0",
                 f"whole-run view: status {view.status}, "
                 f"bytes read {view.headers.get('x-ute-bytes-read')}")
    table = replies["stats"]
    ok = table.status == 200
    if ok:
        rows = json.loads(table.body)["tables"][0]["rows"]
        keys = [(row[0], row[1]) for row in rows]
        ok = sorted({row[0] for row in rows}) == p["nodes"] and len(keys) == len(set(keys))
    ledger.count(ok, f"Figure-6 table: status {table.status}, rows per node do not match")

    dataset = root / name
    sidecar = index_path_for(dataset / "trace.slog")
    ledger.count(sidecar.exists(), "no sidecar next to the registered trace")
    out = p["slog_path"].parent
    return {
        "slog_sha256": _sha256(p["slog_path"]),
        "sidecar_sha256": _sha256(sidecar) if sidecar.exists() else "",
        "stored_bytes": tree_bytes(out, dataset),
        "convert_bytes": tree_bytes(out / "ivl"),
        "merge_bytes": tree_bytes(out / "merged.ute", p["slog_path"]),
        "trace_bytes": p["slog_path"].stat().st_size,
        "sidecar_bytes": sidecar.stat().st_size if sidecar.exists() else 0,
        "records": n_records,
    }


def _start(work: Path, name: str, traced: bool = False) -> tuple[ServeProcess, Path, float]:
    root = work / f"repo-{name}"
    server = ServeProcess(root, work / "logs", name, traced=traced)
    return server, root, time.perf_counter() - server.launched


def run(work: Path, info: dict[str, Any], seconds: float, traced: bool) -> Result:
    raw_paths = [Path(p) for p in info["raw_paths"]]
    inputs = {k: info[k] for k in ("raw_files", "raw_events", "raw_bytes", "sha256", "seed")}
    ledger = Ledger()
    if traced:
        return _run_traced(work, info, raw_paths, inputs, ledger)

    setups = []
    for i in range(SETUPS):
        server, root, setup_s = _start(work, f"setup{i}")
        setups.append(setup_s)
        if i < SETUPS - 1:
            server.stop()
    try:
        passes = [
            one_pass(server.port, work / f"pass{i}", f"pass{i}", raw_paths)
            for i in range(PASSES)
        ]
        own_rss = peak_rss_mb()
    finally:
        report = server.stop()
    ledger.count(len(report) > 0, "ute-serve wrote no exit report")
    checked = [check_pass(p, info, root, f"pass{i}", ledger) for i, p in enumerate(passes)]
    for key in ("slog_sha256", "sidecar_sha256"):
        ledger.count(len({c[key] for c in checked}) == 1, f"{key} differs between passes")

    first_view = min(p["first_view_s"] for p in passes)
    first_table = min(p["first_table_s"] for p in passes)
    stored = median([c["stored_bytes"] for c in checked]) / info["raw_bytes"]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": own_rss + report.get("peak_rss_mb", 0.0),
        "latency_ms": first_view * 1e3,
        "tail_latency_ms": first_table * 1e3,
        "throughput_per_s": info["raw_events"] / first_table,
        "stored_bytes_per_input_byte": stored,
    }
    details = {
        "first_view_s": first_view,
        "first_table_s": first_table,
        "stored_bytes_per_raw_byte": stored,
        "passes": len(passes),
        "peak_rss_mb_split": {"benchmark": own_rss, "ute-serve": report.get("peak_rss_mb")},
        "setups_s": setups,
        "stages_s": [p["stages"] for p in passes],
        "digests": {k: checked[0][k] for k in ("slog_sha256", "sidecar_sha256")},
        "records": checked[0]["records"],
        "trace_bytes": checked[0]["trace_bytes"],
    }
    return Result(ledger, metrics, inputs, details)


def _run_traced(work: Path, info: dict[str, Any], raw_paths: list[Path],
                inputs: dict[str, Any], ledger: Ledger) -> Result:
    """One untraced pass (stage times, client latencies, the overhead
    baseline), then one pass with the pipeline and the server traced."""
    server, root, _ = _start(work, "plain")
    try:
        plain = one_pass(server.port, work / "plain", "plain", raw_paths)
    finally:
        server.stop()
    plain_checked = check_pass(plain, info, root, "plain", ledger)

    tracer = Tracer()
    server, root, _ = _start(work, "traced", traced=True)
    try:
        instrument_pipeline(tracer)
        try:
            traced = one_pass(server.port, work / "traced", "traced", raw_paths, tracer.span)
        finally:
            tracer.uninstall()
    finally:
        report = server.stop()
    checked = check_pass(traced, info, root, "traced", ledger)
    for key in ("slog_sha256", "sidecar_sha256"):
        ledger.count(plain_checked[key] == checked[key], f"{key} differs under tracing")
    ledger.count("trace" in report, "traced ute-serve wrote no spans")
    exports = {"benchmark": tracer.export(), "server": report.get("trace", {})}

    metrics = layers.per_layer(exports)
    events = info["raw_events"]
    metrics.update(layers.pipeline_metrics(exports, events, checked))
    replies = plain["replies"]
    metrics.update(layers.route_metrics({
        "view-aggregate": [replies["view"].seconds],
        "stats": [replies["stats"].seconds],
    }))
    if metrics["stats.table_s"]:
        # The Figure-6 program scans every record of the trace once.
        metrics["stats.records_per_s"] = checked["records"] / metrics["stats.table_s"]
    metrics.update({f"stage.{k}_s": plain["stages"][k] for k in layers.STAGES})
    # Time of the traced pass inside no traced layer: HTTP, the index poll,
    # process hand-offs.
    metrics["stage.unaccounted_s"] = traced["first_table_s"] - sum(
        metrics[f"self.{layer}_s"] for layer in LAYERS)
    metrics["trace.overhead_ms"] = (traced["first_view_s"] - plain["first_view_s"]) * 1e3
    details = {
        "untraced_first_view_s": plain["first_view_s"],
        "traced_first_view_s": traced["first_view_s"],
        "untraced_first_table_s": plain["first_table_s"],
    }
    return Result(ledger, metrics, inputs, details, exports)
