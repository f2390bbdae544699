"""``explore``: two analysts panning and zooming one big trace.

Two closed-loop clients (each waits for a reply before its next request,
as a browser does) run sessions against ute-serve over a 100k-record
bigtrace dataset of ~345 frames, more than five times the server's
64-frame cache.  A session: whole-run thread and processor views
(aggregate path, no trace IO), a zoom into a random region (exact path,
cache misses), pans next to it (cache hits, the last one revisits and so
revalidates to 304), the frames under the window, its utilization cells,
a windowed query on one thread and a full-scan ``group_by=node,type``
query.  Convert and merge never run; the index build is part of set-up.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path
from typing import Any
from urllib.parse import urlencode

from repro.query import (
    Aggregate, Query, ThreadSel, execute, open_trace, plan_query, window_to_ticks,
)

from perfbench import layers
from perfbench.common import Ledger, Result, http, median, summarize, tail_name, tree_bytes
from perfbench.ingest import wait_index
from perfbench.inputs import NODES, THREADS_PER_NODE
from perfbench.server import ServeProcess

SETUPS = 3
CLIENTS = 2
DATASET = "bench"
#: Zoom window as a share of the run: ~1000 of 100k records, well under
#: the 4 records/pixel density at which views switch to aggregates.
ZOOM = 0.01
#: Pan offsets in window widths; the last one revisits a window.
PANS = (0.5, 1.0, 0.5)
FRAMES_PER_SESSION = 2
UTIL_BINS = 64
_METRICS = {
    "hits": "ute_serve_frame_cache_hits_total",
    "misses": "ute_serve_frame_cache_misses_total",
    "bytes": "ute_serve_bytes_fetched_total",
}


class _Stop(Exception):
    """The measurement window closed."""


class Client(threading.Thread):
    """One closed-loop analyst."""

    def __init__(self, port: int, seed: int, deadline: float, layout: dict[str, Any],
                 threads: list[tuple[int, int]]) -> None:
        super().__init__(name=f"client-{seed}", daemon=True)
        self.port = port
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.layout = layout
        self.threads = threads
        self.base = f"/api/d/{DATASET}"
        #: (route, seconds, status, bytes-read header)
        self.samples: list[tuple[str, float, int, str | None]] = []
        #: (route, query params, body) of every answered query
        self.queries: list[tuple[str, dict[str, str], bytes]] = []
        self.ledger = Ledger()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while time.perf_counter() < self.deadline:
                self.session()
        except _Stop:
            pass
        except BaseException as exc:  # reported by the benchmark, never lost
            self.error = exc

    def get(self, route: str, path: str, etags: dict[str, str]) -> Any:
        if time.perf_counter() >= self.deadline:
            raise _Stop
        headers = {"If-None-Match": etags[path]} if path in etags else {}
        try:
            reply = http(self.port, path, headers=headers)
        except OSError as exc:
            self.ledger.count(False, f"{route}: {exc!r}")
            return None
        bytes_read = reply.headers.get("x-ute-bytes-read")
        self.samples.append((route, reply.seconds, reply.status, bytes_read))
        ok = reply.status in (200, 304)
        if ok and reply.status == 200 and route in ("view-aggregate", "utilization"):
            ok = bytes_read == "0"
        self.ledger.count(ok, f"{route} {path}: status {reply.status}, bytes read {bytes_read}")
        if "etag" in reply.headers:
            etags[path] = reply.headers["etag"]
        return reply

    def session(self) -> None:
        etags: dict[str, str] = {}
        t0, t1 = self.layout["time_range"]
        whole = f"window={t0!r}:{t1!r}"
        self.get("view-aggregate", f"{self.base}/view/thread?{whole}", etags)
        self.get("view-aggregate", f"{self.base}/view/processor?{whole}", etags)
        width = (t1 - t0) * ZOOM
        lo = self.rng.uniform(t0, t1 - width * (1 + max(PANS)))
        self.get("view-exact", f"{self.base}/view/thread?window={lo!r}:{lo + width!r}", etags)
        for shift in PANS:
            a = lo + shift * width
            self.get("view-exact", f"{self.base}/view/thread?window={a!r}:{a + width!r}", etags)
        hi = lo + width
        frames = self.layout["frames"]
        first = next((f["index"] for f in frames if f["end"] > lo and f["start"] < hi), 0)
        for index in range(first, min(first + FRAMES_PER_SESSION, len(frames))):
            self.get("frame", f"{self.base}/frame/{index}", etags)
        self.get("utilization", f"{self.base}/utilization?lane=thread&bins={UTIL_BINS}"
                 f"&window={lo!r}:{hi!r}", etags)
        node, tid = self.rng.choice(self.threads)
        params = {"window": f"{lo!r}:{hi!r}", "thread": f"{node}:{tid}", "format": "json"}
        self.query("query-window", params, etags)
        self.query("query-full", {"group_by": "node,type", "agg": "count", "format": "json"}, etags)

    def query(self, route: str, params: dict[str, str], etags: dict[str, str]) -> None:
        reply = self.get(route, f"{self.base}/query?{urlencode(params)}", etags)
        if reply is not None and reply.status == 200:
            self.queries.append((route, params, reply.body))


def scrape(port: int) -> dict[str, float]:
    """The frame-cache and byte counters from /metrics."""
    text = http(port, "/metrics").body.decode()
    values = {}
    for line in text.splitlines():
        for key, metric in _METRICS.items():
            if line.startswith(metric + " "):
                values[key] = float(line.split()[1])
    return values


def setup(work: Path, trace: Path, name: str, traced: bool = False
          ) -> tuple[ServeProcess, dict[str, Any], float]:
    """Launch ute-serve, register the trace, wait for its index, open the
    dataset (frame directory and preview, as a viewer does on load):
    ready.  Returns the server, the trace layout and the set-up time."""
    server = ServeProcess(work / f"repo-{name}", work / "logs", name, traced=traced)
    try:
        reply = http(server.port, f"/api/datasets?name={DATASET}", method="POST",
                     body=trace.read_bytes())
        state = wait_index(server.port, DATASET) if reply.status == 201 else "rejected"
        if state != "ready":
            raise RuntimeError(f"dataset set-up failed: register {reply.status}, index {state}")
        base = f"/api/d/{DATASET}"
        layout = {
            "frames": json.loads(http(server.port, f"{base}/frames").body)["frames"],
            "time_range": json.loads(http(server.port, f"{base}/preview").body)["time_range"],
        }
    except BaseException:
        server.stop()
        raise
    return server, layout, time.perf_counter() - server.launched


def measure(server: ServeProcess, layout: dict[str, Any], seed: int, seconds: float,
            threads: list[tuple[int, int]]) -> dict[str, Any]:
    """Run the clients for ``seconds``; returns them (with their samples)
    and the server counter deltas."""
    before = scrape(server.port)
    start = time.perf_counter()
    clients = [
        Client(server.port, seed * 1000 + i, start + seconds, layout, threads)
        for i in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=seconds + 300)
    elapsed = time.perf_counter() - start
    after = scrape(server.port)
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in _METRICS}
    return {"clients": clients, "elapsed": elapsed, "delta": delta}


def pool(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """One measurement out of several windows."""
    return {
        "clients": [c for part in parts for c in part["clients"]],
        "elapsed": sum(part["elapsed"] for part in parts),
        "delta": {k: sum(part["delta"][k] for part in parts) for k in _METRICS},
    }


def verify(run: dict[str, Any], trace: Path, ledger: Ledger) -> None:
    """Every query answer must equal the same query run locally with a
    full scan (``run_query``'s plan/execute with no index)."""
    clients = run["clients"]
    for client in clients:
        ledger.absorb(client.ledger)
        ledger.count(not client.is_alive() and client.error is None,
                     f"{client.name}: {client.error!r}")
    with open_trace(trace, cache_frames=4096) as handle:
        full_rows: dict[str, Any] = {}
        for client in clients:
            for route, params, body in client.queries:
                rows = json.loads(body)["rows"]
                if route == "query-full":
                    query = Query(group_by=("node", "type"), aggregates=(Aggregate.parse("count"),))
                else:
                    lo, hi = (float(x) for x in params["window"].split(":"))
                    t0, t1 = window_to_ticks((lo, hi), handle.ticks_per_sec)
                    query = Query(threads=(ThreadSel.parse(params["thread"]),), t0=t0, t1=t1)
                key = json.dumps(params, sort_keys=True)
                if key not in full_rows:
                    plan = plan_query(query, handle.frames, None, index_reason="disabled")
                    full_rows[key] = json.loads(json.dumps(
                        [list(r) for r in execute(handle, query, plan)]))
                if rows != full_rows[key]:
                    ledger.fail(f"{route} {params}: rows differ from a local full scan")


def summary(run: dict[str, Any]) -> dict[str, Any]:
    samples = [s for c in run["clients"] for s in c.samples]
    latencies = [s[1] for s in samples]
    delta = run["delta"]
    lookups = delta["hits"] + delta["misses"]
    decoded = planned = 0
    for client in run["clients"]:
        for _route, _params, body in client.queries:
            payload = json.loads(body)
            decoded += payload["io"]["frames_decoded"]
            planned += payload["plan"]["frames_selected"]
    by_route: dict[str, list[float]] = {}
    for route, seconds, _status, _bytes in samples:
        by_route.setdefault(route, []).append(seconds)
    return {
        "requests": len(samples),
        "latency": summarize(latencies) if latencies else None,
        "req_per_s": len(samples) / run["elapsed"],
        "by_route": by_route,
        "cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "bytes_read_per_req": delta["bytes"] / len(samples) if samples else 0.0,
        "not_modified_share": sum(s[2] == 304 for s in samples) / len(samples) if samples else 0.0,
        "frames_decoded_per_planned": decoded / planned if planned else 0.0,
    }


def run(work: Path, info: dict[str, Any], seconds: float, traced: bool) -> Result:
    trace = Path(info["trace_path"])
    seed = info["seed"]
    threads = [(n, t) for n in range(NODES) for t in range(THREADS_PER_NODE)]
    inputs = {k: info[k] for k in (
        "records", "trace_bytes", "frames", "server_cache_frames", "frames_per_cache",
        "sha256", "seed")}
    ledger = Ledger()
    if traced:
        return _run_traced(work, trace, seed, seconds, threads, inputs, ledger)

    # Each set-up is followed by its share of the window, so the window is
    # spread over the whole run rather than taken in one stretch.
    setups, parts, reports = [], [], []
    for i in range(SETUPS):
        server, layout, setup_s = setup(work, trace, f"setup{i}")
        setups.append(setup_s)
        try:
            parts.append(measure(server, layout, seed * SETUPS + i, seconds / SETUPS, threads))
        finally:
            reports.append(server.stop())
    stored = tree_bytes(work / f"repo-setup{SETUPS - 1}" / DATASET) / info["trace_bytes"]
    measured = pool(parts)
    ledger.count(all(reports), "ute-serve wrote no exit report")
    verify(measured, trace, ledger)
    s = summary(measured)
    if s["latency"] is None:
        raise RuntimeError("no request completed")
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in reports),
        "latency_ms": s["latency"]["p50"] * 1e3,
        "tail_latency_ms": s["latency"]["tail"] * 1e3,
        "throughput_per_s": s["req_per_s"],
        "stored_bytes_per_input_byte": stored,
    }
    details = {
        "req_p50_ms": metrics["latency_ms"],
        "req_tail_ms": metrics["tail_latency_ms"],
        "req_tail": tail_name(s["latency"]),
        "req_per_s": s["req_per_s"],
        "setups_s": setups,
        "cache_hit_ratio": s["cache_hit_ratio"],
        "not_modified_share": s["not_modified_share"],
        "requests_by_route": {k: len(v) for k, v in s["by_route"].items()},
    }
    return Result(ledger, metrics, inputs, details)


def _run_traced(work: Path, trace: Path, seed: int, seconds: float,
                threads: list[tuple[int, int]], inputs: dict[str, Any],
                ledger: Ledger) -> Result:
    """An untraced window (client-side latencies, the overhead baseline),
    then set-up and a window with the server traced."""
    server, layout, _ = setup(work, trace, "plain")
    try:
        plain = measure(server, layout, seed, seconds, threads)
    finally:
        server.stop()
    verify(plain, trace, ledger)
    server, layout, _ = setup(work, trace, "traced", traced=True)
    try:
        traced = measure(server, layout, seed, seconds, threads)
    finally:
        report = server.stop()
    verify(traced, trace, ledger)
    ledger.count("trace" in report, "traced ute-serve wrote no spans")
    exports = {"server": report.get("trace", {})}
    p, t = summary(plain), summary(traced)
    metrics = layers.per_layer(exports)
    metrics.update(layers.route_metrics(p["by_route"]))
    metrics["index.sidecar_bytes_per_trace_byte"] = (
        tree_bytes(work / "repo-plain" / DATASET / "trace.slog.uteidx") / inputs["trace_bytes"])
    for key in ("cache_hit_ratio", "bytes_read_per_req", "not_modified_share"):
        metrics[f"serve.{key}"] = p[key]
    metrics["query.frames_decoded_per_planned"] = p["frames_decoded_per_planned"]
    metrics["trace.overhead_ms"] = (t["latency"]["p50"] - p["latency"]["p50"]) * 1e3
    details = {"untraced_req_p50_ms": p["latency"]["p50"] * 1e3,
               "traced_req_p50_ms": t["latency"]["p50"] * 1e3,
               "untraced_requests": p["requests"], "traced_requests": t["requests"]}
    return Result(ledger, metrics, inputs, details, exports)
