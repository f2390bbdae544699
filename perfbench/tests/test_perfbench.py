"""Tests of the benchmark's own logic: the percentile rule, failure
counting, the tracer, seed determinism of the inputs, and a shrunken run
of every workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import explore, layers, run
from perfbench.common import Ledger, ROOT, percentile, summarize, tail_level, tail_name
from perfbench.tracer import Tracer, _cached_read, _count_decodes, layer_self_seconds

# Shrunken sizes, still dense enough (> 4 records per pixel over the whole
# run) for whole-run views to take the aggregate path.
# live shrinks through the run's seconds.
SMALL = {"ingest_rounds": 200, "explore_records": 8000}


# --------------------------------------------------------------- percentiles


def test_tail_is_p99_once_ten_samples_lie_beyond_it():
    assert tail_level(1000) == 99.0
    assert tail_level(5000) == 99.0
    values = [float(i) for i in range(1, 1001)]
    stats = summarize(values)
    assert stats["tail"] == 990.0
    assert sum(v > stats["tail"] for v in values) == 10


def test_tail_falls_back_to_highest_percentile_with_ten_beyond():
    for n in (11, 50, 100, 500, 999):
        values = [float(i) for i in range(1, n + 1)]
        stats = summarize(values)
        assert stats["tail_level"] < 99.0
        assert sum(v > stats["tail"] for v in values) == 10, n
    assert tail_level(100) == 90.0
    assert tail_name(summarize([float(i) for i in range(100)])) == "p90 of n=100"


def test_tail_without_enough_samples_is_the_stated_maximum():
    stats = summarize([3.0, 1.0, 2.0])
    assert stats["tail_level"] is None and stats["tail"] == 3.0
    assert tail_name(stats) == "max of n=3"


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


# ------------------------------------------------------------ failure counting


def test_ledger_counts_failures_against_attempts():
    ledger = Ledger()
    ledger.count(True, "fine", n=8)
    ledger.count(False, "bad status")
    ledger.fail("failed output check of an op counted earlier")
    assert (ledger.attempted, ledger.failed) == (9, 2)
    assert ledger.error_rate == pytest.approx(2 / 9)
    assert ledger.problems == ["bad status", "failed output check of an op counted earlier"]


class _Stub(BaseHTTPRequestHandler):
    """200 with a trace-IO header, 304, 500 and 404 by path."""

    def do_GET(self):
        status = {"/ok": 200, "/agg-io": 200, "/nm": 304, "/boom": 500}.get(self.path, 404)
        self.send_response(status)
        self.send_header("X-UTE-Bytes-Read", "4096" if self.path == "/agg-io" else "0")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_port():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_client_counts_bad_status_and_aggregate_io_as_failures(stub_port):
    client = explore.Client(stub_port, 1, time.perf_counter() + 60, {}, [(0, 0)])
    client.get("view-exact", "/ok", {})
    client.get("view-exact", "/nm", {})
    client.get("frame", "/boom", {})
    client.get("frame", "/missing", {})
    client.get("view-aggregate", "/agg-io", {})
    client.get("view-exact", "/agg-io", {})
    assert client.ledger.attempted == 6
    assert client.ledger.failed == 3
    assert [s[2] for s in client.samples] == [200, 304, 500, 404, 200, 200]


def test_client_counts_refused_connections_as_failures():
    client = explore.Client(1, 1, time.perf_counter() + 60, {}, [(0, 0)])
    assert client.get("frame", "/x", {}) is None
    assert (client.ledger.attempted, client.ledger.failed) == (1, 1)
    assert client.samples == []


# -------------------------------------------------------------------- tracer


class _Layer:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.03)


def test_tracer_self_time_excludes_children_and_uninstalls():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(f"{__name__}:_Layer.outer", "view.outer")
    tracer.wrap(f"{__name__}:_Layer.inner", "codec.inner", hot=True)
    assert _Layer().outer() == "done"
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    calls, total, own, _ = tracer.tallies["view.outer"]
    assert calls == 1 and total >= 0.05
    assert own == pytest.approx(total - tracer.tallies["codec.inner"][1], abs=1e-9)
    assert [s[2] for s in tracer.spans] == ["view.outer"]  # hot calls keep no span
    self_s = layer_self_seconds(tracer.tallies)
    assert set(self_s) >= {"view", "codec", "live"} and self_s["live"] == 0.0
    assert self_s["view"] + self_s["codec"] == pytest.approx(total)


def test_span_parents_follow_the_call_stack():
    tracer = Tracer()
    tracer.span("merge", lambda: tracer.span("clocksync.fit", lambda: None))
    (child_id, child_parent, child, *_), (parent_id, root, parent, *_) = tracer.spans
    assert (child, parent) == ("clocksync.fit", "merge")
    assert child_parent == parent_id and root == 0


class _Frames:
    """A cached frame reader: ``_decode_frame`` runs only on a miss, and a
    hit waits on ``gate`` (as on a lock another thread holds)."""

    def __init__(self):
        self.cache = {"warm": [0]}
        self.cache_misses = 0
        self.waiting = threading.Event()
        self.gate = threading.Event()

    def read_frame(self, key):
        if key in self.cache:
            self.waiting.set()
            self.gate.wait(10)
            return self.cache[key]
        self.cache_misses += 1
        self.cache[key] = self._decode_frame(key)
        return self.cache[key]

    def _decode_frame(self, key):
        return [key] * 3


def test_cached_read_tells_a_hit_from_another_threads_miss():
    tracer = Tracer()
    _count_decodes(tracer, f"{__name__}:_Frames._decode_frame")
    _cached_read(tracer, f"{__name__}:_Frames.read_frame", "codec.decode", "codec.hit", len)
    frames = _Frames()
    hit = threading.Thread(target=frames.read_frame, args=("warm",))
    try:
        hit.start()
        assert frames.waiting.wait(10)
        frames.read_frame("cold")  # misses while the other thread's hit runs
        frames.gate.set()
        hit.join(10)
    finally:
        tracer.uninstall()
    calls, _total, _own, units = tracer.tallies["codec.decode"]
    assert (calls, units) == (1, 3)
    calls, _total, _own, units = tracer.tallies["codec.hit"]
    assert (calls, units) == (1, 0)


# ------------------------------------------------------------ seeded inputs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(tmp_path, workload):
    """Generated the way a run generates them: one fresh process each (the
    simulator numbers system threads per process)."""
    a, b, c = (
        run.generate(workload, seed, 1.0, tmp_path / name, SMALL)
        for name, seed in (("a", 5), ("b", 5), ("c", 8))
    )
    assert a["sha256"] == b["sha256"] != c["sha256"]
    if workload == "ingest":
        assert a["raw_files"] == 4 and a["raw_events"] > 0
    else:
        assert a["frames"] >= 1 and a["frames_per_cache"] == a["frames"] / 64
    if workload == "explore":
        assert a["records"] == SMALL["explore_records"]


# -------------------------------------------------------------- definition


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


# ---------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
def test_shrunken_run_is_correct_and_complete(tmp_path, workload, traced):
    result = run.run_workload(workload, 3, 1.5, traced, tmp_path, sizes=SMALL)
    assert result.ledger.failed == 0, result.ledger.problems
    assert result.ledger.attempted > 0
    if traced:
        assert list(result.metrics) == layers.NAMES
        assert result.traces
    else:
        assert set(result.metrics) == set(run.END_TO_END)
        assert all(value > 0 for value in result.metrics.values()), result.metrics
