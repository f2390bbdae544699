"""The sparse utilization hierarchy (``repro.query.utilization``).

Covers the grid helpers, builder exactness (busy time at the finest
level equals the summed record durations, every coarser level folds
exactly from the one below), order independence, a property test against
a brute-force per-bin reference (any batch split and order, extension at
any frame cut), the binary round-trip and its strict decode checks,
windowed queries, the sidecar integration, the serving endpoint, and the
``ute-query --utilization`` command.
"""

import contextlib
import io
import json
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query import (
    batch_from_records,
    build_index,
    index_path_for,
    open_trace,
    write_index,
)
from repro.query.indexfile import extend_index
from repro.query.utilization import (
    DEFAULT_BASE_BINS,
    UtilizationBuilder,
    UtilizationIndex,
    cpu_key,
    dominant_state,
    levels_for_span,
    _RECORD_BINS,
    shift_for_span,
    split_thread_key,
    thread_key,
)
from repro.utils.slog import SlogWriter

PROFILE = standard_profile()
MARKER = IntervalType.MARKER


def rec(start, dura, *, node=0, cpu=0, thread=0, itype=IntervalType.RUNNING,
        extra=None):
    return IntervalRecord(
        itype, BeBits.COMPLETE, start, dura, node, cpu, thread, extra or {}
    )


def build(records, **kwargs):
    builder = UtilizationBuilder(**kwargs)
    builder.add_batch(batch_from_records(records))
    return builder.build()


def level_cells(util, kind, level):
    """``{lane_key: {bin: (count, states)}}`` at one level."""
    return {key: levels[level] for key, levels in util.lanes(kind).items()}


def make_slog(path, records, *, threads=2, frame_bytes=512):
    t1 = max((r.end for r in records), default=1)
    writer = SlogWriter(
        path, PROFILE,
        ThreadTable(
            [ThreadEntry(t, 100 + t, 5000 + t, 0, t, 0, f"t{t}")
             for t in range(threads)]
        ),
        field_mask=MASK_ALL_MERGED, time_range=(0, max(t1, 1)),
        frame_bytes=frame_bytes, node_cpus={0: 2},
    )
    for r in sorted(records, key=lambda r: r.end):
        writer.write(r)
    return writer.close()


def sample_records(n=120, seed=3):
    rng = random.Random(seed)
    records, t = [], {}
    for i in range(n):
        thread = i % 3
        start = t.get(thread, rng.randrange(500)) + rng.randrange(50, 400)
        dura = rng.randrange(40, 900)
        t[thread] = start + dura
        itype = MARKER if i % 7 == 0 else IntervalType.RUNNING
        extra = {"markerId": 1} if itype == MARKER else {}
        records.append(
            rec(start, dura, cpu=thread % 2, thread=thread, itype=itype,
                extra=extra)
        )
    return records


class TestGridHelpers:
    def test_shift_for_span_fits_and_is_minimal(self):
        k = shift_for_span(1000, 90_000, 64)
        assert (90_000 >> k) - (1000 >> k) + 1 <= 64
        if k:
            assert (90_000 >> (k - 1)) - (1000 >> (k - 1)) + 1 > 64

    def test_shift_monotone_in_span(self):
        assert shift_for_span(0, 500_000, 64) >= shift_for_span(0, 50_000, 64)

    def test_levels_reach_a_single_bin(self):
        base = shift_for_span(300, 70_000, 32)
        n = levels_for_span(300, 70_000, base)
        top = base + n - 1
        assert (70_000 >> top) == (300 >> top)

    def test_lane_keys_round_trip(self):
        assert split_thread_key(thread_key(7, 42)) == (7, 42)
        assert split_thread_key(cpu_key(3, 1)) == (3, 1)

    def test_dominant_state_breaks_ties_low(self):
        assert dominant_state({5: 10, 2: 10, 9: 3}) == 2


class TestBuilderExactness:
    def test_finest_level_busy_equals_summed_durations(self):
        records = sample_records()
        built = build(records)
        util = built.utilization
        for r in records:
            assert r.duration > 0
        want = {}
        for r in records:
            key = thread_key(r.node, r.thread)
            want[key] = want.get(key, 0) + r.duration
        for key, cells in level_cells(util, "thread", 0).items():
            got = sum(sum(states.values()) for _, states in cells.values())
            assert got == want[key]

    def test_counts_attribute_each_record_once(self):
        records = sample_records()
        util = build(records).utilization
        total = sum(
            count for cells in level_cells(util, "thread", 0).values()
            for count, _ in cells.values()
        )
        assert total == len(records)

    def test_every_level_folds_exactly_from_the_one_below(self):
        util = build(sample_records()).utilization
        lanes = list(util.lanes("thread").values()) + list(util.lanes("cpu").values())
        for levels in lanes:
            assert len(levels) == util.n_levels
            for li in range(1, util.n_levels):
                folded = {}
                for idx, (count, states) in levels[li - 1].items():
                    prior = folded.setdefault(idx >> 1, [0, {}])
                    prior[0] += count
                    for s, busy in states.items():
                        prior[1][s] = prior[1].get(s, 0) + busy
                assert levels[li] == {
                    idx: (c, st) for idx, (c, st) in folded.items()
                }

    def test_zero_duration_and_clockpairs_skip_busy_lanes(self):
        records = [
            rec(100, 500),
            rec(700, 0),
            rec(800, 300, itype=IntervalType.CLOCKPAIR),
        ]
        built = build(records)
        util = built.utilization
        busy = sum(
            sum(states.values()) for cells in level_cells(util, "thread", 0).values()
            for _, states in cells.values()
        )
        assert busy == 500
        # ...but the coarse grid counts every record by its start bin.
        assert sum(c for c, _ in built.bins) == 3
        assert sum(d for _, d in built.bins) == 800

    def test_order_independence(self):
        records = sample_records()
        shuffled = records[::-1]
        a, b = build(records), build(shuffled)
        assert a.utilization.encode() == b.utilization.encode()
        assert a.bins == b.bins


# ---------------------------------------------------------------------------
# Property: the columnar builder against a brute-force per-bin reference.

#: Record shapes mixed by the property tests: two busy states, a
#: zero-duration pseudo-piece, a clock pair.
_SHAPES = (IntervalType.RUNNING, MARKER, "pseudo", IntervalType.CLOCKPAIR)

record_lists = st.lists(
    st.tuples(
        st.integers(0, 50_000),        # start
        st.integers(0, 20_000),        # duration: long ones outgrow _RECORD_BINS
        st.integers(0, 2),             # thread
        st.integers(0, 1),             # cpu
        st.sampled_from(_SHAPES),
    ),
    min_size=1, max_size=40,
)


def make_records(raw):
    out = []
    for start, dura, thread, cpu, shape in raw:
        itype = IntervalType.RUNNING if shape == "pseudo" else shape
        out.append(
            rec(start, 0 if shape == "pseudo" else dura, cpu=cpu, thread=thread,
                itype=itype, extra={"markerId": 1} if itype == MARKER else None)
        )
    return out


def reference(records):
    """The finest shift and level-0 cells, by per-record clipped overlap
    bin by bin."""
    t_min = min(r.start for r in records)
    t_max = max(t_min, max(r.end for r in records))
    busy = [
        r for r in records
        if r.duration > 0 and r.itype != IntervalType.CLOCKPAIR
    ]
    k = shift_for_span(t_min, t_max, DEFAULT_BASE_BINS)
    while any(((r.end - 1) >> k) - (r.start >> k) >= _RECORD_BINS for r in busy):
        k += 1
    cells = {"thread": {}, "cpu": {}}
    for r in busy:
        for kind, key in (
            ("thread", thread_key(r.node, r.thread)), ("cpu", cpu_key(r.node, r.cpu))
        ):
            lane = cells[kind].setdefault(key, {})
            for idx in range(r.start >> k, ((r.end - 1) >> k) + 1):
                overlap = min(r.end, (idx + 1) << k) - max(r.start, idx << k)
                count, states = lane.get(idx, (0, {}))
                states = {**states, r.itype: states.get(r.itype, 0) + overlap}
                lane[idx] = (count + (idx == r.start >> k), states)
    return k, cells


def fold(cells, steps):
    out = {}
    for idx, (count, states) in cells.items():
        prior_count, prior = out.get(idx >> steps, (0, {}))
        merged = dict(prior)
        for state, busy in states.items():
            merged[state] = merged.get(state, 0) + busy
        out[idx >> steps] = (prior_count + count, merged)
    return out


class TestBuilderProperty:
    @given(raw=record_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_split_and_order_matches_the_reference(self, raw, data):
        records = make_records(raw)
        whole = build(records)
        util = whole.utilization
        k, want = reference(records)
        assert util.base_shift == k
        for kind in ("thread", "cpu"):
            finest = level_cells(util, kind, 0)
            assert finest == want[kind]
            for level in range(1, util.n_levels):
                assert level_cells(util, kind, level) == {
                    key: fold(cells, level) for key, cells in finest.items()
                }
        # Any batch split, any order, with snapshots (live epochs) taken
        # in between, lands on the same bytes.
        order = data.draw(st.permutations(range(len(records))))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=6)))
        builder = UtilizationBuilder()
        for lo, hi in zip([0, *cuts], [*cuts, len(records)]):
            builder.add_batch(batch_from_records([records[i] for i in order[lo:hi]]))
            if data.draw(st.booleans()):
                builder.build()
        split = builder.build()
        assert split.utilization.encode() == util.encode()
        assert (split.bin_origin, split.bin_shift, split.bins) == (
            whole.bin_origin, whole.bin_shift, whole.bins
        )

    @given(raw=record_lists, data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_extension_at_any_frame_cut_equals_rebuild(self, raw, data):
        from repro.query.indexfile import TraceIndex

        records = make_records(raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = make_slog(Path(tmp) / "run.slog", records, threads=3, frame_bytes=128)
            with open_trace(path, PROFILE) as handle:
                full = build_index(handle)
                frames = list(handle.frames)
                cut = data.draw(st.integers(0, len(frames)))
                handle.frames = frames[:cut]
                base = TraceIndex.decode(build_index(handle).encode())
                handle.frames = frames
                extended = extend_index(handle, base)
        assert extended.encode() == full.encode()


class TestEncoding:
    def test_round_trip_is_identity(self):
        util = build(sample_records()).utilization
        data = util.encode()
        decoded, pos = UtilizationIndex.decode(data, 0)
        assert pos == len(data)
        assert decoded.encode() == data
        for kind in ("thread", "cpu"):
            assert decoded.query(kind, util.t_min, util.t_max, 64) == util.query(
                kind, util.t_min, util.t_max, 64
            )

    def test_only_the_finest_level_is_persisted(self):
        util = build(sample_records()).utilization
        rows = sum(
            len(states) for kind in ("thread", "cpu")
            for cells in level_cells(util, kind, 0).values()
            for _, states in cells.values()
        )
        lanes = len(util.lanes("thread")) + len(util.lanes("cpu"))
        assert util.n_levels > 1
        assert len(util.encode()) == 32 + 8 * lanes + 16 + 24 * rows

    def test_strict_decode_rejects_non_canonical_rows(self):
        util = build(sample_records()).utilization
        data = util.encode()
        lanes = len(util.lanes("thread")) + len(util.lanes("cpu"))
        first = 32 + 8 * lanes + 16
        swapped = bytearray(data)
        swapped[first : first + 48] = data[first + 24 : first + 48] + data[first : first + 24]
        idle = bytearray(data)
        struct.pack_into("<Q", idle, first + 16, 0)
        off_grid = bytearray(data)
        struct.pack_into("<I", off_grid, first + 4, 1 << 30)
        levels = bytearray(data)
        struct.pack_into("<I", levels, 4, util.n_levels + 1)
        for bad in (swapped, idle, off_grid, levels):
            with pytest.raises(FormatError):
                UtilizationIndex.decode(bytes(bad), 0)

    def test_absent_section_decodes_to_none(self):
        decoded, pos = UtilizationIndex.decode(
            UtilizationIndex.encode_absent(), 0
        )
        assert decoded is None
        assert pos == len(UtilizationIndex.encode_absent())


class TestQuery:
    def test_cells_cover_busy_and_respect_max_bins(self):
        util = build(sample_records()).utilization
        shift, lanes = util.query("thread", util.t_min, util.t_max, 64)
        assert (util.t_max >> shift) - (util.t_min >> shift) + 1 <= 64
        for cells in lanes.values():
            for bin_t0, bin_t1, count, busy, states in cells:
                assert bin_t1 - bin_t0 == 1 << shift
                assert busy == sum(states.values())
                assert count >= 0 and busy > 0

    def test_narrow_window_uses_a_finer_level(self):
        util = build(sample_records()).utilization
        whole, _ = util.query("thread", util.t_min, util.t_max, 16)
        mid = (util.t_min + util.t_max) // 2
        narrow, _ = util.query("thread", mid, mid + 100, 16)
        assert narrow <= whole

    def test_window_is_clamped_to_the_indexed_span(self):
        util = build(sample_records()).utilization
        shift, lanes = util.query(
            "thread", util.t_min - 10**9, util.t_max + 10**9, 128
        )
        for cells in lanes.values():
            assert cells[0][0] >= (util.t_min >> shift) << shift

    def test_unknown_lane_kind_raises(self):
        util = build(sample_records()).utilization
        with pytest.raises(FormatError):
            util.query("socket", 0, 1, 16)


class TestSidecarIntegration:
    def test_built_index_persists_the_hierarchy(self, tmp_path):
        path = make_slog(tmp_path / "run.slog", sample_records(), threads=3)
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        write_index(index, index_path_for(path))
        from repro.query.indexfile import load_index

        loaded = load_index(index_path_for(path))
        assert loaded.utilization is not None
        assert loaded.utilization.encode() == index.utilization.encode()

    def test_busy_excludes_pseudo_pieces(self, tmp_path):
        # A record spanning a frame boundary is split into pieces plus
        # zero-duration continuation markers; busy time must match the
        # original durations exactly, not double-count the stubs.
        records = [rec(i * 100, 95, thread=i % 2) for i in range(80)]
        path = make_slog(tmp_path / "run.slog", records, frame_bytes=256)
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        util = index.utilization
        busy = sum(
            sum(states.values()) for cells in level_cells(util, "thread", 0).values()
            for _, states in cells.values()
        )
        assert busy == sum(r.duration for r in records)


class TestServeEndpoint:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serve import ServeClient, ServerConfig, ServerThread

        path = make_slog(
            tmp_path_factory.mktemp("util-serve") / "run.slog",
            sample_records(), threads=3,
        )
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        with ServerThread(path, ServerConfig(port=0)) as srv:
            yield ServeClient(srv.base_url)

    def test_payload_shape(self, served):
        resp = served.utilization({"lane": "thread"})
        assert resp.status == 200
        payload = json.loads(resp.body)
        assert payload["kind"] == "thread"
        assert payload["levels"] >= 1
        assert payload["lanes"]
        for lane in payload["lanes"]:
            assert "thread" in lane
            for cell in lane["cells"]:
                assert cell["end"] > cell["start"]
                assert 0.0 <= cell["busy_frac"] <= 1.0
                assert cell["dominant"] in (
                    int(k) for k in payload["state_names"]
                ) or str(cell["dominant"]) in payload["state_names"]

    def test_no_trace_io(self, served):
        resp = served.utilization({"lane": "cpu", "bins": "32"})
        assert resp.status == 200
        assert resp.headers.get("x-ute-bytes-read") == "0"
        payload = json.loads(resp.body)
        assert all("cpu" in lane for lane in payload["lanes"])

    def test_bad_lane_is_a_client_error(self, served):
        resp = served.utilization({"lane": "socket"})
        assert resp.status == 400


class TestCli:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = make_slog(
            tmp_path_factory.mktemp("util-cli") / "run.slog",
            sample_records(), threads=3,
        )
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        return path

    def run(self, argv):
        from repro import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main_query(argv)
        return rc, buf.getvalue()

    def test_tsv_output(self, trace):
        rc, out = self.run([str(trace), "--utilization"])
        assert rc == 0
        header, *rows = out.strip().splitlines()
        assert header.split("\t")[:2] == ["node", "thread"]
        assert rows

    def test_json_output_matches_lane(self, trace):
        rc, out = self.run(
            [str(trace), "--utilization", "--lane", "cpu", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["kind"] == "cpu"
        assert all("cpu" in lane for lane in payload["lanes"])

    def test_without_sidecar_builds_in_memory(self, tmp_path):
        path = make_slog(tmp_path / "fresh.slog", sample_records())
        rc, out = self.run([str(path), "--utilization"])
        assert rc == 0
        assert out.strip().splitlines()[1:]
