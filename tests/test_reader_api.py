"""Tests for the remaining section 2.4 utility-library helpers."""

import pytest

from repro.core import (
    IntervalFileWriter,
    get_interval,
    read_header,
    read_profile,
    standard_profile,
)
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.reader import (
    get_interval_at,
    is_vector_field,
    total_elapsed_and_records,
)
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError

PROFILE = standard_profile()


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "s.ute"
    table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
    with IntervalFileWriter(
        path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=512
    ) as writer:
        for i in range(30):
            writer.write(
                IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0)
            )
    profile_path = PROFILE.write(tmp_path / "profile.ute")
    return path, profile_path


class TestGetIntervalAt:
    def test_fetch_by_frame_offset(self, sample_file):
        path, profile_path = sample_file
        handle, header = read_header(path)
        table = read_profile(profile_path, header.field_mask)
        frame = handle._frames[1]  # second frame: random access
        raw = get_interval_at(handle, frame.offset)
        from repro.core.reader import get_item_by_name

        start = get_item_by_name(table, raw, "start")
        # The second frame's first record starts exactly at the frame start.
        assert start == frame.start_time

    def test_sequential_and_random_agree(self, sample_file):
        path, profile_path = sample_file
        handle, header = read_header(path)
        first_frame = handle._frames[0]
        sequential_first = get_interval(handle)
        random_first = get_interval_at(handle, first_frame.offset)
        assert sequential_first == random_first

    def test_bad_offset_rejected(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        with pytest.raises(FormatError, match="outside file"):
            get_interval_at(handle, 10**9)


class TestIsVectorField:
    def test_scalar_field(self, sample_file):
        _, profile_path = sample_file
        table = read_profile(profile_path, MASK_ALL_PER_NODE)
        assert is_vector_field(table, IntervalType.RUNNING, "start") is False

    def test_unknown_field_rejected(self, sample_file):
        _, profile_path = sample_file
        table = read_profile(profile_path, MASK_ALL_PER_NODE)
        with pytest.raises(FormatError, match="no field"):
            is_vector_field(table, IntervalType.RUNNING, "bogus")


class TestAggregation:
    def test_total_elapsed_and_records(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        elapsed, count = total_elapsed_and_records(handle)
        assert count == 30
        assert elapsed == 29 * 100 + 50  # first start 0 to last end


class TestSharedReaderThreadSafety:
    """Regression: one reader shared by a thread pool (the serving
    daemon's executor) must not corrupt its LRU frame cache."""

    @pytest.mark.parametrize("kind", ["ute", "slog"])
    def test_concurrent_frame_reads_agree(self, tmp_path, kind):
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.reader import IntervalReader
        from repro.utils.slog import SlogFile, SlogWriter

        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        records = [
            IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0)
            for i in range(200)
        ]
        # Tiny cache so concurrent readers constantly evict each other.
        if kind == "ute":
            path = tmp_path / "shared.ute"
            with IntervalFileWriter(
                path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=256
            ) as writer:
                for record in records:
                    writer.write(record)
            reader = IntervalReader(path, PROFILE, cache_frames=2)
            frames = list(reader.frames())
        else:
            path = tmp_path / "shared.slog"
            with SlogWriter(
                path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=256,
                time_range=(0, records[-1].end),
            ) as writer:
                for record in records:
                    writer.write(record)
            reader = SlogFile(path, cache_frames=2)
            frames = reader.frames
        assert len(frames) >= 8
        expected = {
            i: [(r.start, r.duration) for r in reader.read_frame(f)]
            for i, f in enumerate(frames)
        }

        def hammer(worker: int) -> bool:
            # Mixed traffic: record frames and columnar batches share the
            # one cache and its recency order.
            for step in range(120):
                i = (worker * 7 + step) % len(frames)
                if (worker + step) % 2:
                    got = [(r.start, r.duration) for r in reader.read_frame(frames[i])]
                else:
                    batch = reader.read_frame_batch(frames[i])
                    got = list(zip(batch.start.tolist(), batch.dura.tolist()))
                if got != expected[i]:
                    return False
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(hammer, range(8)))
        assert all(results)
        stats = reader.stats()
        assert stats["hits"] + stats["misses"] == 8 * 120 + len(frames)
        assert len(reader.cache) <= 4
        assert stats["resident_bytes"] <= 4 * max(f.size for f in frames)
        reader.close()
