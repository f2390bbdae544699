"""The shared frame cache and frame decoders behind both trace readers."""

import shutil
from collections import namedtuple

import pytest

from repro.core import standard_profile
from repro.core.framecache import BATCH, RECORDS, FrameCache
from repro.core.reader import IntervalReader
from repro.errors import FormatError
from repro.repository.registry import Repository
from repro.utils.slog import SlogFile

Frame = namedtuple("Frame", "offset size")


def filled(cache, *entries):
    """Insert ``(kind, offset, size)`` entries, decoding to a marker."""
    for kind, offset, size in entries:
        cache.get(kind, Frame(offset, size), lambda f, k=kind: (k, f.offset))


class TestFrameCache:
    def test_capacity_is_per_kind(self):
        cache = FrameCache(2)
        filled(cache, (RECORDS, 0, 10), (RECORDS, 10, 10), (BATCH, 0, 10), (BATCH, 10, 10))
        assert len(cache) == 4 and cache.evictions == 0
        filled(cache, (RECORDS, 20, 10))  # evicts the oldest *record* frame
        assert len(cache) == 4 and cache.evictions == 1
        assert cache.resident_bytes == 40
        decoded = []
        cache.get(BATCH, Frame(0, 10), decoded.append)  # both batches survived
        cache.get(RECORDS, Frame(0, 10), lambda f: decoded.append(f) or "again")
        assert decoded == [Frame(0, 10)]
        assert (cache.hits, cache.misses) == (1, 6)

    def test_shrink_evicts_in_recency_order_across_kinds(self):
        cache = FrameCache(4)
        filled(cache, (RECORDS, 0, 100), (BATCH, 0, 100), (RECORDS, 100, 100))
        filled(cache, (RECORDS, 0, 100))  # hit: the oldest record frame is now the newest
        assert cache.shrink(250) == 1
        assert cache.resident_bytes == 200 and cache.evictions == 1
        hits = cache.hits
        filled(cache, (RECORDS, 0, 100), (RECORDS, 100, 100))
        assert cache.hits == hits + 2  # the batch, the least recent entry, went
        assert cache.shrink(0) == 2 and len(cache) == 0 and cache.resident_bytes == 0


# ------------------------------------------------------- strict decode errors


def _corrupt_first_length(path):
    """Set the length byte of frame 1's first record to 250 (a length
    that still fits the frame, so the damage shows up downstream)."""
    with SlogFile(path) as slog:
        frame = slog.frames[1]
    data = bytearray(path.read_bytes())
    data[frame.offset] = 250
    path.write_bytes(bytes(data))
    return frame.offset


def _corrupt_second_length(path):
    """The same damage one record into frame 1: the error offset must be
    the record's file offset, not its offset inside the frame."""
    with SlogFile(path) as slog:
        frame = slog.frames[1]
    data = bytearray(path.read_bytes())
    second = frame.offset + 1 + data[frame.offset]
    data[second] = 250
    path.write_bytes(bytes(data))
    return second


def _open(path):
    if path.suffix == ".slog":
        return SlogFile(path)
    return IntervalReader(path, standard_profile())


def _frames(reader):
    frames = reader.frames
    return list(frames() if callable(frames) else frames)


def _first_error(path, method):
    with _open(path) as reader:
        for frame in _frames(reader):
            try:
                getattr(reader, method)(frame)
            except FormatError as exc:
                return str(exc)
    pytest.fail(f"{path.name}: {method} decoded every frame")


@pytest.mark.parametrize(
    "name, damage",
    [
        ("trunc-tail.ute", None),
        ("good.slog", _corrupt_first_length),
        ("good.slog", _corrupt_second_length),
    ],
)
def test_strict_decode_errors_name_file_and_offset(corpus, tmp_path, name, damage):
    """Both readers, both representations: a strict decode error carries
    the path and the absolute file offset, and both representations of a
    frame fail with the same message."""
    path = tmp_path / name
    shutil.copyfile(corpus.path(name), path)
    if damage is None:  # the final frame is cut short by end of file
        with _open(path) as reader:
            last = _frames(reader)[-1]
        end = path.stat().st_size
        where = f"frame at offset {last.offset} runs past end of file at offset {end}"
    else:
        where = f"corrupt record at offset {damage(path)}"
    messages = [_first_error(path, m) for m in ("read_frame", "read_frame_batch")]
    for message in messages:
        assert message.startswith(f"{path}: {where}"), message
    assert messages[0] == messages[1]


# ---------------------------------------------------------- budget governor


def test_governor_stays_balanced_when_a_strict_decode_raises(corpus, tmp_path):
    path = tmp_path / "run.slog"
    shutil.copyfile(corpus.path("good.slog"), path)
    _corrupt_first_length(path)
    repo = Repository.single(path)
    try:
        slog = repo.session("default").viewer.slog
        reserve, commit = slog.cache.governor
        seen = []

        def spy(call):
            def wrapper(nbytes):
                seen.append((call.__name__, slog.cache.lock.locked()))
                call(nbytes)
            return wrapper

        slog.cache.governor = (spy(reserve), spy(commit))
        decode = slog._decode_frame
        pending = []
        slog._decode_frame = lambda frame: pending.append(repo._pending) or decode(frame)
        frame = slog.frames[1]
        for method in (slog.read_frame, slog.read_frame_batch, slog.read_frame):
            with pytest.raises(FormatError):
                method(frame)
            assert repo._pending == 0
        assert pending == [frame.size, frame.size]  # reserved around each record decode
        assert seen == [("_reserve", False), ("_commit", False)] * 3
        slog.read_frame(slog.frames[0])
        assert repo._pending == 0 and repo.resident_bytes() == slog.frames[0].size
    finally:
        repo.close()
