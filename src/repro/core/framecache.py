"""One frame decoder and one frame cache for both trace readers.

UTE interval files (frames under frame directories) and SLOG files (frames
under a time index) store a frame the same way: a run of interval records.
So :class:`~repro.core.reader.IntervalReader` and
:class:`~repro.utils.slog.SlogFile` share the pieces that turn a frame
entry into records:

* :func:`decode_records` — the strict or salvaging decode of one frame's
  bytes into record objects;
* :func:`decode_batch` — the strict columnar decode of one frame into a
  :class:`~repro.query.columnar.FrameBatch`;
* :class:`FrameCache` — one LRU over both representations, which owns the
  hit/miss/eviction counters, the resident-byte accounting, shrinking to a
  byte budget and the optional admission governor.

Strict decode errors name the file and the absolute file offset of the
failing record, whichever representation was asked for.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.core.records import IntervalRecord
from repro.core.salvage import DECODE_ERRORS, SalvageReport, salvage_frame_records
from repro.errors import FormatError

#: Default number of decoded frames a reader keeps per representation.
DEFAULT_FRAME_CACHE = 16

#: Cache entry kinds: record-object frames and columnar batches.
RECORDS = "records"
BATCH = "batch"


def _check_extent(size: int, frame, path: Path) -> None:
    if size != frame.size:
        raise FormatError(
            f"{path}: frame at offset {frame.offset} runs past end of file "
            f"at offset {frame.offset + size} (entry says {frame.size} bytes)"
        )


def _check_count(n: int, frame, path: Path) -> None:
    if n != frame.n_records:
        raise FormatError(
            f"{path}: frame at offset {frame.offset} decoded {n} records, "
            f"entry says {frame.n_records}"
        )


def decode_records(
    blob: bytes,
    frame,
    profile,
    mask: int,
    *,
    path: Path,
    report: SalvageReport | None = None,
) -> list[IntervalRecord]:
    """Decode the bytes of one frame entry (``offset``, ``size``,
    ``n_records``, ``start_time``, ``end_time``) into records.

    Strict (``report is None``): any damage raises a :class:`FormatError`
    naming ``path`` and the absolute file offset.  Salvage: the
    resynchronizing decoder keeps what it can and accounts the rest to
    ``report``, quarantining a frame with nothing decodable."""
    if report is not None:
        records = salvage_frame_records(
            blob,
            profile,
            mask,
            base_offset=frame.offset,
            report=report,
            expected_records=frame.n_records,
            expected_size=frame.size,
            time_span=(frame.start_time, frame.end_time),
        )
        if not records and frame.n_records:
            report.frames_quarantined += 1
        return records
    _check_extent(len(blob), frame, path)
    records = []
    pos = 0
    while pos < len(blob):
        try:
            record, pos = IntervalRecord.decode(blob, pos, profile, mask)
        except DECODE_ERRORS + (FormatError,) as exc:
            raise FormatError(
                f"{path}: corrupt record at offset {frame.offset + pos} ({exc})"
            ) from exc
        records.append(record)
    _check_count(len(records), frame, path)
    return records


def decode_batch(source, frame, profile, mask: int, *, path: Path):
    """Strictly decode one frame into a columnar ``FrameBatch``, straight
    from a zero-copy view of ``source``.

    The columnar scan only knows frame-relative positions, so on damage
    the record decoder re-reads the frame to name the failing record's file
    offset: both representations raise the same error."""
    from repro.query import columnar

    view = source.view(frame.offset, frame.size)
    try:
        _check_extent(len(view), frame, path)
        try:
            batch = columnar.decode_frame_batch(view, profile, mask)
        except DECODE_ERRORS + (FormatError,) as exc:
            decode_records(bytes(view), frame, profile, mask, path=path)
            raise FormatError(
                f"{path}: corrupt frame at offset {frame.offset} ({exc})"
            ) from exc
    finally:
        view.release()
    _check_count(batch.n, frame, path)
    return batch


class FrameCache:
    """LRU of decoded frames keyed by ``(kind, offset, size)``.

    ``capacity`` caps each kind (:data:`RECORDS`, :data:`BATCH`)
    separately, so a reader holds at most ``capacity`` record frames plus
    at most ``capacity`` batches; 0 disables caching.  Both kinds share
    one recency order, so :meth:`shrink` drops the truly least recently
    used entry whatever its kind.

    Decodes run under :attr:`lock`: a reader's byte source is not safe
    under concurrent fetches, so one lock serializes both.  ``governor``
    is an optional ``(reserve, commit)`` pair of a shared memory budget:
    ``reserve(nbytes)`` runs before a miss decodes, ``commit(nbytes)``
    after the insert settles (or the decode raised).  Neither runs with
    the lock held — the governor may shrink other readers' caches to make
    room, and this one's."""

    def __init__(self, capacity: int = DEFAULT_FRAME_CACHE) -> None:
        self.capacity = max(0, capacity)
        self.governor: tuple[Callable[[int], None], Callable[[int], None]] | None = None
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Encoded bytes of the cached frames (the sizes in the keys).
        self.resident_bytes = 0
        self._entries: OrderedDict[tuple[str, int, int], Any] = OrderedDict()
        self._counts = {RECORDS: 0, BATCH: 0}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: str, frame, decode: Callable[[Any], Any]) -> Any:
        """The cached ``kind`` decode of ``frame``, or ``decode(frame)`` on
        a miss (then cached).  Cached values are shared between callers:
        treat them as read-only."""
        key = (kind, frame.offset, frame.size)
        with self.lock:
            value = self._lookup(key)
            if value is not None:
                return value
        governor = self.governor if self.capacity else None
        if governor is not None:
            governor[0](frame.size)
        try:
            with self.lock:
                value = self._lookup(key)  # another thread may have decoded it
                if value is None:
                    self.misses += 1
                    value = decode(frame)
                    self._insert(key, value)
                return value
        finally:
            if governor is not None:
                governor[1](frame.size)

    def shrink(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until at most ``max_bytes``
        are resident; returns how many were dropped (each counts as an
        eviction)."""
        dropped = 0
        with self.lock:
            while self.resident_bytes > max_bytes and self._entries:
                self._drop(next(iter(self._entries)))
                dropped += 1
        return dropped

    def clear(self) -> None:
        """Forget every entry (not counted as evictions)."""
        with self.lock:
            self._entries.clear()
            self._counts = {RECORDS: 0, BATCH: 0}
            self.resident_bytes = 0

    def stats(self) -> dict[str, int]:
        """``{"hits", "misses", "evictions", "resident_bytes"}``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
        }

    # Lock held by the callers below.

    def _lookup(self, key: tuple[str, int, int]) -> Any:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def _insert(self, key: tuple[str, int, int], value: Any) -> None:
        if not self.capacity:
            return
        kind = key[0]
        self._entries[key] = value
        self._counts[kind] += 1
        self.resident_bytes += key[2]
        if self._counts[kind] > self.capacity:
            self._drop(next(k for k in self._entries if k[0] == kind))

    def _drop(self, key: tuple[str, int, int]) -> None:
        del self._entries[key]
        self._counts[key[0]] -= 1
        self.resident_bytes -= key[2]
        self.evictions += 1
