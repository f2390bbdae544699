"""Sparse utilization hierarchy: aggregate answers for any zoom level.

The frame display is O(frame), but a *wide* window — the whole run of a
multi-GB trace — still touches every record it covers.  This module is
the aggregate layer that breaks that dependency: per-thread (and
per-CPU) utilization bins at power-of-two resolutions, so a view over
any window answers from O(pixels · levels) lookups instead of record
decodes (Traveler's sparse utilization lists, with the
drill-down-below-a-density-threshold discipline of aggregate-driven
visualization).

Every bin lives on an **absolute power-of-two grid**: at shift ``k`` a
bin covers ``[i << k, (i + 1) << k)`` ticks and a timestamp ``t`` falls
in bin ``t >> k``.  Two sibling bins at shift ``k`` merge *exactly* into
their parent at ``k + 1`` — counts add, per-state busy overlaps add —
which buys three properties the span-relative grids of earlier formats
could not offer:

* **determinism** — the finest shift and the level count are pure
  functions of the record multiset, never of arrival order;
* **exact extension** — extending an index over appended frames folds
  the old bins onto the (possibly coarser) new grid and lands on
  *bit-identical* bytes to a full rebuild;
* **exact live incrementality** — the streaming writer's snapshot is the
  same structure a post-hoc rebuild of the assembled file produces.

Each occupied bin carries the **record count** (records *starting* in
the bin), and a **per-state busy histogram** (clipped overlap of every
record against the bin, keyed by interval type); total busy duration is
the histogram sum and the dominant state is its argmax.  Clock pairs and
zero-duration pseudo-pieces are excluded, mirroring what the piece views
draw.

The hierarchy is held **columnar**: per lane kind, one row per occupied
``(lane, bin, state)`` holding the records of that state starting in the
bin and its busy ticks, sorted by ``(lane, bin, state)``.  A cell's count
is the sum over its rows — a record always has busy time in its start
bin, so its count lands on a row that exists.  Only the finest level is
persisted; the coarser levels are folded in NumPy on first use after
load (each one the exact fold of the level below).

The builder consumes columnar frame batches
(:class:`~repro.query.columnar.FrameBatch`) and coalesces lazily — at
:meth:`UtilizationBuilder.build`, or when pending records outgrow the
coalesced rows — so the per-record work is a handful of array
operations.  It also accumulates the sidecar's **coarse time bins**
(count + summed duration, attributed by record start, every record
included) on the same absolute grid, which is what makes
:func:`repro.query.indexfile.extend_index` exact.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.records import IntervalType
from repro.errors import FormatError

__all__ = [
    "DEFAULT_BASE_BINS",
    "BuiltAggregates",
    "UtilizationBuilder",
    "UtilizationIndex",
    "cpu_key",
    "dominant_state",
    "lane_keys",
    "levels_for_span",
    "shift_for_span",
    "split_thread_key",
    "thread_key",
]

#: Target number of occupied bins at the finest level: the finest shift is
#: the smallest ``k`` with ``(t_max >> k) - (t_min >> k) + 1 <= cap``.
DEFAULT_BASE_BINS = 4096

#: Hard ceiling on levels (2^48 ticks at nanosecond resolution is three
#: days — no trace outgrows this).
MAX_LEVELS = 48

_UTIL_HEADER = struct.Struct("<IIqqII")  # base_shift, n_levels, t_min, t_max, n_thread, n_cpu
_ROW_COUNTS = struct.Struct("<QQ")       # thread rows, cpu rows
#: One persisted finest-level row: lane ordinal, bin offset from
#: ``t_min >> base_shift``, interval type, records of that type starting
#: in the bin, busy ticks.
_ROW = np.dtype(
    [("lane", "<u4"), ("bin", "<u4"), ("state", "<u4"), ("count", "<u4"), ("busy", "<u8")]
)

#: One occupied bin: (records starting here, {interval type: busy ticks}).
Cell = tuple[int, dict[int, int]]

_CLOCKPAIR = int(IntervalType.CLOCKPAIR)


def thread_key(node: int, thread: int) -> int:
    """Pack a (node, thread) pair into a 64-bit lane key."""
    return ((node & 0xFFFFFFFF) << 32) | (thread & 0xFFFFFFFF)


def split_thread_key(key: int) -> tuple[int, int]:
    """Unpack a 64-bit lane key back into its (node, sub) pair."""
    return key >> 32, key & 0xFFFFFFFF


def cpu_key(node: int, cpu: int) -> int:
    """Pack a (node, cpu) pair into a 64-bit lane key (same scheme as
    :func:`thread_key`; the two key spaces never mix)."""
    return ((node & 0xFFFFFFFF) << 32) | (cpu & 0xFFFFFFFF)


def lane_keys(node: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Vectorized :func:`thread_key` / :func:`cpu_key` (uint64 keys)."""
    return ((node & 0xFFFFFFFF).astype(np.uint64) << np.uint64(32)) | (
        sub & 0xFFFFFFFF
    ).astype(np.uint64)


def shift_for_span(t_min: int, t_max: int, cap: int) -> int:
    """The smallest shift whose grid covers ``[t_min, t_max]`` in at most
    ``cap`` bins — deterministic in the span alone, and monotone: a wider
    span can only yield an equal or larger shift (the extension-exactness
    invariant)."""
    k = 0
    while (t_max >> k) - (t_min >> k) + 1 > cap:
        k += 1
    return k


def levels_for_span(t_min: int, t_max: int, base_shift: int) -> int:
    """Number of levels from ``base_shift`` until one bin holds the whole
    span (so the coarsest level answers any window in O(1))."""
    n = 1
    while (
        (t_max >> (base_shift + n - 1)) != (t_min >> (base_shift + n - 1))
        and n < MAX_LEVELS
    ):
        n += 1
    return n


def dominant_state(states: dict[int, int]) -> int:
    """The state with the largest busy share (smallest type id on ties,
    so the answer is deterministic)."""
    return min(states, key=lambda s: (-states[s], s))


_EMPTY = np.zeros(0, np.int64)


@dataclass(frozen=True, eq=False)
class _Rows:
    """One level of one lane kind: every occupied ``(lane, bin, state)``
    as parallel int64 columns sorted by ``(lane, bin, state)``, ``lane``
    an ordinal into the kind's sorted key list.  Never mutated."""

    lane: np.ndarray
    bin: np.ndarray
    state: np.ndarray
    count: np.ndarray
    busy: np.ndarray

    @classmethod
    def coalesce(cls, lane, bin, state, count, busy) -> "_Rows":
        """Sort rows by ``(lane, bin, state)`` and sum duplicates (exact
        int64 sums; one argsort over a packed key)."""
        if not len(lane):
            return cls(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
        b0, s0 = int(bin.min()), int(state.min())
        n_bins = int(bin.max()) - b0 + 1
        n_states = int(state.max()) - s0 + 1
        if (int(lane.max()) + 1) * n_bins * n_states < 1 << 62:
            order = np.argsort((lane * n_bins + (bin - b0)) * n_states + (state - s0))
        else:
            order = np.lexsort((state, bin, lane))
        lane, bin, state = lane[order], bin[order], state[order]
        new = np.empty(len(lane), dtype=bool)
        new[0] = True
        new[1:] = (lane[1:] != lane[:-1]) | (bin[1:] != bin[:-1]) | (state[1:] != state[:-1])
        starts = np.flatnonzero(new)
        return cls(
            lane[starts], bin[starts], state[starts],
            np.add.reduceat(count[order], starts), np.add.reduceat(busy[order], starts),
        )

    def fold(self) -> "_Rows":
        """The next coarser level: sibling bins merged (exact)."""
        return _Rows.coalesce(self.lane, self.bin >> 1, self.state, self.count, self.busy)

    def cells(self, sel: np.ndarray, k: int) -> tuple[np.ndarray, list]:
        """Group the selected rows (ascending positions) into cells: the
        lane ordinal per cell, and per cell ``(bin_t0, bin_t1, count,
        busy, {state: busy})`` at shift ``k``."""
        lane, idx = self.lane[sel], self.bin[sel]
        if not len(sel):
            return lane, []
        state, busy = self.state[sel], self.busy[sel]
        new = np.empty(len(sel), dtype=bool)
        new[0] = True
        new[1:] = (lane[1:] != lane[:-1]) | (idx[1:] != idx[:-1])
        starts = np.flatnonzero(new)
        states = [
            {s: b} for s, b in zip(state[starts].tolist(), busy[starts].tolist())
        ]
        # Rows continuing a cell add their state to its histogram.
        more = np.flatnonzero(~new)
        for cell, s, b in zip(
            (np.cumsum(new)[more] - 1).tolist(), state[more].tolist(), busy[more].tolist()
        ):
            states[cell][s] = b
        idx = idx[starts]
        return lane[starts], list(zip(
            (idx << k).tolist(), ((idx + 1) << k).tolist(),
            np.add.reduceat(self.count[sel], starts).tolist(),
            np.add.reduceat(busy, starts).tolist(),
            states,
        ))


@dataclass(frozen=True, eq=False)
class _Lanes:
    """One lane family at one shift: sorted uint64 lane keys plus rows."""

    keys: np.ndarray
    rows: _Rows

    def merge(self, steps: int, keys: np.ndarray, bin, state, count, busy) -> "_Lanes":
        """These rows folded ``steps`` shift steps coarser, plus new rows
        keyed by lane key."""
        old = self.rows
        if not len(keys) and not steps:
            return self
        union = np.union1d(self.keys, keys)
        ordinal = np.concatenate(
            [np.searchsorted(union, self.keys)[old.lane], np.searchsorted(union, keys)]
        )
        rows = _Rows.coalesce(
            ordinal,
            np.concatenate([old.bin >> steps, bin]),
            np.concatenate([old.state, state]),
            np.concatenate([old.count, count]),
            np.concatenate([old.busy, busy]),
        )
        return _Lanes(union, rows)


_NO_LANES = _Lanes(np.zeros(0, np.uint64), _Rows(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY))


class _LaneLevels(Sequence):
    """One lane's levels, each a ``{bin: (count, states)}`` dict built on
    access."""

    def __init__(self, index: "UtilizationIndex", kind: str, ordinal: int) -> None:
        self._index = index
        self._kind = kind
        self._ordinal = ordinal

    def __len__(self) -> int:
        return self._index.n_levels

    def __getitem__(self, level: int) -> dict[int, Cell]:
        level = range(self._index.n_levels)[level]
        rows = self._index.levels(self._kind)[level]
        lo, hi = np.searchsorted(rows.lane, [self._ordinal, self._ordinal + 1])
        _, cells = rows.cells(np.arange(lo, hi), 0)
        return {cell[0]: (cell[2], cell[4]) for cell in cells}


class UtilizationIndex:
    """The hierarchy: per-lane sparse bins at every level.

    ``thread`` holds :func:`thread_key` lanes, ``cpu`` holds
    :func:`cpu_key` lanes, each as the finest level's rows; level ``L``
    is at shift ``base_shift + L`` and is folded from level 0 on first
    use.  ``t_min``/``t_max`` are the extremes over *all* records (the
    builder's span — what extension needs to reproduce the grid
    exactly)."""

    def __init__(
        self, base_shift: int, n_levels: int, t_min: int, t_max: int,
        thread: _Lanes, cpu: _Lanes,
    ) -> None:
        self.base_shift = base_shift
        self.n_levels = n_levels
        self.t_min = t_min
        self.t_max = t_max
        self.thread = thread
        self.cpu = cpu
        self._levels: dict[str, list[_Rows]] = {}

    # -------------------------------------------------------------- queries

    def _kind(self, kind: str) -> _Lanes:
        if kind == "thread":
            return self.thread
        if kind == "cpu":
            return self.cpu
        raise FormatError(f"unknown lane kind {kind!r}; pick 'thread' or 'cpu'")

    def levels(self, kind: str) -> list[_Rows]:
        """Every level's rows for one lane kind (folded once, then cached;
        a racing duplicate fold is harmless — the result is the same)."""
        levels = self._levels.get(kind)
        if levels is None:
            levels = [self._kind(kind).rows]
            for _ in range(1, self.n_levels):
                levels.append(levels[-1].fold())
            self._levels[kind] = levels
        return levels

    def lanes(self, kind: str) -> dict[int, Sequence[dict[int, Cell]]]:
        """``{lane_key: levels}``; ``levels[L]`` is that lane's
        ``{bin: (count, {state: busy})}`` at level ``L``, built on access."""
        keys = self._kind(kind).keys.tolist()
        return {key: _LaneLevels(self, kind, ordinal) for ordinal, key in enumerate(keys)}

    def level_for(self, t0: int, t1: int, max_bins: int) -> int:
        """The finest level whose bin count over ``[t0, t1]`` fits
        ``max_bins`` (the coarsest level as a last resort)."""
        for level in range(self.n_levels):
            k = self.base_shift + level
            if (t1 >> k) - (t0 >> k) + 1 <= max_bins:
                return level
        return self.n_levels - 1

    def query(
        self, kind: str, t0: int, t1: int, max_bins: int
    ) -> tuple[int, dict[int, list[tuple[int, int, int, int, dict[int, int]]]]]:
        """Aggregate cells over a window, at the finest level that fits.

        Returns ``(shift, {lane_key: [(bin_t0, bin_t1, count, busy,
        states), ...]})`` — array lookups, no trace IO.  The window is
        clamped to the indexed span."""
        keys = self._kind(kind).keys.tolist()
        t0 = max(t0, self.t_min)
        t1 = min(max(t1, t0), self.t_max)
        level = self.level_for(t0, t1, max_bins)
        k = self.base_shift + level
        rows = self.levels(kind)[level]
        lane, cells = rows.cells(
            np.flatnonzero((rows.bin >= t0 >> k) & (rows.bin <= t1 >> k)), k
        )
        bounds = (np.flatnonzero(np.diff(lane)) + 1).tolist()
        return k, {
            keys[int(lane[lo])]: cells[lo:hi]
            for lo, hi in zip([0, *bounds], [*bounds, len(cells)])
            if hi > lo
        }

    def summary(self) -> dict:
        return {
            "base_shift": self.base_shift,
            "levels": self.n_levels,
            "thread_lanes": len(self.thread.keys),
            "cpu_lanes": len(self.cpu.keys),
            "time_range": [self.t_min, self.t_max],
        }

    # ------------------------------------------------------------- encoding

    def encode(self) -> bytes:
        """Serialize the finest level (deterministic: lane keys sorted,
        rows by ``(lane, bin, state)``)."""
        out = bytearray(
            _UTIL_HEADER.pack(
                self.base_shift, self.n_levels, self.t_min, self.t_max,
                len(self.thread.keys), len(self.cpu.keys),
            )
        )
        out += self.thread.keys.astype("<u8").tobytes()
        out += self.cpu.keys.astype("<u8").tobytes()
        out += _ROW_COUNTS.pack(len(self.thread.rows.lane), len(self.cpu.rows.lane))
        origin = self.t_min >> self.base_shift
        for rows in (self.thread.rows, self.cpu.rows):
            packed = np.empty(len(rows.lane), dtype=_ROW)
            packed["lane"] = rows.lane
            packed["bin"] = rows.bin - origin
            packed["state"] = rows.state
            packed["count"] = rows.count
            packed["busy"] = rows.busy
            out += packed.tobytes()
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, pos: int) -> tuple["UtilizationIndex | None", int]:
        """Parse one hierarchy section starting at ``pos``.  A zero-level
        header means "no utilization recorded" and decodes to ``None``.
        Anything but the builder's canonical output — unsorted or
        duplicate rows, empty lanes or cells, bins off the grid, a level
        count the span does not imply — is a :class:`FormatError`."""
        base_shift, n_levels, t_min, t_max, n_thread, n_cpu = _UTIL_HEADER.unpack_from(
            data, pos
        )
        pos += _UTIL_HEADER.size
        if n_levels == 0:
            return None, pos
        if base_shift >= 63 or t_min > t_max:
            raise FormatError(
                f"utilization section has a bad grid ({base_shift}, {t_min}, {t_max})"
            )
        if n_levels != levels_for_span(t_min, t_max, base_shift):
            raise FormatError(f"utilization section claims {n_levels} levels")
        keys = []
        for n in (n_thread, n_cpu):
            arr = np.frombuffer(data, "<u8", count=n, offset=pos).astype(np.uint64)
            pos += 8 * n
            if n and not bool(np.all(arr[1:] > arr[:-1])):
                raise FormatError("utilization lane keys are not strictly ascending")
            keys.append(arr)
        counts = _ROW_COUNTS.unpack_from(data, pos)
        pos += _ROW_COUNTS.size
        origin = t_min >> base_shift
        n_bins = (t_max >> base_shift) - origin + 1
        lanes = []
        for kind_keys, n_rows in zip(keys, counts):
            packed = np.frombuffer(data, _ROW, count=n_rows, offset=pos)
            pos += _ROW.itemsize * n_rows
            rows = _Rows(*(packed[name].astype(np.int64) for name in _ROW.names))
            _check_rows(rows, len(kind_keys), n_bins)
            lanes.append(
                _Lanes(kind_keys, dataclasses.replace(rows, bin=rows.bin + origin))
            )
        return cls(base_shift, n_levels, t_min, t_max, *lanes), pos

    @staticmethod
    def encode_absent() -> bytes:
        """The section bytes for an index without utilization data."""
        return _UTIL_HEADER.pack(0, 0, 0, 0, 0, 0)


def _check_rows(rows: _Rows, n_lanes: int, n_bins: int) -> None:
    """The strict decode checks on one lane kind's finest-level rows."""
    lane, bin, state = rows.lane, rows.bin, rows.state
    if not len(lane):
        if n_lanes:
            raise FormatError("utilization lanes without rows")
        return
    if lane[0] != 0 or lane[-1] != n_lanes - 1 or bool(np.any(np.diff(lane) > 1)):
        raise FormatError("utilization rows do not cover every lane")
    if int(bin.max()) >= n_bins:
        raise FormatError("utilization bin outside the indexed span")
    if not bool(np.all(rows.busy > 0)):
        raise FormatError("utilization row without busy time")
    dl, db, ds = np.diff(lane), np.diff(bin), np.diff(state)
    if not bool(np.all((dl > 0) | ((dl == 0) & ((db > 0) | ((db == 0) & (ds > 0)))))):
        raise FormatError("utilization rows are not strictly ordered")


@dataclass(frozen=True)
class BuiltAggregates:
    """Everything one builder pass produces: the hierarchy plus the coarse
    time-bin grid the sidecar's fixed ``bins`` array publishes."""

    utilization: UtilizationIndex
    bin_origin: int
    bin_shift: int
    bins: tuple[tuple[int, int], ...]


#: Ceiling on the bins a single record may span at the accumulation
#: shift.  Without it, a long record costs O(duration/width) rows.  With
#: it, expansion is O(_RECORD_BINS) per record and the finest published
#: level is at worst ``longest_record / span`` * cap / _RECORD_BINS
#: coarser than the range-optimal shift.  Like the range rule, this
#: constraint is a function of the record multiset only, so the final
#: shift stays independent of arrival order — the property the
#: extend-vs-rebuild byte-exactness proof rests on.
_RECORD_BINS = 64


class UtilizationBuilder:
    """Accumulates frame batches into the exact absolute-grid aggregates.

    Used identically by :func:`~repro.query.indexfile.build_index` (full
    pass), :func:`~repro.query.indexfile.extend_index` (seeded from the
    base index, tail batches appended), and the live writer's incremental
    index (batches as frames seal) — all three land on the same bytes.

    The finest shift is ``max(shift_for_span(t_min, t_max, base_bins),
    record rule)``, the record rule being the smallest shift at which no
    busy record spans more than :data:`_RECORD_BINS` bins.  Both are
    monotone in the record multiset, so rows coalesced at an earlier,
    smaller shift fold exactly onto the final one.
    """

    def __init__(self, *, base_bins: int = DEFAULT_BASE_BINS, coarse_bins: int = 64) -> None:
        if base_bins < coarse_bins:
            raise FormatError(
                f"base bins {base_bins} must be >= coarse bins {coarse_bins}"
            )
        self.base_bins = base_bins
        self.coarse_bins = coarse_bins
        self.t_min: int | None = None
        self.t_max = 0
        self._shift = 0
        self._thread = self._cpu = _NO_LANES
        # Coarse grid: (origin, shift, counts, summed durations).
        self._coarse: tuple[int, int, np.ndarray, np.ndarray] | None = None
        # Batch columns not yet coalesced.
        self._pending: list[tuple[np.ndarray, ...]] = []
        self._n_pending = 0

    def add_batch(self, batch) -> None:
        """Account one frame batch (any order; grids are absolute)."""
        if not batch.n:
            return
        self._pending.append(
            (batch.start, batch.end, batch.dura, batch.itype, batch.node,
             batch.thread, batch.cpu)
        )
        self._n_pending += batch.n
        if self._n_pending > len(self._thread.rows.lane):
            self._coalesce()

    @classmethod
    def from_aggregates(
        cls,
        base: "UtilizationIndex",
        bin_origin: int,
        bin_shift: int,
        bins,
        *,
        base_bins: int = DEFAULT_BASE_BINS,
    ) -> "UtilizationBuilder":
        """Resume accumulation from a decoded index — the extension path.

        Seeds the lanes from the hierarchy's finest level and the coarse
        grid from the published bins; both are exact representations at
        their shifts, so appended batches continue folding exactly where
        a rebuild would."""
        builder = cls(base_bins=base_bins, coarse_bins=len(bins))
        if sum(count for count, _ in bins) == 0:
            return builder
        builder.t_min, builder.t_max = base.t_min, base.t_max
        builder._shift = base.base_shift
        builder._thread, builder._cpu = base.thread, base.cpu
        counts, durations = zip(*bins)
        builder._coarse = (
            bin_origin, bin_shift,
            np.array(counts, np.int64), np.array(durations, np.int64),
        )
        return builder

    def build(self) -> BuiltAggregates:
        """Freeze the accumulated state onto the deterministic grids (the
        builder stays usable — live snapshots call this per epoch)."""
        self._coalesce()
        t_min, t_max = self._span()
        util = UtilizationIndex(
            self._shift, levels_for_span(t_min, t_max, self._shift), t_min, t_max,
            self._thread, self._cpu,
        )
        origin, shift, counts, durations = self._coarse
        return BuiltAggregates(
            util, origin, shift, tuple(zip(counts.tolist(), durations.tolist()))
        )

    # ------------------------------------------------------------ internals

    def _span(self) -> tuple[int, int]:
        t_min = 0 if self.t_min is None else self.t_min
        return t_min, max(self.t_max, t_min)

    def _coalesce(self) -> None:
        """Fold pending batches into the coalesced rows and coarse grid,
        at the smallest shift the records seen so far allow."""
        if self._pending:
            start, end, dura, itype, node, thread, cpu = (
                np.concatenate(cols) for cols in zip(*self._pending)
            )
            self._pending, self._n_pending = [], 0
            lo, hi = int(start.min()), int(end.max())
            self.t_min = lo if self.t_min is None else min(self.t_min, lo)
            self.t_max = max(self.t_max, hi)
        else:
            start = end = dura = itype = node = thread = cpu = _EMPTY
        t_min, t_max = self._span()
        self._coalesce_coarse(t_min, t_max, start, dura)
        busy = (dura > 0) & (itype != _CLOCKPAIR)
        start, end, itype = start[busy], end[busy], itype[busy]
        last = end - 1
        k = max(self._shift, shift_for_span(t_min, t_max, self.base_bins))
        while len(start) and bool(np.any((last >> k) - (start >> k) >= _RECORD_BINS)):
            k += 1
        # Expand each busy record over its (at most _RECORD_BINS) bins.
        first = start >> k
        spans = (last >> k) - first + 1
        rec = np.repeat(np.arange(len(start)), spans)
        offset = np.arange(len(rec)) - np.repeat(np.cumsum(spans) - spans, spans)
        bins = first[rec] + offset
        overlap = np.minimum(end[rec], (bins + 1) << k) - np.maximum(start[rec], bins << k)
        counts = (offset == 0).astype(np.int64)
        state = itype[rec]
        steps = k - self._shift
        node = node[busy][rec]
        self._thread = self._thread.merge(
            steps, lane_keys(node, thread[busy][rec]), bins, state, counts, overlap
        )
        self._cpu = self._cpu.merge(
            steps, lane_keys(node, cpu[busy][rec]), bins, state, counts, overlap
        )
        self._shift = k

    def _coalesce_coarse(self, t_min: int, t_max: int, start, dura) -> None:
        n = self.coarse_bins
        shift = shift_for_span(t_min, t_max, n)
        origin = t_min >> shift
        prior = self._coarse
        if prior is not None and prior[:2] == (origin, shift) and not len(start):
            return
        counts = np.zeros(n, np.int64)
        durations = np.zeros(n, np.int64)
        if prior is not None:
            p_origin, p_shift, p_counts, p_durations = prior
            if p_shift > shift:
                raise FormatError(f"coarse shift {p_shift} exceeds grid shift {shift}")
            used = np.flatnonzero((p_counts != 0) | (p_durations != 0))
            idx = ((p_origin + used) >> (shift - p_shift)) - origin
            if len(idx) and (idx.min() < 0 or idx.max() >= n):
                raise FormatError("coarse bins fall outside the indexed span")
            np.add.at(counts, idx, p_counts[used])
            np.add.at(durations, idx, p_durations[used])
        idx = (start >> shift) - origin
        counts += np.bincount(idx, minlength=n)
        np.add.at(durations, idx, dura)
        self._coarse = (origin, shift, counts, durations)
