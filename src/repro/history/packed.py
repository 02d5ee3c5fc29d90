"""Packed, memory-mapped bulk store for per-series history state.

The legacy JSONL layout kept **one append-log file per series**; at
10\\ :sup:`5` – 10\\ :sup:`6` series a shard pays one ``open``/``read``
per series on cold start and the directory itself becomes the
bottleneck.  This module packs every series of a shard into a handful
of **append-only segment files** read through ``mmap``, with a
compacting index log mapping ``series key -> (segment, offset,
length)``:

``seg-NNNNNN.pack``
    Append-only segment files holding binary record blocks.  A save
    appends a fresh block and the previous block for that series
    becomes dead space; segments roll over at ``segment_bytes``.
    Blocks are self-describing (they embed the series key) and
    checksummed, so a torn tail or injected garbage is detected on
    read instead of being trusted.

``index.jsonl``
    Append-only log of index entries; the *last* entry per series
    wins.  Torn trailing lines are ignored on replay.  Compaction
    rewrites it to one line per live series through
    :func:`repro.util.atomic_write` (sibling mkstemp + ``os.replace``),
    so a crash mid-compaction leaves either the old or the new index —
    never a truncated one.

Durability ordering makes recovery trivial: a block is appended and
flushed *before* its index entry, so every index entry points at a
complete block; a crash between the two leaves an orphan block that is
plain dead space.  :meth:`PackedHistoryStore.write_many` keeps the
order for a whole batch: all of its blocks, then all of its index
lines, so a torn index tail commits a prefix of the batch.  If a block
still fails its checksum (disk-level corruption), the reader falls
back to the previous index entry for that series — the last durable
state.

Block layout (little-endian)::

    magic   4s   b"AVH1"
    length  u32  payload bytes
    crc32   u32  of the payload
    payload:
        series_len u16, series utf-8
        updates    u64
        n_modules  u32
        n_modules x (name_len u16, name utf-8)
        n_modules x f64 record values
"""

from __future__ import annotations

import functools
import io
import json
import mmap
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..exceptions import HistoryStoreError
from ..util import atomic_write
from .store import SeriesState, SeriesStateStore

__all__ = ["PackedHistoryStore"]

_MAGIC = b"AVH1"
_HEADER = struct.Struct("<4sII")  # magic, payload length, payload crc32
_U16 = struct.Struct("<H")
_META = struct.Struct("<QI")  # updates, n_modules

#: Default segment roll-over size.  Small enough that compaction moves
#: little data, large enough that a 100k-series shard fits in a few
#: dozen segments.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def _encode_block(series: str, records: Mapping[str, float], updates: int) -> bytes:
    series_b = series.encode("utf-8")
    payload = b"".join((
        _U16.pack(len(series_b)),
        series_b,
        _META.pack(int(updates), len(records)),
        _encode_names(tuple(records)),
        struct.pack(f"<{len(records)}d", *map(float, records.values())),
    ))
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


@functools.lru_cache(maxsize=64)
def _encode_names(names: Tuple[str, ...]) -> bytes:
    """The module-name part of a block; cached, since rosters repeat."""
    parts: List[bytes] = []
    for name in names:
        name_b = name.encode("utf-8")
        parts.append(_U16.pack(len(name_b)))
        parts.append(name_b)
    return b"".join(parts)


@functools.lru_cache(maxsize=64)
def _decode_names(blob: bytes, n_modules: int) -> Tuple[str, ...]:
    """Module names of a block; cached, since a shard's rosters repeat."""
    names: List[str] = []
    pos = 0
    for _ in range(n_modules):
        (name_len,) = _U16.unpack_from(blob, pos)
        pos += _U16.size
        names.append(blob[pos: pos + name_len].decode("utf-8"))
        pos += name_len
    if pos != len(blob):
        raise HistoryStoreError("block payload has trailing bytes")
    return tuple(names)


def _decode_block(buffer: bytes, offset: int, length: int) -> Tuple[str, Dict[str, float], int]:
    """Decode one block; raises ``HistoryStoreError`` on any corruption."""
    if offset < 0 or offset + length > len(buffer):
        raise HistoryStoreError("block lies outside the segment")
    if length < _HEADER.size:
        raise HistoryStoreError("block shorter than its header")
    magic, payload_len, crc = _HEADER.unpack_from(buffer, offset)
    if magic != _MAGIC:
        raise HistoryStoreError("bad block magic")
    if _HEADER.size + payload_len != length:
        raise HistoryStoreError("block length mismatch")
    payload = bytes(buffer[offset + _HEADER.size: offset + length])
    if zlib.crc32(payload) != crc:
        raise HistoryStoreError("block checksum mismatch")
    pos = 0
    (series_len,) = _U16.unpack_from(payload, pos)
    pos += _U16.size
    series = payload[pos: pos + series_len].decode("utf-8")
    pos += series_len
    updates, n_modules = _META.unpack_from(payload, pos)
    pos += _META.size
    values_at = len(payload) - 8 * n_modules
    names = _decode_names(payload[pos: values_at], n_modules)
    values = struct.unpack_from(f"<{n_modules}d", payload, values_at)
    return series, dict(zip(names, values)), int(updates)


class _Entry:
    """Where one series' latest block lives."""

    __slots__ = ("segment", "offset", "length")

    def __init__(self, segment: int, offset: int, length: int):
        self.segment = segment
        self.offset = offset
        self.length = length


def _index_line(series: str, entry: _Entry) -> str:
    """The ``index.jsonl`` line of ``entry``, as ``json.dumps`` writes it."""
    return '{"k": %s, "s": %d, "o": %d, "l": %d}\n' % (
        json.dumps(series), entry.segment, entry.offset, entry.length
    )


class PackedHistoryStore(SeriesStateStore):
    """Bulk series-state store over packed mmap segments.

    Args:
        directory: segment + index directory (created on demand).
        segment_bytes: roll to a new segment past this size.
        compact_dead_fraction: run :meth:`compact` automatically once
            this fraction of all segment bytes is dead (None disables
            auto-compaction; :meth:`compact` can still be called).
        compact_min_bytes: never auto-compact below this many dead
            bytes (compaction rewrites the whole live set).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compact_dead_fraction: Optional[float] = 0.5,
        compact_min_bytes: int = 1024 * 1024,
    ):
        if segment_bytes < 4096:
            raise HistoryStoreError("segment_bytes must be >= 4096")
        self.directory = Path(directory)
        self.segment_bytes = int(segment_bytes)
        self.compact_dead_fraction = compact_dead_fraction
        self.compact_min_bytes = int(compact_min_bytes)
        self.compactions = 0
        self.last_compaction_seconds = 0.0
        self._lock = threading.RLock()
        self._entries: Dict[str, _Entry] = {}
        #: One-deep fallback: the previous entry per series, used when
        #: the latest block fails its checksum (disk corruption).
        self._stale: Dict[str, _Entry] = {}
        self._segment_sizes: Dict[int, int] = {}
        self._live_bytes: Dict[int, int] = {}
        self._mmaps: Dict[int, mmap.mmap] = {}
        self._active_segment = 0
        self._active_handle: Optional[io.BufferedWriter] = None
        self._index_handle: Optional[io.TextIOWrapper] = None
        self._closed = False
        self._compacting = False
        self._load()

    # -- paths -------------------------------------------------------------

    def _segment_path(self, segment: int) -> Path:
        return self.directory / f"seg-{segment:06d}.pack"

    @property
    def index_path(self) -> Path:
        return self.directory / "index.jsonl"

    # -- startup -----------------------------------------------------------

    def _load(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in self.directory.glob("seg-*.pack"):
            try:
                segment = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            self._segment_sizes[segment] = path.stat().st_size
            self._live_bytes[segment] = 0
        self._active_segment = max(self._segment_sizes, default=1)
        index = self.index_path
        if index.exists():
            try:
                with open(index, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            raw = json.loads(line)
                            if raw.get("x"):
                                self._drop_entry(str(raw["k"]))
                                continue
                            entry = _Entry(
                                int(raw["s"]), int(raw["o"]), int(raw["l"])
                            )
                            series = str(raw["k"])
                        except (KeyError, TypeError, ValueError):
                            continue  # torn or garbage line: skip
                        if entry.segment not in self._segment_sizes or (
                            entry.offset + entry.length
                            > self._segment_sizes[entry.segment]
                        ):
                            # Points past the segment (torn segment tail
                            # that somehow got indexed, or a missing
                            # segment file): not durable, skip it.
                            continue
                        self._set_entry(series, entry)
            except OSError as exc:
                raise HistoryStoreError(f"cannot read packed index {index}: {exc}")

    # -- entry bookkeeping -------------------------------------------------

    def _set_entry(self, series: str, entry: _Entry) -> None:
        old = self._entries.get(series)
        if old is not None:
            self._live_bytes[old.segment] = (
                self._live_bytes.get(old.segment, 0) - old.length
            )
            self._stale[series] = old
        self._entries[series] = entry
        self._live_bytes[entry.segment] = (
            self._live_bytes.get(entry.segment, 0) + entry.length
        )

    def _drop_entry(self, series: str) -> None:
        old = self._entries.pop(series, None)
        if old is not None:
            self._live_bytes[old.segment] = (
                self._live_bytes.get(old.segment, 0) - old.length
            )
        self._stale.pop(series, None)

    # -- handles -----------------------------------------------------------

    def _writer(self) -> io.BufferedWriter:
        if self._active_handle is None:
            path = self._segment_path(self._active_segment)
            self._active_handle = open(path, "ab")
            self._segment_sizes.setdefault(self._active_segment, path.stat().st_size)
        return self._active_handle

    def _index_writer(self) -> io.TextIOWrapper:
        if self._index_handle is None:
            self._index_handle = open(self.index_path, "a", encoding="utf-8")
        return self._index_handle

    def _roll_segment(self) -> None:
        if self._active_handle is not None:
            self._active_handle.close()
            self._active_handle = None
        self._active_segment += 1
        self._segment_sizes[self._active_segment] = 0
        self._live_bytes.setdefault(self._active_segment, 0)

    def _map(self, segment: int, end: int) -> mmap.mmap:
        """A read mapping of ``segment`` covering at least ``end`` bytes."""
        mapped = self._mmaps.get(segment)
        if mapped is None or len(mapped) < end:
            if mapped is not None:
                mapped.close()
            if segment == self._active_segment and self._active_handle is not None:
                self._active_handle.flush()
            with open(self._segment_path(segment), "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            self._mmaps[segment] = mapped
        return mapped

    def _drop_maps(self) -> None:
        for mapped in self._mmaps.values():
            mapped.close()
        self._mmaps.clear()

    # -- SeriesStateStore --------------------------------------------------

    def read(self, series: str) -> Optional[SeriesState]:
        with self._lock:
            entry = self._entries.get(series)
            if entry is None:
                return None
            try:
                return self._read_entry(series, entry)
            except (HistoryStoreError, OSError, ValueError):
                # Corrupt latest block: fall back to the previous
                # durable state for this series, if any survives.
                fallback = self._stale.get(series)
                if fallback is None:
                    return None
                try:
                    return self._read_entry(series, fallback)
                except (HistoryStoreError, OSError, ValueError):
                    return None

    def _read_entry(self, series: str, entry: _Entry) -> SeriesState:
        buffer = self._map(entry.segment, entry.offset + entry.length)
        key, records, updates = _decode_block(buffer, entry.offset, entry.length)
        if key != series:
            raise HistoryStoreError(
                f"index for {series!r} points at a block for {key!r}"
            )
        return records, updates

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        self.write_many([(series, records, updates)])

    def write_many(
        self, states: Iterable[Tuple[str, Mapping[str, float], int]]
    ) -> None:
        """Persist many series with one segment append and one index append.

        Every block is appended and flushed before any of their index
        lines, so each replayed index line points at a complete block
        and a torn index tail leaves a prefix of the batch committed.
        The segment rolls where the batch would cross ``segment_bytes``
        (one more append per roll).
        """
        blocks = [
            (series, _encode_block(series, records, updates))
            for series, records, updates in states
        ]
        if not blocks:
            return
        with self._lock:
            if self._closed:
                raise HistoryStoreError("packed store is closed")
            self._writer()
            offset = self._segment_sizes[self._active_segment]
            run: List[bytes] = []
            entries: List[Tuple[str, _Entry]] = []
            for series, block in blocks:
                if offset + len(block) > self.segment_bytes and offset > 0:
                    self._append_run(run, offset)
                    run = []
                    self._roll_segment()
                    self._writer()
                    offset = 0
                entries.append(
                    (series, _Entry(self._active_segment, offset, len(block)))
                )
                run.append(block)
                offset += len(block)
            self._append_run(run, offset)
            self._append_index(
                "".join(_index_line(series, entry) for series, entry in entries)
            )
            for series, entry in entries:
                self._set_entry(series, entry)
            self._maybe_compact()

    def _append_run(self, blocks: List[bytes], end: int) -> None:
        """Append ``blocks`` to the active segment, which then ends at ``end``."""
        if not blocks:
            return
        writer = self._writer()
        try:
            writer.write(b"".join(blocks))
            writer.flush()
        except OSError as exc:
            raise HistoryStoreError(f"cannot append packed block: {exc}")
        self._segment_sizes[self._active_segment] = end

    def _append_index(self, text: str) -> None:
        try:
            writer = self._index_writer()
            writer.write(text)
            writer.flush()
        except OSError as exc:
            raise HistoryStoreError(f"cannot append packed index: {exc}")

    def delete(self, series: str) -> None:
        with self._lock:
            if series not in self._entries:
                return
            self._append_index(json.dumps({"k": series, "x": 1}) + "\n")
            self._drop_entry(series)

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, series: str) -> bool:
        with self._lock:
            return series in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self.close()
            for path in self.directory.glob("seg-*.pack"):
                try:
                    path.unlink()
                except OSError:
                    pass
            try:
                if self.index_path.exists():
                    self.index_path.unlink()
            except OSError:
                pass
            self._entries.clear()
            self._stale.clear()
            self._segment_sizes = {}
            self._live_bytes = {}
            self._active_segment = 1
            self._closed = False

    def close(self) -> None:
        with self._lock:
            self._drop_maps()
            if self._active_handle is not None:
                self._active_handle.close()
                self._active_handle = None
            if self._index_handle is not None:
                self._index_handle.close()
                self._index_handle = None
            self._closed = True

    def __enter__(self) -> "PackedHistoryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- storage accounting ------------------------------------------------

    @property
    def segment_count(self) -> int:
        with self._lock:
            return sum(1 for size in self._segment_sizes.values() if size > 0)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(self._segment_sizes.values())

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(self._live_bytes.values())

    @property
    def dead_bytes(self) -> int:
        with self._lock:
            return self.total_bytes - self.live_bytes

    # -- compaction --------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self.compact_dead_fraction is None or self._compacting:
            return
        total = self.total_bytes
        dead = total - self.live_bytes
        if dead < self.compact_min_bytes or total <= 0:
            return
        if dead / total >= self.compact_dead_fraction:
            self.compact()

    def compact(self) -> None:
        """Rewrite every live block into fresh segments, drop the rest.

        Crash-safe by ordering: live blocks are re-appended (with index
        lines) first, then the index log is rewritten atomically to one
        line per series, and only then are the dead segment files
        unlinked.  A crash at any point leaves a loadable store — at
        worst with some duplicated (dead) blocks that the next
        compaction reclaims.
        """
        with self._lock:
            if self._compacting:
                return
            self._compacting = True
            try:
                self._compact_locked()
            finally:
                self._compacting = False

    def _compact_locked(self) -> None:
        started = time.perf_counter()
        old_segments = [
            segment
            for segment, size in self._segment_sizes.items()
            if size > 0 and segment != self._active_segment
        ]
        # Roll first so rewritten blocks land in a segment that is
        # not itself being compacted away; the old active segment
        # joins the compaction set if it holds dead bytes.
        if self._segment_sizes.get(self._active_segment, 0) > 0:
            old_segments.append(self._active_segment)
            self._roll_segment()
        for series in list(self._entries):
            entry = self._entries[series]
            if entry.segment == self._active_segment:
                continue
            state = self.read(series)
            if state is None:
                self._drop_entry(series)
                continue
            records, updates = state
            self.write(series, records, updates)
        # The full index is now redundant: rewrite it to one line
        # per live series, atomically.
        lines = [
            _index_line(series, entry)
            for series, entry in sorted(self._entries.items())
        ]
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None
        atomic_write(self.index_path, "".join(lines))
        self._stale.clear()
        self._drop_maps()
        for segment in old_segments:
            if segment == self._active_segment:
                continue
            try:
                self._segment_path(segment).unlink()
            except OSError:
                pass
            self._segment_sizes.pop(segment, None)
            self._live_bytes.pop(segment, None)
        self.compactions += 1
        self.last_compaction_seconds = time.perf_counter() - started
