"""Persistent per-segment index sidecars and their mmap'd readers.

A segment file ``seg-XXXXXXXX.log`` holds framed record payloads; its
sidecar ``seg-XXXXXXXX.idx`` holds everything the store's open scan used
to rebuild in RAM — one fixed-width envelope row per trajectory record,
the tombstone positions, a per-device summary, and coarse pruning
structure — so opening a store means reading footers, not re-parsing a
million record envelopes.  The layout (all little-endian, stdlib
``struct`` only)::

    +---------------------------+
    | header  b"BQSIDX1\\n"      |  8 bytes
    | row region                |  n_rows x 80 B  (_ROW), append order
    | posting region            |  n_rows x u32: row ordinals grouped per
    |                           |    device (device-table order), ascending
    | order region              |  n_rows x u32: the rows in space order
    | device table              |  per device: u16 len | utf-8 id |
    |                           |    u32 n_rows | u32 first | u32 last
    | tombstone region          |  n_tombstones x 8 B  (_TOMB)
    | sorted-block region       |  ceil(n_rows/sort_rows) x 56 B (_SBLOCK)
    | time-block region         |  ceil(n_rows/block_rows) x 16 B (_TBLOCK)
    | footer                    |  152 B (_FOOTER), CRC'd
    +---------------------------+

The row region stays in **append order**: a row's ordinal is what
tombstone markers, ``iter_refs`` and compaction count in.  Everything
spatial goes through the *order* region instead — a permutation of the
row ordinals sorted by ``(utm_zone, utm_south, Z-order cell of the
envelope centre, t_min, row)`` — so the segment is ordered in space once,
at seal time, without moving a row.

The footer carries the segment-level envelope, per-region CRCs and the
CRC of the segment log it was built from, so a reader can decide how
much to trust without touching the log:

* ``footer_crc`` / ``meta_crc`` are verified at open (microseconds —
  the footer plus everything behind the row region).
* ``rows_crc`` covers the big row region and is verified **lazily**, on
  the first query that touches the segment's rows, together with the
  range check of the order and posting entries that point into it —
  open time stays proportional to segment *count*, not record count.
* ``log_crc`` / ``head_crc`` tie the sidecar to the log content it
  indexed.  Sealed segments are trusted on size plus a 4 KiB head CRC
  (record payloads are re-CRC'd on every read anyway); the *active*
  segment — the one a crash could have damaged — is only trusted after
  a full log-content CRC.

Any validation failure — a version-1 sidecar (8x8 grid, no order or
posting region) included — raises :class:`SidecarError` and the store
falls back to the legacy envelope scan for that segment, regenerating
the sidecar afterwards; a corrupt or old ``.idx`` can cost time, never
answers.

Pruning is the footer envelope (whole segment), then one block table
before any per-row test.  A rectangle is tested against the **sorted
blocks** — envelopes over runs of ``sort_rows`` (64) rows *of the order
region*, tight because neighbours in Z-order are neighbours on the map,
each tagged with its ``(zone, south)`` frame unless it straddles two —
and only the rows of surviving blocks are unpacked, in ascending row
order, so candidates still come out in append order.  Sorted-block
envelopes are stored ε-expanded per row, so every prune is
conservative: a skipped block provably contains no row whose ε-expanded
box reaches the query rectangle within the window.  A device's rows are
a slice of the posting region, so its manifest costs its own records,
not the span between its first and last.

A time-only window goes through a **time order** derived in memory, not
read from the file: on the first such window, the row ordinals are
sorted by ``t_min`` (read straight off the mmap'd row region) and cut
into runs of ``sort_rows``, each keeping its first ``t_min`` and its
``max(t_max)``.  A window ``[t0, t1]`` bisects the firsts for the runs
that start by ``t1`` and drops those whose ``max(t_max)`` is before
``t0`` — conservative, since a skipped run provably holds no row
overlapping the window — so the cost follows the rows near the window
whatever clocks wrote the segment.  The sort is sound because no stored
time is NaN: the codec refuses non-finite key points.  Sealed segments
are immutable, so the order never goes stale; it costs nothing at open
and is dropped by :meth:`SegmentIndex.close`.  The time-block region (``_TBLOCK``, runs of
``block_rows`` rows in append order) is still written and counted by the
footer's size check, but nothing reads it; the next sidecar format drops
it.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .. import fsio
from ..model.projection import UTMProjection

__all__ = [
    "RecordRef",
    "ScannedSegment",
    "SegmentIndex",
    "SidecarError",
    "sidecar_path",
    "write_sidecar",
]

_HEADER = b"BQSIDX1\n"
_FOOTER_MAGIC = b"BQSF"
#: 2 replaced the 8x8 grid with the order, posting and sorted-block
#: regions; a version-1 sidecar is rejected and regenerated.
_VERSION = 2

#: One envelope row: t_min t_max x_min x_max y_min y_max epsilon,
#: device index, key-point count, frame offset, frame length, UTM zone
#: (0 = unstamped), hemisphere flag, 2 pad bytes.  80 bytes.
_ROW = struct.Struct("<7dIIQIBB2x")
#: One tombstone: row marker (trajectory rows preceding it in this
#: segment), device index.
_TOMB = struct.Struct("<II")
#: One sorted block: t span and ε-expanded x/y envelope of a run of the
#: order region, then the rows' UTM zone and hemisphere flag (zone
#: ``_MIXED`` when the run straddles two frames), 6 pad bytes.
_SBLOCK = struct.Struct("<6dBB6x")
#: One time block: t span of a run of rows in append order (written,
#: size-checked, never read).
_TBLOCK = struct.Struct("<2d")
#: magic, version, flags, n_rows, n_devices, n_tombstones, dev_bytes,
#: block_rows, sort_rows, segment_size, damaged, log_crc, head_crc,
#: total_key_points, envelope (t0 t1 x0 x1 y0 y1 max_eps), zones_north,
#: zones_south, has_unstamped, rows_crc, meta_crc, footer_crc.  152
#: bytes at the very end of the file.
_FOOTER = struct.Struct("<4sHHIIIIIH2xQQIIQ7dQQB3xIII")

BLOCK_ROWS = 512
SORT_ROWS = 64
_MIXED = 0xFF
#: Log-head prefix covered by ``head_crc``.
HEAD_CRC_BYTES = 4096
#: Bits of a byte spread to the even positions (base 4 reads each binary
#: digit as two bits): the bit interleave of a Z-order cell, by table.
_SPREAD = tuple(int(f"{i:b}", 4) for i in range(256))


class SidecarError(Exception):
    """An index sidecar failed validation (treat the segment as unindexed)."""


@dataclass(frozen=True, slots=True)
class RecordRef:
    """Index entry for one stored trajectory (envelope, not the blob)."""

    device_id: str
    segment: str  #: segment file name
    offset: int  #: byte offset of the record frame in the segment
    length: int  #: total framed record length in bytes
    n_key_points: int
    t_min: float
    t_max: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    #: The trajectory's declared error bound (``inf`` when unbounded),
    #: mirrored out of the blob header so the query screen never decodes.
    epsilon: float
    #: UTM zone the plane coordinates live in (``None`` for records stored
    #: from already-planar fixes) and its hemisphere — the frame geographic
    #: queries project their lat/lon rectangle into, per record.
    utm_zone: int | None = None
    utm_south: bool = False

    def projection(self) -> UTMProjection | None:
        """The stamped UTM frame, if any (mirrors the blob header)."""
        if self.utm_zone is None:
            return None
        return UTMProjection(zone=self.utm_zone, south=self.utm_south)


def sidecar_path(directory: Path, segment_name: str) -> Path:
    """``seg-XXXXXXXX.log`` -> ``<directory>/seg-XXXXXXXX.idx``."""
    stem = segment_name[:-4] if segment_name.endswith(".log") else segment_name
    return Path(directory) / (stem + ".idx")


def _finite_eps(eps: float) -> float:
    # Matches the query screen: a non-finite ε carries no guarantee to
    # expand by, so it expands nothing.
    return eps if math.isfinite(eps) else 0.0


def write_sidecar(
    path: str | os.PathLike,
    segment_name: str,
    refs: Sequence[RecordRef],
    tombstones: Sequence[Tuple[int, str]],
    *,
    segment_size: int,
    log_crc: int,
    head_crc: int,
    damaged: int = 0,
    fsync: bool = False,
    block_rows: int = BLOCK_ROWS,
) -> None:
    """Build and atomically write one segment's ``.idx`` sidecar.

    ``refs`` are the segment's trajectory rows in offset order;
    ``tombstones`` are ``(marker_row, device_id)`` pairs where the marker
    counts the trajectory rows preceding the tombstone in this segment.
    ``damaged`` preserves the scan report (unreadable trailing bytes) so
    a reopen from the sidecar reports the same recovery state the scan
    did.
    """
    device_idx: Dict[str, int] = {}
    postings: List[List[int]] = []  # per device, its row ordinals
    for row, ref in enumerate(refs):
        i = device_idx.setdefault(ref.device_id, len(postings))
        if i == len(postings):
            postings.append([])
        postings[i].append(row)
    for _, device_id in tombstones:
        if device_idx.setdefault(device_id, len(postings)) == len(postings):
            postings.append([])

    n_rows = len(refs)
    # Segment envelope + max finite ε + zone masks, one pass.
    t0 = x0 = y0 = math.inf
    t1 = x1 = y1 = -math.inf
    max_eps = 0.0
    total_keys = 0
    zones_north = 0
    zones_south = 0
    has_unstamped = 0
    for ref in refs:
        if ref.t_min < t0:
            t0 = ref.t_min
        if ref.t_max > t1:
            t1 = ref.t_max
        if ref.x_min < x0:
            x0 = ref.x_min
        if ref.x_max > x1:
            x1 = ref.x_max
        if ref.y_min < y0:
            y0 = ref.y_min
        if ref.y_max > y1:
            y1 = ref.y_max
        e = _finite_eps(ref.epsilon)
        if e > max_eps:
            max_eps = e
        total_keys += ref.n_key_points
        if ref.utm_zone is None:
            has_unstamped = 1
        elif ref.utm_south:
            zones_south |= 1 << (ref.utm_zone - 1)
        else:
            zones_north |= 1 << (ref.utm_zone - 1)

    # Envelope centres map onto a 65536 x 65536 lattice over the segment
    # envelope; a degenerate or non-finite axis collapses to cell 0.
    sx = 65535.0 / (x1 - x0) if 0.0 < x1 - x0 < math.inf else 0.0
    sy = 65535.0 / (y1 - y0) if 0.0 < y1 - y0 < math.inf else 0.0
    spread = _SPREAD
    rows = bytearray()
    cells = []  # per row: its frame, then the Z-order cell of its centre
    for ref in refs:
        zone = ref.utm_zone or 0
        south = 1 if ref.utm_south else 0
        rows += _ROW.pack(
            ref.t_min,
            ref.t_max,
            ref.x_min,
            ref.x_max,
            ref.y_min,
            ref.y_max,
            ref.epsilon,
            device_idx[ref.device_id],
            ref.n_key_points,
            ref.offset,
            ref.length,
            zone,
            south,
        )
        cx = ((ref.x_min + ref.x_max) * 0.5 - x0) * sx
        cy = ((ref.y_min + ref.y_max) * 0.5 - y0) * sy
        ix = int(cx) if 0.0 <= cx < 65536.0 else 0
        iy = int(cy) if 0.0 <= cy < 65536.0 else 0
        cells.append(
            (zone << 1 | south) << 32
            | spread[ix & 255] | spread[ix >> 8] << 16
            | (spread[iy & 255] | spread[iy >> 8] << 16) << 1
        )

    tblocks = bytearray()
    for lo in range(0, n_rows, block_rows):
        run = refs[lo : lo + block_rows]
        tblocks += _TBLOCK.pack(
            min(ref.t_min for ref in run), max(ref.t_max for ref in run)
        )

    # Two stable sorts give (frame, cell, t_min, row) without a key tuple
    # per row.
    order = sorted(range(n_rows), key=[ref.t_min for ref in refs].__getitem__)
    order.sort(key=cells.__getitem__)
    sblocks = bytearray()
    for lo in range(0, n_rows, SORT_ROWS):
        run = [refs[row] for row in order[lo : lo + SORT_ROWS]]
        # Stored pre-expanded (per-row ε already applied), so the block
        # prune needs no further expansion.
        eps = [_finite_eps(ref.epsilon) for ref in run]
        frame = cells[order[lo]] >> 32
        pure = frame == cells[order[lo + len(run) - 1]] >> 32
        sblocks += _SBLOCK.pack(
            min(ref.t_min for ref in run),
            max(ref.t_max for ref in run),
            min(ref.x_min - e for ref, e in zip(run, eps)),
            max(ref.x_max + e for ref, e in zip(run, eps)),
            min(ref.y_min - e for ref, e in zip(run, eps)),
            max(ref.y_max + e for ref, e in zip(run, eps)),
            frame >> 1 if pure else _MIXED,
            frame & 1,
        )

    dev_table = bytearray()
    for device_id, rows_of in zip(device_idx, postings):
        encoded = device_id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise SidecarError(f"device id too long for sidecar: {device_id!r}")
        dev_table += struct.pack("<H", len(encoded))
        dev_table += encoded
        if rows_of:
            dev_table += struct.pack("<III", len(rows_of), rows_of[0], rows_of[-1])
        else:
            dev_table += struct.pack("<III", 0, 0xFFFFFFFF, 0)

    tomb_region = bytearray()
    for marker, device_id in tombstones:
        tomb_region += _TOMB.pack(marker, device_idx[device_id])

    posting = [row for rows_of in postings for row in rows_of]
    meta = b"".join(
        (
            struct.pack(f"<{2 * n_rows}I", *posting, *order),
            dev_table,
            tomb_region,
            sblocks,
            tblocks,
        )
    )
    rows_b = bytes(rows)
    footer_head = _FOOTER.pack(
        _FOOTER_MAGIC,
        _VERSION,
        0,
        n_rows,
        len(postings),
        len(tombstones),
        len(dev_table),
        block_rows,
        SORT_ROWS,
        segment_size,
        damaged,
        log_crc & 0xFFFFFFFF,
        head_crc & 0xFFFFFFFF,
        total_keys,
        t0,
        t1,
        x0,
        x1,
        y0,
        y1,
        max_eps,
        zones_north,
        zones_south,
        has_unstamped,
        zlib.crc32(rows_b),
        zlib.crc32(meta),
        0,
    )[: _FOOTER.size - 4]
    footer = footer_head + struct.pack("<I", zlib.crc32(footer_head))

    path = Path(path)
    tmp = path.with_suffix(".idx.tmp")
    try:
        with fsio.open_file(tmp, "wb") as handle:
            handle.write(_HEADER)
            handle.write(rows_b)
            handle.write(meta)
            handle.write(footer)
            if fsync:
                handle.flush()
                fsio.fsync(handle.fileno())
        fsio.replace(tmp, path)
    except OSError:
        # A half-written tmp must not outlive the failure: a later rename
        # (or a naive glob) could promote a truncated sidecar.  The store
        # falls back to scan mode either way.
        try:
            fsio.unlink(tmp)
        except OSError:
            pass
        raise


def _row_to_ref(segment: str, devices: List[str], row: tuple) -> RecordRef:
    (t_min, t_max, x_min, x_max, y_min, y_max, eps,
     dev, n_keys, offset, length, zone, south) = row
    return RecordRef(
        device_id=devices[dev],
        segment=segment,
        offset=offset,
        length=length,
        n_key_points=n_keys,
        t_min=t_min,
        t_max=t_max,
        x_min=x_min,
        x_max=x_max,
        y_min=y_min,
        y_max=y_max,
        epsilon=eps,
        utm_zone=zone if zone else None,
        utm_south=bool(south),
    )


class SegmentIndex:
    """A sealed segment's sidecar, served zero-copy through ``mmap``.

    Construction (:meth:`open`) validates the footer, the small metadata
    regions and the tie to the segment log; the row region is only
    CRC-verified by an explicit :meth:`verify_rows` call (the store does
    this lazily, once, before first serving rows).  All failures raise
    :class:`SidecarError`.
    """

    kind = "sidecar"

    def __init__(self) -> None:  # populated by open()
        self.name = ""
        self.n_rows = 0
        self.total_key_points = 0
        self.damaged = 0
        self.log_crc = 0
        self.head_crc = 0
        self.segment_size = 0
        self.has_unstamped = False
        self.tombstones: List[Tuple[int, str]] = []
        #: Rows unpacked and block envelopes tested so far (what a query
        #: cost, counted rather than timed).
        self.rows_examined = 0
        self.blocks_examined = 0
        self._devices: List[str] = []
        self._summary: Dict[str, Tuple[int, int, int]] = {}
        self._post: Dict[str, Tuple[int, int]] = {}  # posting slice bounds
        self._zones: Set[Tuple[int, bool]] = set()
        self._mm = None
        self._file = None
        self._rows_off = len(_HEADER)
        self._rows_crc = 0
        self._rows_verified = False
        self._envelope: Tuple[float, ...] | None = None
        self._max_eps = 0.0
        self._posting: memoryview | None = None
        self._order: memoryview | None = None
        self._sblocks: memoryview | None = None
        self._sort_rows = SORT_ROWS
        #: The time order, built by the first time-only window: row
        #: ordinals by ``t_min``, then per run of ``sort_rows`` its first
        #: ``t_min`` and its ``max(t_max)``.
        self._t_order: array | None = None
        self._t_firsts: array | None = None
        self._t_maxes: array | None = None

    @classmethod
    def open(
        cls, path: str | os.PathLike, *, segment_name: str, expected_size: int
    ) -> "SegmentIndex":
        self = cls()
        self.name = segment_name
        file = open(path, "rb")
        try:
            size = os.fstat(file.fileno()).st_size
            if size < len(_HEADER) + _FOOTER.size:
                raise SidecarError(f"{path}: too small to be a sidecar")
            mm = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length mmap
            file.close()
            raise SidecarError(f"{path}: {exc}") from exc
        except SidecarError:
            file.close()
            raise
        self._file = file
        self._mm = mm
        try:
            self._validate(path, size, expected_size)
        except Exception:
            self.close()
            raise
        return self

    def _validate(self, path, size: int, expected_size: int) -> None:
        mm = self._mm
        if mm[: len(_HEADER)] != _HEADER:
            raise SidecarError(f"{path}: bad header magic")
        view = memoryview(mm)
        foot_off = size - _FOOTER.size
        stored_crc = struct.unpack_from("<I", mm, size - 4)[0]
        if zlib.crc32(view[foot_off : size - 4]) != stored_crc:
            raise SidecarError(f"{path}: footer CRC mismatch")
        (magic, version, _flags, n_rows, n_devices, n_tombstones, dev_bytes,
         block_rows, sort_rows, segment_size, damaged, log_crc, head_crc,
         total_keys, t0, t1, x0, x1, y0, y1, max_eps, zones_north,
         zones_south, has_unstamped, rows_crc, meta_crc, _stored,
         ) = _FOOTER.unpack_from(mm, foot_off)
        if magic != _FOOTER_MAGIC:
            raise SidecarError(f"{path}: bad footer magic")
        if version != _VERSION:
            raise SidecarError(f"{path}: unsupported sidecar version {version}")
        if block_rows < 1 or sort_rows < 1:
            raise SidecarError(f"{path}: corrupt footer geometry")
        rows_end = self._rows_off + n_rows * _ROW.size
        order_off = rows_end + 4 * n_rows
        dev_off = order_off + 4 * n_rows
        tomb_off = dev_off + dev_bytes
        sblock_off = tomb_off + n_tombstones * _TOMB.size
        tblock_off = sblock_off + -(-n_rows // sort_rows) * _SBLOCK.size
        if tblock_off + -(-n_rows // block_rows) * _TBLOCK.size != foot_off:
            raise SidecarError(f"{path}: region sizes do not add up")
        if segment_size != expected_size:
            raise SidecarError(
                f"{path}: indexed a {segment_size}-byte segment, log is "
                f"{expected_size} bytes (stale sidecar)"
            )
        if zlib.crc32(view[rows_end:foot_off]) != meta_crc:
            raise SidecarError(f"{path}: metadata CRC mismatch")
        # Device table; a device's postings start where the previous
        # device's end.
        pos = dev_off
        devices: List[str] = []
        summary: Dict[str, Tuple[int, int, int]] = {}
        post: Dict[str, Tuple[int, int]] = {}
        posted = 0
        for _ in range(n_devices):
            (id_len,) = struct.unpack_from("<H", mm, pos)
            pos += 2
            try:
                devices.append(bytes(view[pos : pos + id_len]).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SidecarError(f"{path}: bad device id") from exc
            pos += id_len
            n, first, last = struct.unpack_from("<III", mm, pos)
            pos += 12
            if n and (first >= n_rows or last >= n_rows or first > last):
                raise SidecarError(f"{path}: device summary out of range")
            summary[devices[-1]] = (n, first, last)
            post[devices[-1]] = (posted, posted + n)
            posted += n
        if pos != tomb_off:
            raise SidecarError(f"{path}: device table overruns its region")
        if posted != n_rows:
            raise SidecarError(f"{path}: postings do not cover the rows")
        tombs: List[Tuple[int, str]] = []
        for marker, dev in _TOMB.iter_unpack(view[tomb_off:sblock_off]):
            if dev >= n_devices or marker > n_rows:
                raise SidecarError(f"{path}: tombstone out of range")
            tombs.append((marker, devices[dev]))
        self.n_rows = n_rows
        self.total_key_points = total_keys
        self.damaged = damaged
        self.log_crc = log_crc
        self.head_crc = head_crc
        self.segment_size = segment_size
        self.has_unstamped = bool(has_unstamped)
        self.tombstones = tombs
        self._devices = devices
        self._summary = summary
        self._post = post
        self._zones = {
            (z + 1, south)
            for south, mask in ((False, zones_north), (True, zones_south))
            for z in range(60)
            if mask >> z & 1
        }
        self._rows_crc = rows_crc
        self._envelope = (
            (t0, t1, x0, x1, y0, y1, max_eps) if n_rows else None
        )
        self._max_eps = max_eps
        self._posting = view[rows_end:order_off].cast("I")
        self._order = view[order_off:dev_off].cast("I")
        self._sblocks = view[sblock_off:tblock_off]
        self._sort_rows = sort_rows

    # -- integrity -----------------------------------------------------------

    def verify_rows(self) -> None:
        """One-time CRC pass over the row region, and the range check of
        the order and posting entries that point into it (cheap; done
        lazily)."""
        if self._rows_verified or self.n_rows == 0:
            self._rows_verified = True
            return
        view = memoryview(self._mm)
        end = self._rows_off + self.n_rows * _ROW.size
        if zlib.crc32(view[self._rows_off : end]) != self._rows_crc:
            raise SidecarError(f"{self.name}: sidecar row region CRC mismatch")
        if max(max(self._order), max(self._posting)) >= self.n_rows:
            raise SidecarError(f"{self.name}: sidecar row ordinal out of range")
        self._rows_verified = True

    # -- summaries -----------------------------------------------------------

    def device_summary(self) -> Dict[str, Tuple[int, int, int]]:
        """``device_id -> (n_rows, first_row, last_row)`` (0 rows for
        devices present only as tombstones)."""
        return self._summary

    def envelope(self) -> Tuple[float, ...] | None:
        """``(t_min, t_max, x_min, x_max, y_min, y_max, max_eps)`` over
        every row, or ``None`` for an empty segment."""
        return self._envelope

    def stamped_zones(self) -> Set[Tuple[int, bool]]:
        return self._zones

    # -- row access ----------------------------------------------------------

    def ref(self, row: int) -> RecordRef:
        if not 0 <= row < self.n_rows:
            raise IndexError(row)
        self.rows_examined += 1
        return _row_to_ref(
            self.name,
            self._devices,
            _ROW.unpack_from(self._mm, self._rows_off + row * _ROW.size),
        )

    def device_rows(self, device_id: str) -> Sequence[int]:
        """One device's row ordinals, ascending: its slice of the posting
        region."""
        start, end = self._post.get(device_id, (0, 0))
        return self._posting[start:end]

    def iter_refs(
        self, lo: int = 0, hi: int | None = None
    ) -> Iterator[Tuple[int, RecordRef]]:
        if hi is None or hi > self.n_rows:
            hi = self.n_rows
        if lo >= hi:
            return
        self.rows_examined += hi - lo
        view = memoryview(self._mm)
        start = self._rows_off + lo * _ROW.size
        end = self._rows_off + hi * _ROW.size
        name = self.name
        devices = self._devices
        row = lo
        for fields in _ROW.iter_unpack(view[start:end]):
            yield row, _row_to_ref(name, devices, fields)
            row += 1

    def iter_candidates(
        self,
        rect: Tuple[float, float, float, float] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        zone: int | None = None,
        south: bool = False,
    ) -> Iterator[Tuple[int, RecordRef]]:
        """Rows passing the envelope screen, as ``(row, ref)`` in order.

        The per-row test is exactly the legacy query screen (time-span
        overlap, then the ε-expanded bounding-box test with non-finite ε
        expanding nothing), preceded by segment and block pruning that
        can only skip provably-empty runs of rows.
        """
        if self.n_rows == 0:
            return
        env = self._envelope
        windowed = t0 is not None
        if windowed and not (env[0] <= t1 and env[1] >= t0):
            return
        sf = 1 if south else 0
        mm = self._mm
        base = self._rows_off
        numbered: Iterator[Tuple[int, tuple]]
        if rect is None and not windowed:
            self.rows_examined += self.n_rows
            view = memoryview(mm)
            numbered = enumerate(
                _ROW.iter_unpack(view[base : base + self.n_rows * _ROW.size])
            )
        else:
            if rect is None:
                rows = self._time_rows(t0, t1)
            else:
                qx0, qy0, qx1, qy1 = rect
                if (
                    env[2] - self._max_eps > qx1
                    or env[3] + self._max_eps < qx0
                    or env[4] - self._max_eps > qy1
                    or env[5] + self._max_eps < qy0
                ):
                    return
                rows = self._space_rows(rect, t0, t1, zone, sf)
            # Gathered in block order; visit them ascending — append order
            # again.
            rows.sort()
            self.rows_examined += len(rows)
            numbered = (
                (row, _ROW.unpack_from(mm, base + row * _ROW.size))
                for row in rows
            )
        name = self.name
        devices = self._devices
        for row, fields in numbered:
            if windowed and not (fields[0] <= t1 and fields[1] >= t0):
                continue
            (_t0, _t1, r_x0, r_x1, r_y0, r_y1, eps,
             _dev, _nk, _off, _len, r_zone, r_south) = fields
            if zone is not None and (r_zone != zone or r_south != sf):
                continue
            if rect is not None:
                e = eps if math.isfinite(eps) else 0.0
                if (
                    r_x0 - e > qx1
                    or r_x1 + e < qx0
                    or r_y0 - e > qy1
                    or r_y1 + e < qy0
                ):
                    continue
            yield row, _row_to_ref(name, devices, fields)

    def _space_rows(
        self,
        rect: Tuple[float, float, float, float],
        t0: float | None,
        t1: float | None,
        zone: int | None,
        sf: int,
    ) -> List[int]:
        """Row ordinals of the sorted blocks the rectangle can touch."""
        qx0, qy0, qx1, qy1 = rect
        windowed = t0 is not None
        size = self._sort_rows
        order = self._order
        rows: List[int] = []
        for lo, (b_t0, b_t1, b_x0, b_x1, b_y0, b_y1, b_zone, b_south) in zip(
            range(0, self.n_rows, size), _SBLOCK.iter_unpack(self._sblocks)
        ):
            if b_x0 > qx1 or b_x1 < qx0 or b_y0 > qy1 or b_y1 < qy0:
                continue
            if windowed and not (b_t0 <= t1 and b_t1 >= t0):
                continue
            if (
                zone is not None
                and b_zone != _MIXED
                and (b_zone != zone or b_south != sf)
            ):
                continue
            rows += order[lo : lo + size]
        self.blocks_examined += len(self._sblocks) // _SBLOCK.size
        return rows

    def _time_rows(self, t0: float, t1: float) -> List[int]:
        """Row ordinals of the time-ordered runs the window can touch."""
        if self._t_order is None:
            # _ROW is 10 little-endian doubles wide, led by t_min, t_max.
            base = self._rows_off
            cols = array("d", self._mm[base : base + self.n_rows * _ROW.size])
            if sys.byteorder == "big":
                cols.byteswap()
            t_min, t_max = cols[0::10], cols[1::10]
            order = sorted(range(self.n_rows), key=t_min.__getitem__)
            starts = range(0, self.n_rows, self._sort_rows)
            self._t_firsts = array("d", [t_min[order[lo]] for lo in starts])
            self._t_maxes = array(
                "d",
                [
                    max(map(t_max.__getitem__, order[lo : lo + self._sort_rows]))
                    for lo in starts
                ],
            )
            self._t_order = array("I", order)
        order, maxes, size = self._t_order, self._t_maxes, self._sort_rows
        # Runs past ``k`` start after t1; of the rest, skip those that end
        # before t0.
        k = bisect_right(self._t_firsts, t1)
        self.blocks_examined += k
        rows: List[int] = []
        for i in range(k):
            if maxes[i] >= t0:
                rows += order[i * size : (i + 1) * size]
        return rows

    def close(self) -> None:
        self._posting = self._order = self._sblocks = None
        self._t_order = self._t_firsts = self._t_maxes = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # A memoryview still exports the buffer (e.g. held by a
                # traceback after a validation failure, or an abandoned
                # iterator).  The map is reclaimed when the last view
                # dies; dropping our reference is enough.
                pass
            self._mm = None
        if self._file is not None:
            self._file.close()
            self._file = None


class ScannedSegment:
    """The in-memory view of a segment that has no (trusted) sidecar.

    Backed by plain Python lists, it serves the same view protocol as
    :class:`SegmentIndex` — the store's active tail lives here (appends
    mutate it), and so does any segment whose sidecar failed validation.
    """

    kind = "scan"

    def __init__(self, name: str) -> None:
        self.name = name
        self.refs: List[RecordRef] = []
        self.tombstones: List[Tuple[int, str]] = []
        self.damaged = 0
        self.rows_examined = 0
        self.blocks_examined = 0  # a scan has no blocks to test

    @property
    def n_rows(self) -> int:
        return len(self.refs)

    @property
    def total_key_points(self) -> int:
        return sum(ref.n_key_points for ref in self.refs)

    @property
    def has_unstamped(self) -> bool:
        return any(ref.utm_zone is None for ref in self.refs)

    def append_ref(self, ref: RecordRef) -> None:
        self.refs.append(ref)

    def add_tombstone(self, device_id: str) -> int:
        """Record a tombstone at the current row position; returns its
        marker (trajectory rows preceding it in this segment)."""
        marker = len(self.refs)
        self.tombstones.append((marker, device_id))
        return marker

    def verify_rows(self) -> None:  # the lists are the source of truth
        return None

    def device_summary(self) -> Dict[str, Tuple[int, int, int]]:
        out: Dict[str, List[int]] = {}
        for row, ref in enumerate(self.refs):
            stats = out.get(ref.device_id)
            if stats is None:
                out[ref.device_id] = [1, row, row]
            else:
                stats[0] += 1
                stats[2] = row
        summary = {d: tuple(s) for d, s in out.items()}
        for _, device_id in self.tombstones:
            summary.setdefault(device_id, (0, 0xFFFFFFFF, 0))
        return summary

    def envelope(self) -> Tuple[float, ...] | None:
        if not self.refs:
            return None
        return (
            min(r.t_min for r in self.refs),
            max(r.t_max for r in self.refs),
            min(r.x_min for r in self.refs),
            max(r.x_max for r in self.refs),
            min(r.y_min for r in self.refs),
            max(r.y_max for r in self.refs),
            max(_finite_eps(r.epsilon) for r in self.refs),
        )

    def stamped_zones(self) -> set:
        return {
            (r.utm_zone, r.utm_south)
            for r in self.refs
            if r.utm_zone is not None
        }

    def ref(self, row: int) -> RecordRef:
        return self.refs[row]

    def device_rows(self, device_id: str) -> Sequence[int]:
        self.rows_examined += len(self.refs)
        return [
            row
            for row, ref in enumerate(self.refs)
            if ref.device_id == device_id
        ]

    def iter_refs(
        self, lo: int = 0, hi: int | None = None
    ) -> Iterator[Tuple[int, RecordRef]]:
        if hi is None:
            hi = len(self.refs)
        for row in range(lo, min(hi, len(self.refs))):
            yield row, self.refs[row]

    def iter_candidates(
        self,
        rect: Tuple[float, float, float, float] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        zone: int | None = None,
        south: bool = False,
    ) -> Iterator[Tuple[int, RecordRef]]:
        windowed = t0 is not None
        if rect is not None:
            qx0, qy0, qx1, qy1 = rect
        self.rows_examined += len(self.refs)
        for row, ref in enumerate(self.refs):
            if windowed and not (ref.t_min <= t1 and ref.t_max >= t0):
                continue
            if zone is not None and (
                ref.utm_zone != zone or ref.utm_south != south
            ):
                continue
            if rect is not None:
                e = ref.epsilon if math.isfinite(ref.epsilon) else 0.0
                if (
                    ref.x_min - e > qx1
                    or ref.x_max + e < qx0
                    or ref.y_min - e > qy1
                    or ref.y_max + e < qy0
                ):
                    continue
            yield row, ref

    def close(self) -> None:
        return None
