"""The append-only segmented trajectory store.

:class:`TrajectoryStore` persists codec blobs in numbered segment files
under one directory, with the durability story of a write-ahead log:

* **Crash-safe appends.**  Every record is framed ``u32 payload length |
  u32 CRC-32 | payload`` and appends go to the tail of the active
  segment only.  A crash mid-write leaves a truncated or corrupt tail;
  opening the store tolerates it — the scan keeps every record up to the
  first bad frame in each segment and reports what it dropped, exactly
  the contract of a log-structured store.
* **Segment manifest.**  ``manifest.json`` names the live segment files
  and is replaced atomically (write-new + ``os.replace``), so compaction
  has a single commit point; segment files not in the manifest are
  compaction leftovers and are ignored on open, removed by the next
  :meth:`compact`.  The manifest also carries a **generation** counter,
  bumped by compaction, which lets a reader that opened before a
  compaction detect that its index went stale (:class:`StaleStoreError`)
  instead of wandering into reaped segments.
* **Persistent index sidecars.**  Sealing a segment writes a packed
  ``.idx`` sidecar (:mod:`repro.storage.index`) holding every record
  envelope, a space-ordered block table and per-device posting lists.
  Opening the store reads only ``manifest.json`` and the sidecar
  footers — O(segments), not O(records) — and serves :meth:`records` /
  :meth:`candidates` through zero-copy ``mmap`` views.  The legacy
  envelope scan remains the fallback for the unsealed tail and for any
  segment whose sidecar is missing or fails validation (the sidecar is
  regenerated after a successful scan, and by :meth:`compact` /
  :meth:`reindex`).
* **Deletes and compaction.**  :meth:`delete_device` appends a tombstone
  record; the device's earlier records drop from the index immediately
  and from disk at the next :meth:`compact`, which rewrites live records
  into fresh segments and commits via the manifest.

The store is **single-writer** (one open handle appends; any number of
processes may read sealed segments).  For a sharded fleet, give each
shard its own store directory — :func:`shard_store_sink` builds exactly
that for :class:`~repro.engine.sharded.ShardedStreamEngine`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from .. import fsio
from ..model.projection import UTMProjection
from ..model.trajectory import CompressedTrajectory
from .codec import (
    DEFAULT_T_QUANTUM,
    DEFAULT_XY_QUANTUM,
    CodecError,
    DecodedTrajectory,
    _append_uvarint,
    _encode_with_bounds,
    _read_uvarint,
    decode_trajectory,
)
from .index import (
    HEAD_CRC_BYTES,
    RecordRef,
    ScannedSegment,
    SegmentIndex,
    SidecarError,
    sidecar_path,
    write_sidecar,
)

__all__ = [
    "RecordRef",
    "StaleStoreError",
    "StoreFormatError",
    "TrajectoryStore",
    "StoreSink",
    "migrate_store",
    "shard_store_sink",
]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
# t_min t_max x_min x_max y_min y_max epsilon, then the UTM frame the
# coordinates live in: zone (0 = unstamped / already planar) and
# hemisphere.  Keeping the frame in the envelope — not just the blob
# header — lets geographic queries project a lat/lon rectangle into each
# candidate record's own zone without decoding a single blob.
_ENVELOPE = struct.Struct("<7d2B")
#: The format-1 envelope (no UTM frame bytes) — only read by migration.
_ENVELOPE_V1 = struct.Struct("<7d")

_RT_TRAJECTORY = 1
_RT_TOMBSTONE = 2

_MANIFEST = "manifest.json"
_SEGMENT_FMT = "seg-{:08d}.log"
#: On-disk store format.  2 added the UTM zone/hemisphere bytes to the
#: envelope; 3 added the manifest generation counter and the ``.idx``
#: index sidecars.  Older directories upgrade in place via
#: :func:`migrate_store` (``python -m repro.storage migrate``).
_FORMAT = 3

#: Default segment roll threshold; small enough that compaction and tail
#: damage touch bounded data, large enough that a fleet run stays in a
#: handful of files.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class StaleStoreError(RuntimeError):
    """A read hit a segment that is no longer part of the store.

    Raised when a :class:`RecordRef` (obtained before a compaction —
    possibly by another process) points into a segment the manifest no
    longer names.  When the on-disk generation has moved past this
    handle's, the store reloads its index before raising, so the caller
    can simply re-run the query on fresh refs.
    """


class StoreFormatError(ValueError):
    """The directory's on-disk format is one this build cannot serve.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    handling keeps working; the message names the found and supported
    formats and the migration command.
    """


class TrajectoryStore:
    """Append-only segmented store of encoded compressed trajectories."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
        index_sidecars: bool = True,
    ) -> None:
        if segment_max_bytes < 4096:
            raise ValueError(
                f"segment_max_bytes must be >= 4096, got {segment_max_bytes!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_max_bytes = segment_max_bytes
        self._fsync = fsync
        #: ``False`` disables the sidecar fast path entirely: never read,
        #: trust, or write ``.idx`` files — every segment is envelope-
        #: scanned exactly like the pre-sidecar store.  The
        #: ``scale-smoke`` scan baseline and the index-parity tests run
        #: through this.
        self._index_sidecars = index_sidecars
        self._segments: List[str] = []
        self._views: list = []  # SegmentIndex | ScannedSegment, per segment
        self._seg_pos: Dict[str, int] = {}
        #: device -> (segment position, row marker) of its most recent
        #: tombstone; a record at (pos, row) < marker is dead.
        self._max_tomb: Dict[str, Tuple[int, int]] = {}
        self._next_segment = 1
        self._generation = 0
        self._handle = None
        self._active: str | None = None
        self._active_size = 0
        self._tail_dirty = False
        self._read_handle = None
        self._read_segment: str | None = None
        self._closed = False
        #: Records dropped by the open scan: damaged tail bytes (count)
        #: per segment — non-empty after recovering from a crash.  A
        #: sidecar preserves the count, so reopening from the index
        #: reports the same recovery state the scan did.
        self.scan_report: Dict[str, int] = {}
        self._load()

    # -- opening -------------------------------------------------------------

    def _load(self) -> None:
        manifest_path = self.directory / _MANIFEST
        if manifest_path.exists():
            with open(manifest_path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            fmt = int(doc.get("format", 1))
            if fmt != _FORMAT:
                raise StoreFormatError(
                    f"{self.directory}: store format {fmt} is not supported "
                    f"(this build reads/writes format {_FORMAT}; run "
                    "`python -m repro.storage migrate` to upgrade in place)"
                )
            self._segments = [
                name for name in doc.get("segments", [])
                if (self.directory / name).exists()
            ]
            self._next_segment = int(doc.get("next_segment", 1))
            self._generation = int(doc.get("generation", 0))
        else:
            self._segments = sorted(
                p.name for p in self.directory.glob("seg-*.log")
            )
            if self._segments:
                self._next_segment = (
                    int(self._segments[-1][4:-4], 10) + 1
                )
        last = len(self._segments) - 1
        for i, name in enumerate(self._segments):
            view = None
            if self._index_sidecars:
                view = self._open_sidecar(name, active=(i == last))
            if view is None:
                view = self._scan_segment(name)
                if self._index_sidecars and i != last:
                    # Sealed segment with no usable sidecar: regenerate it
                    # from the scan so the next open is lazy again.  The
                    # unsealed tail gets its sidecar at seal/close time.
                    self._regenerate_sidecar(view)
            if view.damaged:
                self.scan_report[name] = view.damaged
            self._views.append(view)
        self._seg_pos = {name: i for i, name in enumerate(self._segments)}
        self._rebuild_tombstones()
        if self._segments:
            self._active = self._segments[-1]
            self._active_size = (self.directory / self._active).stat().st_size
            self._tail_dirty = self._views[-1].kind == "scan"

    def _open_sidecar(self, name: str, *, active: bool):
        """A validated :class:`SegmentIndex` for one segment, or ``None``.

        Sealed segments are trusted on exact log size plus a CRC of the
        log's first 4 KiB (payloads are re-CRC'd on every read).  The
        *active* segment — the only one a crash can have damaged since
        the sidecar was written — must match a CRC of its full content.
        """
        log_path = self.directory / name
        idx = None
        try:
            size = log_path.stat().st_size
            idx = SegmentIndex.open(
                sidecar_path(self.directory, name),
                segment_name=name,
                expected_size=size,
            )
            if active:
                if zlib.crc32(log_path.read_bytes()) != idx.log_crc:
                    raise SidecarError(f"{name}: log content changed")
            else:
                with open(log_path, "rb") as handle:
                    head = handle.read(HEAD_CRC_BYTES)
                if zlib.crc32(head) != idx.head_crc:
                    raise SidecarError(f"{name}: log head changed")
            return idx
        except (SidecarError, OSError):
            if idx is not None:
                idx.close()
            return None

    def _scan_segment(self, name: str) -> ScannedSegment:
        """The legacy open path: parse every envelope out of the log."""
        path = self.directory / name
        with open(path, "rb") as handle:
            data = handle.read()
        view = ScannedSegment(name)
        pos = 0
        end = len(data)
        while pos + _FRAME.size <= end:
            length, crc = _FRAME.unpack_from(data, pos)
            if length == 0:
                break  # zeroed tail (crc32(b"") == 0 would pass the check)
            payload_start = pos + _FRAME.size
            payload_end = payload_start + length
            if payload_end > end:
                break  # truncated tail: a crash mid-append
            payload = data[payload_start:payload_end]
            if zlib.crc32(payload) != crc:
                break  # corrupt tail: stop trusting this segment here
            try:
                self._index_payload(view, pos, _FRAME.size + length, payload)
            except (CodecError, IndexError, UnicodeDecodeError):
                # Unparseable envelope (CRC collisions are possible on
                # arbitrary damage): treat like a bad frame.
                break
            pos = payload_end
        if pos < end:
            view.damaged = end - pos
        return view

    @staticmethod
    def _index_payload(
        view: ScannedSegment, offset: int, length: int, payload: bytes
    ) -> None:
        rtype = payload[0]
        id_len, p = _read_uvarint(payload, 1)
        device_id = payload[p : p + id_len].decode("utf-8")
        p += id_len
        if rtype == _RT_TOMBSTONE:
            view.add_tombstone(device_id)
            return
        if rtype != _RT_TRAJECTORY:
            raise CodecError(f"unknown record type {rtype}")
        if p + _ENVELOPE.size > len(payload):
            raise CodecError("truncated envelope")
        t_min, t_max, x_min, x_max, y_min, y_max, epsilon, zone, south = (
            _ENVELOPE.unpack_from(payload, p)
        )
        p += _ENVELOPE.size
        if zone > 60:
            raise CodecError(f"UTM zone out of range: {zone}")
        n_keys, p = _read_uvarint(payload, p)
        view.append_ref(
            RecordRef(
                device_id=device_id,
                segment=view.name,
                offset=offset,
                length=length,
                n_key_points=n_keys,
                t_min=t_min,
                t_max=t_max,
                x_min=x_min,
                x_max=x_max,
                y_min=y_min,
                y_max=y_max,
                epsilon=epsilon,
                utm_zone=zone if zone else None,
                utm_south=bool(south),
            )
        )

    def _rebuild_tombstones(self) -> None:
        self._max_tomb = {}
        for si, view in enumerate(self._views):
            for marker, device_id in view.tombstones:
                self._max_tomb[device_id] = (si, marker)

    # -- sidecar upkeep ------------------------------------------------------

    def _log_crcs(self, name: str) -> Tuple[int, int, int]:
        """``(log_crc, head_crc, size)`` of a segment log on disk."""
        data = (self.directory / name).read_bytes()
        return zlib.crc32(data), zlib.crc32(data[:HEAD_CRC_BYTES]), len(data)

    def _regenerate_sidecar(self, view: ScannedSegment) -> None:
        """Best-effort sidecar (re)write from a scanned view."""
        if not self._index_sidecars:
            return
        try:
            log_crc, head_crc, size = self._log_crcs(view.name)
            write_sidecar(
                sidecar_path(self.directory, view.name),
                view.name,
                view.refs,
                view.tombstones,
                segment_size=size,
                log_crc=log_crc,
                head_crc=head_crc,
                damaged=view.damaged,
                fsync=self._fsync,
            )
        except OSError:
            pass  # a sidecar is an accelerator; the log stays authoritative

    def _seal_tail(self) -> None:
        """Write the active segment's sidecar (called on roll and close)."""
        if not self._index_sidecars or not self._tail_dirty or not self._views:
            return
        if self._handle is not None:
            self._handle.flush()
        view = self._views[-1]
        if view.kind == "scan":
            self._regenerate_sidecar(view)
        self._tail_dirty = False

    def _checked_view(self, si: int):
        """The segment view, with its row region verified once.

        A sidecar whose row region fails its (lazy) CRC is dropped on the
        spot: the segment is rescanned from the log — the source of truth
        — and the sidecar rewritten, so corruption costs a scan, never an
        answer.
        """
        view = self._views[si]
        if view.kind == "sidecar":
            try:
                view.verify_rows()
            except (SidecarError, OSError):
                view.close()
                fallback = self._scan_segment(self._segments[si])
                if fallback.damaged:
                    self.scan_report[fallback.name] = fallback.damaged
                if si != len(self._views) - 1:
                    self._regenerate_sidecar(fallback)
                else:
                    self._tail_dirty = True
                self._views[si] = fallback
                view = fallback
        return view

    def _materialize_tail(self) -> None:
        """Make the tail view list-backed before the first append to it."""
        if not self._views:
            return
        view = self._checked_view(len(self._views) - 1)
        if view.kind == "scan":
            return
        tail = ScannedSegment(view.name)
        tail.refs = [ref for _, ref in view.iter_refs()]
        tail.tombstones = list(view.tombstones)
        tail.damaged = view.damaged
        view.close()
        self._views[-1] = tail

    def _ensure_open(self) -> None:
        if self._closed:
            # Use-after-close is caller lifecycle misuse (a bug in the
            # calling code), not a data-plane failure to route on — a
            # deliberately untyped error.
            # repro: ignore[RA04] lifecycle misuse by the caller, not a routable data-plane failure
            raise RuntimeError("store is closed")

    def reindex(self) -> int:
        """Rescan every segment log and rewrite its sidecar; returns how
        many sidecars were written.  The logs are the source of truth, so
        this repairs any amount of sidecar damage or staleness."""
        self._ensure_open()
        self.flush()
        count = 0
        for si, name in enumerate(self._segments):
            view = self._scan_segment(name)
            if view.damaged:
                self.scan_report[name] = view.damaged
            log_crc, head_crc, size = self._log_crcs(name)
            write_sidecar(
                sidecar_path(self.directory, name),
                name,
                view.refs,
                view.tombstones,
                segment_size=size,
                log_crc=log_crc,
                head_crc=head_crc,
                damaged=view.damaged,
                fsync=self._fsync,
            )
            self._views[si].close()
            self._views[si] = view
            count += 1
        self._rebuild_tombstones()
        self._tail_dirty = False
        return count

    def index_report(self) -> Dict[str, int]:
        """How much of the store is served from sidecars right now."""
        sidecar_segments = sum(
            1 for v in self._views if v.kind == "sidecar"
        )
        sidecar_rows = sum(
            v.n_rows for v in self._views if v.kind == "sidecar"
        )
        return {
            "segments": len(self._views),
            "sidecar_segments": sidecar_segments,
            "scanned_segments": len(self._views) - sidecar_segments,
            "rows": sum(v.n_rows for v in self._views),
            "sidecar_rows": sidecar_rows,
            # What the queries so far cost, counted rather than timed.
            "rows_examined": sum(v.rows_examined for v in self._views),
            "blocks_examined": sum(v.blocks_examined for v in self._views),
        }

    # -- writing -------------------------------------------------------------

    def _write_manifest(self) -> None:
        tmp = self.directory / (_MANIFEST + ".tmp")
        try:
            with fsio.open_file(tmp, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "format": _FORMAT,
                        "segments": self._segments,
                        "next_segment": self._next_segment,
                        "generation": self._generation,
                    },
                    handle,
                )
                handle.write("\n")
                if self._fsync:
                    handle.flush()
                    fsio.fsync(handle.fileno())
            fsio.replace(tmp, self.directory / _MANIFEST)
        except OSError:
            # A failed write (ENOSPC mid-dump) must not leave a stale
            # ``manifest.json.tmp`` shadowing the next commit attempt.
            try:
                fsio.unlink(tmp)
            except OSError:
                pass
            raise

    def _open_segment(self) -> None:
        self._seal_tail()
        name = _SEGMENT_FMT.format(self._next_segment)
        self._next_segment += 1
        self._segments.append(name)
        # Commit the segment to the manifest before any record lands in it,
        # so a crash can never leave indexed-but-unlisted data.
        self._write_manifest()
        # "wb", not "ab": a crashed compaction can leave an orphan file
        # under this name (written but never committed to the manifest);
        # appending would land new frames behind its stale ones while the
        # offset accounting starts at zero.  Truncate whatever is there,
        # and drop any orphan sidecar with it.
        self._handle = fsio.open_file(self.directory / name, "wb")
        idx_orphan = sidecar_path(self.directory, name)
        if idx_orphan.exists():
            idx_orphan.unlink()
        self._active = name
        self._active_size = 0
        self._views.append(ScannedSegment(name))
        self._seg_pos[name] = len(self._segments) - 1
        self._tail_dirty = True

    def _ensure_writable(self) -> None:
        self._ensure_open()
        if self._handle is None:
            # A segment whose tail was damaged is sealed: bytes appended
            # after the bad frame would be unreachable to the open scan,
            # which stops at the first unreadable record.  Roll instead.
            if (
                self._active is not None
                and self._active_size < self._segment_max_bytes
                and self._active not in self.scan_report
            ):
                self._materialize_tail()
                self._handle = fsio.open_file(self.directory / self._active, "ab")
                self._tail_dirty = True
            else:
                self._open_segment()
        elif self._active_size >= self._segment_max_bytes:
            self._handle.close()
            self._handle = None
            self._open_segment()

    def _append_frame(self, payload: bytes) -> Tuple[str, int, int]:
        self._ensure_writable()
        offset = self._active_size
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        self._handle.write(frame)
        self._handle.write(payload)
        self._handle.flush()
        if self._fsync:
            fsio.fsync(self._handle.fileno())
        self._active_size += len(frame) + len(payload)
        return self._active, offset, len(frame) + len(payload)

    def append(
        self,
        device_id: str,
        trajectory: CompressedTrajectory,
        *,
        xy_quantum: float = DEFAULT_XY_QUANTUM,
        t_quantum: float = DEFAULT_T_QUANTUM,
        projection: UTMProjection | None = None,
    ) -> RecordRef:
        """Encode and append one trajectory; returns its index entry.

        The envelope is computed from the *quantized* coordinates, so the
        index agrees exactly with what :meth:`read` will decode.  The UTM
        frame — ``projection`` when given, else the trajectory's own
        ``frame`` (stamped by the geodetic engine) — goes into both the
        blob header and the index envelope.
        """
        n_keys = len(trajectory)
        if not n_keys:
            raise ValueError("cannot store an empty trajectory (no key points)")
        if projection is None:
            projection = trajectory.frame
        blob, bounds = _encode_with_bounds(
            trajectory,
            xy_quantum=xy_quantum,
            t_quantum=t_quantum,
            projection=projection,
        )
        # The envelope comes from the same quantization pass that produced
        # the bytes, so index and decoded coordinates agree exactly.
        t_min = bounds[0] * t_quantum
        t_max = bounds[1] * t_quantum
        x_min = bounds[2] * xy_quantum
        x_max = bounds[3] * xy_quantum
        y_min = bounds[4] * xy_quantum
        y_max = bounds[5] * xy_quantum

        device_bytes = device_id.encode("utf-8")
        payload = bytearray()
        payload.append(_RT_TRAJECTORY)
        _append_uvarint(payload, len(device_bytes))
        payload += device_bytes
        payload += _ENVELOPE.pack(
            t_min,
            t_max,
            x_min,
            x_max,
            y_min,
            y_max,
            trajectory.tolerance,
            projection.zone if projection is not None else 0,
            1 if projection is not None and projection.south else 0,
        )
        _append_uvarint(payload, n_keys)
        _append_uvarint(payload, len(blob))
        payload += blob

        segment, offset, length = self._append_frame(bytes(payload))
        ref = RecordRef(
            device_id=device_id,
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
            epsilon=trajectory.tolerance,
            utm_zone=projection.zone if projection is not None else None,
            utm_south=projection.south if projection is not None else False,
        )
        self._views[-1].append_ref(ref)
        self._tail_dirty = True
        return ref

    def delete_device(self, device_id: str) -> int:
        """Tombstone a device: drop its records from the index now, from
        disk at the next :meth:`compact`.  Returns how many records died."""
        dead = len(self.device_manifest(device_id))
        payload = bytearray()
        payload.append(_RT_TOMBSTONE)
        device_bytes = device_id.encode("utf-8")
        _append_uvarint(payload, len(device_bytes))
        payload += device_bytes
        self._append_frame(bytes(payload))
        marker = self._views[-1].add_tombstone(device_id)
        self._max_tomb[device_id] = (len(self._views) - 1, marker)
        self._tail_dirty = True
        return dead

    # -- reading -------------------------------------------------------------

    @staticmethod
    def _parse_frame(frame: bytes, ref: RecordRef) -> bytes:
        if len(frame) != ref.length:
            raise CodecError(
                f"{ref.segment}@{ref.offset}: record extends past segment end"
            )
        length, crc = _FRAME.unpack_from(frame, 0)
        payload = frame[_FRAME.size :]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise CodecError(f"{ref.segment}@{ref.offset}: CRC mismatch")
        return payload

    def _close_read_handle(self) -> None:
        if self._read_handle is not None:
            self._read_handle.close()
            self._read_handle = None
            self._read_segment = None

    def _raise_stale(self, ref: RecordRef) -> None:
        """The ref's segment is gone: decide whether *we* are the stale
        party (another process compacted under us) and recover."""
        disk_generation = self._generation
        try:
            with open(self.directory / _MANIFEST, "r", encoding="utf-8") as f:
                disk_generation = int(json.load(f).get("generation", 0))
        except (OSError, ValueError):
            pass
        if disk_generation != self._generation:
            self.reload()
            raise StaleStoreError(
                f"{ref.segment}@{ref.offset}: the store was compacted "
                f"(generation {self._generation}, this index entry predates "
                "it); the index has been reloaded — re-run the query"
            )
        raise StaleStoreError(
            f"{ref.segment}@{ref.offset}: segment is no longer part of "
            "the store (reaped by compaction)"
        )

    def _read_payload(self, ref: RecordRef) -> bytes:
        # Cache the open segment across reads: exact-mode range queries and
        # iter_decoded() visit many records per segment, and one open/seek
        # per record would dominate their cost.  Staleness (a ref issued
        # before a compaction, here or in another process) is detected at
        # cache misses — the only point a reaped segment can newly enter
        # the read path.
        if ref.segment != self._read_segment:
            self._close_read_handle()
            if ref.segment not in self._seg_pos:
                self._raise_stale(ref)
            try:
                self._read_handle = open(self.directory / ref.segment, "rb")
            except FileNotFoundError:
                self._raise_stale(ref)
            self._read_segment = ref.segment
        self._read_handle.seek(ref.offset)
        frame = self._read_handle.read(ref.length)
        return self._parse_frame(frame, ref)

    def read(self, ref: RecordRef) -> DecodedTrajectory:
        """Decode the stored trajectory behind an index entry."""
        payload = self._read_payload(ref)
        id_len, p = _read_uvarint(payload, 1)
        p += id_len + _ENVELOPE.size
        n_keys, p = _read_uvarint(payload, p)
        blob_len, p = _read_uvarint(payload, p)
        return decode_trajectory(payload[p : p + blob_len])

    def reload(self) -> None:
        """Drop the in-memory index and re-open from the current manifest
        (used after another process compacts the directory)."""
        self._ensure_open()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._close_read_handle()
        for view in self._views:
            view.close()
        self._segments = []
        self._views = []
        self._seg_pos = {}
        self._max_tomb = {}
        self._next_segment = 1
        self._generation = 0
        self._active = None
        self._active_size = 0
        self._tail_dirty = False
        self.scan_report = {}
        self._load()

    def _is_dead(self, si: int, row: int, device_id: str) -> bool:
        pos = self._max_tomb.get(device_id)
        return pos is not None and (si, row) < pos

    def _iter_live(self) -> Iterator[RecordRef]:
        tomb = self._max_tomb
        for si in range(len(self._views)):
            view = self._checked_view(si)
            for row, ref in view.iter_refs():
                if tomb:
                    pos = tomb.get(ref.device_id)
                    if pos is not None and (si, row) < pos:
                        continue
                yield ref

    def candidates(
        self,
        *,
        rect: Tuple[float, float, float, float] | None = None,
        t0: float | None = None,
        t1: float | None = None,
        zone: int | None = None,
        south: bool = False,
    ) -> Iterator[RecordRef]:
        """Live records passing the envelope screen, in append order.

        This is the query layer's candidate source: the per-row test (time
        overlap, then the ε-expanded bounding-box test) is identical to
        screening ``records()`` by hand, but runs over the mmap'd sidecar
        rows with segment and block pruning, so it materializes a
        :class:`RecordRef` only per *candidate*, not per record.
        """
        tomb = self._max_tomb
        for si in range(len(self._views)):
            view = self._checked_view(si)
            for row, ref in view.iter_candidates(
                rect=rect, t0=t0, t1=t1, zone=zone, south=south
            ):
                if tomb:
                    pos = tomb.get(ref.device_id)
                    if pos is not None and (si, row) < pos:
                        continue
                yield ref

    def records(self) -> List[RecordRef]:
        """Every live record, in append order."""
        return list(self._iter_live())

    def device_manifest(self, device_id: str) -> List[RecordRef]:
        """One device's live records, in append order."""
        out: List[RecordRef] = []
        pos = self._max_tomb.get(device_id)
        for si in range(len(self._views)):
            summary = self._views[si].device_summary().get(device_id)
            if summary is None or summary[0] == 0:
                continue
            if pos is not None and (si, summary[2]) < pos:
                continue  # every row of this device here predates the tomb
            view = self._checked_view(si)
            for row in view.device_rows(device_id):
                if pos is None or (si, row) >= pos:
                    out.append(view.ref(row))
        return out

    def devices(self) -> List[str]:
        """Device ids with at least one live record, in order of first
        live appearance."""
        if not self._max_tomb:
            out: List[str] = []
            seen: Set[str] = set()
            for view in self._views:
                for device_id, summary in view.device_summary().items():
                    if summary[0] and device_id not in seen:
                        seen.add(device_id)
                        out.append(device_id)
            return out
        out = []
        seen = set()
        for ref in self._iter_live():
            if ref.device_id not in seen:
                seen.add(ref.device_id)
                out.append(ref.device_id)
        return out

    def iter_decoded(self) -> Iterator[Tuple[RecordRef, DecodedTrajectory]]:
        """Decode every live record, in append order."""
        for ref in self._iter_live():
            yield ref, self.read(ref)

    def stamped_frames(self) -> Set[Tuple[int, bool]]:
        """Every ``(zone, south)`` UTM frame stamped on stored records (a
        superset of the *live* frames when tombstones are pending)."""
        zones: Set[Tuple[int, bool]] = set()
        for view in self._views:
            zones |= view.stamped_zones()
        return zones

    # -- stats ---------------------------------------------------------------

    @property
    def record_count(self) -> int:
        total = sum(view.n_rows for view in self._views)
        if not self._max_tomb:
            return total
        return total - self._dead_count()

    def _dead_count(self) -> int:
        dead = 0
        for device_id, (tsi, marker) in self._max_tomb.items():
            for si in range(tsi + 1):
                summary = self._views[si].device_summary().get(device_id)
                if summary is None or summary[0] == 0:
                    continue
                n, first, last = summary
                if si < tsi or marker > last:
                    dead += n
                elif marker > first:
                    rows = self._checked_view(si).device_rows(device_id)
                    dead += bisect_left(rows, marker)
        return dead

    @property
    def key_point_count(self) -> int:
        if not self._max_tomb:
            return sum(view.total_key_points for view in self._views)
        return sum(ref.n_key_points for ref in self._iter_live())

    @property
    def segment_names(self) -> List[str]:
        return list(self._segments)

    @property
    def generation(self) -> int:
        """The manifest's compaction-generation counter (bumped by each
        :meth:`compact`; stale readers detect it via
        :class:`StaleStoreError`)."""
        return self._generation

    def total_bytes(self) -> int:
        """Bytes on disk across live segment files."""
        total = 0
        for name in self._segments:
            path = self.directory / name
            if path.exists():
                total += path.stat().st_size
        return total

    def content_digest(self) -> str:
        """SHA-256 over every live record's payload, in per-device append
        order — a physical-layout-independent fingerprint of the store's
        *content*: two stores hold byte-identical trajectories exactly
        when their digests match, regardless of segment boundaries or
        compactions.  The crash harness and ``tests/test_digest_pins.py``
        pin recovery correctness and ingest output on it.
        """
        import hashlib

        h = hashlib.sha256()
        for device_id in sorted(self.devices()):
            h.update(device_id.encode("utf-8", "surrogatepass"))
            h.update(b"\x00")
            for ref in self.device_manifest(device_id):
                payload = self._read_payload(ref)
                h.update(_FRAME.pack(len(payload), zlib.crc32(payload)))
                h.update(payload)
        return h.hexdigest()

    def time_span(self) -> Tuple[float, float] | None:
        if not self._max_tomb:
            lo, hi = None, None
            for view in self._views:
                env = view.envelope()
                if env is None:
                    continue
                lo = env[0] if lo is None or env[0] < lo else lo
                hi = env[1] if hi is None or env[1] > hi else hi
            return None if lo is None else (lo, hi)
        spans = [(ref.t_min, ref.t_max) for ref in self._iter_live()]
        if not spans:
            return None
        return (min(s[0] for s in spans), max(s[1] for s in spans))

    def bbox(self) -> Tuple[float, float, float, float] | None:
        if not self._max_tomb:
            box = None
            for view in self._views:
                env = view.envelope()
                if env is None:
                    continue
                if box is None:
                    box = [env[2], env[4], env[3], env[5]]
                else:
                    box[0] = min(box[0], env[2])
                    box[1] = min(box[1], env[4])
                    box[2] = max(box[2], env[3])
                    box[3] = max(box[3], env[5])
            return None if box is None else tuple(box)
        refs = [ref for ref in self._iter_live()]
        if not refs:
            return None
        return (
            min(ref.x_min for ref in refs),
            min(ref.y_min for ref in refs),
            max(ref.x_max for ref in refs),
            max(ref.y_max for ref in refs),
        )

    # -- compaction ----------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Rewrite live records into fresh segments; drop dead data.

        Live records are re-framed (in append order) into new segment
        files — each with its index sidecar — the manifest is atomically
        repointed at them with a bumped generation, and the old files
        (log and sidecar alike, plus any orphans a crashed compaction
        left behind) are deleted.  Returns ``{"records": live,
        "bytes_before": ..., "bytes_after": ...}``.
        """
        self._ensure_open()
        bytes_before = self.total_bytes()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        # The cached read handle may point at a segment about to die.
        self._close_read_handle()
        old_segments = list(self._segments)

        # Re-frame every live record into new segments, streaming record
        # by record (bounded memory) with the source segment handle cached
        # across the run (records are indexed in append order, so source
        # segments are visited consecutively).
        new_segments: List[str] = []
        new_views: List[ScannedSegment] = []
        handle = None
        size = 0
        src_name: str | None = None
        src_handle = None
        try:
            for ref in self._iter_live():
                if ref.segment != src_name:
                    if src_handle is not None:
                        src_handle.close()
                    src_name = ref.segment
                    src_handle = open(self.directory / src_name, "rb")
                src_handle.seek(ref.offset)
                payload = self._parse_frame(
                    src_handle.read(ref.length), ref
                )
                if handle is None or size >= self._segment_max_bytes:
                    if handle is not None:
                        handle.flush()
                        handle.close()
                    name = _SEGMENT_FMT.format(self._next_segment)
                    self._next_segment += 1
                    new_segments.append(name)
                    new_views.append(ScannedSegment(name))
                    # "wb" truncates an orphan from an earlier crashed
                    # compaction that reused this segment number.
                    handle = fsio.open_file(self.directory / name, "wb")
                    size = 0
                frame = _FRAME.pack(len(payload), zlib.crc32(payload))
                offset = size
                handle.write(frame)
                handle.write(payload)
                size += len(frame) + len(payload)
                new_views[-1].append_ref(
                    RecordRef(
                        device_id=ref.device_id,
                        segment=new_segments[-1],
                        offset=offset,
                        length=len(frame) + len(payload),
                        n_key_points=ref.n_key_points,
                        t_min=ref.t_min,
                        t_max=ref.t_max,
                        x_min=ref.x_min,
                        x_max=ref.x_max,
                        y_min=ref.y_min,
                        y_max=ref.y_max,
                        epsilon=ref.epsilon,
                        utm_zone=ref.utm_zone,
                        utm_south=ref.utm_south,
                    )
                )
            if handle is not None:
                handle.flush()
                if self._fsync:
                    fsio.fsync(handle.fileno())
                handle.close()
                handle = None
        finally:
            if src_handle is not None:
                src_handle.close()
            if handle is not None:
                handle.close()

        # Every new segment gets its sidecar before the commit point, so
        # the compacted store opens lazily from the first reopen on.
        for view in new_views:
            self._regenerate_sidecar(view)

        # Commit point: the manifest now names only the new segments, at
        # the next generation (stale-reader detection).
        self._segments = new_segments
        self._generation += 1
        self._write_manifest()

        # Rebuild the index over the new layout.
        for view in self._views:
            view.close()
        self._views = list(new_views)
        self._seg_pos = {name: i for i, name in enumerate(new_segments)}
        self._max_tomb = {}
        self._active = new_segments[-1] if new_segments else None
        self._active_size = (
            (self.directory / self._active).stat().st_size
            if self._active is not None
            else 0
        )
        self._tail_dirty = False

        # Old segments (and any orphans from earlier crashes) are dead —
        # logs and sidecars both.
        live = set(new_segments)
        for path in self.directory.glob("seg-*.log"):
            if path.name not in live:
                path.unlink()
        for path in self.directory.glob("seg-*.idx"):
            if path.with_suffix(".log").name not in live:
                path.unlink()
        for name in old_segments:
            self.scan_report.pop(name, None)
        return {
            "records": sum(v.n_rows for v in new_views),
            "bytes_before": bytes_before,
            "bytes_after": self.total_bytes(),
        }

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._fsync:
                fsio.fsync(self._handle.fileno())

    def close(self) -> None:
        self._seal_tail()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._close_read_handle()
        for view in self._views:
            view.close()
        self._closed = True

    def __enter__(self) -> "TrajectoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return self.record_count

    def __repr__(self) -> str:
        return (
            f"TrajectoryStore({str(self.directory)!r}, "
            f"records={self.record_count}, segments={len(self._segments)})"
        )


# -- migration ----------------------------------------------------------------


def migrate_store(
    directory: str | os.PathLike,
    *,
    segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> Dict[str, int]:
    """Upgrade a store directory to the current format, in place.

    * **format 1** (no UTM frame in the envelope): every record payload is
      rewritten with zone 0 / north (the honest stamp — those stores were
      ingested from already-planar fixes) into fresh segment files, the
      manifest is atomically repointed, and the old segments deleted.
      Damaged tails are dropped, exactly as an open would have dropped
      them.
    * **format 2**: the record bytes are already current; the manifest is
      rewritten with the generation counter.
    * **current format**: nothing to convert.

    In every case the migration finishes by writing an index sidecar for
    each segment, so the migrated store opens lazily.  Unknown formats
    are refused with a clear error.  Returns a summary dict.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ValueError(
            f"{directory}: no {_MANIFEST} — cannot determine the store "
            "format (not a store, or one predating manifests; re-ingest)"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    fmt = int(doc.get("format", 1))
    dropped = 0
    if fmt == _FORMAT:
        pass
    elif fmt == 2:
        doc["format"] = _FORMAT
        doc.setdefault("generation", 0)
        _atomic_manifest(directory, doc)
    elif fmt == 1:
        dropped = _migrate_format1(directory, doc, segment_max_bytes)
    else:
        raise StoreFormatError(
            f"{directory}: store format {fmt} is not supported by migrate "
            f"(known formats: 1, 2, {_FORMAT})"
        )
    with TrajectoryStore(directory) as store:
        sidecars = store.reindex()
        return {
            "from_format": fmt,
            "migrated": int(fmt != _FORMAT),
            "records": store.record_count,
            "segments": len(store.segment_names),
            "sidecars": sidecars,
            "dropped_bytes": dropped,
        }


def _atomic_manifest(directory: Path, doc: dict) -> None:
    tmp = directory / (_MANIFEST + ".tmp")
    try:
        with fsio.open_file(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")
            handle.flush()
            fsio.fsync(handle.fileno())
        fsio.replace(tmp, directory / _MANIFEST)
    except OSError:
        try:
            fsio.unlink(tmp)
        except OSError:
            pass
        raise


def _migrate_format1(
    directory: Path, doc: dict, segment_max_bytes: int
) -> int:
    """Rewrite format-1 segments as format-2/3 payloads; returns dropped
    (unreadable) byte count."""
    old_segments = [
        name
        for name in doc.get("segments", [])
        if (directory / name).exists()
    ]
    next_segment = int(doc.get("next_segment", 1))
    new_segments: List[str] = []
    handle = None
    size = 0
    dropped = 0

    def roll():
        nonlocal handle, size, next_segment
        if handle is not None:
            handle.flush()
            fsio.fsync(handle.fileno())
            handle.close()
        name = _SEGMENT_FMT.format(next_segment)
        next_segment += 1
        new_segments.append(name)
        handle = fsio.open_file(directory / name, "wb")
        size = 0

    try:
        for name in old_segments:
            with open(directory / name, "rb") as src:
                data = src.read()
            pos = 0
            end = len(data)
            while pos + _FRAME.size <= end:
                length, crc = _FRAME.unpack_from(data, pos)
                if length == 0:
                    break
                payload_start = pos + _FRAME.size
                payload_end = payload_start + length
                if payload_end > end:
                    break
                payload = data[payload_start:payload_end]
                if zlib.crc32(payload) != crc:
                    break
                try:
                    new_payload = _upgrade_v1_payload(payload)
                except (CodecError, IndexError, UnicodeDecodeError):
                    break
                if handle is None or size >= segment_max_bytes:
                    roll()
                frame = _FRAME.pack(
                    len(new_payload), zlib.crc32(new_payload)
                )
                handle.write(frame)
                handle.write(new_payload)
                size += len(frame) + len(new_payload)
                pos = payload_end
            if pos < end:
                dropped += end - pos
    finally:
        if handle is not None:
            handle.flush()
            fsio.fsync(handle.fileno())
            handle.close()

    _atomic_manifest(
        directory,
        {
            "format": _FORMAT,
            "segments": new_segments,
            "next_segment": next_segment,
            "generation": 0,
        },
    )
    live = set(new_segments)
    for path in directory.glob("seg-*.log"):
        if path.name not in live:
            path.unlink()
    for path in directory.glob("seg-*.idx"):
        path.unlink()
    return dropped


def _upgrade_v1_payload(payload: bytes) -> bytes:
    """One format-1 payload re-encoded with the zone/hemisphere bytes."""
    rtype = payload[0]
    id_len, p = _read_uvarint(payload, 1)
    payload[p : p + id_len].decode("utf-8")  # validate like the open scan
    p += id_len
    if rtype == _RT_TOMBSTONE:
        return payload  # identical layout in every format
    if rtype != _RT_TRAJECTORY:
        raise CodecError(f"unknown record type {rtype}")
    env_end = p + _ENVELOPE_V1.size
    if env_end > len(payload):
        raise CodecError("truncated envelope")
    # Splice the two new envelope bytes (zone 0 = unstamped, north) in
    # after the 7 doubles; everything else is byte-compatible.
    return payload[:env_end] + b"\x00\x00" + payload[env_end:]


class StoreSink:
    """A :class:`~repro.engine.sinks.Sink` that persists sealed streams.

    Every trajectory the engine seals — explicitly or by eviction — is
    encoded with the binary codec and appended to the store the moment it
    arrives, so a fleet run streams to disk with nothing retained in
    memory (pair with ``collect=False``).  Pass a directory to let the
    sink own (open and close) its store, or an open
    :class:`TrajectoryStore` to share one the caller manages.

    Zone stamping needs no configuration: trajectories sealed by the
    geodetic engine carry their UTM frame, and :meth:`TrajectoryStore.
    append` writes it into the blob and the index envelope.  An explicit
    ``projection=`` overrides the per-trajectory frames (for streams whose
    planar coordinates are known to share one zone).

    Device ids are stringified on write: the store keys records by UTF-8
    string, which round-trips the engine's string ids unchanged.
    """

    #: Deliveries survive a crash — recovery replay must not repeat them
    #: (volatile sinks are re-delivered instead; see ``EmitGate``).
    durable = True

    def __init__(
        self,
        store: TrajectoryStore | str | os.PathLike,
        *,
        xy_quantum: float = DEFAULT_XY_QUANTUM,
        t_quantum: float = DEFAULT_T_QUANTUM,
        projection: UTMProjection | None = None,
    ) -> None:
        self._owns = not isinstance(store, TrajectoryStore)
        self._store = (
            TrajectoryStore(store) if self._owns else store
        )
        self._xy_quantum = xy_quantum
        self._t_quantum = t_quantum
        self._projection = projection
        self.emitted = 0
        self.skipped_empty = 0

    @property
    def store(self) -> TrajectoryStore:
        return self._store

    def emit(self, device_id, trajectory: CompressedTrajectory) -> None:
        if not len(trajectory):
            self.skipped_empty += 1
            return
        self._store.append(
            device_id if isinstance(device_id, str) else str(device_id),
            trajectory,
            xy_quantum=self._xy_quantum,
            t_quantum=self._t_quantum,
            projection=self._projection,
        )
        self.emitted += 1

    def close(self) -> None:
        if self._owns:
            self._store.close()
        else:
            self._store.flush()


def shard_store_sink(base_directory: str, shard: int) -> StoreSink:
    """Per-shard sink factory for the sharded engine.

    The store is single-writer, so every worker gets its own directory:
    ``functools.partial(shard_store_sink, "/data/fleet")`` is picklable
    and, called as ``factory(shard)`` inside worker *i*, opens
    ``/data/fleet/shard-000i``.
    """
    return StoreSink(Path(base_directory) / f"shard-{shard:04d}")
