"""Shared-memory ring transport: the sharded engine's data plane.

The parent writes length-prefixed columnar frames straight into a
per-worker ``multiprocessing.shared_memory`` ring buffer, and only a tiny
doorbell message ``("frame", seq, offset, length)`` crosses the control
pipe.  The worker decodes the frame in place (one copy from the ring into
``array`` columns, no pickle) and replies ``("ack", seq)``, which both
releases the ring space parent-side and — under supervision — prunes the
pending re-drive buffer.

Frame layout in the ring (all integers little-endian)::

    u32       payload length
    u32       frame seq (low 32 bits; the doorbell carries the full seq)
    payload:
        uvarint  n_groups
        per group:
            tagged device id    (the journal's str/int/bytes encoding)
            uvarint  n_fixes
            n_fixes × f64  ts
            n_fixes × f64  xs
            n_fixes × f64  ys

The payload reuses the write-ahead journal's framing idioms byte for byte
(:func:`~repro.engine.journal._append_device_id` for ids, raw
little-endian ``f64`` columns), so the same str/int/bytes device-id
contract applies — a device id that cannot be journaled cannot cross the
ring either, and neither can one too long to fit a one-fix frame.

Space accounting is single-producer/single-consumer and entirely
parent-side: the :class:`RingWriter` keeps an in-flight deque of
``(seq, offset, length)`` and frees the head on each in-order ack, so no
cross-process atomics or wrap markers are needed — the worker is told
explicit offsets.  A frame that will not fit the contiguous tail wraps to
offset 0 (the tail gap is reclaimed when the frames before it ack);
batches larger than the ring are split into multiple frames by
:func:`encode_payloads`.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..storage.codec import _append_uvarint, _read_uvarint
from .journal import _append_device_id, _pack_doubles, _read_device_id

__all__ = [
    "FRAME_HEADER_BYTES",
    "RingReader",
    "RingWriter",
    "TransportError",
    "attach_shared_memory",
    "decode_payload",
    "encode_payloads",
]

_FRAME_HEADER = struct.Struct("<II")  # payload length, seq (low 32 bits)
FRAME_HEADER_BYTES = _FRAME_HEADER.size

#: Smallest useful ring: one header + a one-fix frame with a long id,
#: with room to breathe.  Tiny rings are still allowed above this floor
#: so backpressure tests can force wraparound on purpose.
MIN_RING_BYTES = 256


class TransportError(RuntimeError):
    """The shm transport's protocol was violated (an out-of-order ack, a
    frame header that disagrees with its doorbell, a device id that
    cannot cross the ring)."""


def attach_shared_memory(name: str):
    """Attach to an existing shared-memory segment *without* registering
    it with this process's resource tracker.

    CPython registers a segment with the resource tracker on *attach* as
    well as on create (bpo-38119), and the tracker process is shared with
    the parent — so a plain worker-side attach would add, and its cleanup
    would later remove, the very entry the owner's unlink relies on,
    leaking (or double-freeing) ``/dev/shm`` segments.  The owner of the
    segment manages its lifetime; every non-owning attach in this repo
    must go through this helper (enforced by ``repro.analysis`` rule
    RA06).
    """
    from multiprocessing import resource_tracker, shared_memory

    real_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def _read_column(view, pos: int, n: int) -> Tuple[array, int]:
    end = pos + 8 * n
    if end > len(view):
        raise TransportError("truncated float column in shm frame")
    col = array("d")
    col.frombytes(view[pos:end])
    if sys.byteorder == "big":
        col.byteswap()
    return col, end


def _group_blobs(device_id, ts, xs, ys, budget: int, id_cache) -> Iterable[Tuple[bytes, int]]:
    """Encode one device's columns as ``(blob, n_fixes)`` chunks, splitting
    the columns so every blob fits ``budget`` bytes.

    Raises :class:`TransportError` when the id cannot be encoded, or when
    it is so long that even a one-fix blob would overrun ``budget`` — a
    frame that can never fit the ring would otherwise wait forever for
    space.
    """
    id_blob = id_cache.get(device_id) if id_cache is not None else None
    if id_blob is None:
        buf = bytearray()
        try:
            _append_device_id(buf, device_id)
        except Exception as exc:
            raise TransportError(
                f"device id {device_id!r} cannot cross the shm transport "
                f"({exc}); device ids must be str, int or bytes"
            ) from exc
        id_blob = bytes(buf)
        if id_cache is not None:
            id_cache[device_id] = id_blob
    n = len(ts)
    # id + uvarint count + 24 bytes per fix must fit the budget.
    max_fixes = (budget - len(id_blob) - 5) // 24
    if max_fixes < 1:
        raise TransportError(
            f"device id {device_id!r} encodes to {len(id_blob)} bytes, too "
            f"long for a one-fix frame in a {budget}-byte budget; raise "
            "ring_bytes or shorten the id"
        )
    start = 0
    while start < n:
        stop = min(n, start + max_fixes)
        blob = bytearray(id_blob)
        _append_uvarint(blob, stop - start)
        blob += _pack_doubles(ts[start:stop])
        blob += _pack_doubles(xs[start:stop])
        blob += _pack_doubles(ys[start:stop])
        yield bytes(blob), stop - start
        start = stop


def encode_payloads(
    groups: Dict[object, tuple],
    max_payload: int,
    id_cache: Optional[Dict[object, bytes]] = None,
) -> List[bytes]:
    """Encode per-device ``(ts, xs, ys)`` groups into one or more frame
    payloads, each at most ``max_payload`` bytes.

    The common case is one payload per call; a batch larger than the ring
    splits greedily at group (and, for an oversized single device, column
    slice) boundaries.  Group order — and therefore per-device fix order —
    is preserved across the split, so a multi-frame batch replays as the
    same fixes in the same order (each frame is its own engine push, which
    only matters to batch-boundary policies like ``idle_timeout``).
    ``id_cache`` maps device ids to their encoded blobs so steady-state
    batches skip re-encoding every id.
    """
    if max_payload < MIN_RING_BYTES - FRAME_HEADER_BYTES:
        raise ValueError(
            f"max_payload must be >= {MIN_RING_BYTES - FRAME_HEADER_BYTES}, "
            f"got {max_payload}"
        )
    budget = max_payload - 5  # room for the n_groups uvarint
    payloads: List[bytes] = []
    blobs: List[bytes] = []
    size = 0

    def flush() -> None:
        nonlocal blobs, size
        if not blobs:
            return
        payload = bytearray()
        _append_uvarint(payload, len(blobs))
        for blob in blobs:
            payload += blob
        payloads.append(bytes(payload))
        blobs = []
        size = 0

    for device_id, (ts, xs, ys) in groups.items():
        for blob, _ in _group_blobs(device_id, ts, xs, ys, budget, id_cache):
            if size and size + len(blob) > budget:
                flush()
            blobs.append(blob)
            size += len(blob)
    flush()
    return payloads


def decode_payload(view) -> Dict[object, tuple]:
    """Decode one frame payload back into per-device column groups.

    ``view`` is a memoryview over exactly the payload bytes (straight off
    the shared ring — the only copy is into the returned ``array``
    columns).  A device split across blobs within one payload is merged
    back in order.
    """
    pos = 0
    n_groups, pos = _read_uvarint(view, pos)
    groups: Dict[object, tuple] = {}
    for _ in range(n_groups):
        device_id, pos = _read_device_id(view, pos)
        n, pos = _read_uvarint(view, pos)
        ts, pos = _read_column(view, pos, n)
        xs, pos = _read_column(view, pos, n)
        ys, pos = _read_column(view, pos, n)
        existing = groups.get(device_id)
        if existing is None:
            groups[device_id] = (ts, xs, ys)
        else:
            existing[0].extend(ts)
            existing[1].extend(xs)
            existing[2].extend(ys)
    if pos != len(view):
        raise TransportError(
            f"shm frame has {len(view) - pos} trailing byte(s)"
        )
    return groups


class RingWriter:
    """Parent-side shared-memory ring: write frames, free them on acks.

    Frames are freed strictly in write order (the worker processes
    doorbells in pipe order and acks each one), so the live region is a
    contiguous ``[head, tail)`` span — possibly wrapped — and free-space
    checks need only the head frame's offset and the write position.
    """

    def __init__(self, capacity: int) -> None:
        from multiprocessing import shared_memory

        if capacity < MIN_RING_BYTES:
            raise ValueError(
                f"ring capacity must be >= {MIN_RING_BYTES}, got {capacity}"
            )
        self._shm = shared_memory.SharedMemory(create=True, size=capacity)
        # SharedMemory may round up to a page; honour what we asked for so
        # tiny test rings genuinely force wraparound.
        self.capacity = capacity
        self._write_pos = 0
        self._in_flight: deque = deque()  # (seq, offset, total_length)
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def max_payload(self) -> int:
        return self.capacity - FRAME_HEADER_BYTES

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    def _fit(self, total: int) -> Optional[int]:
        if total > self.capacity:
            return None
        if not self._in_flight:
            self._write_pos = 0
            return 0
        head = self._in_flight[0][1]
        tail = self._write_pos
        if tail > head:
            if self.capacity - tail >= total:
                return tail
            if head >= total:  # wrap; the tail gap frees with the head
                return 0
            return None
        if tail < head:
            return tail if head - tail >= total else None
        return None  # tail == head with frames in flight: ring full

    def try_write(self, seq: int, payload: bytes) -> Optional[int]:
        """Write header + payload at the next fitting offset; ``None`` when
        the ring cannot take the frame until an ack frees space."""
        total = FRAME_HEADER_BYTES + len(payload)
        offset = self._fit(total)
        if offset is None:
            return None
        buf = self._shm.buf
        _FRAME_HEADER.pack_into(buf, offset, len(payload), seq & 0xFFFFFFFF)
        buf[offset + FRAME_HEADER_BYTES : offset + total] = payload
        self._in_flight.append((seq, offset, total))
        self._write_pos = offset + total
        return offset

    def release(self, seq: int) -> None:
        """Free the oldest in-flight frame, which must carry ``seq`` —
        acks arrive in doorbell order on a healthy worker, so anything
        else is a protocol bug worth failing loudly on."""
        if not self._in_flight:
            raise TransportError(f"ack for seq {seq} with no frame in flight")
        head_seq = self._in_flight[0][0]
        if head_seq != seq:
            raise TransportError(
                f"out-of-order ack: got seq {seq}, head frame is {head_seq}"
            )
        self._in_flight.popleft()

    def reset(self) -> None:
        """Forget all in-flight frames (supervised restart: the ring's
        contents die with the worker; pending frames are re-written)."""
        self._in_flight.clear()
        self._write_pos = 0

    def close(self, *, unlink: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except OSError:
            pass
        if unlink:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):
                pass


class RingReader:
    """Worker-side view of the ring: decode the frame a doorbell names."""

    def __init__(self, name: str) -> None:
        # The parent owns this segment's lifetime; attach with resource-
        # tracker registration suppressed (see attach_shared_memory).
        self._shm = attach_shared_memory(name)
        self._closed = False

    def read(self, seq: int, offset: int, length: int) -> Dict[object, tuple]:
        buf = self._shm.buf
        if offset < 0 or offset + length > len(buf):
            raise TransportError(
                f"doorbell names bytes [{offset}, {offset + length}) outside "
                f"the {len(buf)}-byte ring"
            )
        payload_len, frame_seq = _FRAME_HEADER.unpack_from(buf, offset)
        if payload_len != length - FRAME_HEADER_BYTES or frame_seq != (
            seq & 0xFFFFFFFF
        ):
            raise TransportError(
                f"ring frame header mismatch at offset {offset}: header says "
                f"payload {payload_len} seq {frame_seq}, doorbell says "
                f"payload {length - FRAME_HEADER_BYTES} seq {seq}"
            )
        start = offset + FRAME_HEADER_BYTES
        with memoryview(buf)[start : start + payload_len] as view:
            return decode_payload(view)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except OSError:
            pass
