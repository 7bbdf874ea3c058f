"""Compact binary codec for compressed trajectories.

Key points are highly compressible even after BQS has discarded most of
the stream: timestamps are near-monotone ramps and coordinates move by
bounded steps, so **delta-encoded fixed-point zig-zag varints** store a
typical key point in a handful of bytes instead of the 24 a raw
``(t, x, y)`` double triple costs.  The layout (all integers are
little-endian; "varint" is the LEB128-style 7-bits-per-byte unsigned
form, "svarint" its zig-zag-mapped signed form):

========================  =====================================================
``magic``                 4 bytes, ``b"BQTC"``
``version``               u8 (currently 1)
``flags``                 u8; bit 0 = a UTM zone follows the quanta
``metric``                u8 (:data:`_METRIC_IDS`)
``algorithm``             u8 length + UTF-8 bytes (the compressor's name)
``epsilon``               f64 (``inf`` for unbounded algorithms)
``original_count``        varint (raw points the trajectory represents)
``n``                     varint (key points)
``xy_quantum``            f64 (metres per coordinate quantum)
``t_quantum``             f64 (seconds per timestamp quantum)
``utm zone, south``       u8 + u8, only when flags bit 0 is set
``ts column``             ``n`` svarints: first absolute quantum count, then deltas
``xs column``             same
``ys column``             same
========================  =====================================================

Values are quantized as ``q = round(v / quantum)`` and decoded as
``q * quantum`` — so decoding is exact *at the quantum* (default 1 cm in
space, 1 ms in time, both far below GPS error and ε), and
encode → decode → encode is byte-identical, which the round-trip fuzz
tests pin.  Columns are delta-encoded against the previous key point;
timestamps being non-decreasing makes their deltas non-negative, but the
signed form is kept for all three columns so one primitive serves.

The codec is the serialization boundary of the storage layer:
:mod:`repro.storage.store` frames these blobs into its segmented log and
:mod:`repro.storage.query` reads them back through
:func:`decode_trajectory`.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Tuple

from ..geometry.metrics import DistanceMetric
from ..model.columns import TrajectoryColumns
from ..model.point import PlanePoint, plane_points_from_flat
from ..model.projection import UTMProjection
from ..model.trajectory import CompressedTrajectory

__all__ = [
    "DEFAULT_XY_QUANTUM",
    "DEFAULT_T_QUANTUM",
    "MAGIC",
    "CodecError",
    "DecodedTrajectory",
    "encode_trajectory",
    "decode_trajectory",
    "quantize",
]

MAGIC = b"BQTC"
_VERSION = 1
_FLAG_UTM = 0x01

#: 1 cm spatial resolution: two orders of magnitude below civilian GPS
#: accuracy and three below a typical ε, so quantization error is noise.
DEFAULT_XY_QUANTUM = 0.01
#: 1 ms timestamp resolution (GPS fixes carry at most centisecond stamps).
DEFAULT_T_QUANTUM = 0.001

#: Stable wire ids for the deviation metric — enum *values* are part of the
#: on-disk format, so they are pinned here rather than derived from the
#: enum's definition order.
_METRIC_IDS = {
    DistanceMetric.POINT_TO_LINE: 0,
    DistanceMetric.POINT_TO_SEGMENT: 1,
}
_METRIC_BY_ID = {v: k for k, v in _METRIC_IDS.items()}

_F64 = struct.Struct("<d")


class CodecError(ValueError):
    """The byte stream is not a valid encoded trajectory."""


def quantize(value: float, quantum: float) -> int:
    """The quantum count a value encodes as; ``quantize(v, q) * q`` is the
    exact coordinate decoding will reproduce."""
    return round(value / quantum)


# -- varint primitives -------------------------------------------------------


def _append_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _append_svarint(buf: bytearray, value: int) -> None:
    # Zig-zag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
    _append_uvarint(buf, (value << 1) if value >= 0 else ((-value << 1) - 1))


#: Longest legal varint: 10 bytes encode up to 70 payload bits, enough for
#: any value this codec produces (quantum counts fit i64 by construction).
#: Without the cap, a hostile run of continuation bytes (``b"\x80" * k``)
#: would manufacture an arbitrarily large bigint — and downstream float
#: arithmetic on it would escape as ``OverflowError`` instead of
#: :class:`CodecError`.
_MAX_VARINT_BYTES = 10


def _read_uvarint(data, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= 7 * _MAX_VARINT_BYTES:
            raise CodecError(
                f"varint longer than {_MAX_VARINT_BYTES} bytes"
            )


def _read_svarint(data, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


# -- encode ------------------------------------------------------------------


#: Signed range a column value (absolute or delta) may occupy on the wire:
#: zig-zag into the decoder's 10-byte (70-bit) varint cap.  The encoder
#: enforces it so every blob it produces is decodable — without the guard,
#: an extreme coordinate/quantum combination would encode fine and then be
#: rejected by its own reader.
_SVARINT_MIN = -(1 << 69)
_SVARINT_MAX = (1 << 69) - 1


def _encode_column(buf: bytearray, values, quantum: float) -> Tuple[int, int]:
    """Delta-encode one column; returns its ``(min, max)`` quantum counts
    (``(0, 0)`` for an empty column) so callers can derive the envelope
    from the same quantization pass."""
    prev = 0
    first = True
    q_min = q_max = 0
    for v in values:
        q = round(v / quantum)  # quantize() inlined — keep the two in sync
        if first:
            delta = q
            first = False
            q_min = q_max = q
        else:
            delta = q - prev
            if q < q_min:
                q_min = q
            elif q > q_max:
                q_max = q
        if not _SVARINT_MIN <= delta <= _SVARINT_MAX:
            raise ValueError(
                f"value {v!r} at quantum {quantum!r} needs {delta} quanta "
                "of delta — beyond the codec's 70-bit wire range"
            )
        _append_svarint(buf, delta)
        prev = q
    return q_min, q_max


def encode_trajectory(
    trajectory: CompressedTrajectory,
    *,
    xy_quantum: float = DEFAULT_XY_QUANTUM,
    t_quantum: float = DEFAULT_T_QUANTUM,
    projection: UTMProjection | None = None,
) -> bytes:
    """Encode a compressed trajectory to its binary form.

    ``projection`` optionally stamps the UTM zone/hemisphere the plane
    coordinates live in, so a reader can unproject decoded key points back
    to GPS without out-of-band context; when omitted, the trajectory's own
    :attr:`~repro.model.trajectory.CompressedTrajectory.frame` (stamped by
    the geodetic engine front-end) is used.  ``z`` is not stored (the
    codec covers the 2-D hot path).
    """
    return _encode_with_bounds(
        trajectory,
        xy_quantum=xy_quantum,
        t_quantum=t_quantum,
        projection=projection,
    )[0]


def _encode_with_bounds(
    trajectory: CompressedTrajectory,
    *,
    xy_quantum: float,
    t_quantum: float,
    projection: UTMProjection | None,
) -> Tuple[bytes, Tuple[int, int, int, int, int, int]]:
    """:func:`encode_trajectory` plus the per-column quantum-count bounds
    ``(t_min, t_max, x_min, x_max, y_min, y_max)`` — the store derives its
    index envelope from the same quantization pass that produced the
    bytes, so the two can never disagree."""
    if projection is None:
        projection = trajectory.frame
    if not (xy_quantum > 0.0 and math.isfinite(xy_quantum)):
        raise ValueError(f"xy_quantum must be positive and finite, got {xy_quantum!r}")
    if not (t_quantum > 0.0 and math.isfinite(t_quantum)):
        raise ValueError(f"t_quantum must be positive and finite, got {t_quantum!r}")
    metric_id = _METRIC_IDS.get(trajectory.metric)
    if metric_id is None:
        raise ValueError(f"metric {trajectory.metric!r} has no wire id")
    name = trajectory.algorithm.encode("utf-8")
    if len(name) > 0xFF:
        raise ValueError(f"algorithm name too long to encode ({len(name)} bytes)")

    buf = bytearray(MAGIC)
    buf.append(_VERSION)
    buf.append(_FLAG_UTM if projection is not None else 0)
    buf.append(metric_id)
    buf.append(len(name))
    buf += name
    buf += _F64.pack(trajectory.tolerance)
    _append_uvarint(buf, trajectory.original_count)
    _append_uvarint(buf, len(trajectory))
    buf += _F64.pack(xy_quantum)
    buf += _F64.pack(t_quantum)
    if projection is not None:
        buf.append(projection.zone)
        buf.append(1 if projection.south else 0)
    cols = trajectory.to_columns()
    for field, column in (("t", cols.ts), ("x", cols.xs), ("y", cols.ys)):
        # One sum per column screens NaN and ±inf; only a failed screen
        # (or a finite column whose sum overflows) looks value by value.
        if not math.isfinite(sum(column)):
            bad = next((v for v in column if not math.isfinite(v)), None)
            if bad is not None:
                raise ValueError(
                    f"non-finite {field} value {bad!r}: the codec stores "
                    "finite key points only"
                )
    t_min, t_max = _encode_column(buf, cols.ts, t_quantum)
    x_min, x_max = _encode_column(buf, cols.xs, xy_quantum)
    y_min, y_max = _encode_column(buf, cols.ys, xy_quantum)
    return bytes(buf), (t_min, t_max, x_min, x_max, y_min, y_max)


# -- decode ------------------------------------------------------------------


@dataclass(frozen=True)
class DecodedTrajectory:
    """A decoded trajectory: header fields plus columnar key points."""

    columns: TrajectoryColumns
    algorithm: str
    epsilon: float
    metric: DistanceMetric
    original_count: int
    xy_quantum: float
    t_quantum: float
    utm_zone: int | None
    utm_south: bool
    encoded_bytes: int  #: size of the blob this was decoded from

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def bytes_per_key_point(self) -> float:
        """Encoded bytes per stored key point."""
        n = len(self.columns)
        return self.encoded_bytes / n if n else float(self.encoded_bytes)

    def projection(self) -> UTMProjection | None:
        """The UTM projection stamped at encode time, if any."""
        if self.utm_zone is None:
            return None
        return UTMProjection(zone=self.utm_zone, south=self.utm_south)

    def key_points(self) -> list[PlanePoint]:
        """Materialize the decoded key points (``z`` = 0)."""
        flat: list = []
        push = flat.extend
        for t, x, y in self.columns:
            push((x, y, t, 0.0))
        return plane_points_from_flat(flat)

    def to_trajectory(self) -> CompressedTrajectory:
        """Rebuild the :class:`CompressedTrajectory` (at quantum precision).

        The stamped UTM frame, if any, comes back as the trajectory's
        ``frame``, so re-encoding a decoded blob stays byte-identical even
        for zone-stamped blobs.
        """
        cols = self.columns
        return CompressedTrajectory(
            ts=cols.ts,
            xs=cols.xs,
            ys=cols.ys,
            original_count=self.original_count,
            metric=self.metric,
            tolerance=self.epsilon,
            algorithm=self.algorithm,
            frame=self.projection(),
        )


def _decode_columns(data, pos: int, n: int, t_quantum: float, xy_quantum: float):
    """The ``ts``, ``xs`` and ``ys`` columns: ``3n`` svarints that must end
    exactly at the end of ``data``.

    One pass over the bytes, with no call per value: a countdown stops
    after the ``3n``-th varint, and zig-zag, prefix sums and ``q *
    quantum`` then run as comprehensions.  The floats are bit-identical to
    reading the values one by one with :func:`_read_svarint` (the same
    exact integer sums, the same single product per value), and every
    check of that reader stays: the 10-byte cap, truncation, float
    overflow and trailing bytes all raise :class:`CodecError`.
    """
    stream = iter(bytes(data[pos:]))
    zigzag: list = []
    append = zigzag.append
    left = 3 * n
    acc = shift = 0
    if left:
        for byte in stream:
            if byte < 0x80:
                append(acc | byte << shift)
                left -= 1
                if not left:
                    break
                acc = shift = 0
            else:
                acc |= (byte & 0x7F) << shift
                shift += 7
                if shift >= 7 * _MAX_VARINT_BYTES:
                    raise CodecError(
                        f"varint longer than {_MAX_VARINT_BYTES} bytes"
                    )
        else:
            raise CodecError("truncated varint")
    trailing = len(bytes(stream))
    if trailing:
        raise CodecError(f"{trailing} trailing bytes after columns")
    deltas = [(u >> 1) ^ -(u & 1) for u in zigzag]
    try:
        return (
            array("d", [q * t_quantum for q in accumulate(deltas[:n])]),
            array("d", [q * xy_quantum for q in accumulate(deltas[n : 2 * n])]),
            array("d", [q * xy_quantum for q in accumulate(deltas[2 * n :])]),
        )
    except OverflowError as exc:
        # Capped varints still admit quantum counts up to ~2^70, and the
        # quantum itself is an arbitrary f64 from the header — a corrupt
        # combination can overflow the float product.  That is bad input,
        # not an arithmetic bug.
        raise CodecError(f"column value overflows a float: {exc}") from exc


def decode_trajectory(data: bytes | bytearray | memoryview) -> DecodedTrajectory:
    """Decode one encoded trajectory; raises :class:`CodecError` on bad input."""
    data = memoryview(data)
    if len(data) < 8:
        raise CodecError(f"blob too short ({len(data)} bytes)")
    if bytes(data[:4]) != MAGIC:
        raise CodecError(f"bad magic {bytes(data[:4])!r}")
    version = data[4]
    if version != _VERSION:
        raise CodecError(f"unsupported codec version {version}")
    flags = data[5]
    metric_id = data[6]
    metric = _METRIC_BY_ID.get(metric_id)
    if metric is None:
        raise CodecError(f"unknown metric id {metric_id}")
    name_len = data[7]
    pos = 8
    if pos + name_len + 8 > len(data):
        raise CodecError("truncated header")
    try:
        algorithm = bytes(data[pos : pos + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"algorithm name is not valid UTF-8: {exc}") from exc
    pos += name_len
    epsilon = _F64.unpack_from(data, pos)[0]
    pos += 8
    original_count, pos = _read_uvarint(data, pos)
    n, pos = _read_uvarint(data, pos)
    if pos + 16 > len(data):
        raise CodecError("truncated header")
    xy_quantum = _F64.unpack_from(data, pos)[0]
    t_quantum = _F64.unpack_from(data, pos + 8)[0]
    pos += 16
    if not (xy_quantum > 0.0 and t_quantum > 0.0):
        raise CodecError(
            f"non-positive quanta (xy={xy_quantum!r}, t={t_quantum!r})"
        )
    utm_zone: int | None = None
    utm_south = False
    if flags & _FLAG_UTM:
        if pos + 2 > len(data):
            raise CodecError("truncated header")
        utm_zone = data[pos]
        utm_south = bool(data[pos + 1])
        pos += 2
        if not 1 <= utm_zone <= 60:
            raise CodecError(f"UTM zone out of range: {utm_zone}")
    # A key point costs at least one varint byte per column, so a claimed
    # count beyond a third of the remaining bytes cannot be honest — catch
    # it here instead of looping over a fabricated multi-gigabyte n.
    if 3 * n > len(data) - pos:
        raise CodecError(
            f"claimed {n} key points but only {len(data) - pos} column "
            "bytes remain"
        )
    ts, xs, ys = _decode_columns(data, pos, n, t_quantum, xy_quantum)
    cols = TrajectoryColumns()
    cols.ts, cols.xs, cols.ys = ts, xs, ys
    return DecodedTrajectory(
        columns=cols,
        algorithm=algorithm,
        epsilon=epsilon,
        metric=metric,
        original_count=original_count,
        xy_quantum=xy_quantum,
        t_quantum=t_quantum,
        utm_zone=utm_zone,
        utm_south=utm_south,
        encoded_bytes=len(data),
    )
