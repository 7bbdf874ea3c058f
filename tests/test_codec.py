"""Codec tests: lossless-at-quantum round trips, fuzz, geodetic closure.

The codec's contract has three layers, each pinned here:

* **Exactness at the quantum** — every decoded coordinate equals
  ``round(v / quantum) * quantum`` of the encoded one, bit for bit, and
  re-encoding a decoded trajectory reproduces the identical byte string
  (idempotence).  The fuzz test hammers this across random magnitudes,
  quanta, metrics and algorithm names (``CODEC_FUZZ_CASES`` scales it
  up in CI).
* **Self-description** — the header round-trips algorithm, ε, metric,
  original count and the optional UTM zone, so a blob needs no
  out-of-band context.
* **Geodetic closure** — GPS fixes projected through a random UTM zone,
  compressed by BQS, encoded and decoded come back within the quantum
  tolerance of the original key-point positions, on both hemispheres
  (the satellite property test: raw GPS in, bounded positions out).
"""

import math
import os
import random
from array import array

import pytest

from repro.compression import BQSCompressor
from repro.compression.evaluate import synthetic_track
from repro.geometry import DistanceMetric
from repro.model import CompressedTrajectory, LocationPoint, PlanePoint
from repro.model.point import _trusted_plane_point
from repro.model.projection import UTMProjection, project_track
from repro.storage import (
    DEFAULT_T_QUANTUM,
    DEFAULT_XY_QUANTUM,
    CodecError,
    TrajectoryStore,
    decode_trajectory,
    encode_trajectory,
)
from repro.storage import codec
from repro.storage.codec import _F64, _append_svarint, _append_uvarint, _read_svarint

FUZZ_CASES = int(os.environ.get("CODEC_FUZZ_CASES", "30"))
CORRUPT_CASES = int(os.environ.get("CODEC_CORRUPT_CASES", "60"))


def _compressed(n=2000, seed=7, epsilon=10.0):
    return BQSCompressor(epsilon).compress(synthetic_track(n, seed=seed))


class TestRoundTrip:
    def test_header_fields(self):
        ct = _compressed()
        dec = decode_trajectory(encode_trajectory(ct))
        assert dec.algorithm == "bqs"
        assert dec.epsilon == 10.0
        assert dec.metric is DistanceMetric.POINT_TO_LINE
        assert dec.original_count == 2000
        assert len(dec.columns) == len(ct.key_points)
        assert dec.xy_quantum == DEFAULT_XY_QUANTUM
        assert dec.t_quantum == DEFAULT_T_QUANTUM
        assert dec.utm_zone is None and dec.projection() is None

    def test_positions_exact_at_quantum(self):
        ct = _compressed()
        dec = decode_trajectory(encode_trajectory(ct))
        for p, (t, x, y) in zip(ct.key_points, dec.columns):
            assert x == round(p.x / DEFAULT_XY_QUANTUM) * DEFAULT_XY_QUANTUM
            assert y == round(p.y / DEFAULT_XY_QUANTUM) * DEFAULT_XY_QUANTUM
            assert t == round(p.t / DEFAULT_T_QUANTUM) * DEFAULT_T_QUANTUM
            assert abs(x - p.x) <= DEFAULT_XY_QUANTUM / 2
            assert abs(y - p.y) <= DEFAULT_XY_QUANTUM / 2
            assert abs(t - p.t) <= DEFAULT_T_QUANTUM / 2

    def test_reencode_byte_identical(self):
        ct = _compressed()
        blob = encode_trajectory(ct)
        assert encode_trajectory(decode_trajectory(blob).to_trajectory()) == blob

    def test_utm_zone_round_trip(self):
        ct = _compressed(200)
        proj = UTMProjection(zone=33, south=True)
        dec = decode_trajectory(encode_trajectory(ct, projection=proj))
        assert dec.utm_zone == 33 and dec.utm_south is True
        assert dec.projection() == proj

    def test_compact_on_disk(self):
        """The point of the codec: far below 24 raw double bytes/point."""
        ct = _compressed(10_000)
        blob = encode_trajectory(ct)
        assert len(blob) < len(ct.key_points) * 12  # beats even raw GPS size

    def test_empty_and_single_point(self):
        empty = CompressedTrajectory(key_points=(), original_count=0)
        dec = decode_trajectory(encode_trajectory(empty))
        assert len(dec.columns) == 0 and dec.key_points() == []
        one = CompressedTrajectory(
            key_points=(PlanePoint(1.25, -3.5, 17.0),), original_count=5
        )
        dec = decode_trajectory(encode_trajectory(one))
        assert dec.key_points() == [PlanePoint(1.25, -3.5, 17.0)]

    def test_key_point_timestamps_stay_monotone(self):
        """Quantization must never reorder key points in time."""
        ct = _compressed(5000, seed=11)
        dec = decode_trajectory(encode_trajectory(ct))
        ts = dec.columns.ts
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        dec.to_trajectory()  # CompressedTrajectory re-validates this


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(CodecError):
            decode_trajectory(b"NOPE" + bytes(32))

    def test_bad_version(self):
        blob = bytearray(encode_trajectory(_compressed(50)))
        blob[4] = 99
        with pytest.raises(CodecError):
            decode_trajectory(bytes(blob))

    def test_truncation_always_raises(self):
        blob = encode_trajectory(_compressed(200, seed=3))
        for cut in (0, 3, 7, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CodecError):
                decode_trajectory(blob[:cut])

    def test_trailing_garbage(self):
        blob = encode_trajectory(_compressed(50))
        with pytest.raises(CodecError):
            decode_trajectory(blob + b"\x00")

    def test_bad_quanta_rejected(self):
        ct = _compressed(50)
        with pytest.raises(ValueError):
            encode_trajectory(ct, xy_quantum=0.0)
        with pytest.raises(ValueError):
            encode_trajectory(ct, t_quantum=-1.0)

    def test_encoder_rejects_out_of_wire_range_values(self):
        """Regression: the encoder must refuse what the capped decoder
        cannot read — an extreme coordinate/quantum combination used to
        encode fine and then fail its own round trip."""
        huge = CompressedTrajectory(
            key_points=(PlanePoint(9e18, 0.0, 0.0),), original_count=1
        )
        with pytest.raises(ValueError, match="70-bit wire range"):
            encode_trajectory(huge, xy_quantum=0.001)
        # A large-but-legal value still round-trips.
        big = CompressedTrajectory(
            key_points=(PlanePoint(2.0**59, 0.0, 0.0),), original_count=1
        )
        blob = encode_trajectory(big, xy_quantum=1.0)
        dec = decode_trajectory(blob)
        assert dec.columns.xs[0] == 2.0**59

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t", "x", "y"])
    def test_encoder_rejects_non_finite_values(self, field, bad):
        """Sidecar time order relies on no stored time being NaN: the
        encoder names the field instead of failing inside quantization.
        ``PlanePoint`` already refuses non-finite x / y, so those reach the
        encoder only through the unvalidated bulk constructor."""
        values = {"x": 1.0, "y": 2.0, "t": 3.0, "z": 0.0, field: bad}
        ct = CompressedTrajectory(
            key_points=(_trusted_plane_point(**values),), original_count=1
        )
        with pytest.raises(ValueError, match=f"non-finite {field} value"):
            encode_trajectory(ct)

    def test_store_append_rejects_a_nan_time(self, tmp_path):
        ct = CompressedTrajectory(
            key_points=(PlanePoint(0.0, 0.0, math.nan),), original_count=1
        )
        with TrajectoryStore(tmp_path / "s") as store:
            with pytest.raises(ValueError, match="non-finite t value"):
                store.append("dev", ct)
            assert store.record_count == 0


class TestFuzz:
    @pytest.mark.parametrize("case", range(FUZZ_CASES))
    def test_random_round_trips(self, case):
        rng = random.Random(9000 + case)
        n = rng.choice((0, 1, 2, rng.randrange(3, 300)))
        scale = 10.0 ** rng.randrange(-2, 7)
        xy_quantum = rng.choice((0.001, 0.01, 0.1, 1.0))
        t_quantum = rng.choice((0.001, 0.01, 1.0))
        t = rng.uniform(0.0, 1e9)
        points = []
        for _ in range(n):
            points.append(
                PlanePoint(
                    rng.uniform(-scale, scale), rng.uniform(-scale, scale), t
                )
            )
            t += rng.choice((0.0, rng.uniform(0.0, 3600.0)))
        metric = rng.choice(list(DistanceMetric))
        ct = CompressedTrajectory(
            key_points=tuple(points),
            original_count=n + rng.randrange(0, 10_000) if n else 0,
            metric=metric,
            tolerance=rng.choice((5.0, 10.0, math.inf)),
            algorithm=rng.choice(("bqs", "fast-bqs", "td-tr", "αλγο")),
        )
        blob = encode_trajectory(
            ct, xy_quantum=xy_quantum, t_quantum=t_quantum
        )
        dec = decode_trajectory(blob)
        assert dec.algorithm == ct.algorithm
        assert dec.metric is metric
        assert dec.epsilon == ct.tolerance
        assert dec.original_count == ct.original_count
        assert len(dec.columns) == n
        for p, (dt, dx, dy) in zip(points, dec.columns):
            assert dx == round(p.x / xy_quantum) * xy_quantum
            assert dy == round(p.y / xy_quantum) * xy_quantum
            assert dt == round(p.t / t_quantum) * t_quantum
        assert (
            encode_trajectory(
                dec.to_trajectory(),
                xy_quantum=xy_quantum,
                t_quantum=t_quantum,
            )
            == blob
        )


class TestCorruptFuzz:
    """Only :class:`CodecError` may escape ``decode_trajectory`` — ever.

    The documented contract ("raises CodecError on bad input") used to be
    violated by varint abuse: a long continuation-byte run manufactured a
    huge bigint and the ``q * quantum`` float product escaped as
    ``OverflowError``.  These tests hammer truncations, bit flips and
    continuation runs over valid encodings and accept exactly two
    outcomes: a successful decode (damage can land in benign places or
    cancel out) or ``CodecError``.
    """

    def _try_decode(self, blob):
        """Decode, asserting nothing but CodecError can escape."""
        try:
            decode_trajectory(blob)
        except CodecError:
            pass

    def _valid_blobs(self, rng):
        n = rng.choice((1, 2, 5, rng.randrange(3, 60)))
        t = rng.uniform(0.0, 1e6)
        points = []
        for _ in range(n):
            points.append(
                PlanePoint(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4), t)
            )
            t += rng.uniform(0.0, 120.0)
        ct = CompressedTrajectory(
            key_points=tuple(points),
            original_count=n * 10,
            tolerance=10.0,
            algorithm="bqs",
        )
        projection = (
            UTMProjection(zone=rng.randrange(1, 61), south=rng.random() < 0.5)
            if rng.random() < 0.5
            else None
        )
        return encode_trajectory(ct, projection=projection)

    def test_overflow_regression(self):
        """The confirmed bug, verbatim: a continuation-byte run in a column
        escaped as ``OverflowError`` ("int too large to convert to
        float"); now it is a capped-varint CodecError."""
        blob = encode_trajectory(_compressed(200, seed=5))
        hostile = blob[:60] + b"\x80" * 200 + b"\x01"
        with pytest.raises(CodecError):
            decode_trajectory(hostile)

    def test_huge_varint_in_every_position(self):
        """Splice the hostile run at every byte offset of a valid blob;
        whatever field it lands in, only CodecError escapes."""
        blob = encode_trajectory(_compressed(100, seed=6))
        run = b"\x80" * 200 + b"\x01"
        for offset in range(0, len(blob), 7):
            self._try_decode(blob[:offset] + run + blob[offset:])
            self._try_decode(blob[:offset] + run)

    def test_fabricated_key_point_count(self):
        """A header claiming more key points than the blob could possibly
        hold (≥3 bytes each) must fail fast, not loop gigabytes."""
        from repro.storage.codec import _F64, _append_uvarint

        blob = bytearray(b"BQTC")
        blob.append(1)  # version
        blob.append(0)  # flags
        blob.append(0)  # metric id
        blob.append(0)  # empty algorithm name
        blob += _F64.pack(10.0)
        _append_uvarint(blob, 1000)  # original_count
        _append_uvarint(blob, 1 << 40)  # n: absurd
        blob += _F64.pack(0.01)
        blob += _F64.pack(0.001)
        blob += b"\x00" * 64  # nowhere near 3 * 2^40 column bytes
        with pytest.raises(CodecError):
            decode_trajectory(bytes(blob))

    @pytest.mark.parametrize("case", range(CORRUPT_CASES))
    def test_random_corruptions(self, case):
        rng = random.Random(31_000 + case)
        blob = self._valid_blobs(rng)
        kind = rng.randrange(4)
        if kind == 0:  # truncation: always an error
            cut = rng.randrange(len(blob))
            with pytest.raises(CodecError):
                decode_trajectory(blob[:cut])
        elif kind == 1:  # bit flips
            corrupt = bytearray(blob)
            for _ in range(rng.choice((1, 1, 2, 8))):
                corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            self._try_decode(bytes(corrupt))
        elif kind == 2:  # continuation-byte run spliced at a random offset
            offset = rng.randrange(len(blob) + 1)
            run = b"\x80" * rng.choice((3, 11, 40, 200))
            terminated = rng.random() < 0.5
            self._try_decode(
                blob[:offset]
                + run
                + (b"\x01" if terminated else b"")
                + blob[offset:]
            )
        else:  # random garbage tail / swapped halves
            if rng.random() < 0.5:
                self._try_decode(
                    blob + bytes(rng.randrange(256) for _ in range(9))
                )
            else:
                mid = len(blob) // 2
                self._try_decode(blob[mid:] + blob[:mid])


def _scalar_columns(data, pos, n, t_quantum, xy_quantum):
    """Reference column decoder: one :func:`_read_svarint` call per value,
    column after column — the layout spelled out, kept only to check the
    codec's one-pass decoder against."""
    columns = []
    try:
        for quantum in (t_quantum, xy_quantum, xy_quantum):
            out = array("d")
            q = 0
            for i in range(n):
                delta, pos = _read_svarint(data, pos)
                q = delta if i == 0 else q + delta
                out.append(q * quantum)
            columns.append(out)
    except OverflowError as exc:
        raise CodecError(f"column value overflows a float: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after columns")
    return tuple(columns)


def _decode_outcome(blob):
    """``("ok", fields, column bytes)`` or ``("CodecError",)``; any other
    exception escapes and fails the test."""
    try:
        dec = decode_trajectory(blob)
    except CodecError:
        return ("CodecError",)
    cols = dec.columns
    return (
        "ok",
        (dec.algorithm, dec.metric, dec.original_count, dec.utm_zone,
         dec.utm_south, dec.encoded_bytes),
        (cols.ts.tobytes(), cols.xs.tobytes(), cols.ys.tobytes()),
    )


#: Quanta at the edges of the f64 range: subnormal, tiny, the defaults,
#: and large enough that ``q * quantum`` saturates to ±inf.
_EXTREME_QUANTA = (5e-324, 1e-300, 1e-9, 0.001, 0.01, 1.0, 1e150, 1e300,
                   1.7976931348623157e308)


class TestDecodeDifferentialFuzz:
    """The one-pass column decoder against :func:`_scalar_columns`: the
    same header parse runs in front of both, so any difference is the
    column decode's.  Valid blobs must give bit-identical columns, and
    damaged ones must raise :class:`CodecError` from both."""

    def _both(self, blob, monkeypatch):
        fast = _decode_outcome(blob)
        with monkeypatch.context() as patched:
            patched.setattr(codec, "_decode_columns", _scalar_columns)
            reference = _decode_outcome(blob)
        return fast, reference

    def _random_blob(self, rng):
        """A hand-built blob: random header fields, extreme quanta and
        ``3n`` varints of 1-10 bytes (canonical, or padded with
        continuation bytes up to the cap)."""
        n = rng.choice((0, 1, 2, rng.randrange(3, 80)))
        blob = bytearray(codec.MAGIC)
        blob.append(1)  # version
        zoned = rng.random() < 0.5
        blob.append(1 if zoned else 0)
        blob.append(rng.randrange(2))  # metric id
        blob.append(3)
        blob += b"bqs"
        blob += _F64.pack(10.0)
        _append_uvarint(blob, rng.randrange(0, 1 << 20))
        _append_uvarint(blob, n)
        blob += _F64.pack(rng.choice(_EXTREME_QUANTA))
        blob += _F64.pack(rng.choice(_EXTREME_QUANTA))
        if zoned:
            blob += bytes((rng.randrange(1, 61), rng.randrange(2)))
        for _ in range(3 * n):
            bits = rng.choice((0, 6, 7, 13, 14, 20, 35, 62, 69))
            value = rng.randrange(-(1 << bits), 1 << bits) if bits else 0
            field = bytearray()
            _append_svarint(field, value)
            if len(field) < 10 and rng.random() < 0.2:
                pad = rng.randrange(1, 11 - len(field))
                # Non-canonical but legal: extra zero groups, same value.
                field[-1] |= 0x80
                field += b"\x80" * (pad - 1) + b"\x00"
            blob += field
        return bytes(blob)

    @pytest.mark.parametrize("case", range(FUZZ_CASES))
    def test_random_blobs_bit_identical(self, case, monkeypatch):
        rng = random.Random(52_000 + case)
        for _ in range(8):
            blob = self._random_blob(rng)
            fast, reference = self._both(blob, monkeypatch)
            assert fast[0] == "ok"
            assert fast == reference

    @pytest.mark.parametrize("case", range(FUZZ_CASES))
    def test_encoded_blobs_bit_identical(self, case, monkeypatch):
        rng = random.Random(53_000 + case)
        n = rng.choice((1, 2, rng.randrange(3, 200)))
        scale = 10.0 ** rng.randrange(-2, 9)
        t = rng.uniform(0.0, 1e9)
        points = []
        for _ in range(n):
            points.append(
                PlanePoint(rng.uniform(-scale, scale), rng.uniform(-scale, scale), t)
            )
            t += rng.uniform(0.0, 600.0)
        blob = encode_trajectory(
            CompressedTrajectory(key_points=tuple(points), original_count=n),
            xy_quantum=rng.choice((0.001, 0.01, 1.0)),
            t_quantum=rng.choice((0.001, 1.0)),
        )
        fast, reference = self._both(blob, monkeypatch)
        assert fast[0] == "ok"
        assert fast == reference

    @pytest.mark.parametrize("case", range(CORRUPT_CASES))
    def test_corrupt_blobs_agree(self, case, monkeypatch):
        """Truncations, bit flips, continuation runs and garbage tails:
        both decoders succeed identically or both raise CodecError."""
        rng = random.Random(54_000 + case)
        blob = (
            self._random_blob(rng)
            if rng.random() < 0.5
            else TestCorruptFuzz()._valid_blobs(rng)
        )
        kind = rng.randrange(4)
        if kind == 0:
            corrupt = blob[: rng.randrange(len(blob))]
        elif kind == 1:
            flipped = bytearray(blob)
            for _ in range(rng.choice((1, 2, 8))):
                flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            corrupt = bytes(flipped)
        elif kind == 2:
            offset = rng.randrange(len(blob) + 1)
            run = b"\x80" * rng.choice((3, 9, 10, 11, 40))
            corrupt = blob[:offset] + run + b"\x01" * rng.randrange(2) + blob[offset:]
        else:
            corrupt = blob + bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        fast, reference = self._both(corrupt, monkeypatch)
        assert fast == reference
        if kind == 0:
            assert fast == ("CodecError",)

    def test_cap_and_truncation_edges(self, monkeypatch):
        """A 10-byte varint is legal, an 11-byte one is not; a column that
        stops mid-varint or one value short is truncated."""
        head = bytearray(codec.MAGIC) + bytes((1, 0, 0, 0))
        head += _F64.pack(10.0)
        _append_uvarint(head, 1)
        _append_uvarint(head, 1)  # one key point: three values
        head += _F64.pack(0.01) + _F64.pack(0.001)
        ten = b"\x80" * 9 + b"\x01"
        ok = bytes(head) + ten + b"\x02\x03"
        fast, reference = self._both(ok, monkeypatch)
        assert fast[0] == "ok" and fast == reference
        for bad in (
            bytes(head) + b"\x80" * 10 + b"\x01" + b"\x02\x03",
            bytes(head) + b"\x02\x03",
            bytes(head) + b"\x02\x03\x84",
            bytes(head) + b"\x02\x03\x04\x05",
        ):
            fast, reference = self._both(bad, monkeypatch)
            assert fast == reference == ("CodecError",)


class TestGeodetic:
    """GPS -> UTM -> BQS -> codec -> GPS stays within quantum tolerance."""

    @pytest.mark.parametrize("case", range(12))
    def test_random_zone_round_trip(self, case):
        rng = random.Random(4100 + case)
        zone = rng.randrange(1, 61)
        south = rng.random() < 0.5
        lat0 = rng.uniform(-70.0, -2.0) if south else rng.uniform(2.0, 70.0)
        lon0 = (zone * 6.0 - 183.0) + rng.uniform(-2.5, 2.5)

        lat, lon = lat0, lon0
        fixes = []
        for k in range(300):
            fixes.append(
                LocationPoint(latitude=lat, longitude=lon, timestamp=float(k))
            )
            lat += rng.uniform(-4e-5, 4e-5)
            lon += rng.uniform(-4e-5, 4e-5)

        projection = UTMProjection(zone=zone, south=south)
        plane = project_track(fixes, projection)
        compressed = BQSCompressor(10.0).compress(plane)
        assert compressed.max_deviation_from(plane) <= 10.0 * (1 + 1e-9)

        dec = decode_trajectory(
            encode_trajectory(compressed, projection=projection)
        )
        assert dec.utm_zone == zone and dec.utm_south == south

        # Plane positions: exact at the quantum.
        for p, (t, x, y) in zip(compressed.key_points, dec.columns):
            assert abs(x - p.x) <= DEFAULT_XY_QUANTUM / 2 + 1e-9
            assert abs(y - p.y) <= DEFAULT_XY_QUANTUM / 2 + 1e-9
            assert abs(t - p.t) <= DEFAULT_T_QUANTUM / 2 + 1e-12

        # Geographic positions: unprojecting through the stamped zone
        # lands within a whisker of the quantum (the projection's own
        # round-trip error is sub-millimetre).
        decoded_projection = dec.projection()
        original_fix = {f.timestamp: f for f in fixes}
        for t, x, y in dec.columns:
            lat_d, lon_d = decoded_projection.inverse(x, y)
            src = original_fix[round(t)]
            x_src, y_src = projection.forward(src.latitude, src.longitude)
            x_back, y_back = projection.forward(lat_d, lon_d)
            err = math.hypot(x_back - x_src, y_back - y_src)
            assert err <= DEFAULT_XY_QUANTUM * 0.75, (zone, south, err)
