"""Shared-memory transport tests: frame codec, ring accounting, and the
sharded engine's ring data plane (parity, backpressure, crash re-drive,
limits).

The parity tests here spell ``transport="shm"`` explicitly, the form the
benchmark and the frozen API pass; their twins in ``test_engine.py`` /
``test_geodetic.py`` / ``test_faults.py`` run on the default.
"""

import os
import signal
import time
from array import array

import pytest

from repro.engine import (
    GeoStreamEngine,
    ShardedStreamEngine,
    StreamEngine,
    TransportError,
    fleet_fixes,
    iter_fix_batches,
)
from repro.engine.simulate import gps_fleet_fixes, iter_geo_fix_batches
from repro.engine.transport import (
    FRAME_HEADER_BYTES,
    MIN_RING_BYTES,
    RingReader,
    RingWriter,
    decode_payload,
    encode_payloads,
)


def _factory(device_id):
    from repro.compression import BQSCompressor

    return BQSCompressor(5.0)


def _cols(*fixes):
    ts, xs, ys = array("d"), array("d"), array("d")
    for t, x, y in fixes:
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return ts, xs, ys


def _groups_equal(a, b):
    if set(a) != set(b):
        return False
    return all(
        tuple(col.tobytes() for col in a[k])
        == tuple(col.tobytes() for col in b[k])
        for k in a
    )


class TestFrameCodec:
    def test_round_trip_all_id_types(self):
        groups = {
            "taxi-7": _cols((0.0, 1.5, -2.5), (1.0, 3.25, 4.125)),
            42: _cols((2.0, -0.0, 1e300)),
            b"\x00raw": _cols((3.0, float("inf"), -1e-300)),
        }
        payloads = encode_payloads(groups, 1 << 16)
        assert len(payloads) == 1
        decoded = decode_payload(memoryview(payloads[0]))
        assert _groups_equal(decoded, groups)

    def test_round_trip_is_bit_exact(self):
        # nan payload bits survive: compare raw bytes, not float equality.
        ts, xs, ys = _cols((0.0, float("nan"), 7.0))
        payloads = encode_payloads({"d": (ts, xs, ys)}, 1 << 16)
        decoded = decode_payload(memoryview(payloads[0]))
        assert decoded["d"][1].tobytes() == xs.tobytes()

    def test_oversized_batch_splits_and_merges_back(self):
        n = 500
        ts = array("d", (float(i) for i in range(n)))
        groups = {"dev": (ts, ts[:], ts[:])}
        # ~12 KB of columns through ~1 KB payloads -> many frames.
        payloads = encode_payloads(groups, 1024)
        assert len(payloads) > 5
        assert all(len(p) <= 1024 for p in payloads)
        merged = {}
        for payload in payloads:
            for device_id, (t2, x2, y2) in decode_payload(
                memoryview(payload)
            ).items():
                if device_id in merged:
                    merged[device_id][0].extend(t2)
                    merged[device_id][1].extend(x2)
                    merged[device_id][2].extend(y2)
                else:
                    merged[device_id] = (t2, x2, y2)
        assert _groups_equal(merged, groups)

    def test_many_groups_split_at_group_boundaries(self):
        groups = {
            f"dev-{i:03d}": _cols(*((float(j), 1.0, 2.0) for j in range(20)))
            for i in range(50)
        }
        payloads = encode_payloads(groups, 2048)
        assert len(payloads) > 1
        merged = {}
        for payload in payloads:
            decoded = decode_payload(memoryview(payload))
            assert not set(decoded) & set(merged)  # no device straddles
            merged.update(decoded)
        assert _groups_equal(merged, groups)

    def test_id_cache_is_filled_and_reused(self):
        cache = {}
        groups = {"a": _cols((0.0, 1.0, 2.0))}
        first = encode_payloads(groups, 1 << 16, cache)
        assert "a" in cache
        cache_view = dict(cache)
        second = encode_payloads(groups, 1 << 16, cache)
        assert first == second and cache == cache_view

    def test_unjournalable_id_raises_transport_error(self):
        with pytest.raises(TransportError, match="str, int or bytes"):
            encode_payloads({True: _cols((0.0, 1.0, 2.0))}, 1 << 16)

    def test_id_too_long_for_one_fix_frame_raises(self):
        # A one-fix blob for this id overruns the payload budget; splitting
        # cannot help, so the encoder must refuse instead of emitting a
        # payload larger than max_payload.
        with pytest.raises(TransportError, match="too long"):
            encode_payloads({"d" * 300: _cols((0.0, 1.0, 2.0))}, 248)

    def test_trailing_garbage_raises(self):
        payload = encode_payloads({"a": _cols((0.0, 1.0, 2.0))}, 1 << 16)[0]
        with pytest.raises(TransportError, match="trailing"):
            decode_payload(memoryview(payload + b"\x00"))


class TestRingWriter:
    def _frame(self, n):
        return b"x" * n

    def test_wraparound_reuses_freed_head(self):
        ring = RingWriter(MIN_RING_BYTES)  # 256 bytes
        try:
            payload = self._frame(92)  # 100-byte frames: 2 fit, 3 don't
            assert ring.try_write(1, payload) == 0
            assert ring.try_write(2, payload) == 100
            assert ring.try_write(3, payload) is None  # only 56 at the tail
            ring.release(1)
            # Head freed: the next frame wraps to offset 0.
            assert ring.try_write(3, payload) == 0
            assert ring.in_flight == 2
            ring.release(2)
            ring.release(3)
            assert ring.in_flight == 0
        finally:
            ring.close()

    def test_full_ring_blocks_until_release(self):
        ring = RingWriter(MIN_RING_BYTES)
        try:
            big = self._frame(MIN_RING_BYTES - FRAME_HEADER_BYTES)
            assert ring.try_write(1, big) == 0
            assert ring.try_write(2, self._frame(1)) is None
            ring.release(1)
            assert ring.try_write(2, self._frame(1)) == 0
        finally:
            ring.close()

    def test_out_of_order_ack_is_a_protocol_error(self):
        ring = RingWriter(MIN_RING_BYTES)
        try:
            ring.try_write(1, self._frame(8))
            ring.try_write(2, self._frame(8))
            with pytest.raises(TransportError, match="out-of-order"):
                ring.release(2)
            empty = RingWriter(MIN_RING_BYTES)
            try:
                with pytest.raises(TransportError, match="no frame in flight"):
                    empty.release(1)
            finally:
                empty.close()
        finally:
            ring.close()

    def test_reset_forgets_in_flight(self):
        ring = RingWriter(MIN_RING_BYTES)
        try:
            ring.try_write(1, self._frame(200))
            ring.reset()
            assert ring.in_flight == 0
            assert ring.try_write(2, self._frame(200)) == 0
        finally:
            ring.close()

    def test_reader_round_trip_and_header_validation(self):
        ring = RingWriter(4096)
        reader = None
        try:
            groups = {"dev": _cols((0.0, 1.0, 2.0), (1.0, 3.0, 4.0))}
            payload = encode_payloads(groups, ring.max_payload)[0]
            offset = ring.try_write(7, payload)
            reader = RingReader(ring.name)
            total = FRAME_HEADER_BYTES + len(payload)
            assert _groups_equal(reader.read(7, offset, total), groups)
            with pytest.raises(TransportError, match="header mismatch"):
                reader.read(8, offset, total)  # doorbell seq disagrees
            with pytest.raises(TransportError, match="outside"):
                reader.read(7, 1 << 20, total)
        finally:
            if reader is not None:
                reader.close()
            ring.close()

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            RingWriter(MIN_RING_BYTES - 1)


class TestShmSharding:
    @pytest.fixture()
    def stream(self):
        return fleet_fixes(8, 80, seed=9)

    def _reference(self, ids, cols, batch=64):
        engine = StreamEngine(_factory)
        for batch_cols in iter_fix_batches(ids, cols, batch):
            engine.push_columns(*batch_cols)
        return {
            device_id: [t.key_points for t in trajectories]
            for device_id, trajectories in engine.finish_all().items()
        }

    def _run_sharded(self, ids, cols, batch=64, **kwargs):
        engine = ShardedStreamEngine(_factory, **kwargs)
        try:
            for batch_cols in iter_fix_batches(ids, cols, batch):
                engine.push_columns(*batch_cols)
            results = engine.finish_all()
        finally:
            engine.close()
        return {
            device_id: [t.key_points for t in trajectories]
            for device_id, trajectories in results.items()
        }, engine

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_shm_matches_single_process(self, stream, workers):
        ids, cols = stream
        got, _ = self._run_sharded(
            ids, cols, workers=workers, transport="shm"
        )
        assert got == self._reference(ids, cols)

    def test_push_batch_tuples_on_shm(self, stream):
        ids, cols = stream
        reference = self._reference(ids, cols, batch=len(ids))
        engine = ShardedStreamEngine(_factory, workers=2, transport="shm")
        try:
            engine.push_batch(
                (ids[i], cols.ts[i], cols.xs[i], cols.ys[i])
                for i in range(len(ids))
            )
            results = engine.finish_all()
        finally:
            engine.close()
        assert {
            d: [t.key_points for t in v] for d, v in results.items()
        } == reference

    def test_tiny_ring_backpressure_still_bit_identical(self, stream):
        # A 512-byte ring forces constant wraparound and ring-full waits;
        # correctness must be unaffected and the stats must show the waits.
        ids, cols = stream
        got, engine = self._run_sharded(
            ids, cols, workers=2, ring_bytes=512
        )
        assert got == self._reference(ids, cols)
        stats = engine.transport_stats()
        assert sum(s["ring_waits"] for s in stats) > 0
        assert all(s["acks"] == s["frames"] for s in stats)

    def test_ack_window_exhaustion_still_bit_identical(self, stream):
        ids, cols = stream
        got, engine = self._run_sharded(
            ids, cols, workers=2, batch=16, ack_window=1
        )
        assert got == self._reference(ids, cols)
        stats = engine.transport_stats()
        assert sum(s["window_waits"] for s in stats) > 0
        assert all(s["max_in_flight"] <= 1 for s in stats)

    def test_geodetic_shm_matches_single_process(self):
        ids, ts, lats, lons = gps_fleet_fixes(
            8, 60, seed=4, multi_zone=True, noise_m=2.0
        )
        single = GeoStreamEngine(_factory)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 64):
            single.push_columns(*batch)
        expected = single.finish_all()
        with ShardedStreamEngine(
            _factory, workers=2, geodetic=True, transport="shm"
        ) as sharded:
            for batch in iter_geo_fix_batches(ids, ts, lats, lons, 64):
                sharded.push_columns(*batch)
            got = sharded.finish_all()
        assert set(got) == set(expected)
        for device in expected:
            assert [t.key_points for t in got[device]] == [
                t.key_points for t in expected[device]
            ]
            assert [t.frame for t in got[device]] == [
                t.frame for t in expected[device]
            ]

    def test_kill9_mid_stream_replays_journal(self, tmp_path, stream):
        ids, cols = stream
        reference = self._reference(ids, cols)
        batches = list(iter_fix_batches(ids, cols, 64))
        engine = ShardedStreamEngine(
            _factory,
            workers=2,
            transport="shm",
            journal_dir=tmp_path / "wal",
            restart_workers=2,
        )
        try:
            half = len(batches) // 2
            for batch in batches[:half]:
                engine.push_columns(*batch)
            os.kill(engine._procs[0].pid, signal.SIGKILL)
            time.sleep(0.3)
            for batch in batches[half:]:
                engine.push_columns(*batch)
            results = engine.finish_all()
        finally:
            engine.close()
        assert engine._restarts[0] >= 1
        assert {
            d: [t.key_points for t in v] for d, v in results.items()
        } == reference

    def test_kill9_with_tiny_ring_survives_redrive_backpressure(
        self, tmp_path, stream
    ):
        # The re-drive after a restart must itself respect ring space.
        ids, cols = stream
        reference = self._reference(ids, cols)
        batches = list(iter_fix_batches(ids, cols, 64))
        engine = ShardedStreamEngine(
            _factory,
            workers=2,
            ring_bytes=512,
            journal_dir=tmp_path / "wal",
            restart_workers=2,
        )
        try:
            half = len(batches) // 2
            for batch in batches[:half]:
                engine.push_columns(*batch)
            os.kill(engine._procs[0].pid, signal.SIGKILL)
            time.sleep(0.3)
            for batch in batches[half:]:
                engine.push_columns(*batch)
            results = engine.finish_all()
        finally:
            engine.close()
        assert engine._restarts[0] >= 1
        assert {
            d: [t.key_points for t in v] for d, v in results.items()
        } == reference

    def test_transport_stats_shape(self, stream):
        ids, cols = stream
        _, engine = self._run_sharded(ids, cols, workers=2)
        stats = engine.transport_stats()
        assert [s["shard"] for s in stats] == [0, 1]
        total_fixes = sum(s["fixes"] for s in stats)
        assert total_fixes == len(ids)
        assert abs(sum(s["utilization"] for s in stats) - 1.0) < 0.01
        for s in stats:
            assert s["transport"] == "shm"
            assert s["frames"] > 0 and s["bytes"] > 0
            assert s["acks"] == s["frames"]
            assert s["ack_us_p99"] >= s["ack_us_p50"] >= 0.0

    def test_exotic_device_id_fails_loudly_on_shm(self):
        engine = ShardedStreamEngine(_factory, workers=1)
        try:
            with pytest.raises(TransportError, match="str, int or bytes"):
                engine.push_batch([(True, 0.0, 1.0, 2.0)])
            # The rejected push shipped nothing, so it must account
            # nothing: a later stats read reflects shipped fixes only.
            engine.push_batch([("a", 0.0, 1.0, 2.0)])
            engine.finish_all()
            (stats,) = engine.transport_stats()
            assert stats["fixes"] == 1
            assert stats["frames"] == 1
        finally:
            engine.close()

    def test_id_too_long_for_the_ring_fails_without_hanging(self):
        engine = ShardedStreamEngine(_factory, workers=1, ring_bytes=256)
        try:
            with pytest.raises(TransportError, match="too long"):
                engine.push_batch([("d" * 300, 0.0, 1.0, 2.0)])
            (stats,) = engine.transport_stats()
            assert stats["fixes"] == 0 and stats["frames"] == 0
            engine.push_batch([("a", 0.0, 1.0, 2.0)])
            assert list(engine.finish_all()) == ["a"]
            (stats,) = engine.transport_stats()
            assert stats["fixes"] == 1 and stats["frames"] == 1
        finally:
            engine.close()

    def test_validation(self):
        for transport in ("pipe", "bogus"):
            with pytest.raises(ValueError, match="transport"):
                ShardedStreamEngine(_factory, workers=2, transport=transport)
        with pytest.raises(ValueError, match="ring_bytes"):
            ShardedStreamEngine(_factory, workers=2, ring_bytes=16)
        with pytest.raises(ValueError, match="ack_window"):
            ShardedStreamEngine(_factory, workers=2, ack_window=0)

    def test_rings_cleaned_up_on_close(self):
        # The default engine and an explicit transport="shm" both run on
        # the rings.
        for kwargs in ({}, {"transport": "shm"}):
            engine = ShardedStreamEngine(_factory, workers=2, **kwargs)
            names = [ring.name for ring in engine._rings]
            assert len(names) == 2
            engine.close()
            for name in names:
                assert not os.path.exists(f"/dev/shm/{name}")

