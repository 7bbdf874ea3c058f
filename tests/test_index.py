"""Index sidecar tests: corruption fuzz, mmap-vs-scan parity, migration,
antimeridian wrap, stale concurrent readers.

The sidecars are an *accelerator*: the segment logs stay the source of
truth, so the load-bearing property is that no amount of sidecar damage
— truncation, bit flips, zeroing, staleness — ever changes an answer.
Every fuzz case here pins the indexed store's full query surface against
a store opened with ``index_sidecars=False`` (the pure legacy envelope
scan), and the parity class pins the mmap fast path bit-identical to the
scan on the geodetic fleet fixtures.
"""

import json
import math
import random
import struct
import zlib

import pytest

from repro.compression import BQSCompressor
from repro.engine import GeoStreamEngine, gps_fleet_fixes, iter_geo_fix_batches
from repro.model import CompressedTrajectory, PlanePoint
from repro.model.projection import UTMProjection
from repro.storage import (
    StaleStoreError,
    StoreSink,
    TrajectoryStore,
    geo_range_query,
    migrate_store,
    range_query,
    time_window_query,
)
from repro.storage.codec import _read_uvarint
from repro.storage import index as index_mod
from repro.storage.index import SegmentIndex, SidecarError, sidecar_path
from repro.storage.__main__ import main as storage_main

EPSILON = 10.0


def _trajectory(points, epsilon=EPSILON, frame=None):
    return CompressedTrajectory(
        key_points=tuple(points),
        original_count=len(points),
        tolerance=epsilon,
        algorithm="bqs",
        frame=frame,
    )


def _track(cx, cy, n=12, t0=0.0):
    """A deterministic short diagonal track starting at (cx, cy)."""
    return [
        PlanePoint(cx + 7.0 * k, cy + 3.0 * k, t0 + 60.0 * k) for k in range(n)
    ]


def _build_plain(path, n=100, segment_max_bytes=4096):
    """A multi-segment planar store with known contents, sealed on disk."""
    with TrajectoryStore(path, segment_max_bytes=segment_max_bytes) as s:
        for i in range(n):
            s.append(
                f"dev-{i % 7}",
                _trajectory(_track(i * 50.0, (i % 13) * 40.0, t0=float(i))),
            )
        segments = list(s.segment_names)
    if n >= 100:
        assert len(segments) >= 3, "fixture must span several segments"
    return segments


_RECT = (1000.0, 0.0, 2000.0, 600.0)
_WINDOW = (600.0, 3000.0)


def _answers(store):
    """The full query surface of a store, as comparable values."""
    return {
        "records": store.records(),
        "count": store.record_count,
        "devices": store.devices(),
        "manifests": {
            d: store.device_manifest(d) for d in sorted(store.devices())
        },
        "window": [
            (m.ref, m.definite) for m in time_window_query(store, *_WINDOW)
        ],
        "range_exact": [
            (m.ref, m.definite) for m in range_query(store, _RECT, mode="exact")
        ],
        "range_approx": [
            m.ref for m in range_query(store, _RECT, mode="approximate")
        ],
        "windowed_range": [
            (m.ref, m.definite)
            for m in range_query(
                store, _RECT, mode="exact", t0=_WINDOW[0], t1=_WINDOW[1]
            )
        ],
        "bbox": store.bbox(),
        "span": store.time_span(),
    }


def _scan_answers(path):
    with TrajectoryStore(path, index_sidecars=False) as scan:
        return _answers(scan)


def _regions(data):
    """Byte ranges of the regions sidecar version 2 added, from the
    footer of a pristine sidecar."""
    footer = index_mod._FOOTER.unpack_from(data, len(data) - index_mod._FOOTER.size)
    n_rows, block_rows, sort_rows = footer[3], footer[7], footer[8]
    rows_end = len(index_mod._HEADER) + n_rows * index_mod._ROW.size
    tblock_off = (
        len(data)
        - index_mod._FOOTER.size
        - -(-n_rows // block_rows) * index_mod._TBLOCK.size
    )
    sblock_off = tblock_off - -(-n_rows // sort_rows) * index_mod._SBLOCK.size
    return {
        "posting": (rows_end, rows_end + 4 * n_rows),
        "order": (rows_end + 4 * n_rows, rows_end + 8 * n_rows),
        "sorted blocks": (sblock_off, tblock_off),
    }


def _resealed(data):
    """``data`` with its metadata and footer CRCs recomputed: damage the
    CRCs cannot see (a writer bug, not bit rot)."""
    data = bytearray(data)
    foot_off = len(data) - index_mod._FOOTER.size
    n_rows = index_mod._FOOTER.unpack_from(data, foot_off)[3]
    rows_end = len(index_mod._HEADER) + n_rows * index_mod._ROW.size
    struct.pack_into("<I", data, len(data) - 8, zlib.crc32(data[rows_end:foot_off]))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[foot_off:-4]))
    return bytes(data)


class TestSidecarCorruption:
    """No corruption of a ``.idx`` file may change an answer — the worst
    it can cost is a rescan, after which the sidecar is regenerated."""

    def _check_matches_scan_and_heals(self, path, expected):
        with TrajectoryStore(path) as store:
            assert _answers(store) == expected
        # The fallback scan regenerated the sidecar: the next open is
        # served entirely from sidecars again.
        with TrajectoryStore(path) as store:
            report = store.index_report()
            assert report["scanned_segments"] == 0
            assert report["sidecar_rows"] == report["rows"]
            assert _answers(store) == expected

    def test_zero_length_sidecar(self, tmp_path):
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        sidecar_path(path, segments[0]).write_bytes(b"")
        self._check_matches_scan_and_heals(path, expected)

    def test_truncated_sidecar(self, tmp_path):
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        idx = sidecar_path(path, segments[1])
        data = idx.read_bytes()
        idx.write_bytes(data[: len(data) // 2])
        self._check_matches_scan_and_heals(path, expected)

    def test_footer_bitflip(self, tmp_path):
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        idx = sidecar_path(path, segments[0])
        data = bytearray(idx.read_bytes())
        data[-40] ^= 0x10
        idx.write_bytes(bytes(data))
        self._check_matches_scan_and_heals(path, expected)

    def test_row_region_bitflip_caught_lazily(self, tmp_path):
        """A flip in the (lazily verified) row region opens fine but is
        caught by the row CRC before any row is served."""
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        idx = sidecar_path(path, segments[0])
        data = bytearray(idx.read_bytes())
        data[8 + 16] ^= 0x01  # a row envelope double, past the header
        idx.write_bytes(bytes(data))
        with TrajectoryStore(path) as store:
            # The footer and metadata regions still validate...
            assert store.index_report()["scanned_segments"] == 0
            # ...but the first row access trips the CRC and falls back.
            assert _answers(store) == expected
            assert store.index_report()["scanned_segments"] == 1
        self._check_matches_scan_and_heals(path, expected)

    def test_stale_sidecar_rejected_on_size(self, tmp_path):
        """A sidecar describing yesterday's shorter log must not serve
        (it would silently hide the newer records)."""
        path = tmp_path / "s"
        segments = _build_plain(path)
        idx = sidecar_path(path, segments[-1])
        stale = idx.read_bytes()
        with TrajectoryStore(path) as store:  # grow the tail segment
            store.append("dev-late", _trajectory(_track(9000.0, 0.0)))
        expected = _scan_answers(path)
        assert any(r.device_id == "dev-late" for r in expected["records"])
        idx.write_bytes(stale)
        self._check_matches_scan_and_heals(path, expected)

    def test_random_corruption_fuzz(self, tmp_path):
        """Arbitrary mutations — truncations, bit flips, zeroed ranges —
        anywhere in any sidecar, and bit flips aimed at the posting, order
        and sorted-block regions, never escape as a wrong answer."""
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        pristine = {
            name: sidecar_path(path, name).read_bytes() for name in segments
        }
        rng = random.Random(20260807)
        for case in range(36):
            name = segments[rng.randrange(len(segments))]
            idx = sidecar_path(path, name)
            data = bytearray(pristine[name])
            kind = case % 4
            if kind == 0:
                data = data[: rng.randrange(len(data))]
            elif kind == 1:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            elif kind == 2:
                regions = list(_regions(pristine[name]).values())
                start, end = regions[case // 4 % len(regions)]
                data[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
            else:
                start = rng.randrange(len(data))
                end = min(len(data), start + rng.randrange(1, 256))
                data[start:end] = bytes(end - start)
            idx.write_bytes(bytes(data))
            with TrajectoryStore(path) as store:
                assert _answers(store) == expected, (case, name, kind)
            # The open (or close) regenerated it; restore the original
            # bytes anyway so every case mutates the same baseline.
            idx.write_bytes(pristine[name])

    def test_out_of_range_row_ordinal_is_a_sidecar_error(self, tmp_path):
        """An order or posting entry pointing past the row region — with
        every CRC valid — raises ``SidecarError`` before a row is served,
        never ``IndexError`` and never a wrong answer."""
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        idx = sidecar_path(path, segments[0])
        pristine = idx.read_bytes()
        size = (path / segments[0]).stat().st_size
        for region in ("posting", "order"):
            data = bytearray(pristine)
            start, _ = _regions(pristine)[region]
            struct.pack_into("<I", data, start + 8, 0x7FFFFFFF)
            idx.write_bytes(_resealed(data))
            view = SegmentIndex.open(
                idx, segment_name=segments[0], expected_size=size
            )
            try:
                with pytest.raises(SidecarError, match="out of range"):
                    view.verify_rows()
            finally:
                view.close()
            with TrajectoryStore(path) as store:
                assert _answers(store) == expected, region
            idx.write_bytes(pristine)

    def test_postings_must_cover_the_rows(self, tmp_path):
        path = tmp_path / "s"
        segments = _build_plain(path)
        idx = sidecar_path(path, segments[0])
        data = bytearray(idx.read_bytes())
        # The first device's row count lives right behind its id.
        dev_off = _regions(bytes(data))["order"][1]
        (id_len,) = struct.unpack_from("<H", data, dev_off)
        count_off = dev_off + 2 + id_len
        (count,) = struct.unpack_from("<I", data, count_off)
        struct.pack_into("<I", data, count_off, count - 1)
        idx.write_bytes(_resealed(data))
        with pytest.raises(SidecarError, match="postings"):
            SegmentIndex.open(
                idx,
                segment_name=segments[0],
                expected_size=(path / segments[0]).stat().st_size,
            )

    def test_version_1_sidecar_is_rescanned_once_then_served(
        self, tmp_path, monkeypatch
    ):
        """A store sealed by the previous sidecar version reopens with the
        same answers off the scan, rewrites its sidecars, and is served
        from them on the next open — the upgrade needs no command."""
        path = tmp_path / "s"
        monkeypatch.setattr(index_mod, "_VERSION", 1)
        segments = _build_plain(path)
        monkeypatch.undo()
        expected = _scan_answers(path)
        size = (path / segments[0]).stat().st_size
        with pytest.raises(SidecarError, match="version 1"):
            SegmentIndex.open(
                sidecar_path(path, segments[0]),
                segment_name=segments[0],
                expected_size=size,
            )
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == len(segments)
            assert _answers(store) == expected
        with TrajectoryStore(path) as store:
            report = store.index_report()
            assert report["scanned_segments"] == 0
            assert report["sidecar_rows"] == report["rows"]
            assert _answers(store) == expected

    def test_tombstones_survive_the_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path)
        with TrajectoryStore(path) as store:
            assert store.delete_device("dev-3") > 0
        expected = _scan_answers(path)
        assert all(r.device_id != "dev-3" for r in expected["records"])
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == 0
            assert _answers(store) == expected

    def test_reindex_rebuilds_every_sidecar(self, tmp_path):
        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        for name in segments:
            sidecar_path(path, name).write_bytes(b"garbage")
        with TrajectoryStore(path) as store:
            assert store.reindex() == len(segments)
            assert _answers(store) == expected
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == 0


class TestSidecarWriteFailure:
    """A sidecar that cannot be WRITTEN (full or read-only disk) must cost
    exactly what a corrupt one does: scan mode, correct answers, and a
    clean heal once the disk recovers.  Failures are simulated by
    monkeypatching because the suite may run as root, where chmod-based
    read-only directories are not enforced."""

    @staticmethod
    def _enospc(*args, **kwargs):
        raise OSError(28, "No space left on device")

    def test_regeneration_failure_degrades_to_scan(self, tmp_path, monkeypatch):
        import repro.storage.store as store_mod

        path = tmp_path / "s"
        segments = _build_plain(path)
        expected = _scan_answers(path)
        for name in segments:
            sidecar_path(path, name).unlink()

        monkeypatch.setattr(store_mod, "write_sidecar", self._enospc)
        with TrajectoryStore(path) as store:
            report = store.index_report()
            assert report["scanned_segments"] == len(segments)
            assert _answers(store) == expected  # scan mode, right answers
        # Close attempted regeneration and failed silently; nothing may
        # have been corrupted or half-written.
        for name in segments:
            assert not sidecar_path(path, name).exists()
            assert not sidecar_path(path, name).with_suffix(
                ".idx.tmp"
            ).exists()

        # Disk recovers: the next open rescans, heals every sidecar, and
        # the one after is served from sidecars alone.
        monkeypatch.undo()
        with TrajectoryStore(path) as store:
            assert _answers(store) == expected
        with TrajectoryStore(path) as store:
            report = store.index_report()
            assert report["scanned_segments"] == 0
            assert report["sidecar_rows"] == report["rows"]
            assert _answers(store) == expected

    def test_append_survives_sidecar_write_failure(self, tmp_path, monkeypatch):
        """Rolling a segment while the disk is full must not lose data:
        the log append sequence is unaffected, only the accelerator is."""
        import repro.storage.store as store_mod

        path = tmp_path / "s"
        monkeypatch.setattr(store_mod, "write_sidecar", self._enospc)
        with TrajectoryStore(path, segment_max_bytes=4096) as store:
            for i in range(60):
                store.append(
                    f"dev-{i % 5}",
                    _trajectory(_track(i * 30.0, i * 10.0, t0=float(i))),
                )
            assert store.record_count == 60
        expected = _scan_answers(path)
        assert len(expected["records"]) == 60

        monkeypatch.undo()
        with TrajectoryStore(path) as store:
            assert _answers(store) == expected
            store.reindex()
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == 0
            assert _answers(store) == expected

    def test_reindex_propagates_failure_without_corruption(
        self, tmp_path, monkeypatch
    ):
        """reindex() is an explicit repair: its failure must surface, and
        the store must keep answering correctly afterward."""
        import repro.storage.store as store_mod

        path = tmp_path / "s"
        _build_plain(path)
        expected = _scan_answers(path)
        with TrajectoryStore(path) as store:
            monkeypatch.setattr(store_mod, "write_sidecar", self._enospc)
            with pytest.raises(OSError):
                store.reindex()
            assert _answers(store) == expected

    def test_interrupted_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        """write_sidecar's crash-safety: a failure after the tmp file was
        created removes it — a truncated .idx.tmp must never linger where
        a later rename could promote it."""
        import repro.storage.index as index_mod

        target = tmp_path / "seg-00000001.idx"

        def boom(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(index_mod.os, "replace", boom)
        with pytest.raises(OSError):
            index_mod.write_sidecar(
                target,
                "seg-00000001.log",
                [],
                [],
                segment_size=0,
                log_crc=0,
                head_crc=0,
            )
        assert not target.exists()
        assert not target.with_suffix(".idx.tmp").exists()


class TestMmapScanParity:
    """The pinned guarantee: the mmap'd sidecar fast path returns answers
    bit-identical to the in-memory envelope scan — same refs, same
    floats, same order — on the geodetic fleet fixtures."""

    @pytest.fixture(scope="class")
    def geo_store_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("parity") / "geo"
        ids, ts, lats, lons = gps_fleet_fixes(
            12, 90, seed=41, multi_zone=True, noise_m=2.0
        )
        sink = StoreSink(directory)
        engine = GeoStreamEngine(
            lambda device_id: BQSCompressor(EPSILON), collect=False, sink=sink
        )
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 211):
            engine.push_columns(*batch)
        engine.finish_all()
        sink.close()
        return directory, lats, lons

    def test_records_and_manifests_identical(self, geo_store_dir):
        directory = geo_store_dir[0]
        with TrajectoryStore(directory) as fast, TrajectoryStore(
            directory, index_sidecars=False
        ) as scan:
            assert fast.index_report()["scanned_segments"] == 0
            assert scan.index_report()["sidecar_segments"] == 0
            assert fast.records() == scan.records()
            assert fast.devices() == scan.devices()
            for device in scan.devices():
                assert fast.device_manifest(device) == scan.device_manifest(
                    device
                )
            assert fast.bbox() == scan.bbox()
            assert fast.time_span() == scan.time_span()
            assert fast.stamped_frames() == scan.stamped_frames()

    def test_geo_queries_bit_identical(self, geo_store_dir):
        directory, lats, lons = geo_store_dir
        north = [(la, lo) for la, lo in zip(lats, lons) if la >= 0.0]
        rects = [
            (
                min(p[0] for p in north),
                min(p[1] for p in north),
                max(p[0] for p in north),
                max(p[1] for p in north),
            )
        ]
        rng = random.Random(505)
        for _ in range(12):
            la0, lo0 = north[rng.randrange(len(north))]
            dla = rng.uniform(0.001, 0.05)
            dlo = rng.uniform(0.001, 0.05)
            rects.append((la0 - dla, lo0 - dlo, la0 + dla, lo0 + dlo))
        with TrajectoryStore(directory) as fast, TrajectoryStore(
            directory, index_sidecars=False
        ) as scan:
            for rect in rects:
                for mode in ("exact", "approximate"):
                    a = geo_range_query(fast, rect, mode=mode)
                    b = geo_range_query(scan, rect, mode=mode)
                    assert [
                        (m.ref, m.definite, m.geo_envelope) for m in a
                    ] == [(m.ref, m.definite, m.geo_envelope) for m in b], (
                        rect,
                        mode,
                    )

    def test_planar_candidates_bit_identical(self, geo_store_dir):
        directory = geo_store_dir[0]
        with TrajectoryStore(directory) as fast, TrajectoryStore(
            directory, index_sidecars=False
        ) as scan:
            x0, y0, x1, y1 = scan.bbox()
            rng = random.Random(606)
            for _ in range(20):
                cx = rng.uniform(x0, x1)
                cy = rng.uniform(y0, y1)
                w = rng.uniform(1.0, (x1 - x0) * 0.5)
                h = rng.uniform(1.0, (y1 - y0) * 0.5)
                rect = (cx - w, cy - h, cx + w, cy + h)
                t0, t1 = (None, None) if rng.random() < 0.5 else (20.0, 70.0)
                assert list(
                    fast.candidates(rect=rect, t0=t0, t1=t1)
                ) == list(scan.candidates(rect=rect, t0=t0, t1=t1)), rect


_FRAMES = (
    None,
    UTMProjection(32),
    UTMProjection(33),
    UTMProjection(32, south=True),
    UTMProjection(33, south=True),
)


def _random_store(path, rng, n, segment_max_bytes):
    """``n`` records off nine interleaved devices: five frames (both
    hemispheres, unstamped), finite and infinite ε, repeated envelopes,
    random times, and a tombstone a third of the way in."""
    tracks = [
        _track(rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0), n=rng.randrange(2, 9))
        for _ in range(max(1, n // 3))  # fewer tracks than records: repeats
    ]
    with TrajectoryStore(path, segment_max_bytes=segment_max_bytes) as store:
        for i in range(n):
            dt = rng.uniform(0.0, 5000.0)
            points = [
                PlanePoint(p.x, p.y, p.t + dt) for p in rng.choice(tracks)
            ]
            store.append(
                f"dev-{rng.randrange(9)}",
                _trajectory(
                    points,
                    epsilon=rng.choice((EPSILON, 0.5, math.inf)),
                    frame=rng.choice(_FRAMES),
                ),
            )
            if i == n // 3:
                store.delete_device("dev-2")
        if n == 0:
            store.delete_device("dev-2")  # a segment with a tombstone, no row


def _random_questions(rng):
    questions = [{}]
    for _ in range(12):
        cx, cy = rng.uniform(-200.0, 5200.0), rng.uniform(-200.0, 5200.0)
        w, h = rng.choice((5.0, 300.0, 4000.0)), rng.choice((5.0, 300.0, 4000.0))
        t0 = rng.uniform(-100.0, 5500.0)
        rect = (cx - w, cy - h, cx + w, cy + h)
        window = {"t0": t0, "t1": t0 + rng.choice((1.0, 400.0, 6000.0))}
        frame = rng.choice(_FRAMES[1:])
        zone = {"zone": frame.zone, "south": frame.south}
        questions += [
            {"rect": rect},
            window,
            {"rect": rect, **window},
            {"rect": rect, **zone},
            {"rect": rect, **window, **zone},
            zone,
        ]
    return questions


class TestSidecarScanEquivalence:
    """The space-ordered sidecar answers exactly what the linear scan
    does — same refs, same order — whatever the segment looks like."""

    def _check(self, path, seed, questions=None):
        if questions is None:
            questions = _random_questions(random.Random(seed))
        with TrajectoryStore(path) as fast, TrajectoryStore(
            path, index_sidecars=False
        ) as scan:
            assert fast.index_report()["scanned_segments"] == 0
            assert fast.records() == scan.records()
            assert fast.record_count == scan.record_count
            assert fast.devices() == scan.devices()
            for d in range(10):  # dev-9 does not exist
                assert fast.device_manifest(f"dev-{d}") == scan.device_manifest(
                    f"dev-{d}"
                )
            for question in questions:
                assert list(fast.candidates(**question)) == list(
                    scan.candidates(**question)
                ), question

    @pytest.mark.parametrize(
        "n, segment_max_bytes",
        [(0, 1 << 22), (1, 1 << 22), (63, 1 << 22), (64, 1 << 22),
         (65, 1 << 22), (256, 1 << 22), (300, 4096)],
    )
    def test_random_stores(self, tmp_path, n, segment_max_bytes):
        path = tmp_path / "s"
        rng = random.Random(1000 + n)
        _random_store(path, rng, n, segment_max_bytes)
        with TrajectoryStore(path) as store:
            assert (len(store.segment_names) > 3) == (segment_max_bytes == 4096)
        self._check(path, n)
        # A tombstone in the tail, over records in every earlier segment.
        with TrajectoryStore(path) as store:
            store.delete_device("dev-5")
            store.append("dev-5", _trajectory(_track(10.0, 10.0)))
        self._check(path, n + 1)
        with TrajectoryStore(path) as store:
            store.reindex()
        self._check(path, n + 2)
        with TrajectoryStore(path) as store:
            store.compact()
        self._check(path, n + 3)

    @pytest.mark.parametrize("segment_max_bytes", [1 << 22, 4096])
    def test_time_order_boundaries(self, tmp_path, segment_max_bytes):
        """Windows that are adversarial for a time-sorted index: one record
        spans the whole history (one run's ``max(t_max)`` is huge), many
        records share a ``t_min`` (runs of equal firsts), and every window
        edge lands exactly on a stored ``t_min`` / ``t_max``."""
        rng = random.Random(31)
        path = tmp_path / "s"
        # Whole seconds: exact at the codec's millisecond time quantum.
        spans = [(0.0, 9_000.0)] + [
            (t, t + rng.choice((0.0, 30.0, 600.0)))
            for t in (100.0 * rng.randrange(40) for _ in range(400))
        ]
        rng.shuffle(spans)
        frames = (None, UTMProjection(32), UTMProjection(33))
        with TrajectoryStore(path, segment_max_bytes=segment_max_bytes) as store:
            for i, (lo, hi) in enumerate(spans):
                x, y = rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0)
                store.append(
                    f"dev-{i % 9}",
                    _trajectory(
                        [PlanePoint(x, y, lo), PlanePoint(x + 5.0, y + 3.0, hi)],
                        frame=frames[i % 3],
                    ),
                )
        edges = sorted({t for span in spans for t in span})
        windows = [(-1_000.0, -1.0), (9_001.0, 20_000.0), (-1.0, 0.0),
                   (9_000.0, 9_000.0)]
        windows += [(t, t) for t in edges]
        # t0 on one record's t_max, t1 on another's t_min.
        windows += [
            tuple(sorted((hi, spans[rng.randrange(len(spans))][0])))
            for _, hi in rng.sample(spans, 30)
        ]
        questions = [{"t0": t0, "t1": t1} for t0, t1 in windows]
        questions += [
            {"t0": t0, "t1": t1, "zone": 33, "south": False}
            for t0, t1 in windows[::4]
        ]
        self._check(path, None, questions)
        with TrajectoryStore(path) as store:
            store.delete_device("dev-4")
        self._check(path, None, questions)
        with TrajectoryStore(path) as store:
            store.reindex()
        self._check(path, None, questions)
        with TrajectoryStore(path) as store:
            store.compact()
        self._check(path, None, questions)


class TestSubLinearSelection:
    """A small rectangle and a device manifest cost what they return, not
    what the store holds — counted in rows examined, not timed."""

    @staticmethod
    def _examined(path, n):
        rng = random.Random(77)
        frame = UTMProjection(33)
        with TrajectoryStore(path) as store:
            for i in range(n):
                x, y = rng.uniform(0.0, 50_000.0), rng.uniform(0.0, 50_000.0)
                store.append(
                    f"dev-{i % (n // 20)}",  # the fleet grows, not the history
                    _trajectory(
                        [PlanePoint(x, y, float(i)), PlanePoint(x + 25.0, y + 18.0, i + 30.0)],
                        frame=frame,
                    ),
                )
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == 0
            # 1/100 of the extent per side, mid-map.
            rect = (25_000.0, 25_000.0, 25_500.0, 25_500.0)
            hits = list(store.candidates(rect=rect, zone=33))
            by_rect = store.index_report()["rows_examined"]
            manifest = store.device_manifest("dev-7")
            by_manifest = store.index_report()["rows_examined"] - by_rect
            assert len(manifest) == 20
            assert store.index_report()["blocks_examined"] > 0
        with TrajectoryStore(path, index_sidecars=False) as scan:
            assert hits == list(scan.candidates(rect=rect, zone=33))
            assert manifest == scan.device_manifest("dev-7")
        return by_rect, by_manifest

    def test_examined_rows_do_not_follow_the_store_size(self, tmp_path):
        examined = {
            n: self._examined(tmp_path / f"s{n}", n)
            for n in (5_000, 20_000, 80_000)
        }
        for kind in (0, 1):
            assert examined[20_000][kind] <= 0.05 * 20_000, examined
            assert examined[80_000][kind] < 4 * examined[5_000][kind], examined


class TestSubLinearTimeWindow:
    """A 30-minute window costs what it returns, not what the store holds,
    even when the rows were appended in no time order at all (many clocks
    writing one store) — counted in rows examined, not timed."""

    WINDOW = 1_800.0

    @classmethod
    def _examined(cls, path, n):
        rng = random.Random(78)
        # A history that grows with the store: expected matches stay fixed.
        span = 20.0 * n
        starts = [rng.uniform(0.0, span) for _ in range(n)]
        frame = UTMProjection(33)
        with TrajectoryStore(path) as store:
            for i, t in enumerate(starts):
                x, y = rng.uniform(0.0, 50_000.0), rng.uniform(0.0, 50_000.0)
                store.append(
                    f"dev-{i % (n // 20)}",
                    _trajectory(
                        [PlanePoint(x, y, t), PlanePoint(x + 25.0, y + 18.0, t + 30.0)],
                        frame=frame,
                    ),
                )
        t0 = span / 2.0
        with TrajectoryStore(path) as store:
            assert store.index_report()["scanned_segments"] == 0
            hits = list(store.candidates(t0=t0, t1=t0 + cls.WINDOW))
            report = store.index_report()
            assert report["blocks_examined"] > 0
        with TrajectoryStore(path, index_sidecars=False) as scan:
            assert hits == list(scan.candidates(t0=t0, t1=t0 + cls.WINDOW))
        assert hits, "the window must hold records"
        return report["rows_examined"]

    def test_examined_rows_do_not_follow_the_store_size(self, tmp_path):
        examined = {
            n: self._examined(tmp_path / f"s{n}", n)
            for n in (5_000, 20_000, 80_000)
        }
        assert examined[20_000] <= 0.05 * 20_000, examined
        assert examined[80_000] < 4 * examined[5_000], examined


class TestAntimeridianWrap:
    """A lat/lon rectangle with ``lon_min > lon_max`` wraps the ±180°
    seam: two lobes, one union, no false negatives."""

    @pytest.fixture(scope="class")
    def dateline_store(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("wrap") / "store"
        sink = StoreSink(directory)
        engine = GeoStreamEngine(
            lambda device_id: BQSCompressor(EPSILON), collect=False, sink=sink
        )
        tracks = {
            # Hugging the seam from the west (zone 60N).
            "west": [(10.0 + 0.001 * k, 179.90 + 0.008 * k) for k in range(9)],
            # Hugging the seam from the east (zone 1N).
            "east": [(10.0 + 0.001 * k, -179.98 + 0.008 * k) for k in range(9)],
            # Same zone as "west" but clear of the wrap rectangle.
            "away": [(10.0 + 0.001 * k, 178.00 + 0.008 * k) for k in range(9)],
        }
        for device, fixes in tracks.items():
            for k, (lat, lon) in enumerate(fixes):
                engine.push_fix(device, float(k), lat, lon)
        engine.finish_all()
        sink.close()
        return directory, tracks

    def test_wrap_finds_both_sides_of_the_seam(self, dateline_store):
        directory, tracks = dateline_store
        rect = (9.0, 179.5, 11.0, -179.5)
        with TrajectoryStore(directory) as store:
            exact = geo_range_query(store, rect, mode="exact")
            assert {m.device_id for m in exact} == {"west", "east"}
            # Both devices have raw fixes inside the wrapped rectangle,
            # so both matches are definite.
            assert all(m.definite for m in exact)
            approx = geo_range_query(store, rect, mode="approximate")
            assert {"west", "east"} <= {m.device_id for m in approx}
            assert "away" not in {m.device_id for m in approx}

    def test_wrap_equals_union_of_lobes(self, dateline_store):
        directory = dateline_store[0]
        rect = (9.0, 179.5, 11.0, -179.5)
        with TrajectoryStore(directory) as store:
            wrapped = geo_range_query(store, rect, mode="exact")
            west = geo_range_query(
                store, (9.0, 179.5, 11.0, 180.0), mode="exact"
            )
            east = geo_range_query(
                store, (9.0, -180.0, 11.0, -179.5), mode="exact"
            )
            union = {
                (m.ref.segment, m.ref.offset) for m in west + east
            }
            assert {
                (m.ref.segment, m.ref.offset) for m in wrapped
            } == union

    def test_no_false_negatives_across_the_seam(self, dateline_store):
        directory, tracks = dateline_store
        lon_west, lon_east = 179.95, -179.93
        rect = (9.0, lon_west, 11.0, lon_east)
        truth = {
            device
            for device, fixes in tracks.items()
            if any(
                9.0 <= la <= 11.0 and (lo >= lon_west or lo <= lon_east)
                for la, lo in fixes
            )
        }
        assert truth  # the fixture genuinely straddles this rect
        with TrajectoryStore(directory) as store:
            exact = {
                m.device_id
                for m in geo_range_query(store, rect, mode="exact")
            }
            assert truth <= exact

    def test_wide_wrap_reports_each_record_once(self, dateline_store):
        """A rectangle wrapping nearly the whole globe covers every
        device; records must still be reported exactly once, in append
        order."""
        directory = dateline_store[0]
        rect = (9.0, 20.0, 11.0, 19.0)  # [20..180] U [-180..19]
        with TrajectoryStore(directory) as store:
            matches = geo_range_query(store, rect, mode="approximate")
            keys = [(m.ref.segment, m.ref.offset) for m in matches]
            assert len(keys) == len(set(keys))
            assert {m.device_id for m in matches} == {"west", "east", "away"}
            order = {n: i for i, n in enumerate(store.segment_names)}
            assert keys == sorted(
                keys, key=lambda k: (order[k[0]], k[1])
            )

    def test_wrap_respects_the_time_window(self, dateline_store):
        directory, tracks = dateline_store
        rect = (9.0, 179.5, 11.0, -179.5)
        with TrajectoryStore(directory) as store:
            late = geo_range_query(
                store, rect, mode="exact", t0=100.0, t1=200.0
            )
            assert late == []  # every fix is at t <= 8

    def test_validation_still_rejects_out_of_range_lons(self, dateline_store):
        directory = dateline_store[0]
        with TrajectoryStore(directory) as store:
            with pytest.raises(ValueError):
                geo_range_query(store, (0.0, 170.0, 1.0, 181.0))
            with pytest.raises(ValueError):
                geo_range_query(store, (0.0, -181.0, 1.0, 0.0))
            # But a wrapped rectangle is not an error any more.
            assert (
                geo_range_query(store, (0.0, 179.9, 0.1, -179.9)) == []
            )


def _downgrade_manifest(path, fmt):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format"] = fmt
    manifest.pop("generation", None)
    (path / "manifest.json").write_text(json.dumps(manifest))


def _downgrade_to_format1(path):
    """Rewrite a (frame-less) store as an honest format-1 directory:
    strip the two zone/hemisphere envelope bytes from every trajectory
    payload, stamp the manifest, drop the sidecars."""
    frame = struct.Struct("<II")
    manifest = json.loads((path / "manifest.json").read_text())
    for name in manifest["segments"]:
        data = (path / name).read_bytes()
        out = bytearray()
        pos = 0
        while pos + frame.size <= len(data):
            length, _crc = frame.unpack_from(data, pos)
            payload = data[pos + frame.size : pos + frame.size + length]
            pos += frame.size + length
            if payload[0] == 1:  # trajectory record: drop the frame bytes
                id_len, p = _read_uvarint(payload, 1)
                env_end = p + id_len + 56  # 7 doubles
                payload = payload[:env_end] + payload[env_end + 2 :]
            out += frame.pack(len(payload), zlib.crc32(payload))
            out += payload
        (path / name).write_bytes(bytes(out))
    _downgrade_manifest(path, 1)
    for idx in path.glob("seg-*.idx"):
        idx.unlink()


class TestMigrate:
    def _fingerprint(self, store):
        return [
            (
                r.device_id,
                r.t_min,
                r.t_max,
                r.x_min,
                r.x_max,
                r.y_min,
                r.y_max,
                r.epsilon,
                r.n_key_points,
            )
            for r in store.records()
        ]

    def test_old_format_open_points_at_migrate(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=10)
        _downgrade_manifest(path, 2)
        with pytest.raises(ValueError, match="migrate"):
            TrajectoryStore(path)

    def test_migrate_format2(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=30)
        with TrajectoryStore(path) as store:
            before = self._fingerprint(store)
        _downgrade_manifest(path, 2)
        summary = migrate_store(path)
        assert summary["from_format"] == 2
        assert summary["migrated"] == 1
        assert summary["records"] == 30
        assert summary["sidecars"] == summary["segments"]
        with TrajectoryStore(path) as store:
            assert self._fingerprint(store) == before
            assert store.index_report()["scanned_segments"] == 0

    def test_migrate_format1(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=30)
        with TrajectoryStore(path) as store:
            before = self._fingerprint(store)
            decoded_before = [
                store.read(r).columns.xs for r in store.records()
            ]
        _downgrade_to_format1(path)
        summary = migrate_store(path)
        assert summary["from_format"] == 1
        assert summary["records"] == 30
        with TrajectoryStore(path) as store:
            assert self._fingerprint(store) == before
            refs = store.records()
            assert all(r.utm_zone is None for r in refs)
            assert [store.read(r).columns.xs for r in refs] == decoded_before
            # Range queries over the migrated store still answer.
            assert range_query(store, _RECT, mode="exact")

    def test_migrate_format1_with_tombstone(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=20)
        with TrajectoryStore(path) as store:
            store.delete_device("dev-1")
            live = len(store.records())
        _downgrade_to_format1(path)
        summary = migrate_store(path)
        assert summary["records"] == live
        with TrajectoryStore(path) as store:
            assert all(r.device_id != "dev-1" for r in store.records())

    def test_migrate_current_format_is_a_noop(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=10)
        summary = migrate_store(path)
        assert summary["migrated"] == 0
        assert summary["records"] == 10

    def test_unknown_format_refused(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=5)
        _downgrade_manifest(path, 99)
        with pytest.raises(ValueError, match="format 99"):
            migrate_store(path)

    def test_not_a_store_refused(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            migrate_store(tmp_path / "empty")

    def test_migrate_cli(self, tmp_path, capsys):
        path = tmp_path / "s"
        _build_plain(path, n=12)
        _downgrade_manifest(path, 2)
        assert storage_main(["migrate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format 2" in out
        _downgrade_manifest(path, 99)
        with pytest.raises(SystemExit):
            storage_main(["migrate", str(path)])


class TestStaleReader:
    def test_compaction_under_a_concurrent_reader(self, tmp_path):
        path = tmp_path / "s"
        _build_plain(path, n=40)
        reader = TrajectoryStore(path)
        try:
            victim = reader.device_manifest("dev-2")[0]
            survivors = {
                (r.segment, r.offset)
                for r in reader.records()
                if r.device_id != "dev-2"
            }
            with TrajectoryStore(path) as writer:
                writer.delete_device("dev-2")
                writer.compact()
            # The reader's cached index predates the compaction; its next
            # read of a reaped segment must fail loudly, not return stale
            # bytes — and reload the index so a re-query just works.
            with pytest.raises(StaleStoreError, match="re-run the query"):
                reader.read(victim)
            refreshed = reader.records()
            assert {r.device_id for r in refreshed} == {
                f"dev-{i}" for i in range(7) if i != 2
            }
            assert len(refreshed) == len(survivors)
            for ref in refreshed:
                reader.read(ref)  # every post-reload ref resolves
        finally:
            reader.close()

    def test_vanished_segment_without_compaction(self, tmp_path):
        """A segment file deleted out from under the store (no manifest
        change) raises instead of silently serving nothing."""
        path = tmp_path / "s"
        segments = _build_plain(path, n=40)
        reader = TrajectoryStore(path)
        try:
            ref = next(
                r for r in reader.records() if r.segment == segments[0]
            )
            (path / segments[0]).unlink()
            with pytest.raises(StaleStoreError):
                reader.read(ref)
        finally:
            reader.close()


class TestScaleSmokeCLI:
    def test_scale_smoke_passes_on_a_small_store(self, tmp_path, capsys):
        assert (
            storage_main(
                [
                    "scale-smoke",
                    str(tmp_path / "scale"),
                    "--records",
                    "1200",
                    "--devices",
                    "24",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "30-min window" in out
