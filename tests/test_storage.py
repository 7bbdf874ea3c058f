"""Storage tests: the segmented store, crash recovery, queries, the CLI.

The two load-bearing guarantees:

* **Durability** — whatever sequence of appends, tombstones, crashes
  (simulated by truncating/corrupting segment tails) and compactions a
  store lives through, reopening it recovers exactly the undamaged
  records, and the index matches what :meth:`read` decodes.
* **Query correctness** — on fixtures whose ground truth is known, the
  exact-mode answers equal a brute-force scan of the *uncompressed*
  fixes, and on arbitrary random rectangles the error-bound bracket
  ``definite ⊆ brute ⊆ exact ⊆ approximate`` always holds.
"""

import functools
import math
import random

import pytest

from repro.compression import BQSCompressor
from repro.engine import ShardedStreamEngine, StreamEngine, fleet_fixes, iter_fix_batches
from repro.geometry.planar import segment_rect_distance
from repro.model import CompressedTrajectory, PlanePoint, TrajectoryColumns
from repro.storage import (
    QueryMatch,
    StoreSink,
    TrajectoryStore,
    range_query,
    time_window_query,
)
from repro.storage import query as query_module
from repro.storage.__main__ import main as storage_main
from repro.storage.store import shard_store_sink


def _trajectory(points, original=None, epsilon=10.0, algorithm="bqs"):
    return CompressedTrajectory(
        key_points=tuple(points),
        original_count=original if original is not None else len(points),
        tolerance=epsilon,
        algorithm=algorithm,
    )


def _walk(cx, cy, n=40, radius=200.0, seed=1):
    """A deterministic loop around (cx, cy), radius-bounded."""
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        r = radius * (0.6 + 0.4 * rng.random())
        pts.append(
            PlanePoint(cx + r * math.cos(angle), cy + r * math.sin(angle), float(k))
        )
    return pts


@pytest.fixture
def store(tmp_path):
    with TrajectoryStore(tmp_path / "store") as s:
        yield s


class TestStore:
    def test_append_read_round_trip(self, store):
        pts = _walk(0.0, 0.0)
        ct = BQSCompressor(10.0).compress(pts)
        ref = store.append("dev-a", ct)
        dec = store.read(ref)
        assert dec.algorithm == "bqs"
        assert len(dec.columns) == len(ct.key_points)
        assert ref.n_key_points == len(ct.key_points)
        assert ref.epsilon == 10.0
        # Envelope agrees exactly with the decoded coordinates.
        assert ref.x_min == min(dec.columns.xs)
        assert ref.x_max == max(dec.columns.xs)
        assert ref.t_min == dec.columns.ts[0]
        assert ref.t_max == dec.columns.ts[-1]

    def test_empty_trajectory_rejected(self, store):
        with pytest.raises(ValueError):
            store.append("dev-a", CompressedTrajectory((), 0))

    def test_reopen_rebuilds_index(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            for i in range(7):
                s.append(f"dev-{i % 3}", _trajectory(_walk(i * 10.0, 0.0)))
        with TrajectoryStore(path) as s:
            assert s.record_count == 7
            assert sorted(s.devices()) == ["dev-0", "dev-1", "dev-2"]
            assert len(s.device_manifest("dev-0")) == 3
            for ref, dec in s.iter_decoded():
                assert len(dec.columns) == ref.n_key_points

    def test_segment_rolling(self, tmp_path):
        with TrajectoryStore(tmp_path / "s", segment_max_bytes=4096) as s:
            for i in range(40):
                s.append("dev", _trajectory(_walk(0.0, 0.0, n=30, seed=i)))
            assert len(s.segment_names) > 1
            assert s.record_count == 40
        with TrajectoryStore(tmp_path / "s") as s:
            assert s.record_count == 40

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            for i in range(5):
                s.append(f"d{i}", _trajectory(_walk(0.0, 0.0, seed=i)))
            segment = path / s.segment_names[-1]
        # Crash simulation: chop bytes off the tail record.
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])
        with TrajectoryStore(path) as s:
            assert s.record_count == 4  # the last record died, others live
            assert s.scan_report  # and the damage is reported
            # the store keeps working: appends go after the damage point
            s.append("fresh", _trajectory(_walk(1.0, 1.0)))
        with TrajectoryStore(path) as s:
            assert "fresh" in s.devices()

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            for i in range(3):
                s.append(f"d{i}", _trajectory(_walk(0.0, 0.0, seed=i)))
            segment = path / s.segment_names[-1]
            refs = s.records()
        data = bytearray(segment.read_bytes())
        data[refs[1].offset + 12] ^= 0xFF  # flip a byte inside record 1
        segment.write_bytes(bytes(data))
        with TrajectoryStore(path) as s:
            assert s.record_count == 1  # records after the damage are gone

    def test_zeroed_tail_tolerated(self, tmp_path):
        """A zero-filled tail (crc32(b"") == 0 passes the CRC!) must be
        treated as damage, not crash the open scan."""
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            for i in range(3):
                s.append(f"d{i}", _trajectory(_walk(0.0, 0.0, seed=i)))
            segment = path / s.segment_names[-1]
        with open(segment, "ab") as handle:
            handle.write(bytes(16))  # crash artifact: preallocated zeros
        with TrajectoryStore(path) as s:
            assert s.record_count == 3
            assert s.scan_report
            s.append("after", _trajectory(_walk(1.0, 1.0)))
        with TrajectoryStore(path) as s:
            assert "after" in s.devices()

    def test_garbage_payload_tolerated(self, tmp_path):
        """A frame whose CRC matches garbage bytes must not crash the scan."""
        import struct
        import zlib as _zlib

        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            s.append("d0", _trajectory(_walk(0.0, 0.0)))
            segment = path / s.segment_names[-1]
        junk = b"\xff\xfe\xfd garbage"
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<II", len(junk), _zlib.crc32(junk)) + junk)
        with TrajectoryStore(path) as s:
            assert s.record_count == 1
            assert s.scan_report

    def test_tombstone_and_compact(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            for i in range(6):
                s.append(f"d{i % 2}", _trajectory(_walk(float(i), 0.0, seed=i)))
            assert s.delete_device("d0") == 3
            assert s.devices() == ["d1"]
            before = s.total_bytes()
            stats = s.compact()
            assert stats["records"] == 3
            assert stats["bytes_after"] < before
            assert s.record_count == 3
        # Deletion and compaction survive reopen.
        with TrajectoryStore(path) as s:
            assert s.devices() == ["d1"]
            assert s.record_count == 3
            for ref, dec in s.iter_decoded():
                assert ref.device_id == "d1"

    def test_tombstone_without_compact_survives_reopen(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            s.append("a", _trajectory(_walk(0.0, 0.0)))
            s.append("b", _trajectory(_walk(9.0, 0.0)))
            s.delete_device("a")
        with TrajectoryStore(path) as s:
            assert s.devices() == ["b"]
            # a device reborn after its tombstone is live again
            s.append("a", _trajectory(_walk(5.0, 5.0)))
        with TrajectoryStore(path) as s:
            assert sorted(s.devices()) == ["a", "b"]

    def test_crashed_compaction_orphan_not_resurrected(self, tmp_path):
        """An orphan segment holding valid frames under the next segment
        number (a compaction that died before its manifest commit) must be
        truncated when the name is reused — not appended to."""
        import json as _json

        path = tmp_path / "s"
        with TrajectoryStore(path, segment_max_bytes=4096) as s:
            s.append("a", _trajectory(_walk(0.0, 0.0)))
            s.append("b", _trajectory(_walk(9.0, 0.0)))
        manifest = _json.loads((path / "manifest.json").read_text())
        orphan = path / f"seg-{manifest['next_segment']:08d}.log"
        orphan.write_bytes((path / manifest["segments"][0]).read_bytes())
        with TrajectoryStore(path, segment_max_bytes=4096) as s:
            assert s.record_count == 2  # orphan not scanned
            for i in range(40):  # force rolls through the orphan's name
                s.append("c", _trajectory(_walk(1.0, 1.0, n=30, seed=i)))
            for ref, dec in s.iter_decoded():  # every read CRC-verifies
                assert len(dec.columns) == ref.n_key_points
        with TrajectoryStore(path) as s:
            assert s.record_count == 42  # no stale frames resurrected
            assert sorted(s.devices()) == ["a", "b", "c"]

    def test_orphan_segments_ignored_and_reaped(self, tmp_path):
        path = tmp_path / "s"
        with TrajectoryStore(path) as s:
            s.append("a", _trajectory(_walk(0.0, 0.0)))
        # An orphan left by a hypothetical crashed compaction.
        (path / "seg-00990000.log").write_bytes(b"garbage that is not framed")
        with TrajectoryStore(path) as s:
            assert s.record_count == 1  # orphan not scanned
            s.compact()
        assert not (path / "seg-00990000.log").exists()

    def test_closed_store_rejects_writes(self, tmp_path):
        s = TrajectoryStore(tmp_path / "s")
        s.append("a", _trajectory(_walk(0.0, 0.0)))
        s.close()
        with pytest.raises(RuntimeError):
            s.append("a", _trajectory(_walk(0.0, 0.0)))


class TestStoreSink:
    def test_engine_streams_to_disk(self, tmp_path):
        ids, cols = fleet_fixes(12, 80, seed=5)
        sink = StoreSink(tmp_path / "s")
        engine = StreamEngine(
            functools.partial(_bqs_factory, 10.0), collect=False, sink=sink
        )
        for batch in iter_fix_batches(ids, cols, 512):
            engine.push_columns(*batch)
        engine.finish_all()
        sink.close()
        assert engine.results == {}  # nothing retained in memory
        with TrajectoryStore(tmp_path / "s") as s:
            assert s.record_count == 12
            assert sorted(s.devices()) == sorted(set(ids))
            # stored output equals an in-memory run, at quantum precision
            reference = StreamEngine(functools.partial(_bqs_factory, 10.0))
            for batch in iter_fix_batches(ids, cols, 512):
                reference.push_columns(*batch)
            expected = reference.finish_all()
            for device_id, trajectories in expected.items():
                (dec,) = [d for _, d in _device_decoded(s, device_id)]
                assert len(dec.columns) == len(trajectories[0].key_points)

    def test_eviction_reaches_store(self, tmp_path):
        """LRU-evicted devices land on disk, not on the floor."""
        sink = StoreSink(tmp_path / "s")
        engine = StreamEngine(
            functools.partial(_bqs_factory, 10.0),
            collect=False,
            sink=sink,
            max_devices=2,
        )
        for i in range(6):
            engine.push_fix(f"d{i}", float(i), float(i), 0.0)
        assert engine.evictions == 4
        engine.finish_all()
        sink.close()
        with TrajectoryStore(tmp_path / "s") as s:
            assert sorted(s.devices()) == [f"d{i}" for i in range(6)]

    def test_sharded_sink_factory(self, tmp_path):
        ids, cols = fleet_fixes(10, 60, seed=3)
        factory = functools.partial(_bqs_factory, 10.0)
        with ShardedStreamEngine(
            factory,
            workers=2,
            collect=False,
            sink_factory=functools.partial(shard_store_sink, str(tmp_path / "s")),
        ) as engine:
            for batch in iter_fix_batches(ids, cols, 256):
                engine.push_columns(*batch)
            merged = engine.finish_all()
        assert merged == {}  # collect off: disk is the only output
        seen = []
        for shard_dir in sorted((tmp_path / "s").iterdir()):
            with TrajectoryStore(shard_dir) as s:
                seen.extend(s.devices())
        assert sorted(seen) == sorted(set(ids))


def _bqs_factory(epsilon, device_id):
    return BQSCompressor(epsilon)


def _device_decoded(store, device_id):
    return [
        (ref, store.read(ref)) for ref in store.device_manifest(device_id)
    ]


class TestQueries:
    """Separated-fixture equality plus the random-rect bracket property."""

    CENTERS = [(0.0, 0.0), (1500.0, 0.0), (3000.0, 0.0), (4500.0, 0.0)]

    @pytest.fixture
    def fixture(self, tmp_path):
        """Four devices in well-separated neighbourhoods + raw originals."""
        originals = {}
        store = TrajectoryStore(tmp_path / "q")
        for i, (cx, cy) in enumerate(self.CENTERS):
            pts = _walk(cx, cy, n=60, radius=200.0, seed=10 + i)
            originals[f"dev-{i}"] = pts
            store.append(f"dev-{i}", BQSCompressor(10.0).compress(pts))
        yield store, originals
        store.close()

    @staticmethod
    def _brute_range(originals, rect):
        x0, y0, x1, y1 = rect
        return {
            d
            for d, pts in originals.items()
            if any(x0 <= p.x <= x1 and y0 <= p.y <= y1 for p in pts)
        }

    @staticmethod
    def _brute_window(originals, t0, t1):
        return {
            d
            for d, pts in originals.items()
            if pts[0].t <= t1 and pts[-1].t >= t0
        }

    def test_time_window_equals_brute_force(self, fixture):
        store, originals = fixture
        for (t0, t1) in [(0.0, 59.0), (10.0, 20.0), (59.0, 99.0), (70.0, 80.0)]:
            got = {m.device_id for m in time_window_query(store, t0, t1)}
            assert got == self._brute_window(originals, t0, t1), (t0, t1)

    def test_range_exact_equals_brute_force(self, fixture):
        store, originals = fixture
        rects = [
            (cx - 400.0, cy - 400.0, cx + 400.0, cy + 400.0)
            for cx, cy in self.CENTERS
        ]
        rects.append((-400.0, -400.0, 1900.0, 400.0))  # devices 0 and 1
        rects.append((-10_000.0, 5_000.0, 10_000.0, 6_000.0))  # nobody
        rects.append((-400.0, -400.0, 4900.0, 400.0))  # everybody
        for rect in rects:
            brute = self._brute_range(originals, rect)
            exact = {m.device_id for m in range_query(store, rect)}
            assert exact == brute, rect

    def test_definite_matches_are_proven(self, fixture):
        store, originals = fixture
        rect = (-400.0, -400.0, 400.0, 400.0)
        matches = range_query(store, rect)
        assert matches and all(m.definite for m in matches)

    def test_random_rect_bracket_property(self, fixture):
        """definite ⊆ brute ⊆ exact ⊆ approximate, on arbitrary rects."""
        store, originals = fixture
        rng = random.Random(77)
        for _ in range(60):
            x0 = rng.uniform(-600.0, 4800.0)
            y0 = rng.uniform(-600.0, 600.0)
            rect = (
                x0,
                y0,
                x0 + rng.uniform(1.0, 2000.0),
                y0 + rng.uniform(1.0, 600.0),
            )
            brute = self._brute_range(originals, rect)
            exact_matches = range_query(store, rect)
            exact = {m.device_id for m in exact_matches}
            definite = {m.device_id for m in exact_matches if m.definite}
            approx = {
                m.device_id
                for m in range_query(store, rect, mode="approximate")
            }
            assert definite <= brute, rect
            assert brute <= exact, rect
            assert exact <= approx, rect

    def test_windowed_range_query(self, fixture):
        store, originals = fixture
        # Device 0's walk: restrict to a window; the brute answer uses
        # only fixes inside the window (endpoints of covering chords are
        # within it for this 1 Hz fixture).
        rect = (-400.0, -400.0, 400.0, 400.0)
        full = {m.device_id for m in range_query(store, rect)}
        assert full == {"dev-0"}
        outside = range_query(store, rect, t0=1000.0, t1=2000.0)
        assert outside == []

    def test_validation(self, fixture):
        store, _ = fixture
        with pytest.raises(ValueError):
            range_query(store, (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            range_query(store, (0.0, 0.0, 1.0, 1.0), mode="fuzzy")
        with pytest.raises(ValueError):
            range_query(store, (0.0, 0.0, 1.0, 1.0), t0=5.0)
        with pytest.raises(ValueError):
            time_window_query(store, 10.0, 5.0)

    def test_unbounded_algorithm_gets_no_expansion(self, tmp_path):
        """An ε-less record matches on its polyline only."""
        with TrajectoryStore(tmp_path / "u") as store:
            pts = [PlanePoint(0.0, 0.0, 0.0), PlanePoint(100.0, 0.0, 1.0)]
            store.append(
                "u", _trajectory(pts, epsilon=math.inf, algorithm="uniform")
            )
            on_line = {m.device_id for m in range_query(store, (40.0, -1.0, 60.0, 1.0))}
            assert on_line == {"u"}
            near_line = range_query(store, (40.0, 5.0, 60.0, 10.0))
            assert near_line == []  # 5 m off: a bounded record would match


def _unscreened_chords_hit(decoded, rect, eps, t0, t1, definite_test=None):
    """``_chords_hit`` without its box screen: every chord measured with
    ``segment_rect_distance`` — the reference the screen must match."""
    x_min, y_min, x_max, y_max = rect
    windowed = t0 is not None
    cols = decoded.columns
    ts, xs, ys = cols.ts, cols.xs, cols.ys
    n = len(ts)
    hit = False
    for i in range(n):
        if not windowed or t0 <= ts[i] <= t1:
            if x_min <= xs[i] <= x_max and y_min <= ys[i] <= y_max:
                if definite_test is None or definite_test(xs[i], ys[i]):
                    return True, True
                hit = True
        if hit or i + 1 >= n:
            continue
        if windowed and not (ts[i] <= t1 and ts[i + 1] >= t0):
            continue
        d = segment_rect_distance(
            (xs[i], ys[i]), (xs[i + 1], ys[i + 1]), x_min, y_min, x_max, y_max
        )
        if d <= eps:
            hit = True
    if not hit and n == 1 and (not windowed or t0 <= ts[0] <= t1):
        d = segment_rect_distance(
            (xs[0], ys[0]), (xs[0], ys[0]), x_min, y_min, x_max, y_max
        )
        hit = d <= eps
    return hit, False


class _Decoded:
    """The one attribute ``_chords_hit`` reads off a decoded record."""

    def __init__(self, points):
        self.columns = TrajectoryColumns(
            [p[0] for p in points], [p[1] for p in points], [p[2] for p in points]
        )


def _grid_parity(x, y):
    """A stand-in geodetic ``definite_test``: deterministic, and false for
    about half of the key points, so the scan has to keep looking."""
    return int(math.floor(x) + math.floor(y)) % 2 == 0


class TestChordScreen:
    """The chord box screen in ``_chords_hit`` changes no answer.

    Chords are placed at separations from the rectangle straddling ε (by
    1e-9·ε, by one ulp, and exactly ε) and straddling the screen's own
    reach, with ε = 0 (the path for records without a finite bound),
    windows, single-key-point records and a geodetic-style
    ``definite_test``; ``(hit, definite)`` must equal the unscreened
    loop's on every one."""

    @staticmethod
    def _separations(eps, reach):
        seps = [eps, eps * (1 + 1e-9), eps * (1 - 1e-9),
                math.nextafter(eps, math.inf), math.nextafter(eps, -math.inf),
                reach, math.nextafter(reach, math.inf),
                math.nextafter(reach, -math.inf), 2 * reach + 5.0]
        return [max(sep, 0.0) for sep in seps]

    @staticmethod
    def _offset_point(rect, side, sep, along):
        """A point ``sep`` outside the rectangle's ``side`` edge, at
        fraction ``along`` of that edge (or past a corner, diagonally)."""
        x_min, y_min, x_max, y_max = rect
        if side == "left":
            return x_min - sep, y_min + along * (y_max - y_min)
        if side == "right":
            return x_max + sep, y_min + along * (y_max - y_min)
        if side == "bottom":
            return x_min + along * (x_max - x_min), y_min - sep
        if side == "top":
            return x_min + along * (x_max - x_min), y_max + sep
        d = sep / math.sqrt(2.0)
        return x_max + d, y_max + d  # corner: Euclidean separation ~sep

    def _case(self, rng):
        scale = rng.choice((0.0, 1e3, 5e5, 4.6e6))
        cx, cy = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
        w = rng.choice((0.0, 1.0, rng.uniform(1.0, 500.0)))
        h = rng.choice((0.0, 1.0, rng.uniform(1.0, 500.0)))
        rect = (cx, cy, cx + w, cy + h)
        eps = rng.choice((0.0, 1e-3, 5.0, 10.0, 250.0))
        reach = 2.0 * eps + query_module._SCREEN_SLACK_M + (
            query_module._SCREEN_SLACK_REL * max(abs(v) for v in rect)
        )
        seps = self._separations(eps, reach)
        points = []
        t = rng.uniform(0.0, 1e6)
        for _ in range(rng.choice((1, 1, 2, 2, 3, 6))):
            side = rng.choice(("left", "right", "bottom", "top", "corner"))
            along = rng.choice((0.0, 0.5, 1.0, rng.random()))
            x, y = self._offset_point(rect, side, rng.choice(seps), along)
            points.append((t, x, y))
            t += rng.choice((0.0, 1.0, rng.uniform(1.0, 60.0)))
        if rng.random() < 0.3:
            # A chord that ends inside: hit at distance zero.
            points.append((t, cx + w * rng.random(), cy + h * rng.random()))
        windowed = rng.random() < 0.4
        if windowed:
            t0 = rng.uniform(points[0][0] - 10.0, points[-1][0] + 10.0)
            t1 = t0 + rng.choice((0.0, 5.0, 100.0))
        else:
            t0 = t1 = None
        definite_test = _grid_parity if rng.random() < 0.4 else None
        return _Decoded(points), rect, eps, t0, t1, definite_test

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_unscreened_loop(self, seed):
        rng = random.Random(71_000 + seed)
        for _ in range(200):
            decoded, rect, eps, t0, t1, definite_test = self._case(rng)
            expected = _unscreened_chords_hit(decoded, rect, eps, t0, t1, definite_test)
            got = query_module._chords_hit(decoded, rect, eps, t0, t1, definite_test)
            assert got == expected, (decoded.columns, rect, eps, t0, t1)

    def test_infinite_bounds_screen_nothing_on_their_side(self, monkeypatch):
        """A polar geographic query projects to an infinite northing
        bound.  The screen must not turn it into NaN: chords off the
        finite sides are still screened, and nothing is screened toward
        the infinite one."""
        calls = []

        def counting(*args):
            calls.append(args)
            return segment_rect_distance(*args)

        monkeypatch.setattr(query_module, "segment_rect_distance", counting)
        rect = (0.0, 0.0, 100.0, math.inf)
        chords = {
            "north, beside": [(0.0, 105.0, 1e9), (1.0, 108.0, 2e9)],
            "south": [(0.0, 50.0, -500.0), (1.0, 60.0, -400.0)],
            "east": [(0.0, 500.0, 1e6), (1.0, 510.0, 2e6)],
        }
        measured = {}
        for name, points in chords.items():
            decoded = _Decoded(points)
            calls.clear()
            got = query_module._chords_hit(decoded, rect, 10.0, None, None)
            measured[name] = len(calls)
            assert got == _unscreened_chords_hit(decoded, rect, 10.0, None, None)
        assert measured == {"north, beside": 1, "south": 0, "east": 0}

    def test_far_chords_are_not_measured(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return segment_rect_distance(*args)

        monkeypatch.setattr(query_module, "segment_rect_distance", counting)
        rect = (0.0, 0.0, 100.0, 100.0)
        far = _Decoded([(float(k), 1000.0 + 10.0 * k, 50.0) for k in range(20)])
        assert query_module._chords_hit(far, rect, 10.0, None, None) == (False, False)
        assert calls == []
        near = _Decoded([(0.0, 105.0, -50.0), (1.0, 105.0, 150.0)])
        assert query_module._chords_hit(near, rect, 10.0, None, None) == (True, False)
        assert len(calls) == 1


class TestCLI:
    def test_ingest_stat_query_compact(self, tmp_path, capsys):
        path = str(tmp_path / "cli")
        assert storage_main(
            ["ingest", path, "--devices", "8", "--fixes", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 trajectories" in out and "B/raw fix" in out

        assert storage_main(["stat", path]) == 0
        out = capsys.readouterr().out
        assert "records    8" in out

        assert storage_main(["query", path, "--t0", "0", "--t1", "10"]) == 0
        captured = capsys.readouterr()
        assert "8 record(s), 8 device(s)" in captured.err

        assert storage_main(
            ["query", path, "--rect=-10000,-10000,10000,10000", "--mode", "approximate"]
        ) == 0
        captured = capsys.readouterr()
        assert "8 device(s)" in captured.err

        assert storage_main(["compact", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("compacted: 8 live records")

    def test_query_requires_predicate(self, tmp_path):
        path = str(tmp_path / "cli2")
        storage_main(["ingest", path, "--devices", "1", "--fixes", "5"])
        with pytest.raises(SystemExit):
            storage_main(["query", path])
        with pytest.raises(SystemExit):
            storage_main(["query", path, "--t0", "1"])
        with pytest.raises(SystemExit):
            storage_main(["query", path, "--rect", "1,2,3"])


class TestStoreFormat:
    """The on-disk format marker (format 2 added zone-stamped envelopes)."""

    def test_manifest_carries_format(self, tmp_path):
        import json as _json

        with TrajectoryStore(tmp_path / "s") as store:
            store.append("d", _trajectory(_walk(0.0, 0.0)))
        doc = _json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert doc["format"] == 3
        assert doc["generation"] == 0

    def test_old_format_rejected_with_clear_error(self, tmp_path):
        import json as _json

        path = tmp_path / "old"
        with TrajectoryStore(path) as store:
            store.append("d", _trajectory(_walk(0.0, 0.0)))
        doc = _json.loads((path / "manifest.json").read_text())
        del doc["format"]  # what a format-1 store's manifest looks like
        (path / "manifest.json").write_text(_json.dumps(doc))
        with pytest.raises(ValueError, match="format 1 is not supported"):
            TrajectoryStore(path)

    def test_unstamped_records_have_no_zone(self, tmp_path):
        with TrajectoryStore(tmp_path / "s") as store:
            ref = store.append("d", _trajectory(_walk(0.0, 0.0)))
            assert ref.utm_zone is None and ref.utm_south is False
            assert ref.projection() is None
            assert store.read(ref).utm_zone is None
        with TrajectoryStore(tmp_path / "s") as store:
            (ref,) = store.records()
            assert ref.utm_zone is None and ref.projection() is None
