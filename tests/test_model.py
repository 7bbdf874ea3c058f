"""Data-model tests: compressed output, reconstruction/SED."""

import gc
import math
import pickle
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from repro.model import (
    CompressedTrajectory,
    PlanePoint,
    max_synchronized_deviation,
    synchronized_deviation_xyt,
    UTMProjection,
)


def pts(*coords):
    return tuple(PlanePoint(x, y, t) for x, y, t in coords)


class TestCompressedTrajectory:
    def test_records_algorithm_and_rates(self):
        ct = CompressedTrajectory(
            key_points=pts((0, 0, 0), (10, 0, 10)),
            original_count=10,
            algorithm="bqs",
        )
        assert ct.algorithm == "bqs"
        assert ct.compression_rate == pytest.approx(0.2)

    def test_max_deviation_from_straight_chord(self):
        original = pts((0, 0, 0), (1, 1, 1), (2, 0, 2), (3, 0, 3))
        ct = CompressedTrajectory(pts((0, 0, 0), (3, 0, 3)), original_count=4)
        assert ct.max_deviation_from(original) == pytest.approx(1.0)

    def test_more_keys_than_originals_rejected(self):
        with pytest.raises(ValueError):
            CompressedTrajectory(pts((0, 0, 0), (1, 0, 1)), original_count=1)


class TestColumnBackedTrajectory:
    """Key points live in float columns; ``key_points`` is a cached view."""

    def _columns(self, coords):
        return {
            "ts": array("d", [c[2] for c in coords]),
            "xs": array("d", [c[0] for c in coords]),
            "ys": array("d", [c[1] for c in coords]),
        }

    COORDS = ((0.0, 0.0, 0.0), (3.0, 4.0, 1.0), (6.5, -2.0, 2.5))

    def test_point_built_equals_column_built(self):
        by_points = CompressedTrajectory(pts(*self.COORDS), 9, tolerance=2.0, algorithm="x")
        by_columns = CompressedTrajectory(
            original_count=9, tolerance=2.0, algorithm="x", **self._columns(self.COORDS)
        )
        assert by_points == by_columns
        assert hash(by_points) == hash(by_columns)
        assert by_columns.key_points == pts(*self.COORDS)
        assert len(by_columns) == 3 and by_columns.compression_rate == pytest.approx(3 / 9)
        other = CompressedTrajectory(pts(*self.COORDS[:2]), 9, tolerance=2.0, algorithm="x")
        assert other != by_columns

    def test_key_points_view_is_built_once(self):
        t = CompressedTrajectory(original_count=3, **self._columns(self.COORDS))
        assert "key_points" not in t.__dict__
        assert t.key_points is t.key_points
        assert [p.z for p in t.key_points] == [0.0, 0.0, 0.0]

    def test_replace_frame_keeps_columns_and_builds_no_points(self):
        t = CompressedTrajectory(original_count=3, **self._columns(self.COORDS))
        framed = replace(t, frame=UTMProjection(zone=33, south=False))
        assert framed.ts is t.ts and framed.xs is t.xs and framed.ys is t.ys
        assert "key_points" not in t.__dict__
        assert "key_points" not in framed.__dict__
        assert framed.frame.zone == 33 and framed.original_count == 3

    def test_replace_key_points_wins_over_columns(self):
        t = CompressedTrajectory(pts(*self.COORDS), 3)
        shorter = replace(t, key_points=t.key_points[::2])
        assert shorter.key_points == pts(self.COORDS[0], self.COORDS[2])
        assert list(shorter.ts) == [0.0, 2.5]

    def test_pickle_round_trip(self):
        t = CompressedTrajectory(
            original_count=3, algorithm="bqs", info={"k": 1}, **self._columns(self.COORDS)
        )
        t.key_points  # the cache is not part of the pickled state
        back = pickle.loads(pickle.dumps(t))
        assert back == t
        assert "key_points" not in back.__dict__
        assert back.key_points == t.key_points and back.info == {"k": 1}

    def test_zs_only_when_some_z_is_nonzero(self):
        flat = CompressedTrajectory(pts(*self.COORDS), 3)
        assert flat.zs is None
        tall = CompressedTrajectory(
            (PlanePoint(0.0, 0.0, 0.0), PlanePoint(1.0, 0.0, 1.0, z=7.0)), 2
        )
        assert list(tall.zs) == [0.0, 7.0]
        assert tall.key_points[1].z == 7.0
        zeros = CompressedTrajectory(
            original_count=3, zs=array("d", [0.0] * 3), **self._columns(self.COORDS)
        )
        assert zeros.zs is None and zeros == flat

    def test_to_columns_returns_the_stored_arrays(self):
        t = CompressedTrajectory(original_count=3, **self._columns(self.COORDS))
        cols = t.to_columns()
        assert cols.ts is t.ts and cols.xs is t.xs and cols.ys is t.ys

    def test_column_validation(self):
        cols = self._columns(self.COORDS)
        with pytest.raises(ValueError):
            CompressedTrajectory(original_count=3, ts=cols["ts"], xs=cols["xs"], ys=array("d"))
        with pytest.raises(ValueError):
            CompressedTrajectory(original_count=3, **self._columns(self.COORDS[::-1]))
        with pytest.raises(TypeError):
            CompressedTrajectory(pts(*self.COORDS))

    def test_compressor_output_retains_under_40_bytes_per_key_point(self):
        from repro.compression import BQSCompressor

        n = 100_000  # a sine wave along x: one key point every ~28 fixes
        ts = array("d", range(n))
        xs = array("d", [5.0 * i for i in range(n)])
        ys = array("d", [40.0 * math.sin(i / 9.0) for i in range(n)])
        gc.collect()
        tracemalloc.start()
        try:
            compressor = BQSCompressor(10.0)
            compressor.push_xyt(ts, xs, ys)
            out = compressor.finish()
            del compressor
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) > 2000
        assert retained / len(out) <= 40.0


class TestReconstruction:
    def test_synchronized_deviation_is_sed(self):
        a = (0.0, 0.0, 0.0)
        b = (10.0, 0.0, 10.0)
        assert synchronized_deviation_xyt(5.0, 3.0, 5.0, *a, *b) == pytest.approx(3.0)
        # A point lagging behind schedule picks up longitudinal error too.
        assert synchronized_deviation_xyt(2.0, 0.0, 5.0, *a, *b) == pytest.approx(3.0)

    def test_max_synchronized_deviation_over_track(self):
        original = pts((0, 0, 0), (4, 1, 5), (10, 0, 10))
        ct = CompressedTrajectory(pts((0, 0, 0), (10, 0, 10)), 3)
        # At t=5 the reconstruction sits at (5, 0); the point is at (4, 1).
        assert max_synchronized_deviation(ct, original) == pytest.approx(2.0 ** 0.5)
