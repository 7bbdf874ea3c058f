"""Columnar ingestion tests: TrajectoryColumns and push_xyt ↔ push identity.

The columnar (struct-of-arrays) path must be a pure optimization: for every
compressor and every workload, feeding flat ``(ts, xs, ys)`` columns
through ``push_xyt`` must leave key points, stats, counts and info
*bit-identical* to pushing the materialized ``PlanePoint`` objects one at a
time — including across chunk boundaries, mixed entry points, mid-batch
validation failures, and the degenerate (stationary) streams that exercise
the zero-length path line.
"""

import math

import pytest

from repro.compression import (
    BQSCompressor,
    DeadReckoningCompressor,
    DouglasPeucker,
    FastBQSCompressor,
    TDTRCompressor,
    UniformSampler,
    synthetic_track,
)
from repro.model import PlanePoint, TrajectoryColumns
from repro.testing.workloads import WORKLOADS, make_workload


def _factories(epsilon):
    return [
        lambda: BQSCompressor(epsilon),
        lambda: FastBQSCompressor(epsilon),
        lambda: DeadReckoningCompressor(epsilon),
        lambda: UniformSampler(7, epsilon=epsilon),
        lambda: DouglasPeucker(epsilon),
        lambda: TDTRCompressor(epsilon),
    ]


class TestTrajectoryColumns:
    def test_round_trips_points(self):
        track = synthetic_track(50, seed=3)
        cols = TrajectoryColumns.from_points(track)
        assert len(cols) == 50
        assert cols.to_points() == [PlanePoint(p.x, p.y, p.t) for p in track]
        assert cols.point(7) == PlanePoint(track[7].x, track[7].y, track[7].t)

    def test_append_extend_iter_eq_clear(self):
        cols = TrajectoryColumns()
        cols.append(0.0, 1.0, 2.0)
        cols.extend([1.0, 2.0], [3.0, 5.0], [4.0, 6.0])
        assert list(cols) == [(0.0, 1.0, 2.0), (1.0, 3.0, 4.0), (2.0, 5.0, 6.0)]
        assert cols == TrajectoryColumns([0.0, 1.0, 2.0], [1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
        assert cols != TrajectoryColumns()
        cols.clear()
        assert len(cols) == 0

    def test_from_fixes(self):
        cols = TrajectoryColumns.from_fixes([(0.0, 1.0, 2.0), (1.5, 3.0, 4.0)])
        assert list(cols.ts) == [0.0, 1.5]
        assert list(cols.xs) == [1.0, 3.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            TrajectoryColumns([0.0], [1.0, 2.0], [3.0])
        cols = TrajectoryColumns()
        with pytest.raises(ValueError, match="length mismatch"):
            cols.extend([0.0], [1.0], [2.0, 3.0])


class TestColumnarBitIdentity:
    """The acceptance-criterion property: columnar ≡ object path, exactly."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("epsilon", [3.0, 10.0])
    def test_every_compressor_on_every_workload(self, workload, epsilon):
        track = make_workload(workload, 1500, seed=11)
        cols = TrajectoryColumns.from_points(track)
        for make in _factories(epsilon):
            per_point = make()
            for p in track:
                per_point.push(p)
            reference = per_point.finish()

            columnar = make()
            consumed = columnar.push_xyt(cols.ts, cols.xs, cols.ys)
            fast = columnar.finish()

            assert consumed == len(track)
            assert fast.key_points == reference.key_points, (workload, columnar.name)
            assert columnar.stats == per_point.stats, (workload, columnar.name)
            assert columnar.pushed == per_point.pushed
            assert fast.info == reference.info, (workload, columnar.name)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_noisy_tracks_with_exact_fallbacks(self, seed):
        """Noise pushes BQS into its uncertain band: the exact-fallback and
        split paths must stay identical too."""
        track = synthetic_track(3000, seed=seed, noise_sigma=2.5)
        cols = TrajectoryColumns.from_points(track)
        for make in _factories(5.0):
            reference = make().compress(track)
            columnar = make()
            columnar.push_xyt(cols.ts, cols.xs, cols.ys)
            assert columnar.finish().key_points == reference.key_points

    def test_chunked_columnar_equals_one_batch(self):
        track = synthetic_track(2000, seed=3)
        cols = TrajectoryColumns.from_points(track)
        for make in _factories(10.0):
            whole = make()
            whole.push_xyt(cols.ts, cols.xs, cols.ys)
            chunked = make()
            for start in range(0, len(track), 263):
                stop = start + 263
                chunked.push_xyt(
                    cols.ts[start:stop], cols.xs[start:stop], cols.ys[start:stop]
                )
            assert whole.finish().key_points == chunked.finish().key_points
            assert whole.stats == chunked.stats

    def test_columnar_mixes_with_push_and_push_many(self):
        track = synthetic_track(1500, seed=9)
        cols = TrajectoryColumns.from_points(track)
        for make in _factories(10.0):
            mixed = make()
            mixed.push_xyt(cols.ts[:400], cols.xs[:400], cols.ys[:400])
            for p in track[400:600]:
                mixed.push(p)
            mixed.push_many(track[600:900])
            mixed.push_xyt(cols.ts[900:], cols.xs[900:], cols.ys[900:])
            pure = make()
            for p in track:
                pure.push(p)
            assert mixed.finish().key_points == pure.finish().key_points
            assert mixed.stats == pure.stats

    def test_stationary_stream_degenerate_path_line(self):
        """Co-located fixes collapse the path line to a point."""
        fix = [PlanePoint(5.0, 5.0, float(i)) for i in range(300)]
        cols = TrajectoryColumns.from_points(fix)
        for make in (lambda: BQSCompressor(4.0), lambda: FastBQSCompressor(4.0)):
            reference = make().compress(fix)
            columnar = make()
            columnar.push_xyt(cols.ts, cols.xs, cols.ys)
            result = columnar.finish()
            assert result.key_points == reference.key_points
            assert len(result) == 2

    def test_bqs_debug_audit_matches_columnar(self):
        """The audited reference mode cross-checks the columnar output."""
        track = synthetic_track(2000, seed=4, noise_sigma=1.5)
        cols = TrajectoryColumns.from_points(track)
        audited = BQSCompressor(6.0, debug_audit=True)
        audited.push_xyt(cols.ts, cols.xs, cols.ys)  # raises on divergence
        plain = BQSCompressor(6.0)
        plain.push_xyt(cols.ts, cols.xs, cols.ys)
        assert audited.finish().key_points == plain.finish().key_points


class TestColumnarValidation:
    @pytest.mark.parametrize("make", _factories(10.0), ids=lambda f: f().name)
    def test_monotonicity_enforced_with_prefix_consumed(self, make):
        c = make()
        with pytest.raises(ValueError, match="non-decreasing"):
            c.push_xyt([0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        # The valid prefix was consumed; the stream stays usable.
        assert c.pushed == 2
        c.push(PlanePoint(4.0, 0.0, 3.0))
        assert c.pushed == 3

    def test_length_mismatch_rejected(self):
        c = BQSCompressor(10.0)
        with pytest.raises(ValueError, match="length mismatch"):
            c.push_xyt([0.0, 1.0], [0.0], [0.0, 1.0])
        assert c.pushed == 0

    def test_push_xyt_after_finish_rejected(self):
        c = FastBQSCompressor(10.0)
        c.push(PlanePoint(0.0, 0.0, 0.0))
        c.finish()
        with pytest.raises(RuntimeError):
            c.push_xyt([1.0], [1.0], [1.0])

    def test_mid_batch_error_leaves_consistent_state(self):
        """After a mid-batch failure the compressor must still equal a
        push() stream of the same valid prefix + suffix."""
        track = synthetic_track(600, seed=2)
        cols = TrajectoryColumns.from_points(track)
        broken = BQSCompressor(10.0)
        broken.push_xyt(cols.ts[:300], cols.xs[:300], cols.ys[:300])
        with pytest.raises(ValueError):
            # Fix 0 of this chunk is fine, fix 1 travels back in time.
            broken.push_xyt(
                [track[300].t, 0.0],
                [track[300].x, 0.0],
                [track[300].y, 0.0],
            )
        broken.push_xyt(cols.ts[301:], cols.xs[301:], cols.ys[301:])
        reference = BQSCompressor(10.0)
        for p in track:
            reference.push(p)
        assert broken.finish().key_points == reference.finish().key_points
        assert broken.stats == reference.stats

    @pytest.mark.parametrize("make", _factories(10.0), ids=lambda f: f().name)
    def test_nan_timestamp_rejected_on_every_path(self, make):
        """A NaN timestamp can never satisfy the non-decreasing contract;
        it must not poison ``last_t`` and let later out-of-order fixes
        through (``t < last_t`` is False for NaN — the checks are written
        ``not (t >= last_t)`` for exactly this reason)."""
        nan = float("nan")
        c = make()
        c.push(PlanePoint(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            c.push_xyt([nan], [1.0], [1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            c.push(PlanePoint(2.0, 0.0, nan))
        with pytest.raises(ValueError, match="non-decreasing"):
            c.push_many([PlanePoint(2.0, 0.0, nan)])
        # The stream is still usable and ordered.
        c.push(PlanePoint(2.0, 0.0, 1.0))
        assert c.pushed == 2

    def test_columns_trusted_like_push_many(self):
        """Columnar values skip the PlanePoint finiteness validation unless
        materialized — the documented trust contract."""
        c = UniformSampler(10, epsilon=math.inf)
        # A NaN y mid-stream never becomes a key point at period 10.
        ts = [float(i) for i in range(5)]
        xs = [float(i) for i in range(5)]
        ys = [0.0, 0.0, math.nan, 0.0, 0.0]
        assert c.push_xyt(ts, xs, ys) == 5
        assert len(c.finish()) == 2
