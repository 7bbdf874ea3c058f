"""Fast-path equivalence and incremental-geometry correctness.

The optimized machinery this suite pins down:

* ``push_many()`` (batched, allocation-lean) must produce *identical* key
  points, stats and outputs to a per-point ``push()`` loop for every
  compressor, across seeds and an epsilon sweep;
* BQS must agree with its ``debug_audit`` reference mode, which
  cross-checks every decision against a brute-force buffer scan;
* Fast-BQS's cached bounded areas must stay valid upper bounds.
"""

import math
import random

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
from repro.compression import QuadrantState
from repro.model import PlanePoint


def _factories(epsilon):
    return [
        lambda: BQSCompressor(epsilon),
        lambda: FastBQSCompressor(epsilon),
        lambda: DeadReckoningCompressor(epsilon),
        lambda: UniformSampler(7, epsilon=epsilon),
        lambda: DouglasPeucker(epsilon),
        lambda: TDTRCompressor(epsilon),
    ]


class TestPushManyEquivalence:
    @pytest.mark.parametrize("epsilon", [2.5, 5.0, 10.0, 25.0])
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_batched_path_is_bit_identical(self, epsilon, seed):
        track = synthetic_track(3000, seed=seed)
        for make in _factories(epsilon):
            per_point = make()
            for p in track:
                per_point.push(p)
            reference = per_point.finish()

            batched = make()
            consumed = batched.push_many(track)
            fast = batched.finish()

            assert consumed == len(track)
            assert fast.key_points == reference.key_points, batched.name
            assert batched.stats == per_point.stats, batched.name
            assert batched.pushed == per_point.pushed
            assert fast.info == reference.info, batched.name

    def test_push_many_chunks_equal_one_batch(self):
        track = synthetic_track(2000, seed=3)
        whole = BQSCompressor(10.0)
        whole.push_many(track)
        chunked = BQSCompressor(10.0)
        for start in range(0, len(track), 257):
            chunked.push_many(track[start:start + 257])
        assert whole.finish().key_points == chunked.finish().key_points

    def test_push_many_mixes_with_push(self):
        track = synthetic_track(1200, seed=11)
        mixed = BQSCompressor(10.0)
        mixed.push_many(track[:500])
        for p in track[500:700]:
            mixed.push(p)
        mixed.push_many(track[700:])
        pure = BQSCompressor(10.0)
        for p in track:
            pure.push(p)
        assert mixed.finish().key_points == pure.finish().key_points
        assert mixed.stats == pure.stats

    def test_push_many_validates_time_monotonicity(self):
        c = FastBQSCompressor(10.0)
        bad = [PlanePoint(0.0, 0.0, 2.0), PlanePoint(1.0, 0.0, 1.0)]
        with pytest.raises(ValueError):
            c.push_many(bad)
        # The valid prefix was consumed; the stream stays usable.
        assert c.pushed == 1
        c.push(PlanePoint(2.0, 0.0, 3.0))

    def test_push_many_after_finish_rejected(self):
        c = BQSCompressor(10.0)
        c.push(PlanePoint(0.0, 0.0, 0.0))
        c.finish()
        with pytest.raises(RuntimeError):
            c.push_many([PlanePoint(1.0, 0.0, 1.0)])

    def test_compress_uses_batched_path(self):
        track = synthetic_track(800, seed=5)
        by_compress = BQSCompressor(10.0).compress(track)
        by_loop = BQSCompressor(10.0)
        for p in track:
            by_loop.push(p)
        assert by_compress.key_points == by_loop.finish().key_points


class TestOptimizedBQSMatchesAuditReference:
    """The arc-interval decider vs the buffered brute-force reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("epsilon", [3.0, 10.0])
    def test_key_points_and_stats_identical(self, seed, epsilon):
        track = synthetic_track(4000, seed=seed, noise_sigma=1.5)
        optimized = BQSCompressor(epsilon)
        audited = BQSCompressor(epsilon, debug_audit=True)
        fast = optimized.compress(track)
        # debug_audit raises RuntimeError internally if any decision ever
        # diverges from the buffered scan.
        reference = audited.compress(track)
        assert fast.key_points == reference.key_points
        assert optimized.stats == audited.stats
        assert fast.max_deviation_from(track) <= epsilon * (1.0 + 1e-9)

    def test_stationary_stream_with_repeated_fixes(self):
        """Co-located points exercise the degenerate (zero-length) path line."""
        fix = [PlanePoint(5.0, 5.0, float(i)) for i in range(200)]
        for make in (
            lambda: BQSCompressor(4.0),
            lambda: BQSCompressor(4.0, debug_audit=True),
        ):
            compressed = make().compress(fix)
            assert len(compressed) == 2

    def test_audit_mode_buffers_and_default_does_not(self):
        track = synthetic_track(1000, seed=9)
        audited = BQSCompressor(10.0, debug_audit=True)
        plain = BQSCompressor(10.0)
        for p in track:
            audited.push(p)
            plain.push(p)
        assert audited.audit_buffered > 0
        assert plain.audit_buffered == 0
        assert plain._buffer is None


class TestQuadrantCache:
    def test_interior_point_keeps_bounded_area_cache(self):
        q = QuadrantState()
        q.add((1.0, 1.0))
        q.add((6.0, 2.0))
        q.add((3.0, 6.0))
        area = q.bounded_area()
        # A point strictly inside box ∩ wedge must not thrash the cache.
        q.add((3.0, 2.5))
        assert q.bounded_area() is area
        # A point growing the box must invalidate it.
        q.add((8.0, 2.0))
        assert q.bounded_area() is not area

    def test_wedge_widening_invalidates_cache(self):
        q = QuadrantState()
        q.add((4.0, 1.0))
        q.add((4.0, 3.0))
        q.add((10.0, 1.5))
        area = q.bounded_area()
        # Inside the box, but widens the wedge (shallower polar angle).
        q.add((10.0, 1.2))
        assert q.bounded_area() is not area

    def test_cached_area_still_bounds_all_points(self):
        rng = random.Random(5)
        q = QuadrantState()
        pts = []
        for _ in range(300):
            p = (rng.uniform(0.1, 30.0), rng.uniform(0.1, 30.0))
            pts.append(p)
            q.add(p)
            direction = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            upper = q.upper_bound(direction)
            norm = math.hypot(*direction)
            exact = max(abs(direction[0] * y - direction[1] * x) for x, y in pts) / norm
            assert upper >= exact - 1e-9
