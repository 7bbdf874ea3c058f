"""Compressor tests: protocol conformance, the error-bound invariant, and
the paper's buffer-behaviour claims for BQS and Fast-BQS."""

import math

import pytest

from repro.compression import (
    BQSCompressor,
    DeadReckoningCompressor,
    Decision,
    DouglasPeucker,
    FastBQSCompressor,
    PushResult,
    StreamingCompressor,
    TDTRCompressor,
    UniformSampler,
    synthetic_track,
)
from repro.model import PlanePoint

EPSILON = 10.0
N = 10_000


@pytest.fixture(scope="module")
def track():
    return synthetic_track(N, seed=7)


def streaming_suite():
    """The four online compressors named by the acceptance criteria."""
    return [
        BQSCompressor(EPSILON),
        FastBQSCompressor(EPSILON),
        DeadReckoningCompressor(EPSILON),
        UniformSampler(3, epsilon=EPSILON),
    ]


def full_suite():
    return streaming_suite() + [DouglasPeucker(EPSILON), TDTRCompressor(EPSILON)]


class TestProtocolConformance:
    def test_all_compressors_satisfy_streaming_protocol(self):
        for compressor in full_suite():
            assert isinstance(compressor, StreamingCompressor)

    def test_push_returns_push_result(self, track):
        for compressor in streaming_suite():
            result = compressor.push(track[0])
            assert isinstance(result, PushResult)
            assert result.index == 0
            assert result.committed  # the first point is always a key point
        for compressor in (DouglasPeucker(EPSILON), TDTRCompressor(EPSILON)):
            result = compressor.push(track[0])
            assert result.decided_by == Decision.BATCH
            assert not result.committed  # batch algorithms decide in finish()

    def test_push_after_finish_rejected(self, track):
        c = BQSCompressor(EPSILON)
        c.push(track[0])
        c.finish()
        with pytest.raises(RuntimeError):
            c.push(track[1])
        c.reset()
        c.push(track[1])  # reset makes the instance reusable

    def test_time_monotonicity_enforced(self):
        c = FastBQSCompressor(EPSILON)
        c.push(PlanePoint(0.0, 0.0, 10.0))
        with pytest.raises(ValueError):
            c.push(PlanePoint(1.0, 0.0, 5.0))

    def test_single_point_stream(self):
        for compressor in full_suite():
            ct = compressor.compress([PlanePoint(1.0, 2.0, 3.0)])
            assert len(ct) == 1
            assert ct.original_count == 1


class TestErrorBoundInvariant:
    """Every compressor keeps max_deviation_from(original) <= epsilon.

    Uniform sampling has no analytic guarantee; at period 3 on this smooth
    synthetic track the measured deviation stays within the same tolerance,
    which is what the comparison in the paper relies on.
    """

    @pytest.mark.parametrize("compressor", full_suite(), ids=lambda c: c.name)
    def test_10k_point_one_pass_within_bound(self, compressor, track):
        for p in track:
            compressor.push(p)
        compressed = compressor.finish()
        assert compressed.original_count == N
        assert 1 < len(compressed) < N  # actually compresses
        deviation = compressed.max_deviation_from(track)
        assert deviation <= EPSILON * (1.0 + 1e-9), compressor.name
        times = [k.t for k in compressed.key_points]
        assert times == sorted(times)
        assert compressed.algorithm == compressor.name

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_error_bounded_compressors_on_noisy_tracks(self, seed):
        noisy = synthetic_track(2000, seed=seed, noise_sigma=2.5)
        for compressor in (
            BQSCompressor(EPSILON),
            FastBQSCompressor(EPSILON),
            DeadReckoningCompressor(EPSILON),
            DouglasPeucker(EPSILON),
            TDTRCompressor(EPSILON),
        ):
            compressed = compressor.compress(noisy)
            assert compressed.max_deviation_from(noisy) <= EPSILON * (1.0 + 1e-9)

    def test_co_timestamped_key_points_audited_fairly(self):
        """Regression: a burst of fixes sharing one timestamp used to bind
        every point to the first zero-duration segment in the audit."""
        square = [
            PlanePoint(0.0, 0.0, 0.0),
            PlanePoint(10.0, 0.0, 0.0),
            PlanePoint(10.0, 10.0, 0.0),
            PlanePoint(0.0, 10.0, 0.0),
        ]
        compressed = DouglasPeucker(1.0).compress(square)
        assert len(compressed) == 4  # kept verbatim: a zero-error result
        assert compressed.max_deviation_from(square) == pytest.approx(0.0)
        from repro.model import max_synchronized_deviation

        assert max_synchronized_deviation(compressed, square) == pytest.approx(0.0)

    def test_straight_line_compresses_to_two_points(self):
        line = [PlanePoint(float(i), 0.0, float(i)) for i in range(1000)]
        for compressor in (BQSCompressor(1.0), FastBQSCompressor(1.0)):
            compressed = compressor.compress(line)
            assert len(compressed) == 2


class TestBQSBufferBehaviour:
    """Paper Section V: the bounds decide commits without the buffer; the
    buffered exact-deviation path is only a fallback for the uncertain band."""

    def test_bounds_decide_majority_without_buffer(self, track):
        c = BQSCompressor(EPSILON)
        for p in track:
            c.push(p)
        c.finish()
        stats = c.stats
        assert stats.get(Decision.UPPER_BOUND, 0) > 0
        exact = stats.get(Decision.EXACT_ACCEPT, 0) + stats.get(
            Decision.EXACT_COMMIT, 0
        )
        bound_decided = stats.get(Decision.UPPER_BOUND, 0) + stats.get(
            Decision.LOWER_BOUND, 0
        )
        assert bound_decided > exact  # exact computation is the minority path

    def test_lower_bound_commits_without_exact_check(self):
        """A sharp 90-degree excursion is refuted by the lower bound alone."""
        east = [PlanePoint(float(i), 0.0, float(i)) for i in range(0, 200, 2)]
        north = [
            PlanePoint(198.0, float(i + 2), 200.0 + i) for i in range(0, 200, 2)
        ]
        c = BQSCompressor(5.0)
        for p in east + north:
            c.push(p)
        c.finish()
        assert c.stats.get(Decision.LOWER_BOUND, 0) > 0

    def test_retained_state_clears_on_segment_split(self, track):
        c = BQSCompressor(EPSILON)
        saw_more = False
        for p in track[:2000]:
            result = c.push(p)
            if result.committed and result.decided_by != Decision.INIT:
                # The new segment holds the arrival only: one ring entry,
                # or one far point at both ends of the interval.
                assert c.buffered_points <= 2
            saw_more = saw_more or c.buffered_points > 2
        assert saw_more

    def test_default_mode_keeps_no_buffer_and_sublinear_state(self, track):
        """The production path keeps no point buffer, and far fewer retained
        points (ring and end-band entries) than the longest segment."""
        c = BQSCompressor(EPSILON)
        for p in track[:5000]:
            c.push(p)
        assert c._buffer is None
        assert c.audit_buffered == 0
        assert 0 < c.buffer_peak < 5000
        longest_segment = max(
            b.t - a.t for a, b in zip(c.key_points, c.key_points[1:])
        )
        assert c.buffer_peak < longest_segment

class TestFastBQSConstantState:
    """Acceptance criterion: Fast-BQS keeps O(1) state per point."""

    def test_never_buffers(self, track):
        c = FastBQSCompressor(EPSILON)
        for p in track:
            c.push(p)
            assert c.buffered_points == 0
        c.finish()

    def test_state_point_count_constant(self, track):
        c = FastBQSCompressor(EPSILON)
        for p in track:
            c.push(p)
            assert c.state_point_count() <= 2
            assert len(c._quadrants) == 4

    def test_no_buffer_attribute(self):
        assert not hasattr(FastBQSCompressor(EPSILON), "_buffer")

    def test_fast_bqs_is_conservative_vs_full_bqs(self, track):
        """Dropping the exact fallback can only split more, never violate."""
        full = BQSCompressor(EPSILON).compress(track)
        fast = FastBQSCompressor(EPSILON).compress(track)
        assert len(fast) >= len(full)


class TestBaselineSpecifics:
    def test_uniform_period_controls_rate(self, track):
        ct = UniformSampler(10).compress(track)
        assert len(ct) == pytest.approx(N / 10, rel=0.01)
        assert math.isinf(UniformSampler(10).epsilon)

    def test_dead_reckoning_derates_threshold(self):
        dr = DeadReckoningCompressor(EPSILON)
        assert dr._threshold == pytest.approx(EPSILON / 2)
        with pytest.raises(ValueError):
            DeadReckoningCompressor(EPSILON, safety_factor=0.0)

    def test_batch_baselines_buffer_until_finish(self, track):
        dp = DouglasPeucker(EPSILON)
        subset = track[:500]
        for p in subset:
            dp.push(p)
        assert dp.buffered_points == len(subset)
        dp.finish()
        assert dp.buffered_points == 0

    def test_douglas_peucker_matches_recursive_reference(self):
        """Iterative stack traversal equals the textbook recursion."""
        from repro.geometry import point_line_distance

        track = synthetic_track(300, seed=11)

        def reference(points, eps):
            keep = {0, len(points) - 1}

            def recurse(lo, hi):
                if hi - lo < 2:
                    return
                worst, idx = -1.0, -1
                for i in range(lo + 1, hi):
                    d = point_line_distance(
                        points[i].xy, points[lo].xy, points[hi].xy
                    )
                    if d > worst:
                        worst, idx = d, i
                if worst > eps:
                    keep.add(idx)
                    recurse(lo, idx)
                    recurse(idx, hi)

            recurse(0, len(points) - 1)
            return [points[i] for i in sorted(keep)]

        expected = reference(track, 8.0)
        actual = DouglasPeucker(8.0).compress(track)
        assert list(actual.key_points) == expected

    def test_tdtr_bounds_sed(self):
        from repro.model import max_synchronized_deviation

        track = synthetic_track(3000, seed=13)
        ct = TDTRCompressor(EPSILON).compress(track)
        assert max_synchronized_deviation(ct, track) <= EPSILON * (1.0 + 1e-9)


class TestBatchBaselineRecursionDepth:
    """Regression: the split-at-worst-point traversal must be iterative.

    A decreasing-amplitude zigzag pins the worst point next to the start of
    every range, so the equivalent recursion depth is ``n - 2`` — a
    recursive implementation would overflow the interpreter stack for any
    monotone trajectory longer than ``sys.getrecursionlimit()``, long
    before the 100k-point streams the benchmarks run.
    """

    @staticmethod
    def _deep_zigzag(n):
        # Monotone in x and t; |y| decreases with i so every range's worst
        # deviation is attained right after its left end.
        return [
            PlanePoint(
                float(i),
                (50.0 + (n - i) * 0.01) * (1.0 if i % 2 == 0 else -1.0),
                float(i),
            )
            for i in range(n)
        ]

    def test_equivalent_depth_exceeds_recursion_limit(self):
        import sys

        n = sys.getrecursionlimit() + 100
        points = self._deep_zigzag(n)
        dp = DouglasPeucker(1.0)
        # Instrument the same explicit-stack traversal with a depth counter.
        from repro.model import TrajectoryColumns

        cols = TrajectoryColumns.from_points(points)
        max_depth = 0
        stack = [(0, n - 1, 1)]
        while stack:
            lo, hi, depth = stack.pop()
            if depth > max_depth:
                max_depth = depth
            if hi - lo < 2:
                continue
            worst, idx = dp._scan_worst(cols.ts, cols.xs, cols.ys, lo, hi)
            if worst > 1.0:
                stack.append((lo, idx, depth + 1))
                stack.append((idx, hi, depth + 1))
        assert max_depth > sys.getrecursionlimit()

    @pytest.mark.parametrize(
        "make", [lambda: DouglasPeucker(1.0), lambda: TDTRCompressor(1.0)],
        ids=["douglas-peucker", "td-tr"],
    )
    def test_deep_monotone_stream_compresses_without_overflow(self, make):
        import sys

        n = sys.getrecursionlimit() + 100
        points = self._deep_zigzag(n)
        compressed = make().compress(points)  # must not RecursionError
        # Every zigzag tooth deviates far beyond epsilon: all points kept.
        assert len(compressed) == n
        assert compressed.max_deviation_from(points) <= 1.0 + 1e-9
