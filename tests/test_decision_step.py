"""The BQS-family decision step, through every entry point.

``push``, ``push_many`` and ``push_xyt`` all drive one per-arrival
decision per compressor.  This suite pins the parts of that decision the
rest of the tier-1 tests never reach or never look at:

* arrivals that coincide with the anchor (the path line collapses to a
  point), on each of their decision outcomes, checked against brute force;
* the ``z`` pass-through of pushed points into the key points;
* non-finite coordinates on the columnar path, which must be rejected like
  ``push`` rejects them, with the valid prefix consumed.
"""

import math
import random
from array import array

import pytest

from repro.compression import BQSCompressor, Decision, FastBQSCompressor
from repro.engine import BatchIngestError, StreamEngine
from repro.model import PlanePoint
from repro.testing.workloads import make_workload

EPSILON = 10.0


def _columns(points):
    return (
        array("d", (p.t for p in points)),
        array("d", (p.x for p in points)),
        array("d", (p.y for p in points)),
    )


def _drive(make, points, entry):
    c = make()
    if entry == "push":
        for p in points:
            c.push(p)
    elif entry == "push_many":
        c.push_many(points)
    else:
        c.push_xyt(*_columns(points))
    return c, c.finish()


ENTRIES = ("push", "push_many", "push_xyt")
BQS_MAKERS = {
    "bqs": lambda: BQSCompressor(EPSILON),
    "bqs-audit": lambda: BQSCompressor(EPSILON, debug_audit=True),
}


def _track(coords):
    return [PlanePoint(float(x), float(y), float(i)) for i, (x, y) in enumerate(coords)]


# Out 30 m along a line and straight back onto the anchor: every real point
# is up to 30 m from the collapsed path line, so the farthest point alone
# refutes it.
OUT_AND_BACK = _track([(x, 0) for x in range(31)] + [(x, 0) for x in range(29, -1, -1)])

# Back onto the anchor after (8, 1) and (1, 8): the farthest real point is
# 8.06 m out, so BQS admits it, while Fast-BQS's box corner (8, 8) is
# 11.3 m out, over epsilon.
CORNER_RETURN = _track([(0, 0), (8, 1), (1, 8), (0, 0)])


class TestAnchorCoincidentDecisions:
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("kind", sorted(BQS_MAKERS))
    @pytest.mark.parametrize(
        "points, label",
        [(OUT_AND_BACK, Decision.LOWER_BOUND), (CORNER_RETURN, Decision.EXACT_ACCEPT)],
        ids=["lower_bound", "exact_accept"],
    )
    def test_branch_taken_and_bound_holds(self, points, label, kind, entry):
        c, out = _drive(BQS_MAKERS[kind], points, entry)
        assert c.stats.get(label, 0) == 1
        assert Decision.EXACT_COMMIT not in c.stats
        assert out.max_deviation_from(points) <= EPSILON
        reference, expected = _drive(BQS_MAKERS["bqs"], points, "push")
        assert out.key_points == expected.key_points
        assert c.stats == reference.stats

    def test_out_and_back_commits_the_turning_fix(self):
        _, out = _drive(BQS_MAKERS["bqs"], OUT_AND_BACK, "push")
        assert [(p.x, p.y) for p in out.key_points] == [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_fast_bqs_splits_where_bqs_resolves(self, entry):
        c, out = _drive(lambda: FastBQSCompressor(EPSILON), CORNER_RETURN, entry)
        # Without hulls the uncertain band splits, under the upper-bound label.
        assert [(p.x, p.y) for p in out.key_points] == [(0.0, 0.0), (1.0, 8.0), (0.0, 0.0)]
        assert c.stats == {Decision.INIT: 1, Decision.ACCEPT: 1, Decision.UPPER_BOUND: 2}
        assert out.max_deviation_from(CORNER_RETURN) <= EPSILON

    def test_seeded_anchor_return_fuzz(self):
        """Streams on a coarse lattice that keep stepping back onto the
        current anchor: the degenerate path never needs an exact commit
        (the farthest interior point decides it), and the bound holds."""
        seen: dict = {}
        for seed in range(600):
            rng = random.Random(seed)
            c = BQSCompressor(EPSILON, debug_audit=bool(seed % 2))
            x = y = 0.0
            track = []
            for i in range(50):
                anchor = c._anchor
                if anchor is not None and rng.random() < 0.3:
                    x, y = anchor
                else:
                    x += rng.randint(-8, 8)
                    y += rng.randint(-8, 8)
                p = PlanePoint(x, y, float(i))
                track.append(p)
                coincident = anchor is not None and (x, y) == anchor
                decided = c.push(p).decided_by
                if coincident and decided != Decision.ACCEPT:
                    seen[decided] = seen.get(decided, 0) + 1
                    assert decided != Decision.EXACT_COMMIT, seed
            out = c.finish()
            assert out.max_deviation_from(track) <= EPSILON * (1.0 + 1e-9), seed
            columnar, expected = _drive(BQS_MAKERS["bqs"], track, "push_xyt")
            assert expected.key_points == out.key_points, seed
            assert columnar.stats == c.stats, seed
        assert {Decision.LOWER_BOUND, Decision.EXACT_ACCEPT} == set(seen)


MAKERS = {
    "bqs": lambda: BQSCompressor(EPSILON),
    "bqs-audit": lambda: BQSCompressor(EPSILON, debug_audit=True),
    "fast-bqs": lambda: FastBQSCompressor(EPSILON),
}


class TestPointPassThrough:
    """Pushed points come back as key points equal by value, ``z`` slot
    included (key points are stored as columns, so not the same objects)."""

    def _tagged(self):
        base = make_workload("random_walk", 400, seed=3)
        return [PlanePoint(p.x, p.y, p.t, z=float(i + 1)) for i, p in enumerate(base)]

    @pytest.mark.parametrize("entry", ["push", "push_many"])
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_key_points_equal_the_pushed_points(self, kind, entry):
        track = self._tagged()
        pushed = set(track)
        _, out = _drive(MAKERS[kind], track, entry)
        assert len(out.key_points) > 2
        for key in out.key_points:
            assert key in pushed
        assert out.key_points[-1] == track[-1]

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_columnar_key_points_carry_zero_z(self, kind):
        track = self._tagged()
        _, out = _drive(MAKERS[kind], track, "push_xyt")
        assert len(out.key_points) > 2
        assert all(k.z == 0.0 for k in out.key_points)
        _, by_push = _drive(MAKERS[kind], track, "push")
        assert [(k.x, k.y, k.t) for k in out.key_points] == [
            (k.x, k.y, k.t) for k in by_push.key_points
        ]


class TestNonFiniteColumns:
    """``push_xyt`` rejects NaN / ±inf coordinates the way a ``push`` loop
    over ``PlanePoint(x, y, t)`` does: the valid prefix is consumed, then
    the constructor's ``ValueError`` propagates."""

    N = 400

    @pytest.mark.parametrize("where", [0, 150, N - 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x", "y"])
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_prefix_consumed_then_stream_resumes(self, kind, column, bad, where):
        make = MAKERS[kind]
        track = make_workload("random_walk", self.N, seed=3)
        ts, xs, ys = _columns(track)
        (xs if column == "x" else ys)[where] = bad
        c = make()
        with pytest.raises(ValueError, match="non-finite plane coordinates"):
            c.push_xyt(ts, xs, ys)
        assert c.pushed == where
        c.push_xyt(ts[where + 1:], xs[where + 1:], ys[where + 1:])
        reference = make()
        for i, p in enumerate(track):
            if i != where:
                reference.push(p)
        assert c.finish().key_points == reference.finish().key_points
        assert c.stats == reference.stats
        assert c.pushed == reference.pushed == self.N - 1

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_overflowing_finite_batch_is_accepted(self, kind):
        """A column whose sum overflows but whose fixes are all finite is
        not an error."""
        xs = [1e308, 1e308, 1e308]
        ys = [0.0, 0.0, 0.0]
        c = MAKERS[kind]()
        assert c.push_xyt([0.0, 1.0, 2.0], xs, ys) == 3

    @pytest.mark.parametrize("kind", ["bqs", "fast-bqs"])
    def test_engine_reports_the_consumed_prefix(self, kind):
        engine = StreamEngine(lambda device_id: MAKERS[kind]())
        with pytest.raises(BatchIngestError) as info:
            engine.push_batch(
                [
                    ("a", 0.0, 0.0, 0.0),
                    ("a", 1.0, 1.0, 0.0),
                    ("a", 2.0, math.nan, 0.0),
                    ("a", 3.0, 3.0, 0.0),
                ]
            )
        assert info.value.device_id == "a"
        assert info.value.device_consumed == 2
        assert engine.total_fixes == 2
