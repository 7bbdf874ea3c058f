"""Fast-BQS: the hull-free, constant-time-per-point variant (Section V-F).

Fast-BQS keeps only the O(1) part of each quadrant's state — the bounding
box and the two tracked extreme angles — and drops the convex hulls, the
significant points and the buffer entirely.  Each arrival costs a constant
amount of work (four quadrant upper bounds, each a scan of a ≤6-vertex
polygon) and the compressor state is a fixed number of floats regardless of
stream length.

The price of losing the hulls is that the uncertain case (tolerance between
the lower and upper bound) can no longer be resolved exactly: Fast-BQS
commits a key point whenever the *upper* bound exceeds the tolerance.  That
is conservative — the error bound still holds because a point is only ever
admitted when the upper bound proves the whole open segment within
``epsilon`` — but it may split segments the full BQS would have kept,
costing a little compression rate for a large constant-factor speedup and
strictly bounded memory.

Like BQS, the hot path compares cross products against the tolerance
pre-scaled by the path-line norm (no per-vertex ``hypot``) and reuses the
quadrant structures across segment splits.  The decision is one
:meth:`FastBQSCompressor._step` on floats, which ``push``, ``push_many``
and ``push_xyt`` all drive (:class:`~repro.compression.base.
SteppedCompressor`).
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..model.point import PlanePoint
from .base import Decision, SteppedCompressor
from .bqs import QuadrantState, polar_angle, quadrant_index

__all__ = ["FastBQSCompressor"]

# Integer decision slots returned by ``_step`` (Fast-BQS records the
# conservative commit under the same upper-bound label as an accept).
_D_INIT = 0
_D_ACCEPT = 1
_D_UPPER = 2
_DECISION_LABELS = (Decision.INIT, Decision.ACCEPT, Decision.UPPER_BOUND)


class FastBQSCompressor(SteppedCompressor):
    """Bounding-box-and-angles-only BQS with O(1) state per point."""

    name = "fast-bqs"
    _labels = _DECISION_LABELS

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("Fast-BQS needs a finite error bound")
        if metric is not DistanceMetric.POINT_TO_LINE:
            raise ValueError(
                "Fast-BQS bounds are derived for the point-to-line deviation "
                "metric (the paper's default); got " + metric.value
            )
        super().__init__(epsilon, metric)
        self._reset()

    def _reset(self) -> None:
        self._anchor: PlanePoint | None = None
        self._prev = None
        self._interior = 0
        self._quadrants: list[QuadrantState] = [
            QuadrantState(track_hull=False) for _ in range(4)
        ]

    # Fast-BQS never buffers: `buffered_points` stays at the base's 0.

    def state_point_count(self) -> int:
        """Trajectory points retained in state (anchor + previous only).

        The quadrant summaries hold aggregate floats, not points; this is
        the quantity the O(1)-memory test pins down.
        """
        if self._prev is None:
            return 0
        return 1 if self._prev[3] is self._anchor else 2

    def _step(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> tuple[PlanePoint | None, int]:
        """One arrival: (committed key point or None, decision slot)."""
        anchor = self._anchor
        if anchor is None:
            key = PlanePoint(x, y, t) if src is None else src
            self._anchor = key
            self._prev = (x, y, t, key)
            return key, _D_INIT

        dx = x - anchor.x
        dy = y - anchor.y
        quadrants = self._quadrants
        key = None
        if not self._interior:
            slot = _D_ACCEPT
        else:
            slot = _D_UPPER
            r = math.hypot(dx, dy)
            if r == 0.0:
                # Arrival on the anchor: the path line collapses to a point
                # and every deviation is a plain distance to the anchor.
                within = (
                    max(q.upper_bound((0.0, 0.0)) for q in quadrants)
                    <= self._epsilon
                )
            else:
                scaled_eps = self._epsilon * r
                within = True
                for q in quadrants:
                    if q.count and q.upper_cross_exceeds(dx, dy, scaled_eps):
                        within = False
                        break
            if not within:
                # Uncertain or certain violation — without the hulls both
                # are resolved the same conservative way: split at the
                # previous fix.
                key = self._prev_point()
                self._anchor = key
                self._interior = 0
                for q in quadrants:
                    q.reset()
                dx = x - key.x
                dy = y - key.y

        quadrants[quadrant_index(dx, dy)].add((dx, dy), polar_angle(dx, dy))
        self._interior += 1
        self._prev = (x, y, t, src)
        return key, slot
