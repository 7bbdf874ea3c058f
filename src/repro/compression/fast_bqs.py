"""Fast-BQS: the hull-free, constant-time-per-point variant (Section V-F).

Fast-BQS keeps, per quadrant around the anchor, only the bounding box and
the two extreme polar angles (:class:`QuadrantState`) — no points and no
buffer.  Each arrival costs a constant amount of work (four quadrant upper
bounds, each a scan of a ≤6-vertex polygon) and the compressor state is a
fixed number of floats regardless of stream length.

The price is that a tolerance the upper bound cannot prove is never
resolved exactly: Fast-BQS commits a key point whenever the *upper* bound
exceeds the tolerance.  That is conservative — the error bound still holds
because a point is only ever admitted when the upper bound proves the whole
open segment within ``epsilon`` — but it may split segments the full BQS
would have kept, costing compression rate for strictly bounded memory.

The hot path compares cross products against the tolerance pre-scaled by
the path-line norm (no per-vertex ``hypot``) and reuses the quadrant
structures across segment splits.  The decision is one
:meth:`FastBQSCompressor._step` on floats, which ``push``, ``push_many``
and ``push_xyt`` all drive (:class:`~repro.compression.base.
SteppedCompressor`).
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..geometry.planar import (
    Vec2,
    max_abs_cross,
    max_distance_to_line_origin,
    rectangle_corners,
    wedge_box_polygon,
)
from ..model.point import PlanePoint
from .base import Decision, SteppedCompressor

__all__ = ["FastBQSCompressor", "QuadrantState", "quadrant_index", "polar_angle"]

_TWO_PI = 2.0 * math.pi

# Decision results returned by ``_step``: (commit, slot).  Fast-BQS records
# the conservative commit under the same upper-bound label as an accept.
_DECISION_LABELS = (Decision.INIT, Decision.ACCEPT, Decision.UPPER_BOUND)
_INIT = (True, 0)
_ACCEPT = (False, 1)
_UPPER = (False, 2)
_UPPER_COMMIT = (True, 2)


def polar_angle(x: float, y: float) -> float:
    """Polar angle of ``(x, y)`` in ``[0, 2π)``; 0 for the origin itself.

    Same convention as :func:`repro.geometry.planar.angle_of`, taking bare
    coordinates so hot-path callers skip the tuple build.
    """
    if x == 0.0 and y == 0.0:
        return 0.0
    theta = math.atan2(y, x)
    return theta + _TWO_PI if theta < 0.0 else theta


def quadrant_index(dx: float, dy: float) -> int:
    """Quadrant of an anchor-relative offset: 0=NE, 1=NW, 2=SW, 3=SE."""
    if dx >= 0.0:
        return 0 if dy >= 0.0 else 3
    return 1 if dy >= 0.0 else 2


class QuadrantState:
    """Per-quadrant summary: bounding box and bounding lines (paper §V).

    All coordinates are anchor-relative (the anchor is the origin).  The
    quadrant's points all lie in the convex polygon ``box ∩ wedge`` (the
    *bounded area*), so the maximum deviation from any path line is at most
    the maximum over that polygon's vertices — the upper bound of Theorems
    5.3–5.5.  The state is a fixed number of floats.
    """

    __slots__ = (
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "theta_lo",
        "theta_hi",
        "count",
        "_area",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Return to the empty state."""
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf
        self.theta_lo = math.inf
        self.theta_hi = -math.inf
        self.count = 0
        self._area: list[Vec2] | None = None

    def add(self, v: Vec2, theta: float | None = None) -> None:
        """Fold one anchor-relative point into the quadrant summary.

        ``theta`` (polar angle in ``[0, 2π)``) may be passed in when the
        caller already computed it for the arrival.
        """
        x, y = v
        if theta is None:
            theta = polar_angle(x, y)
        self.count += 1
        grew = False
        if x < self.min_x:
            self.min_x = x
            grew = True
        if x > self.max_x:
            self.max_x = x
            grew = True
        if y < self.min_y:
            self.min_y = y
            grew = True
        if y > self.max_y:
            self.max_y = y
            grew = True
        if theta < self.theta_lo:
            self.theta_lo = theta
            grew = True
        if theta > self.theta_hi:
            self.theta_hi = theta
            grew = True
        if grew:
            # Only an actual box/wedge change invalidates the cached bounded
            # area; points landing strictly inside it keep the cache warm.
            self._area = None

    def bounded_area(self) -> list[Vec2]:
        """Vertices of the quadrant's box ∩ wedge polygon (the bounded area).

        The polygon depends only on the quadrant state, not on the query's
        path line, so it is cached between arrivals and rebuilt only when
        :meth:`add` grows the box or widens the wedge.
        """
        if self.count == 0:
            return []
        area = self._area
        if area is None:
            area = wedge_box_polygon(
                self.min_x, self.min_y, self.max_x, self.max_y,
                self.theta_lo, self.theta_hi,
            )
            if not area:
                # Numerically degenerate (e.g. a box collapsed to a point on
                # a wedge edge): fall back to the box alone, still a valid
                # bound.
                area = rectangle_corners(
                    self.min_x, self.min_y, self.max_x, self.max_y
                )
            self._area = area
        return area

    def upper_cross_exceeds(self, dx: float, dy: float, scaled_eps: float) -> bool:
        """Does the upper bound, scaled by the path-line norm, exceed
        ``scaled_eps`` (``epsilon * hypot(dx, dy)``, computed once per
        arrival so no per-vertex hypot or division runs)?

        The bounding box contains the bounded area, so when the max
        ``|cross|`` over the four box corners is already within tolerance
        the area bound is too, decided without cutting or scanning the
        cached polygon; only a failing screen consults it.
        """
        x0 = self.min_x
        y0 = self.min_y
        x1 = self.max_x
        y1 = self.max_y
        best = c = dx * y0 - dy * x0
        if best < 0.0:
            best = -best
        c = dx * y0 - dy * x1
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        c = dx * y1 - dy * x1
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        c = dx * y1 - dy * x0
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        if best <= scaled_eps:
            return False
        area = self._area
        if area is None:
            area = self.bounded_area()
        return max_abs_cross(area, dx, dy) > scaled_eps

    def upper_bound(self, direction: Vec2) -> float:
        """Upper bound on the quadrant's max deviation from the path line."""
        if self.count == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            return max_distance_to_line_origin(self.bounded_area(), direction)
        return max_abs_cross(self.bounded_area(), dx, dy) / denom


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
        self._anchor: tuple[float, float] | None = None
        self._interior = 0
        self._quadrants: list[QuadrantState] = [QuadrantState() for _ in range(4)]

    # Fast-BQS never buffers: `buffered_points` stays at the base's 0.

    def state_point_count(self) -> int:
        """Trajectory points retained in state (anchor + previous only).

        The quadrant summaries hold aggregate floats, not points; this is
        the quantity the O(1)-memory test pins down.
        """
        if self._prev is None:
            return 0
        return 1 if self._prev[:2] == self._anchor else 2

    def _step(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> tuple[bool, int]:
        """One arrival: (commit the previous fix?, decision slot)."""
        anchor = self._anchor
        if anchor is None:
            self._anchor = (x, y)
            return _INIT

        dx = x - anchor[0]
        dy = y - anchor[1]
        quadrants = self._quadrants
        result = _UPPER
        if not self._interior:
            result = _ACCEPT
        else:
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
                # Uncertain or certain violation — without the exact scan
                # both are resolved the same conservative way: split at the
                # previous fix.
                result = _UPPER_COMMIT
                px, py = self._prev[0], self._prev[1]
                self._anchor = (px, py)
                self._interior = 0
                for q in quadrants:
                    q.reset()
                dx = x - px
                dy = y - py

        quadrants[quadrant_index(dx, dy)].add((dx, dy), polar_angle(dx, dy))
        self._interior += 1
        return result
