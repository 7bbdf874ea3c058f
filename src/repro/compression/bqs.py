"""The Bounded Quadrant System compressor (paper Section V).

BQS is a one-pass, error-bounded compressor.  It opens a segment at an
*anchor* (the last committed key point) and, as points stream in, asks for
each new point ``p`` whether every point seen since the anchor stays within
``epsilon`` of the *path line* through the anchor and ``p``.  Answering that
question exactly requires the whole segment's points; the paper's insight is
that two cheap bounds decide almost every case without touching a buffer:

* The plane around the anchor is split into four **quadrants** aligned with
  the (UTM-projected) x and y axes.  A quadrant never spans more than π/2 of
  polar angle, so its angular extremes are well defined.
* Per quadrant, BQS maintains a **bounding box**, the extreme polar
  **angles** (the two bounding lines), a **convex hull** of the quadrant's
  points, and up to **eight significant points** — the actual trajectory
  points attaining the box sides, the angular extremes and the nearest /
  farthest distance from the anchor.
* The quadrant's points all lie in the convex polygon ``box ∩ wedge``
  (the *bounded area*), so the maximum deviation from any path line is at
  most the maximum over that polygon's vertices — the **upper bound** of
  Theorems 5.3–5.5.  The significant points are real points, so their
  maximum deviation is a **lower bound**.

On each arrival: if the upper bound is within ``epsilon`` the point is
admitted; if the lower bound already exceeds ``epsilon`` the previous point
is committed as a key point; only when the tolerance falls between the two
bounds does BQS fall back to the exact deviation.  Point-to-line distance is
convex in position, so the segment's exact maximum deviation is attained at
a vertex of the per-quadrant convex hulls — the fallback scans the O(h)
hull vertices, never a buffer of all n segment points.

The hot path is deliberately allocation-lean (this is the "on the go" /
per-point-cost claim of the paper):

* hulls are maintained incrementally (:class:`~repro.geometry.planar.
  IncrementalHull`, amortized O(log h) insert) instead of re-running the
  batch hull on every arrival;
* the bounded-area polygon is cached and re-cut only when an arrival
  actually grows the box or widens the wedge;
* the polar angle and radius of each arrival are computed once and shared
  by the box, wedge, and significant-point updates;
* both bounds and the exact fallback compare cross products against the
  tolerance pre-scaled by the path-line norm, so no per-vertex ``hypot`` or
  division runs;
* a segment split reuses the four quadrant structures in place rather than
  reallocating them.

The decision is written once, in :meth:`BQSCompressor._step`, which takes
the fix as floats.  ``push``, ``push_many`` and ``push_xyt`` are adapters
around it (:class:`~repro.compression.base.SteppedCompressor`), so their
outputs agree by construction; the columnar path builds a ``PlanePoint``
only for a committed key point.  An arrival that coincides with the anchor
takes the same step: its path line collapses to a point, where the lower
bound is already exact.

A full point buffer survives only behind the ``debug_audit`` flag, where
every exact-fallback decision is cross-checked against a brute-force scan
of the buffered segment points (and the test suite keeps that mode honest).
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..geometry.planar import (
    IncrementalHull,
    Vec2,
    max_abs_cross,
    max_distance_to_line_origin,
    min_distance_on_segment_to_line_origin,
    rectangle_corners,
    wedge_box_polygon,
)
from ..model.point import PlanePoint
from .base import Decision, PointBuffer, SteppedCompressor

__all__ = ["QuadrantState", "BQSCompressor", "quadrant_index", "polar_angle"]

_TWO_PI = 2.0 * math.pi

# Integer decision slots returned by ``_step``; the tuple maps a slot back
# to the public Decision label when stats are folded in.
_D_INIT = 0
_D_ACCEPT = 1
_D_UPPER = 2
_D_LOWER = 3
_D_EXACT_ACCEPT = 4
_D_EXACT_COMMIT = 5
_DECISION_LABELS = (
    Decision.INIT,
    Decision.ACCEPT,
    Decision.UPPER_BOUND,
    Decision.LOWER_BOUND,
    Decision.EXACT_ACCEPT,
    Decision.EXACT_COMMIT,
)


def polar_angle(x: float, y: float) -> float:
    """Polar angle of ``(x, y)`` in ``[0, 2π)``; 0 for the origin itself.

    Same convention as :func:`repro.geometry.planar.angle_of`, taking bare
    coordinates so hot-path callers skip the tuple build.
    """
    if x == 0.0 and y == 0.0:
        return 0.0
    theta = math.atan2(y, x)
    return theta + _TWO_PI if theta < 0.0 else theta


class QuadrantState:
    """Per-quadrant summary: bounding box, bounding lines, hull, significant points.

    All coordinates are anchor-relative (the anchor is the origin).  The
    ``track_hull`` flag turns the convex-hull and significant-point
    maintenance off for the hull-free Fast-BQS variant, leaving the O(1)
    box/angle state only.
    """

    __slots__ = (
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "theta_lo",
        "theta_hi",
        "min_r",
        "max_r",
        "count",
        "track_hull",
        "_hull",
        "_area",
        "_p_min_x",
        "_p_max_x",
        "_p_min_y",
        "_p_max_y",
        "_p_theta_lo",
        "_p_theta_hi",
        "_p_min_r",
        "_p_max_r",
    )

    def __init__(self, track_hull: bool = True) -> None:
        self.track_hull = track_hull
        self._hull: IncrementalHull | None = (
            IncrementalHull() if track_hull else None
        )
        self.reset()

    def reset(self) -> None:
        """Return to the empty state, reusing the hull's allocations."""
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf
        self.theta_lo = math.inf
        self.theta_hi = -math.inf
        self.min_r = math.inf
        self.max_r = -math.inf
        self.count = 0
        self._area: list[Vec2] | None = None
        self._p_min_x = None
        self._p_max_x = None
        self._p_min_y = None
        self._p_max_y = None
        self._p_theta_lo = None
        self._p_theta_hi = None
        self._p_min_r = None
        self._p_max_r = None
        if self._hull is not None:
            self._hull.clear()

    @property
    def hull(self) -> list[Vec2]:
        """Hull vertices (counter-clockwise); ``[]`` when hulls are off."""
        if self._hull is None:
            return []
        return self._hull.vertices()

    def add(self, v: Vec2, theta: float | None = None, r: float | None = None) -> int:
        """Fold one anchor-relative point into the quadrant summary.

        ``theta`` (polar angle in ``[0, 2π)``) and ``r`` (norm) may be
        passed in when the caller already computed them for the arrival;
        they are derived on demand otherwise.  Returns the net change in
        hull vertex count (0 when hulls are off), which is also the net
        change in trajectory points this quadrant retains.
        """
        x, y = v
        if theta is None:
            theta = polar_angle(x, y)
        self.count += 1
        grew = False
        if x < self.min_x:
            self.min_x = x
            self._p_min_x = v
            grew = True
        if x > self.max_x:
            self.max_x = x
            self._p_max_x = v
            grew = True
        if y < self.min_y:
            self.min_y = y
            self._p_min_y = v
            grew = True
        if y > self.max_y:
            self.max_y = y
            self._p_max_y = v
            grew = True
        if theta < self.theta_lo:
            self.theta_lo = theta
            self._p_theta_lo = v
            grew = True
        if theta > self.theta_hi:
            self.theta_hi = theta
            self._p_theta_hi = v
            grew = True
        if grew:
            # Only an actual box/wedge change invalidates the cached bounded
            # area; points landing strictly inside it keep the cache warm.
            self._area = None
        if not self.track_hull:
            return 0
        if r is None:
            r = math.hypot(x, y)
        if r < self.min_r:
            self.min_r = r
            self._p_min_r = v
        if r > self.max_r:
            self.max_r = r
            self._p_max_r = v
        return self._hull.add(v)

    def significant_points(self) -> list[Vec2]:
        """The ≤8 distinct significant points (actual trajectory points).

        Empty when ``track_hull`` is off — Fast-BQS never consults them and
        keeps no per-point state.
        """
        if not self.track_hull:
            return []
        seen: list[Vec2] = []
        for p in (
            self._p_min_x,
            self._p_max_x,
            self._p_min_y,
            self._p_max_y,
            self._p_theta_lo,
            self._p_theta_hi,
            self._p_min_r,
            self._p_max_r,
        ):
            if p is not None and p not in seen:
                seen.append(p)
        return seen

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

    # -- scaled bounds (hot path) -------------------------------------------
    #
    # The three methods below return distances multiplied by the path-line
    # norm ``hypot(dx, dy)``: callers compare them against ``epsilon * norm``
    # computed once per arrival, avoiding any per-vertex hypot/division.

    def upper_cross(self, dx: float, dy: float) -> float:
        """Scaled upper bound: max ``|cross|`` over the bounded area."""
        area = self._area
        if area is None:
            area = self.bounded_area()
        return max_abs_cross(area, dx, dy)

    def upper_cross_exceeds(self, dx: float, dy: float, scaled_eps: float) -> bool:
        """Does the scaled upper bound exceed ``scaled_eps``?

        Two stages, same verdict as comparing :meth:`upper_cross` directly:
        the bounding box contains the bounded area, so when the max
        ``|cross|`` over the four box corners is already within tolerance
        the area bound is too — decided from eight multiplications without
        cutting or scanning the cached polygon.  Only a failing screen
        consults the box ∩ wedge polygon.  On workloads that grow the box
        on most arrivals (anything with drift) this skips the polygon
        rebuild entirely for the common within-bound case.
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

    def lower_cross(self, dx: float, dy: float) -> float:
        """Scaled lower bound, witnessed by real trajectory points.

        Two certificates: the deviation of each significant point, and —
        because every bounding-box edge is touched by at least one point —
        the minimum distance from each box edge to the path line.
        """
        best = 0.0
        for p in (
            self._p_min_x,
            self._p_max_x,
            self._p_min_y,
            self._p_max_y,
            self._p_theta_lo,
            self._p_theta_hi,
            self._p_min_r,
            self._p_max_r,
        ):
            if p is not None:
                c = dx * p[1] - dy * p[0]
                if c < 0.0:
                    c = -c
                if c > best:
                    best = c
        x0 = self.min_x
        y0 = self.min_y
        x1 = self.max_x
        y1 = self.max_y
        c00 = dx * y0 - dy * x0
        c10 = dx * y0 - dy * x1
        c11 = dx * y1 - dy * x1
        c01 = dx * y1 - dy * x0
        ca = c00
        for cb in (c10, c11, c01, c00):
            if not ((ca <= 0.0 <= cb) or (cb <= 0.0 <= ca)):
                m = min(abs(ca), abs(cb))
                if m > best:
                    best = m
            ca = cb
        return best

    def exact_cross(self, dx: float, dy: float) -> float:
        """Scaled exact deviation: max ``|cross|`` over the hull vertices."""
        return self._hull.max_abs_cross(dx, dy)

    # -- unscaled API (tests, inspection, degenerate path-lines) ------------

    def upper_bound(self, direction: Vec2) -> float:
        """Upper bound on the quadrant's max deviation from the path line."""
        if self.count == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            return max_distance_to_line_origin(self.bounded_area(), direction)
        return self.upper_cross(dx, dy) / denom

    def lower_bound(self, direction: Vec2) -> float:
        """Lower bound on the quadrant's max deviation from the path line."""
        if self.count == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            best = max_distance_to_line_origin(
                self.significant_points(), direction
            )
            corners = rectangle_corners(
                self.min_x, self.min_y, self.max_x, self.max_y
            )
            for i in range(4):
                d = min_distance_on_segment_to_line_origin(
                    corners[i], corners[(i + 1) % 4], direction
                )
                if d > best:
                    best = d
            return best
        return self.lower_cross(dx, dy) / denom

    def hull_max_deviation(self, direction: Vec2) -> float:
        """Exact max deviation of the quadrant's points from the path line.

        Point-to-line distance is a convex function of position, so its
        maximum over the quadrant's points is attained at a convex-hull
        vertex; scanning the O(h) hull is exact and replaces any scan of
        the segment's full point set.
        """
        if self._hull is None or len(self._hull) == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            return max_distance_to_line_origin(self._hull.vertices(), direction)
        return self._hull.max_abs_cross(dx, dy) / denom


def quadrant_index(dx: float, dy: float) -> int:
    """Quadrant of an anchor-relative offset: 0=NE, 1=NW, 2=SW, 3=SE."""
    if dx >= 0.0:
        return 0 if dy >= 0.0 else 3
    return 1 if dy >= 0.0 else 2


class BQSCompressor(SteppedCompressor):
    """Full Bounded Quadrant System (convex hulls + exact hull fallback).

    ``debug_audit=True`` additionally buffers every segment point and
    cross-checks each exact-fallback decision against a brute-force scan of
    the buffer, raising ``RuntimeError`` on divergence.  It exists for tests
    and investigations; the production path never buffers.
    """

    name = "bqs"
    _labels = _DECISION_LABELS

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
        debug_audit: bool = False,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("BQS needs a finite error bound")
        if metric is not DistanceMetric.POINT_TO_LINE:
            raise ValueError(
                "BQS bounds are derived for the point-to-line deviation "
                "metric (the paper's default); got " + metric.value
            )
        super().__init__(epsilon, metric)
        self._debug_audit = bool(debug_audit)
        self._reset()

    # -- state --------------------------------------------------------------

    def _reset(self) -> None:
        self._anchor: PlanePoint | None = None
        self._prev = None
        self._interior = 0
        self._quadrants: list[QuadrantState] = [
            QuadrantState(track_hull=True) for _ in range(4)
        ]
        self._buffer: PointBuffer | None = (
            PointBuffer() if self._debug_audit else None
        )
        self._retained = 0
        self._retained_peak = 0

    @property
    def buffered_points(self) -> int:
        """Trajectory points retained in state: the four hulls' vertices.

        The hulls hold actual (anchor-relative) trajectory points, so this
        is the honest memory figure for the open segment — typically far
        below the segment length.  The ``debug_audit`` buffer shadows these
        points and is not double-counted.
        """
        return self._retained

    @property
    def buffer_peak(self) -> int:
        """High-water mark of retained points across the stream."""
        return self._retained_peak

    @property
    def audit_buffered(self) -> int:
        """Points in the ``debug_audit`` buffer (0 when auditing is off)."""
        return 0 if self._buffer is None else len(self._buffer)

    # -- algorithm ----------------------------------------------------------

    def _step(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> tuple[PlanePoint | None, int]:
        """One arrival: returns (committed key point or None, decision slot).

        The whole BQS decision, behind every entry point.  Bounds first,
        the exact hull scan only when epsilon falls between them; a split
        commits the previous fix and the arrival opens the new segment.
        """
        buffer = self._buffer
        if buffer is not None and src is None:
            # The audit checks real points: materialize (and validate) now.
            src = PlanePoint(x, y, t)
        anchor = self._anchor
        if anchor is None:
            key = PlanePoint(x, y, t) if src is None else src
            self._anchor = key
            self._prev = (x, y, t, key)
            return key, _D_INIT

        dx = x - anchor.x
        dy = y - anchor.y
        r = math.hypot(dx, dy)
        quadrants = self._quadrants
        key = None
        if not self._interior:
            # First point after the anchor: no interior points yet, the
            # two-point segment is trivially within bound.
            slot = _D_ACCEPT
        elif r == 0.0:
            slot = self._coincident_slot()
        else:
            scaled_eps = self._epsilon * r
            slot = _D_UPPER
            for q in quadrants:
                if q.count and q.upper_cross_exceeds(dx, dy, scaled_eps):
                    # One quadrant over tolerance fails the upper bound.
                    slot = _D_LOWER
                    break
            if slot == _D_LOWER:
                lower = 0.0
                for q in quadrants:
                    if q.count:
                        c = q.lower_cross(dx, dy)
                        if c > lower:
                            lower = c
                if lower <= scaled_eps:
                    # epsilon falls between the bounds: exact deviation
                    # over the hull vertices (convexity makes it exact).
                    exact = 0.0
                    for q in quadrants:
                        if q.count:
                            c = q.exact_cross(dx, dy)
                            if c > exact:
                                exact = c
                    if buffer is not None:
                        self._audit_exact(anchor, dx, dy, exact)
                    if exact <= scaled_eps:
                        slot = _D_EXACT_ACCEPT
                    else:
                        slot = _D_EXACT_COMMIT
        if slot == _D_LOWER or slot == _D_EXACT_COMMIT:
            key = self._split()
            dx = x - key.x
            dy = y - key.y
            r = math.hypot(dx, dy)

        retained = self._retained + quadrants[quadrant_index(dx, dy)].add(
            (dx, dy), polar_angle(dx, dy), r
        )
        self._retained = retained
        if retained > self._retained_peak:
            self._retained_peak = retained
        if buffer is not None:
            buffer.append(src)
        self._interior += 1
        self._prev = (x, y, t, src)
        return key, slot

    def _coincident_slot(self) -> int:
        """Decision slot for an arrival on the anchor itself.

        The path line collapses to a point, so every deviation is a plain
        distance to the anchor.  Each quadrant's farthest point is one of
        its significant points, so the lower bound is already the exact
        answer: no hull scan, and never an exact commit.
        """
        quadrants = self._quadrants
        eps = self._epsilon
        if max(q.upper_bound((0.0, 0.0)) for q in quadrants) <= eps:
            return _D_UPPER
        if max(q.max_r for q in quadrants) > eps:
            return _D_LOWER
        return _D_EXACT_ACCEPT

    def _audit_exact(
        self, anchor: PlanePoint, dx: float, dy: float, hull_cross: float
    ) -> None:
        """Cross-check the hull-based exact deviation against the buffer."""
        ax = anchor.x
        ay = anchor.y
        buffered = 0.0
        for b in self._buffer:
            c = dx * (b.y - ay) - dy * (b.x - ax)
            if c < 0.0:
                c = -c
            if c > buffered:
                buffered = c
        if abs(buffered - hull_cross) > 1e-6 * max(1.0, buffered):
            raise RuntimeError(
                "bqs debug_audit: hull exact deviation diverged from the "
                f"buffered scan (hull={hull_cross!r}, buffer={buffered!r})"
            )

    def _split(self) -> PlanePoint:
        """Commit the previous fix as a key point and open a new segment.

        Every admitted point was verified (by bound or exactly) against the
        path line to the point admitted after it, so the segment ending at
        the previous fix honours the error bound; that fix becomes the new
        anchor.  The quadrant structures are reset in place, not
        reallocated.
        """
        key = self._prev_point()
        self._anchor = key
        self._interior = 0
        self._retained = 0
        for q in self._quadrants:
            q.reset()
        if self._buffer is not None:
            self._buffer.restart_from(())
        return key

    def _info(self) -> dict:
        info = super()._info()
        stats = self._stats
        info["exact_accepts"] = stats.get(Decision.EXACT_ACCEPT, 0)
        info["exact_commits"] = stats.get(Decision.EXACT_COMMIT, 0)
        info["retained_points_peak"] = self._retained_peak
        if self._buffer is not None:
            info["audit_buffer_peak"] = self._buffer.peak
        return info
