"""Planar geometry kernel.

Pure-math helpers shared by the BQS structures, the baselines and the
evaluation harness.  Everything operates on plain ``(x, y)`` float pairs so
the module has no dependency on the data model; distances are Euclidean and
in the same unit as the inputs (metres throughout this library).

The paper's deviation metric (Section IV) is the distance from a point to
the *infinite line* through a segment's start and end points; the
point-to-line-segment variant (Section V-G) is also provided, as are the
convex hulls and the box ∩ wedge clip behind the BQS bounds, and the
segment / rectangle distances behind the store's range queries.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Vec2 = tuple[float, float]

__all__ = [
    "Vec2",
    "cross",
    "dot",
    "norm",
    "normalize_angle",
    "angle_of",
    "point_line_distance",
    "point_line_distance_origin",
    "point_segment_distance",
    "segment_rect_distance",
    "convex_hull",
    "point_in_convex_polygon",
    "rectangle_corners",
    "wedge_box_polygon",
    "max_distance_to_line_origin",
    "max_abs_cross",
]


def cross(a: Vec2, b: Vec2) -> float:
    """2-D cross product ``a × b`` (z-component)."""
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Vec2, b: Vec2) -> float:
    """2-D dot product."""
    return a[0] * b[0] + a[1] * b[1]


def norm(a: Vec2) -> float:
    """Euclidean norm of a 2-vector."""
    return math.hypot(a[0], a[1])


def normalize_angle(theta: float) -> float:
    """Wrap an angle into ``[0, 2π)``."""
    wrapped = math.fmod(theta, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped


def angle_of(p: Vec2) -> float:
    """Polar angle of ``p`` in ``[0, 2π)``; 0 for the origin itself."""
    if p[0] == 0.0 and p[1] == 0.0:
        return 0.0
    return normalize_angle(math.atan2(p[1], p[0]))


def point_line_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Distance from ``p`` to the infinite line through ``a`` and ``b``.

    Degenerates gracefully: when ``a == b`` the "line" collapses to a point
    and the point-to-point distance is returned, which matches how the paper
    treats zero-length path lines (the deviation of anything from a single
    location is its distance to that location).
    """
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = norm(ab)
    if denom == 0.0:
        return norm(ap)
    return abs(cross(ab, ap)) / denom


def point_line_distance_origin(p: Vec2, direction: Vec2) -> float:
    """Distance from ``p`` to the line through the origin along ``direction``.

    This is the hot path inside the BQS bound computation, where every path
    line passes through the (possibly rotated) segment origin.
    """
    denom = norm(direction)
    if denom == 0.0:
        return norm(p)
    return abs(cross(direction, p)) / denom


def point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Distance from ``p`` to the closed line segment ``ab``."""
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = dot(ab, ab)
    if denom == 0.0:
        return norm(ap)
    t = dot(ap, ab) / denom
    if t <= 0.0:
        return norm(ap)
    if t >= 1.0:
        return math.hypot(p[0] - b[0], p[1] - b[1])
    proj = (a[0] + t * ab[0], a[1] + t * ab[1])
    return math.hypot(p[0] - proj[0], p[1] - proj[1])


def segment_rect_distance(
    a: Vec2,
    b: Vec2,
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
) -> float:
    """Minimum distance from closed segment ``ab`` to an axis-aligned
    rectangle (zero when they touch or the segment enters it).

    The workhorse of the ε-expanded range queries: a stored chord is
    within ε of a query rectangle iff this distance is ≤ ε.  Bounds may be
    infinite or huge (a geographic query reaching past the projection's
    polar clamp has an infinite northing).

    Along the chord ``p(t) = a + t·(b − a)``, the squared distance is the
    sum of each axis's squared overshoot, which is linear in ``t`` between
    the points where ``x(t)`` or ``y(t)`` crosses a bound.  So the chord
    splits into at most five pieces, and on each the squared distance is a
    convex quadratic, minimised in closed form.  An infinite bound is
    never crossed and is never subtracted from.
    """
    ax, ay = a
    bx, by = b
    if x_min <= ax <= x_max and y_min <= ay <= y_max:
        return 0.0
    if x_min <= bx <= x_max and y_min <= by <= y_max:
        return 0.0
    dx = bx - ax
    dy = by - ay
    cuts = [0.0, 1.0]
    for p0, d, lo, hi in ((ax, dx, x_min, x_max), (ay, dy, y_min, y_max)):
        if d:
            for bound in (lo, hi):
                t = (bound - p0) / d
                if 0.0 < t < 1.0:
                    cuts.append(t)
    cuts.sort()
    best = math.inf
    for t0, t1 in zip(cuts, cuts[1:]):
        # Which side of each slab the piece lies on, read at its middle;
        # the overshoot is then ``c0 + c1·t`` on the whole piece.
        tm = 0.5 * (t0 + t1)
        x = ax + tm * dx
        if x < x_min:
            cx0, cx1 = x_min - ax, -dx
        elif x > x_max:
            cx0, cx1 = ax - x_max, dx
        else:
            cx0 = cx1 = 0.0
        y = ay + tm * dy
        if y < y_min:
            cy0, cy1 = y_min - ay, -dy
        elif y > y_max:
            cy0, cy1 = ay - y_max, dy
        else:
            cy0 = cy1 = 0.0
        den = cx1 * cx1 + cy1 * cy1
        t = t0
        if den > 0.0:
            t = -(cx0 * cx1 + cy0 * cy1) / den
            t = t0 if t < t0 else t1 if t > t1 else t
        d = math.hypot(cx0 + cx1 * t, cy0 + cy1 * t)
        if d < best:
            best = d
    return best


def convex_hull(points: Sequence[Vec2]) -> list[Vec2]:
    """Convex hull by Andrew's monotone chain, counter-clockwise.

    Collinear points on the hull boundary are dropped.  Returns the input
    for fewer than 3 distinct points.
    """
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def half(chain_pts: Iterable[Vec2]) -> list[Vec2]:
        chain: list[Vec2] = []
        for p in chain_pts:
            while len(chain) >= 2:
                o, q = chain[-2], chain[-1]
                if cross((q[0] - o[0], q[1] - o[1]), (p[0] - o[0], p[1] - o[1])) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def point_in_convex_polygon(p: Vec2, polygon: Sequence[Vec2]) -> bool:
    """Whether ``p`` lies inside (or on) a counter-clockwise convex polygon.

    Degenerate polygons (fewer than 3 vertices) only contain their own
    vertices and the segment between them; that case is handled through the
    same cross-product test (collinearity plus a bounding check).
    """
    n = len(polygon)
    if n == 0:
        return False
    if n == 1:
        return p == polygon[0]
    if n == 2:
        a, b = polygon
        return point_segment_distance(p, a, b) <= 1e-12
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        if cross((b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])) < -1e-12:
            return False
    return True


def rectangle_corners(
    min_x: float, min_y: float, max_x: float, max_y: float
) -> list[Vec2]:
    """The four corners of an axis-aligned rectangle, counter-clockwise."""
    return [
        (min_x, min_y),
        (max_x, min_y),
        (max_x, max_y),
        (min_x, max_y),
    ]


def _clip_left_of_origin_ray(
    poly: Sequence[Vec2], dx: float, dy: float
) -> list[Vec2]:
    """Clip to ``dx*y - dy*x >= -1e-12`` (left of the origin ray along
    ``(dx, dy)``): one Sutherland–Hodgman step, with each vertex's side
    value computed once."""
    n = len(poly)
    if n == 0:
        return []
    out: list[Vec2] = []
    append = out.append
    cur = poly[n - 1]
    s_cur = dx * cur[1] - dy * cur[0]
    cur_in = s_cur >= -1e-12
    for i in range(n):
        # Emit the vertex if inside, then the intersection on its out-edge;
        # starting at the last vertex only rotates the cycle — orientation
        # is preserved.
        nxt = poly[i]
        s_nxt = dx * nxt[1] - dy * nxt[0]
        nxt_in = s_nxt >= -1e-12
        if cur_in:
            append(cur)
        if cur_in != nxt_in:
            t = s_cur / (s_cur - s_nxt)
            append(
                (
                    cur[0] + t * (nxt[0] - cur[0]),
                    cur[1] + t * (nxt[1] - cur[1]),
                )
            )
        cur = nxt
        s_cur = s_nxt
        cur_in = nxt_in
    return out


def wedge_box_polygon(
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    theta_lo: float,
    theta_hi: float,
) -> list[Vec2]:
    """The bounded area of one BQS quadrant: box ∩ wedge, about the origin.

    The wedge is the set of points whose polar angle lies in
    ``[theta_lo, theta_hi]``; the box is axis-aligned.  Both are expressed in
    anchor-relative coordinates (the anchor is the origin), matching how the
    Bounded Quadrant System keeps per-quadrant state.  The angular span must
    be at most π — always true inside a single quadrant, which spans π/2 —
    otherwise the two half-plane clips below would not describe the wedge.

    Every point recorded in the quadrant lies inside the returned convex
    polygon, so the maximum distance from any recorded point to a line
    through the origin is bounded by the maximum over the polygon's vertices
    (Theorems 5.3–5.5 of the paper).  Returns ``[]`` when box and wedge do
    not intersect (numerically possible with degenerate boxes).
    """
    # Keep angle >= theta_lo (left of the origin -> lo ray), then angle <=
    # theta_hi (left of the hi ray -> origin, i.e. right of the origin ->
    # hi ray: the same clip with the direction negated).
    poly = _clip_left_of_origin_ray(
        ((min_x, min_y), (max_x, min_y), (max_x, max_y), (min_x, max_y)),
        math.cos(theta_lo),
        math.sin(theta_lo),
    )
    return _clip_left_of_origin_ray(
        poly, -math.cos(theta_hi), -math.sin(theta_hi)
    )


def max_distance_to_line_origin(
    points: Iterable[Vec2], direction: Vec2
) -> float:
    """Max distance from ``points`` to the origin line along ``direction``.

    This is the vertex scan used for both BQS bounds: applied to a bounded
    area polygon it yields the upper bound; applied to the quadrant's
    significant points (which are actual trajectory points) it yields the
    lower bound.
    """
    best = 0.0
    for p in points:
        d = point_line_distance_origin(p, direction)
        if d > best:
            best = d
    return best


def max_abs_cross(points: Iterable[Vec2], dx: float, dy: float) -> float:
    """``max |dx*y - dy*x|`` over ``points`` (0 for no points).

    This is :func:`max_distance_to_line_origin` scaled by ``hypot(dx, dy)``:
    the BQS hot path computes crosses only and compares them against a
    tolerance pre-multiplied by the direction norm, saving one ``hypot`` and
    one division per vertex per arrival.
    """
    best = 0.0
    for x, y in points:
        c = dx * y - dy * x
        if c < 0.0:
            c = -c
        if c > best:
            best = c
    return best
