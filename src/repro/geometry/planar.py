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
from bisect import bisect_left
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
    "segments_intersect",
    "segment_segment_distance",
    "segment_rect_distance",
    "convex_hull",
    "IncrementalHull",
    "point_in_convex_polygon",
    "rectangle_corners",
    "wedge_box_polygon",
    "max_distance_to_line_origin",
    "max_abs_cross",
    "min_distance_on_segment_to_line_origin",
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


def segments_intersect(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> bool:
    """Whether closed segments ``ab`` and ``cd`` share a point.

    The standard orientation test, with collinear overlap handled via
    bounding-interval checks — exact for the query layer's crossing tests
    because every orientation is a sign of a cross product.
    """
    d1 = cross((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1]))
    d2 = cross((b[0] - a[0], b[1] - a[1]), (d[0] - a[0], d[1] - a[1]))
    d3 = cross((d[0] - c[0], d[1] - c[1]), (a[0] - c[0], a[1] - c[1]))
    d4 = cross((d[0] - c[0], d[1] - c[1]), (b[0] - c[0], b[1] - c[1]))
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and (
        (d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0
    ):
        # Signs straddle (or touch) on both segments; rule out the
        # collinear-but-disjoint case with interval overlap.
        if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
            return (
                min(a[0], b[0]) <= max(c[0], d[0])
                and min(c[0], d[0]) <= max(a[0], b[0])
                and min(a[1], b[1]) <= max(c[1], d[1])
                and min(c[1], d[1]) <= max(a[1], b[1])
            )
        return True
    return False


def segment_segment_distance(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> float:
    """Minimum distance between closed segments ``ab`` and ``cd``.

    Zero when they intersect; otherwise the minimum is attained at an
    endpoint of one segment against the other, so four point-segment
    distances cover it.
    """
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


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
    within ε of a query rectangle iff this distance is ≤ ε.
    """
    # Inside (either endpoint) means contact; otherwise the minimum is
    # against one of the four rectangle edges.
    if x_min <= a[0] <= x_max and y_min <= a[1] <= y_max:
        return 0.0
    if x_min <= b[0] <= x_max and y_min <= b[1] <= y_max:
        return 0.0
    c00 = (x_min, y_min)
    c10 = (x_max, y_min)
    c11 = (x_max, y_max)
    c01 = (x_min, y_max)
    return min(
        segment_segment_distance(a, b, c00, c10),
        segment_segment_distance(a, b, c10, c11),
        segment_segment_distance(a, b, c11, c01),
        segment_segment_distance(a, b, c01, c00),
    )


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


class IncrementalHull:
    """Convex hull maintained under point insertion (semi-dynamic).

    The hull is stored as the two monotone chains of Andrew's algorithm,
    each sorted by ``(x, y)``.  Inserting a point locates its position with
    a binary search, rejects it in O(log h) when it falls inside the current
    hull, and otherwise splices it in and repairs convexity locally by
    popping dominated neighbours — the same pops the batch monotone chain
    would perform, so each point is inserted and removed at most once and
    insertion is amortized O(log h) comparisons (plus the list memmove).

    :meth:`vertices` reproduces :func:`convex_hull`'s output exactly — same
    vertex set, same counter-clockwise order, collinear points dropped — a
    correspondence the test suite cross-checks on random point sets.  The
    one exception is *near*-collinear input (points collinear in exact
    arithmetic but not as floats, e.g. GPS fixes along a straight road):
    there the two implementations may keep different boundary-grazing
    vertices, since at ULP scale the hull is ambiguous and insertion order
    matters.  Both remain valid hulls of the input, and the property BQS
    relies on — the max ``|cross|`` over vertices equals the max over all
    inserted points — holds either way (also under test).
    """

    __slots__ = ("_lower", "_upper")

    def __init__(self, points: Iterable[Vec2] = ()) -> None:
        self._lower: list[Vec2] = []
        self._upper: list[Vec2] = []
        for p in points:
            self.add(p)

    def __len__(self) -> int:
        n = len(self._lower)
        if n <= 1:
            return n
        # The chains share their first and last vertices (min and max point).
        return n + len(self._upper) - 2

    def clear(self) -> None:
        """Empty the hull, keeping the chain lists allocated."""
        self._lower.clear()
        self._upper.clear()

    @staticmethod
    def _insert(chain: list[Vec2], p: Vec2, orient: float) -> bool:
        """Insert ``p`` into one monotone chain; ``orient`` is +1 for the
        lower chain (interior triples turn left) and -1 for the upper.
        Returns False when ``p`` lies on or inside the chain."""
        i = bisect_left(chain, p)
        n = len(chain)
        if i < n and chain[i] == p:
            return False
        if 0 < i < n:
            a = chain[i - 1]
            b = chain[i]
            if orient * (
                (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            ) >= 0.0:
                return False  # on or interior-side of the chain edge
        chain.insert(i, p)
        # Pop neighbours to the right of p that stopped being convex.
        while i + 2 < len(chain):
            a, b, c = chain[i], chain[i + 1], chain[i + 2]
            if orient * (
                (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            ) <= 0.0:
                del chain[i + 1]
            else:
                break
        # Pop neighbours to the left of p likewise.
        while i >= 2:
            a, b, c = chain[i - 2], chain[i - 1], chain[i]
            if orient * (
                (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            ) <= 0.0:
                del chain[i - 1]
                i -= 1
            else:
                break
        return True

    def add(self, p: Vec2) -> int:
        """Fold one point in; returns the net change in vertex count.

        The delta can be negative (one insertion may pop several dominated
        vertices) or zero even when the hull changed shape, so callers
        tracking memory should accumulate it rather than test it.
        """
        before = len(self)
        self._insert(self._lower, p, 1.0)
        self._insert(self._upper, p, -1.0)
        return len(self) - before

    def vertices(self) -> list[Vec2]:
        """Hull vertices, counter-clockwise, matching :func:`convex_hull`."""
        lower = self._lower
        if len(lower) <= 1:
            return list(lower)
        upper = self._upper
        out = lower[:-1]
        for i in range(len(upper) - 1, 0, -1):
            out.append(upper[i])
        return out

    def max_abs_cross(self, dx: float, dy: float) -> float:
        """``max |dx*y - dy*x|`` over the hull vertices (0 when empty).

        Dividing by ``hypot(dx, dy)`` turns this into the exact maximum
        distance from the hulled points to the origin line along
        ``(dx, dy)`` — the distance is convex in position, so its maximum
        over the original point set is attained at a hull vertex.  Keeping
        the division out of the loop lets callers compare against a
        pre-scaled tolerance.
        """
        best = 0.0
        for x, y in self._lower:
            c = dx * y - dy * x
            if c < 0.0:
                c = -c
            if c > best:
                best = c
        for x, y in self._upper:
            c = dx * y - dy * x
            if c < 0.0:
                c = -c
            if c > best:
                best = c
        return best


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


def min_distance_on_segment_to_line_origin(
    a: Vec2, b: Vec2, direction: Vec2
) -> float:
    """Min distance from any point of segment ``ab`` to the origin line.

    Zero when the segment crosses the line.  A bounding-box edge is touched
    by at least one actual trajectory point, so this is a valid per-edge
    lower bound on the quadrant's maximum deviation.
    """
    denom = norm(direction)
    if denom == 0.0:
        return min(norm(a), norm(b))
    sa = cross(direction, a) / denom
    sb = cross(direction, b) / denom
    if (sa <= 0.0 <= sb) or (sb <= 0.0 <= sa):
        return 0.0
    return min(abs(sa), abs(sb))
