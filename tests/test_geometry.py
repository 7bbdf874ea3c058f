"""Geometry kernel tests: distances, hulls, wedge/box bound helpers."""

import math
import random

import pytest

from repro.geometry import (
    convex_hull,
    max_distance_to_line_origin,
    point_in_convex_polygon,
    point_line_distance,
    point_line_distance_origin,
    point_segment_distance,
    wedge_box_polygon,
)
from repro.geometry.planar import angle_of, cross


class TestPointLineDistance:
    def test_horizontal_line(self):
        assert point_line_distance((0.0, 3.0), (-1.0, 0.0), (1.0, 0.0)) == pytest.approx(3.0)

    def test_point_on_line(self):
        assert point_line_distance((5.0, 5.0), (0.0, 0.0), (1.0, 1.0)) == pytest.approx(0.0)

    def test_degenerate_line_is_point_distance(self):
        assert point_line_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == pytest.approx(5.0)

    def test_origin_variant_matches_general(self):
        rng = random.Random(1)
        for _ in range(100):
            p = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            d = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert point_line_distance_origin(p, d) == pytest.approx(
                point_line_distance(p, (0.0, 0.0), d), abs=1e-9
            )


class TestPointSegmentDistance:
    def test_projection_inside(self):
        assert point_segment_distance((0.5, 2.0), (0.0, 0.0), (1.0, 0.0)) == pytest.approx(2.0)

    def test_clamped_to_endpoint(self):
        assert point_segment_distance((2.0, 0.0), (0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)

    def test_never_below_line_distance(self):
        rng = random.Random(2)
        for _ in range(200):
            p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert point_segment_distance(p, a, b) >= point_line_distance(p, a, b) - 1e-9


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.8)]
        hull = convex_hull(pts)
        assert sorted(hull) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_hull_contains_all_points(self):
        rng = random.Random(3)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(200)]
        hull = convex_hull(pts)
        for p in pts:
            assert point_in_convex_polygon(p, hull)

    def test_hull_is_counter_clockwise(self):
        rng = random.Random(4)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(50)]
        hull = convex_hull(pts)
        n = len(hull)
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            assert cross((a[0] - o[0], a[1] - o[1]), (b[0] - o[0], b[1] - o[1])) > 0

    def test_collinear_and_tiny_inputs(self):
        assert convex_hull([(0, 0)]) == [(0.0, 0.0)]
        assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0.0, 0.0), (2.0, 2.0)]


class TestWedgeBoxHelpers:
    def test_wedge_box_polygon_contains_conforming_points(self):
        """Points inside both box and wedge stay inside the clipped polygon."""
        rng = random.Random(5)
        box = (1.0, 0.5, 6.0, 4.0)
        for _ in range(20):
            pts = [
                (rng.uniform(box[0], box[2]), rng.uniform(box[1], box[3]))
                for _ in range(30)
            ]
            angles = [angle_of(p) for p in pts]
            lo, hi = min(angles), max(angles)
            poly = wedge_box_polygon(*box, lo, hi)
            for p in pts:
                assert point_in_convex_polygon(p, poly)

    def test_polygon_bound_dominates_member_points(self):
        """Max vertex distance upper-bounds every member point's distance."""
        rng = random.Random(6)
        for _ in range(50):
            pts = [(rng.uniform(0.1, 9), rng.uniform(0.1, 9)) for _ in range(25)]
            min_x = min(p[0] for p in pts)
            max_x = max(p[0] for p in pts)
            min_y = min(p[1] for p in pts)
            max_y = max(p[1] for p in pts)
            angles = [angle_of(p) for p in pts]
            poly = wedge_box_polygon(min_x, min_y, max_x, max_y, min(angles), max(angles))
            direction = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            bound = max_distance_to_line_origin(poly, direction)
            actual = max_distance_to_line_origin(pts, direction)
            assert bound >= actual - 1e-9


class TestProjectionRoundTrip:
    def test_utm_round_trip_is_submillimetre(self):
        from repro.model import UTMProjection

        proj = UTMProjection.for_coordinate(-37.8136, 144.9631)  # Melbourne
        rng = random.Random(7)
        for _ in range(50):
            lat = -37.8136 + rng.uniform(-0.05, 0.05)
            lon = 144.9631 + rng.uniform(-0.05, 0.05)
            x, y = proj.forward(lat, lon)
            lat2, lon2 = proj.inverse(x, y)
            assert lat2 == pytest.approx(lat, abs=1e-8)
            assert lon2 == pytest.approx(lon, abs=1e-8)

    def test_local_tangent_round_trip(self):
        from repro.model import LocalTangentProjection

        proj = LocalTangentProjection(48.8566, 2.3522)  # Paris
        x, y = proj.forward(48.8600, 2.3600)
        lat, lon = proj.inverse(x, y)
        assert lat == pytest.approx(48.8600, abs=1e-9)
        assert lon == pytest.approx(2.3600, abs=1e-9)

    def test_utm_distances_match_haversine(self):
        from repro.model import UTMProjection, haversine_m

        proj = UTMProjection.for_coordinate(40.7128, -74.0060)  # New York
        a = (40.7128, -74.0060)
        b = (40.7300, -73.9900)
        xa, ya = proj.forward(*a)
        xb, yb = proj.forward(*b)
        planar = math.hypot(xb - xa, yb - ya)
        great_circle = haversine_m(*a, *b)
        # UTM scale distortion is bounded by ~0.1% within a zone.
        assert planar == pytest.approx(great_circle, rel=2e-3)


class TestSegmentRectDistance:
    """The range-query workhorse: segment vs axis-aligned rectangle."""

    def test_segment_inside_and_crossing(self):
        from repro.geometry.planar import segment_rect_distance

        assert segment_rect_distance((1, 1), (2, 2), 0, 0, 3, 3) == 0.0
        # endpoints outside, segment pierces the rect
        assert segment_rect_distance((-5, 1), (5, 1), 0, 0, 3, 3) == 0.0
        # touching a corner counts as contact
        assert segment_rect_distance((3, 3), (5, 5), 0, 0, 3, 3) == 0.0

    def test_separated_distances(self):
        from repro.geometry.planar import segment_rect_distance

        # parallel to the right edge, 2 m away
        assert segment_rect_distance((5, 0), (5, 3), 0, 0, 3, 3) == pytest.approx(2.0)
        # diagonal to the corner
        d = segment_rect_distance((4, 4), (6, 6), 0, 0, 3, 3)
        assert d == pytest.approx(math.sqrt(2.0))
        # degenerate (point) segment
        assert segment_rect_distance((0, 7), (0, 7), 0, 0, 3, 3) == pytest.approx(4.0)

    def test_matches_point_sampling(self):
        """Brute-force sampling along segment and rect never beats it."""
        import random

        from repro.geometry.planar import (
            point_segment_distance,
            segment_rect_distance,
        )

        rng = random.Random(3)
        for _ in range(200):
            a = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            x0, y0 = rng.uniform(-10, 0), rng.uniform(-10, 0)
            x1, y1 = x0 + rng.uniform(0.1, 8), y0 + rng.uniform(0.1, 8)
            d = segment_rect_distance(a, b, x0, y0, x1, y1)
            corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            edges = list(zip(corners, corners[1:] + corners[:1]))
            sampled = min(
                point_segment_distance(
                    (
                        a[0] + (b[0] - a[0]) * k / 60.0,
                        a[1] + (b[1] - a[1]) * k / 60.0,
                    ),
                    p,
                    q,
                )
                for k in range(61)
                for p, q in edges
            )
            inside = any(
                x0 <= a[0] + (b[0] - a[0]) * k / 60.0 <= x1
                and y0 <= a[1] + (b[1] - a[1]) * k / 60.0 <= y1
                for k in range(61)
            )
            if inside:
                assert d <= sampled + 1e-9
                # sampling hit the interior: true distance is 0
                assert d == 0.0
            else:
                assert d <= sampled + 1e-9

    def test_infinite_and_huge_bounds(self):
        """The chord (105, 1e6)–(108, 2e6) is 5 m from ``x <= 100``
        whatever the other bounds are: infinite, huge or finite."""
        from repro.geometry.planar import segment_rect_distance

        inf = math.inf
        a, b = (105.0, 1e6), (108.0, 2e6)
        for x_min, y_min, y_max in [
            (-inf, 0.0, inf),
            (-inf, -inf, 3e6),
            (-1e20, -1e20, 1e20),
            (-1e300, -1e300, 1e300),
            (-inf, -inf, inf),
            (0.0, 0.0, 3e6),
        ]:
            d = segment_rect_distance(a, b, x_min, y_min, 100.0, y_max)
            assert d == pytest.approx(5.0, abs=1e-9), (x_min, y_min, y_max)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_with_extreme_bounds(self, seed):
        """Seeded property test against a dense sampler along the chord,
        with infinite, huge and degenerate inputs (zero-length chords,
        zero-width rectangles)."""
        from repro.geometry.planar import segment_rect_distance

        rng = random.Random(seed)
        huge = (math.inf, 1e20, 1e300)
        samples = 2000
        for _ in range(300):
            a = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = a if rng.random() < 0.1 else (rng.uniform(-50, 50), rng.uniform(-50, 50))
            x0, y0 = rng.uniform(-30, 20), rng.uniform(-30, 20)
            x1 = x0 if rng.random() < 0.1 else x0 + rng.uniform(0.0, 30)
            y1 = y0 if rng.random() < 0.1 else y0 + rng.uniform(0.0, 30)
            if rng.random() < 0.5:
                x0 = -rng.choice(huge) if rng.random() < 0.5 else x0
                y0 = -rng.choice(huge) if rng.random() < 0.5 else y0
                x1 = rng.choice(huge) if rng.random() < 0.5 else x1
                y1 = rng.choice(huge) if rng.random() < 0.5 else y1
            d = segment_rect_distance(a, b, x0, y0, x1, y1)
            brute = min(
                math.hypot(
                    max(x0 - x, 0.0, x - x1), max(y0 - y, 0.0, y - y1)
                )
                for k in range(samples + 1)
                for x, y in [(
                    a[0] + (b[0] - a[0]) * k / samples,
                    a[1] + (b[1] - a[1]) * k / samples,
                )]
            )
            step = math.hypot(b[0] - a[0], b[1] - a[1]) / samples
            assert not math.isnan(d)
            assert brute - step - 1e-9 <= d <= brute + 1e-9, (a, b, x0, y0, x1, y1)

    def test_polar_chord_found_by_geo_range_query(self, tmp_path):
        """A rectangle reaching the pole projects with an infinite northing;
        a chord passing beside it, both ends outside, must still match in
        exact mode.  The raw fix between the ends lies inside the
        rectangle, so missing it is a false negative."""
        from dataclasses import replace

        from repro.compression import BQSCompressor
        from repro.model import PlanePoint, UTMProjection
        from repro.storage import TrajectoryStore, geo_range_query, geo_rect_to_plane

        frame = UTMProjection(zone=33, south=False)
        rect = (89.995, 14.0, 90.0, 16.0)
        assert geo_rect_to_plane(rect, frame)[3] == math.inf
        x, y = frame.forward(89.9952, 15.9)
        lat, lon = frame.inverse(x, y)
        assert rect[0] <= lat <= rect[2] and rect[1] <= lon <= rect[3]
        track = [
            PlanePoint(x + 12.0, y - 100.0, 0.0),
            PlanePoint(x, y, 1.0),
            PlanePoint(x + 12.0, y + 100.0, 2.0),
        ]
        out = BQSCompressor(20.0).compress(track)
        assert len(out) == 2  # the inside fix is dropped
        with TrajectoryStore(tmp_path / "polar") as store:
            store.append("dev", replace(out, frame=frame))
            assert [m.device_id for m in geo_range_query(store, rect)] == ["dev"]
