"""Error-aware spatio-temporal queries over the compressed store.

The paper's guarantee is the whole query story: every original point lies
within ε of the compressed segment covering its timestamp, and the key
points delimiting those segments *are* original samples.  Both query
kinds exploit exactly that, answering directly over the compressed
records without ever reconstructing the raw stream:

**Time-window** (:func:`time_window_query`)
    A device was active in ``[t0, t1]`` iff its stream's time span
    overlaps the window — and compression preserves the span exactly
    (the first and last fixes are always key points), so the answer read
    off the index envelopes equals a brute-force scan of the raw fixes'
    spans.  Always exact; never decodes a record.

**Spatial range** (:func:`range_query`)
    "Which devices entered rectangle R?"  Over compressed data the
    answer has an ε-wide uncertainty band, handled in two modes:

    ``approximate``
        Index-only screen: a record matches when its stored bounding
        box, expanded by its own ε (both live in the envelope), reaches
        R.  No record is decoded; a superset of the exact answer.

    ``exact``
        Decodes the screened candidates and tests each compressed chord
        against R expanded by ε
        (:func:`repro.geometry.planar.segment_rect_distance`).  The
        error bound makes this **free of false negatives**: an original
        fix inside R lies within ε of its covering chord, so that chord
        passes within ε of R.  Matches additionally carry ``definite`` —
        containment proven because a key point (a real fix) landed
        inside R — so callers get the classic
        ``definite ⊆ truth ⊆ matches`` bracket from the range-query
        literature, which collapses to the exact answer whenever no
        trajectory ε-grazes the rectangle's boundary without entering.

    Records whose ε is not finite (uniform sampling carries no bound)
    get no expansion — there is no guarantee to expand by — and are
    matched on their compressed polyline alone.

**Geographic range** (:func:`geo_range_query`)
    The same question asked the way a GPS-native caller asks it: "which
    devices entered this latitude/longitude rectangle?"  Every
    zone-stamped record is tested **in its own UTM frame**: the geographic
    rectangle is projected into each distinct ``(zone, hemisphere)``
    present among the candidates as a *conservative containing* planar
    rectangle (dense boundary sampling plus a curvature-bound expansion
    for the distortion between samples — see :func:`geo_rect_to_plane`),
    so the no-false-negative guarantee survives the projection.
    ``definite`` is decided geodetically: a key point (a real original
    fix) whose unprojected coordinate lies inside the geographic
    rectangle.  Matches carry the frame they were tested in and an
    unprojected lat/lon ``geo_envelope`` of the record's bounding box,
    computed on first read, so callers get answers in the coordinate
    system they asked in.  Records without a stamped zone cannot be
    placed on the ellipsoid and are skipped (they were ingested as bare
    plane fixes; query them with :func:`range_query`).

Both queries compose with a time window: ``range_query(..., t0=, t1=)``
restricts the spatial test to the chords overlapping the window (the
spatio-temporal composite query).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from ..geometry.planar import segment_rect_distance
from ..model.projection import UTMProjection
from .store import RecordRef, TrajectoryStore

__all__ = [
    "GeoRect",
    "QueryMatch",
    "Rect",
    "geo_envelope_of",
    "geo_rect_to_plane",
    "geo_range_query",
    "range_query",
    "time_window_query",
]

Rect = Tuple[float, float, float, float]  #: ``(x_min, y_min, x_max, y_max)``
GeoRect = Tuple[float, float, float, float]  #: ``(lat_min, lon_min, lat_max, lon_max)`` degrees


@dataclass(frozen=True)
class QueryMatch:
    """One record satisfying a query."""

    device_id: str
    ref: RecordRef
    #: Containment proven from compressed data alone (a key point — an
    #: actual original fix — inside the query rectangle, inside the time
    #: window if one was given).  Time-window-only matches are always
    #: definite; ``approximate`` range matches never are.  For geographic
    #: queries the proof is geodetic: the key point's *unprojected*
    #: coordinate lies inside the lat/lon rectangle.
    definite: bool
    #: Geographic matches only: the stamped UTM frame the record was
    #: tested in (``None`` for planar and time-window matches).
    frame: UTMProjection | None = None

    @cached_property
    def geo_envelope(self) -> GeoRect | None:
        """Geographic matches only: the record's bounding box unprojected
        through :attr:`frame`, as ``(lat_min, lon_min, lat_max,
        lon_max)`` — the answer in the caller's coordinate system.

        Computed on first read (four inverse projections) and kept on
        this match; a pure function of ``(ref, frame)``, so equality need
        not compare it.
        """
        if self.frame is None:
            return None
        return geo_envelope_of(self.ref, self.frame)


def _check_window(t0: float, t1: float) -> None:
    if not t1 >= t0:
        raise ValueError(f"empty time window [{t0}, {t1}]")


def time_window_query(
    store: TrajectoryStore, t0: float, t1: float
) -> List[QueryMatch]:
    """Records whose stream time span overlaps ``[t0, t1]`` (exact)."""
    _check_window(t0, t1)
    return [
        QueryMatch(device_id=ref.device_id, ref=ref, definite=True)
        for ref in store.candidates(t0=t0, t1=t1)
    ]


#: Rounding margin of the chord box screen in :func:`_chords_hit`: an
#: absolute part (metres) and a part relative to the rectangle's magnitude.
_SCREEN_SLACK_M = 1.0
_SCREEN_SLACK_REL = 1e-9


def _chords_hit(
    decoded,
    rect: Rect,
    eps: float,
    t0: float | None,
    t1: float | None,
    definite_test=None,
) -> Tuple[bool, bool]:
    """``(hit, definite)`` for one decoded record against an ε-expanded
    rectangle, optionally restricted to the chords overlapping a window.

    ``definite_test(x, y)`` refines what a key point inside the rectangle
    proves.  For the planar query it is ``None``: the rectangle *is* the
    query region, so a contained key point — a real original fix — is
    definite on the spot.  The geographic query passes a geodetic
    predicate (unproject and test the lat/lon rectangle), because its
    planar rectangle is a deliberately inflated superset of the true
    region: a contained key point still proves a hit (distance zero), but
    only the predicate proves definite containment, and the scan
    continues looking for one.
    """
    x_min, y_min, x_max, y_max = rect
    # Box screen: a chord whose bounding box lies beyond the rectangle on
    # some axis by more than ``reach`` is at least that far from it
    # (distance ≥ axis separation), so it cannot hit.  ``reach`` exceeds ε
    # by ε + 1 m plus 1e-9 of the rectangle's magnitude, far above the
    # rounding of ``segment_rect_distance``, so a skipped chord is one the
    # exact test would also reject.  An infinite bound screens nothing.
    reach = 2.0 * eps + _SCREEN_SLACK_M + _SCREEN_SLACK_REL * max(
        (abs(v) for v in rect if math.isfinite(v)), default=0.0
    )
    lo_x, hi_x = x_min - reach, x_max + reach
    lo_y, hi_y = y_min - reach, y_max + reach
    windowed = t0 is not None
    cols = decoded.columns
    ts, xs, ys = cols.ts, cols.xs, cols.ys
    n = len(ts)
    hit = False
    for i in range(n):
        if not windowed or t0 <= ts[i] <= t1:
            if x_min <= xs[i] <= x_max and y_min <= ys[i] <= y_max:
                if definite_test is None or definite_test(xs[i], ys[i]):
                    return True, True  # a real original fix inside the rect
                hit = True
        if hit or i + 1 >= n:
            continue
        if windowed and not (ts[i] <= t1 and ts[i + 1] >= t0):
            continue
        ax, bx, ay, by = xs[i], xs[i + 1], ys[i], ys[i + 1]
        if (
            (ax < lo_x and bx < lo_x)
            or (ax > hi_x and bx > hi_x)
            or (ay < lo_y and by < lo_y)
            or (ay > hi_y and by > hi_y)
        ):
            continue
        d = segment_rect_distance((ax, ay), (bx, by), x_min, y_min, x_max, y_max)
        if d <= eps:
            hit = True  # keep scanning: a later key point may be definite
    if not hit and n == 1 and (not windowed or t0 <= ts[0] <= t1):
        # Single key point: the stream collapsed to one fix; treat it as a
        # zero-length chord with the same ε uncertainty.
        d = segment_rect_distance(
            (xs[0], ys[0]), (xs[0], ys[0]), x_min, y_min, x_max, y_max
        )
        hit = d <= eps
    return hit, False


def range_query(
    store: TrajectoryStore,
    rect: Rect,
    *,
    mode: str = "exact",
    t0: float | None = None,
    t1: float | None = None,
) -> List[QueryMatch]:
    """Records whose trajectory (possibly) entered ``rect``.

    See the module docstring for the mode guarantees.  With ``t0`` /
    ``t1`` the spatial test only considers the part of each trajectory
    inside the window.
    """
    x_min, y_min, x_max, y_max = rect
    if not (x_max >= x_min and y_max >= y_min):
        raise ValueError(f"degenerate rectangle {rect!r}")
    if mode not in ("exact", "approximate"):
        raise ValueError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    if (t0 is None) != (t1 is None):
        raise ValueError("t0 and t1 must be given together")
    if t0 is not None:
        _check_window(t0, t1)

    matches: List[QueryMatch] = []
    # The store's candidate iterator runs the exact envelope screen the
    # loop below used to (time overlap, then the ε-expanded bbox test)
    # over the mmap'd index rows with block pruning, so only candidates
    # ever materialize a RecordRef.
    for ref in store.candidates(rect=rect, t0=t0, t1=t1):
        eps = ref.epsilon if math.isfinite(ref.epsilon) else 0.0
        if mode == "approximate":
            matches.append(
                QueryMatch(device_id=ref.device_id, ref=ref, definite=False)
            )
            continue
        hit, definite = _chords_hit(store.read(ref), rect, eps, t0, t1)
        if hit:
            matches.append(
                QueryMatch(device_id=ref.device_id, ref=ref, definite=definite)
            )
    return matches


# -- geographic range ---------------------------------------------------------

#: Boundary samples per geographic-rectangle edge when projecting a query
#: into a UTM frame.  More samples → tighter containing rectangle; the
#: curvature margin below covers whatever bows between adjacent samples.
_GEO_EDGE_SAMPLES = 16

#: Minimum semi-axis of the WGS-84 ellipsoid (metres), the denominator of
#: the graticule-curvature bound below.
_WGS84_MIN_RADIUS = 6.35e6


def _graticule_curvature(lat_extreme_deg: float) -> float:
    """Upper bound (1/m) on the curvature of projected graticule lines
    (meridians / parallels) in a transverse-Mercator frame, for a
    rectangle whose latitudes stay within ``±lat_extreme_deg``.

    The dominant term is the parallel's image, which curves like
    ``tan(φ)/R`` — e.g. ~1.5e-6 at 84°, but ~1.8e-5 at 89.5°, so a fixed
    mid-latitude constant silently under-covers polar rectangles.  The
    bound is doubled as a safety pad and floored at the equator-adjacent
    value; the sagitta of an arc between adjacent boundary samples a
    chord ``c`` apart is then at most ``κ c² / 8``.
    """
    tangent = math.tan(math.radians(min(abs(lat_extreme_deg), _GEO_LAT_CLAMP)))
    return 2.0 * max(tangent, 1.0) / _WGS84_MIN_RADIUS

#: Absolute slack (metres) absorbing the projection series' own error
#: (sub-millimetre inside a zone, centimetres for far-outside-zone
#: boundary-crossing tracks) — vanishing next to any realistic ε.
_GEO_SLACK_M = 0.01

#: Transverse Mercator blows up at the poles (``atanh(sin ±90°)``), so
#: boundary sampling is clamped here; a query rectangle reaching past the
#: clamp gets an infinite northing bound instead (still conservative).
_GEO_LAT_CLAMP = 89.99


def geo_rect_to_plane(
    geo_rect: GeoRect,
    projection: UTMProjection,
    samples: int = _GEO_EDGE_SAMPLES,
) -> Rect:
    """A planar rectangle *containing* the image of a geographic rectangle.

    The lat/lon rectangle maps to a curved quadrilateral in the projected
    plane.  Its boundary is sampled densely (``samples`` points per edge,
    projected in one bulk pass), bounded, and expanded by a sagitta bound
    on how far the true curve can bow between adjacent samples
    (:func:`_graticule_curvature`, evaluated at the rectangle's extreme
    latitude) plus the projection's own error budget — so every point of
    the true image lies inside the returned rectangle, which is what the
    range query's no-false-negative guarantee needs.  The expansion is
    conservative but tiny for city-scale mid-latitude rectangles
    (fractions of a metre); it grows toward the poles, where the
    graticule genuinely curves harder.
    """
    geo_lat_min, lon_min, geo_lat_max, lon_max = geo_rect
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    # Sample within the projection's numeric domain; pole-adjacent rect
    # portions are covered by the infinite northing bounds below.
    lat_min = min(max(geo_lat_min, -_GEO_LAT_CLAMP), _GEO_LAT_CLAMP)
    lat_max = min(max(geo_lat_max, -_GEO_LAT_CLAMP), _GEO_LAT_CLAMP)
    lats: List[float] = []
    lons: List[float] = []
    # Closed boundary walk: south edge west→east, east edge south→north,
    # north edge east→west, west edge north→south.  Adjacent list entries
    # are adjacent on the boundary, so the max gap below is the real
    # sample spacing.
    dlat = (lat_max - lat_min) / samples
    dlon = (lon_max - lon_min) / samples
    for k in range(samples):
        lats.append(lat_min)
        lons.append(lon_min + k * dlon)
    for k in range(samples):
        lats.append(lat_min + k * dlat)
        lons.append(lon_max)
    for k in range(samples):
        lats.append(lat_max)
        lons.append(lon_max - k * dlon)
    for k in range(samples):
        lats.append(lat_max - k * dlat)
        lons.append(lon_min)
    xs, ys = projection.forward_columns(lats, lons)
    n = len(xs)
    gap_sq = 0.0
    for i in range(n):
        dx = xs[i] - xs[i - 1]  # i == 0 wraps: the walk is closed
        dy = ys[i] - ys[i - 1]
        d = dx * dx + dy * dy
        if d > gap_sq:
            gap_sq = d
    lat_extreme = max(abs(lat_min), abs(lat_max))
    margin = _graticule_curvature(lat_extreme) * gap_sq / 8.0 + _GEO_SLACK_M
    y_lo = min(ys) - margin
    y_hi = max(ys) + margin
    # Northing grows monotonically poleward: a rectangle reaching past the
    # sampling clamp must cover everything beyond it.
    if geo_lat_min < -_GEO_LAT_CLAMP:
        y_lo = -math.inf
    if geo_lat_max > _GEO_LAT_CLAMP:
        y_hi = math.inf
    return (min(xs) - margin, y_lo, max(xs) + margin, y_hi)


def geo_envelope_of(
    ref: RecordRef, projection: UTMProjection | None = None
) -> GeoRect | None:
    """A record's bounding box unprojected to ``(lat_min, lon_min,
    lat_max, lon_max)`` through its stamped zone (``None`` unstamped).

    Corner-based: the envelope of the four unprojected bbox corners.  The
    planar box edges can bow fractionally outside it under projection
    distortion, so treat it as reporting precision, not a guarantee.
    ``projection`` lets a caller that already holds the record's frame
    (the query loop caches one per zone) skip rebuilding the
    Krüger-series coefficients per match.
    """
    if projection is None:
        projection = ref.projection()
    if projection is None:
        return None
    corners = (
        projection.inverse(ref.x_min, ref.y_min),
        projection.inverse(ref.x_min, ref.y_max),
        projection.inverse(ref.x_max, ref.y_min),
        projection.inverse(ref.x_max, ref.y_max),
    )
    return (
        min(c[0] for c in corners),
        min(c[1] for c in corners),
        max(c[0] for c in corners),
        max(c[1] for c in corners),
    )


def _geo_definite_test(geo_rect: GeoRect, projection: UTMProjection):
    """The geodetic definiteness predicate for :func:`_chords_hit`: a key
    point is definite only if its *unprojected* coordinate lies inside
    the lat/lon rectangle."""
    lat_min, lon_min, lat_max, lon_max = geo_rect
    inverse = projection.inverse

    def test(x: float, y: float) -> bool:
        lat, lon = inverse(x, y)
        return lat_min <= lat <= lat_max and lon_min <= lon <= lon_max

    return test


def _geo_collect(
    store: TrajectoryStore,
    geo_rect: GeoRect,
    mode: str,
    t0: float | None,
    t1: float | None,
) -> List[QueryMatch]:
    """One non-wrapping lobe of a geographic query, per stamped frame.

    Candidate selection runs once per distinct ``(zone, hemisphere)``
    stamped in the store, with the lobe projected conservatively into
    that frame and the store's zone filter keeping the block-pruned scan
    sound (a block may mix zones; the per-row zone test may not).  The
    returned matches are grouped by frame, not in append order — the
    caller restores global order.
    """
    matches: List[QueryMatch] = []
    for zone, south in sorted(store.stamped_frames()):
        projection = UTMProjection(zone=zone, south=south)
        rect = geo_rect_to_plane(geo_rect, projection)
        definite_test = _geo_definite_test(geo_rect, projection)
        for ref in store.candidates(
            rect=rect, t0=t0, t1=t1, zone=zone, south=south
        ):
            if mode == "approximate":
                matches.append(
                    QueryMatch(
                        device_id=ref.device_id,
                        ref=ref,
                        definite=False,
                        frame=projection,
                    )
                )
                continue
            eps = ref.epsilon if math.isfinite(ref.epsilon) else 0.0
            hit, definite = _chords_hit(
                store.read(ref), rect, eps, t0, t1, definite_test=definite_test
            )
            if hit:
                matches.append(
                    QueryMatch(
                        device_id=ref.device_id,
                        ref=ref,
                        definite=definite,
                        frame=projection,
                    )
                )
    return matches


def geo_range_query(
    store: TrajectoryStore,
    geo_rect: GeoRect,
    *,
    mode: str = "exact",
    t0: float | None = None,
    t1: float | None = None,
) -> List[QueryMatch]:
    """Zone-stamped records whose trajectory (possibly) entered a lat/lon
    rectangle.

    Each candidate is tested in its own stamped UTM frame: the
    geographic rectangle is projected once per distinct ``(zone,
    hemisphere)`` among the candidates (conservatively — see
    :func:`geo_rect_to_plane`) and the planar machinery of
    :func:`range_query` runs in that frame.  Mode semantics match
    :func:`range_query`; the exact mode keeps the no-false-negative
    guarantee against the raw GPS fixes, and ``definite`` still implies a
    real original fix inside the rectangle (at codec-quantum precision).

    A rectangle given with ``lon_min > lon_max`` **wraps the
    antimeridian**: it is split at ±180° into two lobes, each queried
    with the full conservative machinery, and the union returned (a
    record matching both lobes is reported once, keeping ``definite`` if
    either lobe proved it).  Unstamped records are skipped as always —
    they cannot be placed on the ellipsoid.
    """
    lat_min, lon_min, lat_max, lon_max = geo_rect
    if not lat_max >= lat_min:
        raise ValueError(f"degenerate geographic rectangle {geo_rect!r}")
    if not (-90.0 <= lat_min and lat_max <= 90.0):
        raise ValueError(f"latitude out of range in {geo_rect!r}")
    if not (
        -180.0 <= lon_min <= 180.0 and -180.0 <= lon_max <= 180.0
    ):
        raise ValueError(f"longitude out of range in {geo_rect!r}")
    if mode not in ("exact", "approximate"):
        raise ValueError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    if (t0 is None) != (t1 is None):
        raise ValueError("t0 and t1 must be given together")
    if t0 is not None:
        _check_window(t0, t1)

    if lon_min <= lon_max:
        matches = _geo_collect(store, geo_rect, mode, t0, t1)
    else:
        # Antimeridian wrap: the rectangle [lon_min..180] ∪ [-180..lon_max].
        # Query each lobe independently and union the results — no false
        # negatives, because every point of the wrapped rectangle lies in
        # exactly one lobe (±180° itself lies in both, harmlessly).
        west = _geo_collect(
            store, (lat_min, lon_min, lat_max, 180.0), mode, t0, t1
        )
        east = _geo_collect(
            store, (lat_min, -180.0, lat_max, lon_max), mode, t0, t1
        )
        merged: Dict[Tuple[str, int], QueryMatch] = {}
        for match in west + east:
            key = (match.ref.segment, match.ref.offset)
            kept = merged.get(key)
            if kept is None or (match.definite and not kept.definite):
                merged[key] = match
        matches = list(merged.values())

    # Per-frame collection broke append order; restore it so callers (and
    # the index-parity pin) see the exact legacy ordering.
    order = {name: i for i, name in enumerate(store.segment_names)}
    matches.sort(key=lambda m: (order[m.ref.segment], m.ref.offset))
    return matches
