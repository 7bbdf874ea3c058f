"""Location-point primitives used throughout the library.

The paper (Section IV) defines a *location point* as the tuple
``<latitude, longitude, timestamp>``.  Internally every algorithm in this
library operates on points projected to a local metric plane (UTM or a local
tangent plane), so two closely-related types exist:

``LocationPoint``
    A raw GPS sample in geographic coordinates (degrees) plus a POSIX
    timestamp and optional altitude in metres.

``PlanePoint``
    A projected sample in metres, ``(x, y[, z], t)``.  All compression
    algorithms consume ``PlanePoint`` instances; the conversion is performed
    by :mod:`repro.model.projection`.

Both types are immutable; algorithms never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterable, Iterator, Sequence, cast

__all__ = [
    "LocationPoint",
    "PlanePoint",
    "EARTH_RADIUS_M",
    "haversine_m",
    "plane_points_from_columns",
    "plane_points_from_flat",
]

#: Mean Earth radius in metres (IUGG value), used by the haversine helper.
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True, slots=True)
class LocationPoint:
    """A raw GPS fix ``<latitude, longitude, timestamp>`` (paper Section IV).

    Attributes:
        latitude: degrees north, in ``[-90, 90]``.
        longitude: degrees east, in ``[-180, 180]``.
        timestamp: POSIX seconds (float; sub-second precision allowed).
        altitude: metres above the ellipsoid, ``0.0`` when unknown.
    """

    latitude: float
    longitude: float
    timestamp: float
    altitude: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude!r}")
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp must be finite: {self.timestamp!r}")

    def distance_m(self, other: "LocationPoint") -> float:
        """Great-circle distance to ``other`` in metres (haversine)."""
        return haversine_m(
            self.latitude, self.longitude, other.latitude, other.longitude
        )


@dataclass(frozen=True, slots=True)
class PlanePoint:
    """A projected sample in a local metric plane.

    ``x`` and ``y`` are metres in the projected frame.  ``z`` is a
    pass-through slot (altitude, say): no compressor reads it, and a pushed
    point that becomes a key point comes back equal by value, ``z``
    included; key points built from columns carry ``z == 0.0``.  ``t`` is
    the POSIX timestamp and is carried through compression untouched so
    that key points keep their original acquisition times.
    """

    x: float
    y: float
    t: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite plane coordinates: ({self.x}, {self.y})")
        if not math.isfinite(self.z):
            raise ValueError(f"non-finite z coordinate: {self.z}")

    @property
    def xy(self) -> tuple[float, float]:
        """The planar coordinate pair ``(x, y)``."""
        return (self.x, self.y)

    @property
    def xyz(self) -> tuple[float, float, float]:
        """The 3-D coordinate triple ``(x, y, z)``."""
        return (self.x, self.y, self.z)

    def distance_to(self, other: "PlanePoint") -> float:
        """Euclidean planar distance (ignores ``z``) in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance3d_to(self, other: "PlanePoint") -> float:
        """Euclidean 3-D distance in metres."""
        return math.sqrt(
            (self.x - other.x) ** 2
            + (self.y - other.y) ** 2
            + (self.z - other.z) ** 2
        )

    def translated(self, dx: float, dy: float, dz: float = 0.0) -> "PlanePoint":
        """A copy shifted by ``(dx, dy, dz)``; the timestamp is preserved."""
        return PlanePoint(self.x + dx, self.y + dy, self.t, self.z + dz)


# Bulk materialization support: __new__ plus the raw slot descriptors skip
# the dataclass __init__/__post_init__ frames, which dominate the cost of
# building tens of thousands of points in the columnar hot paths.  (The
# cast hides the descriptor access from the type checker: on the class,
# a slots-dataclass field statically reads as plain ``float``.)
_PLANE_POINT_NEW = PlanePoint.__new__
_SET_X = cast(Any, PlanePoint).x.__set__
_SET_Y = cast(Any, PlanePoint).y.__set__
_SET_T = cast(Any, PlanePoint).t.__set__
_SET_Z = cast(Any, PlanePoint).z.__set__


def _trusted_plane_point(x: float, y: float, t: float, z: float) -> PlanePoint:
    """Construct a :class:`PlanePoint` without finiteness validation."""
    p = _PLANE_POINT_NEW(PlanePoint)
    _SET_X(p, x)
    _SET_Y(p, y)
    _SET_T(p, t)
    _SET_Z(p, z)
    return p


def plane_points_from_flat(flat: Sequence[float]) -> list[PlanePoint]:
    """Materialize interleaved ``x, y, t, z`` floats as :class:`PlanePoint`\\ s.

    The bulk twin of calling ``PlanePoint(x, y, t, z)`` per quadruple, for
    columnar hot paths that commit key points as flat floats.  Validation is
    screened with a single C-level ``sum`` over the batch — a non-finite
    element can never sum back to a finite total, so a finite total proves
    every element finite and the fast constructor (``__new__`` plus direct
    slot writes) is safe.  A non-finite total (a genuinely bad coordinate,
    or an astronomically unlikely overflow of valid ones) falls back to
    per-quadruple validated construction, so the first offending point
    raises exactly the ``ValueError`` a one-at-a-time loop would.
    """
    if len(flat) % 4:
        raise ValueError(
            f"flat point buffer length must be a multiple of 4, got {len(flat)}"
        )
    it = iter(flat)
    if math.isfinite(sum(flat)):
        return list(map(_trusted_plane_point, it, it, it, it))
    return list(map(PlanePoint, it, it, it, it))


def plane_points_from_columns(
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    zs: Sequence[float] | None = None,
) -> tuple[PlanePoint, ...]:
    """Materialize parallel columns as :class:`PlanePoint`\\ s (``z = 0``
    where ``zs`` is ``None``), screened like :func:`plane_points_from_flat`.
    """
    z_col: Iterable[float] = repeat(0.0) if zs is None else zs
    finite = math.isfinite(sum(xs)) and math.isfinite(sum(ys))
    if zs is not None:
        finite = finite and math.isfinite(sum(zs))
    if finite:
        return tuple(map(_trusted_plane_point, xs, ys, ts, z_col))
    return tuple(map(PlanePoint, xs, ys, ts, z_col))


def haversine_m(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance between two geographic coordinates in metres.

    Uses the haversine formulation, which is numerically stable for the
    short distances that dominate trajectory work.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def iter_plane_points(
    xs: Sequence[float] | Iterable[float],
    ys: Sequence[float] | Iterable[float],
    ts: Sequence[float] | Iterable[float] | None = None,
) -> Iterator[PlanePoint]:
    """Zip coordinate sequences into :class:`PlanePoint` instances.

    When ``ts`` is omitted, points are stamped ``0, 1, 2, ...`` which is the
    convention used by unit-interval synthetic streams in tests.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if ts is None:
        ts_list = [float(i) for i in range(len(xs))]
    else:
        ts_list = [float(t) for t in ts]
        if len(ts_list) != len(xs):
            raise ValueError("ts must match xs/ys length")
    for x, y, t in zip(xs, ys, ts_list):
        yield PlanePoint(float(x), float(y), t)
