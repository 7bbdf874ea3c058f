"""Map projections used to bring GPS fixes into a metric plane.

The paper builds each Bounded Quadrant System in a *UTM-projected* frame
("the axes set to the UTM projected x and y axes", Section V-A).  This module
implements, from scratch:

``TransverseMercator``
    The full Gauss–Krüger transverse Mercator projection using the 6th-order
    Krüger series in the third flattening ``n`` (the formulation adopted by
    modern geodesy libraries), on the WGS-84 ellipsoid.  Forward error is a
    fraction of a millimetre within a UTM zone.

``UTMProjection``
    Zone bookkeeping (zone number/letter, false easting/northing, 0.9996
    scale) on top of :class:`TransverseMercator`.

``LocalTangentProjection``
    A fast equirectangular projection around a reference coordinate.
    Synthetic-data generators use it to turn metric simulations into GPS
    tracks and back; its distortion over the ≤10 km extents involved is
    negligible relative to GPS noise.

All three offer ``forward(lat, lon) -> (x, y)``, ``inverse(x, y) ->
(lat, lon)`` and the bulk ``forward_columns(lats, lons) -> (xs, ys)``, so
the rest of the library never cares which one produced its plane
coordinates.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "TransverseMercator",
    "UTMProjection",
    "LocalTangentProjection",
    "utm_zone_for",
]

# WGS-84 ellipsoid constants.
WGS84_A = 6_378_137.0
WGS84_F = 1.0 / 298.257_223_563
UTM_SCALE = 0.9996
UTM_FALSE_EASTING = 500_000.0
UTM_FALSE_NORTHING_SOUTH = 10_000_000.0


def _kruger_alpha(n: float) -> tuple[float, ...]:
    """Forward-series coefficients α₁..α₆ in the third flattening ``n``."""
    n2, n3, n4, n5, n6 = n * n, n**3, n**4, n**5, n**6
    return (
        n / 2 - 2 * n2 / 3 + 5 * n3 / 16 + 41 * n4 / 180
        - 127 * n5 / 288 + 7891 * n6 / 37800,
        13 * n2 / 48 - 3 * n3 / 5 + 557 * n4 / 1440 + 281 * n5 / 630
        - 1983433 * n6 / 1935360,
        61 * n3 / 240 - 103 * n4 / 140 + 15061 * n5 / 26880
        + 167603 * n6 / 181440,
        49561 * n4 / 161280 - 179 * n5 / 168 + 6601661 * n6 / 7257600,
        34729 * n5 / 80640 - 3418889 * n6 / 1995840,
        212378941 * n6 / 319334400,
    )


def _kruger_beta(n: float) -> tuple[float, ...]:
    """Inverse-series coefficients β₁..β₆ in the third flattening ``n``."""
    n2, n3, n4, n5, n6 = n * n, n**3, n**4, n**5, n**6
    return (
        n / 2 - 2 * n2 / 3 + 37 * n3 / 96 - n4 / 360
        - 81 * n5 / 512 + 96199 * n6 / 604800,
        n2 / 48 + n3 / 15 - 437 * n4 / 1440 + 46 * n5 / 105
        - 1118711 * n6 / 3870720,
        17 * n3 / 480 - 37 * n4 / 840 - 209 * n5 / 4480 + 5569 * n6 / 90720,
        4397 * n4 / 161280 - 11 * n5 / 504 - 830251 * n6 / 7257600,
        4583 * n5 / 161280 - 108847 * n6 / 3991680,
        20648693 * n6 / 638668800,
    )


@dataclass(frozen=True)
class TransverseMercator:
    """Gauss–Krüger transverse Mercator centred on ``central_meridian_deg``.

    The implementation follows the Krüger-``n`` series (6th order), which is
    the same formulation used by PROJ's ``etmerc`` and Karney's GeographicLib
    at lower order; within ±3.5° of the central meridian the series error is
    below 1 mm, far below GPS accuracy.
    """

    central_meridian_deg: float
    scale: float = 1.0
    false_easting: float = 0.0
    false_northing: float = 0.0

    def __post_init__(self) -> None:
        n = WGS84_F / (2.0 - WGS84_F)
        # Rectifying radius: A = a/(1+n) (1 + n²/4 + n⁴/64 + n⁶/256).
        rect_radius = (
            WGS84_A
            / (1.0 + n)
            * (1.0 + n**2 / 4.0 + n**4 / 64.0 + n**6 / 256.0)
        )
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_rect_radius", rect_radius)
        object.__setattr__(self, "_alpha", _kruger_alpha(n))
        object.__setattr__(self, "_beta", _kruger_beta(n))
        e2 = WGS84_F * (2.0 - WGS84_F)
        object.__setattr__(self, "_e", math.sqrt(e2))

    # -- forward -----------------------------------------------------------

    def forward(self, latitude: float, longitude: float) -> tuple[float, float]:
        """Project geographic degrees to (easting, northing) metres."""
        e: float = self._e  # type: ignore[attr-defined]
        phi = math.radians(latitude)
        lam = math.radians(longitude - self.central_meridian_deg)
        # Wrap into (-pi, pi] so zone-edge longitudes behave.
        lam = math.remainder(lam, 2.0 * math.pi)

        sin_phi = math.sin(phi)
        # Conformal latitude via Gauss–Schreiber t.
        t = math.sinh(
            math.atanh(sin_phi) - e * math.atanh(e * sin_phi)
        )
        xi_p = math.atan2(t, math.cos(lam))
        eta_p = math.asinh(math.sin(lam) / math.hypot(t, math.cos(lam)))

        xi = xi_p
        eta = eta_p
        alpha: tuple[float, ...] = self._alpha  # type: ignore[attr-defined]
        for j, a_j in enumerate(alpha, start=1):
            xi += a_j * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
            eta += a_j * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)

        rect_radius: float = self._rect_radius  # type: ignore[attr-defined]
        x = self.false_easting + self.scale * rect_radius * eta
        y = self.false_northing + self.scale * rect_radius * xi
        return (x, y)

    def forward_columns(
        self, latitudes: Sequence[float], longitudes: Sequence[float]
    ) -> tuple[array[float], array[float]]:
        """Bulk :meth:`forward`: degree columns in, metre columns out.

        Performs exactly the operations of :meth:`forward`, in the same
        order, so the output is bit-identical to a per-point loop — the
        zero-object path for geodetic ingestion (no ``LocationPoint`` /
        tuple per fix, constants and math functions hoisted out of the
        loop).
        """
        n = len(latitudes)
        if len(longitudes) != n:
            raise ValueError(
                f"column length mismatch: lats={n}, lons={len(longitudes)}"
            )
        xs = array("d", bytes(8 * n))
        ys = array("d", bytes(8 * n))
        e: float = self._e  # type: ignore[attr-defined]
        alpha: tuple[float, ...] = self._alpha  # type: ignore[attr-defined]
        rect_radius: float = self._rect_radius  # type: ignore[attr-defined]
        cm = self.central_meridian_deg
        kx = self.scale * rect_radius
        fe = self.false_easting
        fn = self.false_northing
        radians = math.radians
        remainder = math.remainder
        sin = math.sin
        cos = math.cos
        sinh = math.sinh
        cosh = math.cosh
        atanh = math.atanh
        asinh = math.asinh
        atan2 = math.atan2
        hypot = math.hypot
        two_pi = 2.0 * math.pi
        for i in range(n):
            phi = radians(latitudes[i])
            lam = remainder(radians(longitudes[i] - cm), two_pi)
            sin_phi = sin(phi)
            t = sinh(atanh(sin_phi) - e * atanh(e * sin_phi))
            cos_lam = cos(lam)
            xi_p = atan2(t, cos_lam)
            eta_p = asinh(sin(lam) / hypot(t, cos_lam))
            xi = xi_p
            eta = eta_p
            for j, a_j in enumerate(alpha, start=1):
                xi += a_j * sin(2 * j * xi_p) * cosh(2 * j * eta_p)
                eta += a_j * cos(2 * j * xi_p) * sinh(2 * j * eta_p)
            xs[i] = fe + kx * eta
            ys[i] = fn + kx * xi
        return xs, ys

    # -- inverse -----------------------------------------------------------

    def inverse(self, x: float, y: float) -> tuple[float, float]:
        """Unproject (easting, northing) metres to geographic degrees."""
        rect_radius: float = self._rect_radius  # type: ignore[attr-defined]
        xi = (y - self.false_northing) / (self.scale * rect_radius)
        eta = (x - self.false_easting) / (self.scale * rect_radius)

        xi_p = xi
        eta_p = eta
        beta: tuple[float, ...] = self._beta  # type: ignore[attr-defined]
        for j, b_j in enumerate(beta, start=1):
            xi_p -= b_j * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
            eta_p -= b_j * math.cos(2 * j * xi) * math.sinh(2 * j * eta)

        # Gauss–Schreiber back to conformal latitude components.
        t = math.sin(xi_p) / math.hypot(math.sinh(eta_p), math.cos(xi_p))
        lam = math.atan2(math.sinh(eta_p), math.cos(xi_p))
        phi = self._inverse_conformal(math.atan(t))
        return (math.degrees(phi), self.central_meridian_deg + math.degrees(lam))

    def _inverse_conformal(self, chi: float) -> float:
        """Invert the conformal latitude by Newton iteration.

        Solves ``asinh(tan φ) - e atanh(e sin φ) = asinh(tan χ)`` for φ;
        converges to machine precision in a handful of iterations for any
        |χ| < 90°.
        """
        e: float = self._e  # type: ignore[attr-defined]
        psi = math.asinh(math.tan(chi))
        phi = chi
        for _ in range(12):
            sin_phi = math.sin(phi)
            f = math.asinh(math.tan(phi)) - e * math.atanh(e * sin_phi) - psi
            # d/dφ of the left-hand side.
            fp = 1.0 / math.cos(phi) - (
                e * e * math.cos(phi) / (1.0 - e * e * sin_phi * sin_phi)
            )
            step = f / fp
            phi -= step
            if abs(step) < 1e-15:
                break
        return phi


def utm_zone_for(latitude: float, longitude: float) -> int:
    """The UTM zone number for a coordinate, with the standard exceptions.

    Handles the widened zone 32V over south-west Norway and the Svalbard
    zones 31X/33X/35X/37X.  The antimeridian is canonicalized: ±180° (and
    any wrap that lands on it) is the *western* edge of zone 1, so
    ``utm_zone_for(0, 180.0) == utm_zone_for(0, -180.0) == 1``.
    """
    lon = math.remainder(longitude, 360.0)
    # math.remainder rounds half-even at the ±180 tie, so the same physical
    # meridian comes back as +180 or -180 depending on the input's sign and
    # winding; fold both onto -180 (zone 1's western edge).
    if lon == 180.0:
        lon = -180.0
    zone = int((lon + 180.0) // 6.0) + 1
    zone = min(max(zone, 1), 60)
    if 56.0 <= latitude < 64.0 and 3.0 <= lon < 12.0:
        return 32
    if 72.0 <= latitude <= 84.0:
        if 0.0 <= lon < 9.0:
            return 31
        if 9.0 <= lon < 21.0:
            return 33
        if 21.0 <= lon < 33.0:
            return 35
        if 33.0 <= lon < 42.0:
            return 37
    return zone


@dataclass(frozen=True)
class UTMProjection:
    """A single-zone UTM projection (WGS-84, k0 = 0.9996).

    Instances are pinned to one zone/hemisphere; points from other zones are
    still projected consistently (they simply fall outside the nominal zone
    strip), which is the behaviour trajectory work wants: one continuous
    plane per tracked deployment.
    """

    zone: int
    south: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.zone <= 60:
            raise ValueError(f"UTM zone must be 1..60, got {self.zone}")
        tm = TransverseMercator(
            central_meridian_deg=self.zone * 6.0 - 183.0,
            scale=UTM_SCALE,
            false_easting=UTM_FALSE_EASTING,
            false_northing=UTM_FALSE_NORTHING_SOUTH if self.south else 0.0,
        )
        object.__setattr__(self, "_tm", tm)

    @classmethod
    def for_coordinate(cls, latitude: float, longitude: float) -> "UTMProjection":
        """The natural UTM projection for a coordinate."""
        return cls(zone=utm_zone_for(latitude, longitude), south=latitude < 0.0)

    def forward(self, latitude: float, longitude: float) -> tuple[float, float]:
        return self._tm.forward(latitude, longitude)  # type: ignore[attr-defined]

    def forward_columns(
        self, latitudes: Sequence[float], longitudes: Sequence[float]
    ) -> tuple[array[float], array[float]]:
        """Bulk :meth:`forward`; bit-identical to a per-point loop."""
        return self._tm.forward_columns(latitudes, longitudes)  # type: ignore[attr-defined]

    def inverse(self, x: float, y: float) -> tuple[float, float]:
        return self._tm.inverse(x, y)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class LocalTangentProjection:
    """Equirectangular projection about a reference coordinate.

    ``x`` grows east, ``y`` grows north, both in metres, with the reference
    coordinate at the origin.  Good to centimetres over the ≤10 km regions
    the simulators use, and an order of magnitude faster than the full
    transverse-Mercator series.
    """

    ref_latitude: float
    ref_longitude: float
    radius_m: float = 6_371_008.8

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_cos_ref", math.cos(math.radians(self.ref_latitude))
        )

    def forward(self, latitude: float, longitude: float) -> tuple[float, float]:
        cos_ref: float = self._cos_ref  # type: ignore[attr-defined]
        x = math.radians(longitude - self.ref_longitude) * self.radius_m * cos_ref
        y = math.radians(latitude - self.ref_latitude) * self.radius_m
        return (x, y)

    def forward_columns(
        self, latitudes: Sequence[float], longitudes: Sequence[float]
    ) -> tuple[array[float], array[float]]:
        """Bulk :meth:`forward`; bit-identical to a per-point loop."""
        n = len(latitudes)
        if len(longitudes) != n:
            raise ValueError(
                f"column length mismatch: lats={n}, lons={len(longitudes)}"
            )
        cos_ref: float = self._cos_ref  # type: ignore[attr-defined]
        radius = self.radius_m
        ref_lat = self.ref_latitude
        ref_lon = self.ref_longitude
        radians = math.radians
        xs = array("d", bytes(8 * n))
        ys = array("d", bytes(8 * n))
        for i in range(n):
            # Same association order as forward() — bit-identical output.
            xs[i] = radians(longitudes[i] - ref_lon) * radius * cos_ref
            ys[i] = radians(latitudes[i] - ref_lat) * radius
        return xs, ys

    def inverse(self, x: float, y: float) -> tuple[float, float]:
        cos_ref: float = self._cos_ref  # type: ignore[attr-defined]
        latitude = self.ref_latitude + math.degrees(y / self.radius_m)
        longitude = self.ref_longitude + math.degrees(
            x / (self.radius_m * cos_ref)
        )
        return (latitude, longitude)
