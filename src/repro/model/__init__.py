"""Trajectory data model: points, projections, compressed trajectories, SED."""

from .columns import TrajectoryColumns
from .point import LocationPoint, PlanePoint
from .projection import (
    LocalTangentProjection,
    TransverseMercator,
    UTMProjection,
    utm_zone_for,
)
from .reconstruction import max_synchronized_deviation, synchronized_deviation_xyt
from .trajectory import CompressedTrajectory

__all__ = [
    "CompressedTrajectory",
    "LocalTangentProjection",
    "LocationPoint",
    "PlanePoint",
    "TrajectoryColumns",
    "TransverseMercator",
    "UTMProjection",
    "max_synchronized_deviation",
    "synchronized_deviation_xyt",
    "utm_zone_for",
]
