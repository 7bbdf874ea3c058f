"""Planar geometry kernels with no dependencies on the data model."""

from .metrics import DistanceMetric, deviation, max_deviation
from .planar import (
    Vec2,
    angle_of,
    convex_hull,
    cross,
    dot,
    max_distance_to_line_origin,
    norm,
    normalize_angle,
    point_in_convex_polygon,
    point_line_distance,
    point_line_distance_origin,
    point_segment_distance,
    rectangle_corners,
    wedge_box_polygon,
)

__all__ = [
    "DistanceMetric",
    "Vec2",
    "angle_of",
    "convex_hull",
    "cross",
    "deviation",
    "dot",
    "max_deviation",
    "max_distance_to_line_origin",
    "norm",
    "normalize_angle",
    "point_in_convex_polygon",
    "point_line_distance",
    "point_line_distance_origin",
    "point_segment_distance",
    "rectangle_corners",
    "wedge_box_polygon",
]
