"""Planar geometry kernels with no dependencies on the data model."""

from .metrics import DistanceMetric, deviation, max_deviation
from .planar import (
    Vec2,
    cross,
    dot,
    max_distance_to_line_origin,
    norm,
    point_line_distance,
    point_line_distance_origin,
    point_segment_distance,
    rectangle_corners,
    wedge_box_polygon,
)

__all__ = [
    "DistanceMetric",
    "Vec2",
    "cross",
    "deviation",
    "dot",
    "max_deviation",
    "max_distance_to_line_origin",
    "norm",
    "point_line_distance",
    "point_line_distance_origin",
    "point_segment_distance",
    "rectangle_corners",
    "wedge_box_polygon",
]
