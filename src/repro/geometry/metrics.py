"""Deviation metrics.

The paper's primary metric is the perpendicular distance from a point to the
infinite line through a compressed segment's endpoints (Section IV: "For
simplicity of the proof and presentation, without loss of generality, we use
point-to-line distance"), with the point-to-line-segment variant explicitly
supported (Section V-G, Eq. 11).

This module centralises metric selection so compressors, baselines and the
evaluation auditor all agree on what "deviation" means.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .planar import (
    Vec2,
    point_line_distance,
    point_segment_distance,
)

__all__ = ["DistanceMetric", "deviation", "max_deviation"]


class DistanceMetric(enum.Enum):
    """How the distance from a point to a compressed segment is measured."""

    #: Distance to the infinite line through the segment endpoints
    #: (the paper's default).
    POINT_TO_LINE = "point_to_line"

    #: Distance to the closed line segment between the endpoints
    #: (Section V-G variant; never smaller than POINT_TO_LINE).
    POINT_TO_SEGMENT = "point_to_segment"


def deviation(p: Vec2, a: Vec2, b: Vec2, metric: DistanceMetric) -> float:
    """Distance from ``p`` to the compressed segment ``(a, b)`` under ``metric``."""
    if metric is DistanceMetric.POINT_TO_LINE:
        return point_line_distance(p, a, b)
    if metric is DistanceMetric.POINT_TO_SEGMENT:
        return point_segment_distance(p, a, b)
    raise ValueError(f"unknown metric: {metric!r}")


def max_deviation(
    points: Iterable[Vec2], a: Vec2, b: Vec2, metric: DistanceMetric
) -> float:
    """Maximum deviation over ``points`` (0 when empty)."""
    best = 0.0
    for p in points:
        d = deviation(p, a, b, metric)
        if d > best:
            best = d
    return best
