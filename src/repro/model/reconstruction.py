"""Temporal reconstruction of compressed trajectories (paper Eq. 1–3).

A compressed segment keeps only its two key points; positions in between are
re-created at query time:

    v_t = < h_lat(P, v_s, v_e, t), h_lon(P, v_s, v_e, t), t >      (Eq. 1)

where ``P`` is the progress over the segment's time window and ``h``
linearly mixes the endpoint coordinates by ``P(t)``:

    P(t) = (t - v_s.t) / (v_e.t - v_s.t)                            (Eq. 2)
    h(P, v_s, v_e, t) = v_s + P(t) * (v_e - v_s)                    (Eq. 3)

This library reconstructs with uniform progress (Eq. 2) only, so the error
it measures is the synchronized Euclidean distance (SED) of each raw fix
from the position reconstructed at the fix's own timestamp.  The paper's
online-fitted progress distributions are not implemented.
"""

from __future__ import annotations

import math
from typing import Sequence

from .point import PlanePoint
from .trajectory import CompressedTrajectory

__all__ = ["synchronized_deviation_xyt", "max_synchronized_deviation"]


def synchronized_deviation_xyt(
    px: float, py: float, pt: float,
    ax: float, ay: float, at: float,
    bx: float, by: float, bt: float,
) -> float:
    """Synchronized Euclidean distance (SED) of ``(px, py)`` at ``pt`` from
    the segment ``a → b``.

    The distance between the point and the position reconstructed on the
    segment at the point's own timestamp (Eq. 1–3, uniform progress
    clamped to the segment window): the error metric TD-TR minimises and
    the one the evaluation harness reports as "max SED".  A zero-duration
    segment (co-timestamped key points) has no unique reconstruction, so
    the nearer endpoint is used.  Takes bare coordinates so column scans
    build no ``PlanePoint``.
    """
    if bt <= at:
        return min(
            math.hypot(px - ax, py - ay),
            math.hypot(px - bx, py - by),
        )
    prog = min(1.0, max(0.0, (pt - at) / (bt - at)))
    x = ax + prog * (bx - ax)
    y = ay + prog * (by - ay)
    return math.hypot(px - x, py - y)


def max_synchronized_deviation(
    compressed: CompressedTrajectory,
    original: Sequence[PlanePoint],
) -> float:
    """Max SED of ``original`` against a compressed trajectory (0 if empty).

    Each original point is measured against the compressed segment covering
    its timestamp, mirroring
    :meth:`~repro.model.trajectory.CompressedTrajectory.max_deviation_from`
    but under temporal reconstruction instead of geometric deviation.  Reads
    the key point columns; builds no key points.
    """
    ts, xs, ys = compressed.ts, compressed.xs, compressed.ys
    n = len(ts)
    if not n or not original:
        return 0.0
    if n == 1:
        x0, y0 = xs[0], ys[0]
        return max(math.hypot(p.x - x0, p.y - y0) for p in original)
    worst = 0.0
    idx = 0
    for p in original:
        px, py, pt = p.x, p.y, p.t
        while idx + 2 < n and ts[idx + 1] < pt:
            idx += 1
        # Zero-duration segments (consecutive key points sharing a
        # timestamp) make the representation multivalued at that instant;
        # audit against the nearest covering segment.
        best = math.inf
        j = idx
        while j + 1 < n and ts[j] <= pt:
            d = synchronized_deviation_xyt(
                px, py, pt, xs[j], ys[j], ts[j], xs[j + 1], ys[j + 1], ts[j + 1]
            )
            if d < best:
                best = d
            j += 1
        if math.isinf(best):
            best = synchronized_deviation_xyt(
                px, py, pt,
                xs[idx], ys[idx], ts[idx],
                xs[idx + 1], ys[idx + 1], ts[idx + 1],
            )
        if best > worst:
            worst = best
    return worst
