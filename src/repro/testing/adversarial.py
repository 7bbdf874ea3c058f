"""A seeded adversarial track generator and a brute-force greedy oracle.

The motion generators in :mod:`repro.testing.workloads` are realistic;
this one is hostile.  It walks in steps of a few ε, so most arrivals land
where an error-bounded compressor's decision is close, and switches on any
subset of these modes:

``uturn``
    U-turns (the heading flips by π) and out-and-back runs that retrace
    their own fixes exactly.
``stall``
    Zero-length steps (a repeated position) and co-timestamped fixes
    (``dt == 0``).
``collinear``
    Runs of exactly collinear fixes, with every coordinate snapped to a
    lattice of ε/4 so that cross products tie with ``ε · |d|`` exactly,
    and returns onto the segment's first fix.
``rotate``
    The whole track rotated about the origin by a random angle.
``far``
    Every coordinate offset by 1e7 m at ε = 1e-3 m, where one float ulp
    is a visible share of a step.

:func:`greedy_oracle` is the paper's greedy segmentation computed the
slow way: on every arrival it scans the whole buffer of fixes since the
anchor, with the same float operations BQS states its decision in, so a
compressor that keeps summaries instead of the buffer must reproduce its
key points bit for bit.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Sequence, Tuple

from ..model.point import PlanePoint

__all__ = ["MODES", "adversarial_track", "greedy_oracle"]

MODES = ("uturn", "stall", "collinear", "rotate", "far")

#: ε used when the ``far`` mode is on (the offset is ``FAR_OFFSET`` metres).
FAR_EPSILON = 1e-3
FAR_OFFSET = 1e7


def adversarial_track(
    n: int,
    seed: int,
    modes: Iterable[str] = MODES,
    epsilon: float = 10.0,
) -> Tuple[List[PlanePoint], float]:
    """``n`` fixes for ``seed`` with the given modes; returns ``(points, ε)``.

    ``ε`` is ``epsilon`` unless the ``far`` mode is on, which forces
    :data:`FAR_EPSILON`.  The same arguments always give the same track.
    """
    modes = frozenset(modes)
    unknown = modes - set(MODES)
    if unknown:
        raise ValueError(f"unknown modes {sorted(unknown)}; known: {MODES}")
    if n < 1:
        raise ValueError(f"need at least one point, got {n!r}")
    eps = FAR_EPSILON if "far" in modes else float(epsilon)
    rng = random.Random(seed)
    lattice = eps / 4.0
    fixes: List[Tuple[float, float, float]] = []
    x = y = t = 0.0
    heading = rng.uniform(0.0, 2.0 * math.pi)
    run_start = (x, y)
    retrace: List[Tuple[float, float]] = []
    while len(fixes) < n:
        roll = rng.random()
        if retrace:
            x, y = retrace.pop()
        elif "uturn" in modes and roll < 0.04:
            heading += math.pi
        elif "uturn" in modes and roll < 0.06 and len(fixes) > 4:
            # Out and back: replay the last few fixes in reverse order.
            back = rng.randint(2, min(12, len(fixes) - 1))
            retrace = [(fx, fy) for _, fx, fy in fixes[-back - 1:-1]]
            continue
        elif "collinear" in modes and roll < 0.10:
            # A straight lattice run along an axis or a diagonal, then
            # possibly straight back onto where it started.
            ux, uy = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (-1, 2)))
            step = rng.randint(1, 12) * lattice
            for _ in range(rng.randint(3, 10)):
                x += ux * step
                y += uy * step
                t += 1.0
                fixes.append((t, x, y))
            if rng.random() < 0.3:
                x, y = run_start
            run_start = (x, y)
        elif "stall" in modes and roll < 0.16:
            pass  # zero-length step: the position repeats
        else:
            heading += rng.gauss(0.0, 0.6)
            step = eps * rng.choice((0.3, 0.9, 1.0, 1.3, 1.5, 2.5, 4.0))
            x += step * math.cos(heading)
            y += step * math.sin(heading)
        if "collinear" in modes:
            x = round(x / lattice) * lattice
            y = round(y / lattice) * lattice
        if not ("stall" in modes and rng.random() < 0.1):
            t += 1.0  # otherwise co-timestamped with the previous fix
        fixes.append((t, x, y))
    del fixes[n:]
    if "rotate" in modes:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        fixes = [(ft, c * fx - s * fy, s * fx + c * fy) for ft, fx, fy in fixes]
    offset = FAR_OFFSET if "far" in modes else 0.0
    return [PlanePoint(fx + offset, fy + offset, ft) for ft, fx, fy in fixes], eps


def greedy_oracle(
    points: Sequence[PlanePoint], epsilon: float
) -> List[Tuple[float, float, float]]:
    """Key points ``(x, y, t)`` of the greedy point-to-line segmentation.

    A segment opens at an anchor; each arrival ``p`` is admitted iff every
    fix buffered since the anchor lies within ``epsilon`` of the line
    anchor→``p`` (of the anchor itself when ``p`` coincides with it), and
    otherwise the previous fix is committed and becomes the anchor.  The
    first fix after the stream's first anchor is admitted unchecked.
    Consecutive duplicate key points are dropped, and the last fix closes
    the stream.
    """
    keys: List[Tuple[float, float, float]] = []

    def commit(p: PlanePoint) -> None:
        key = (p.x, p.y, p.t)
        if not keys or keys[-1] != key:
            keys.append(key)

    if not points:
        return keys
    anchor = prev = points[0]
    commit(anchor)
    buffer: List[PlanePoint] = []
    for p in points[1:]:
        if buffer:
            ax, ay = anchor.x, anchor.y
            dx = p.x - ax
            dy = p.y - ay
            r = math.hypot(dx, dy)
            if r == 0.0:
                ok = all(
                    math.hypot(b.x - ax, b.y - ay) <= epsilon for b in buffer
                )
            else:
                scaled = epsilon * r
                ok = all(
                    abs(dx * (b.y - ay) - dy * (b.x - ax)) <= scaled
                    for b in buffer
                )
            if not ok:
                commit(prev)
                anchor = prev
                buffer = []
        buffer.append(p)
        prev = p
    commit(prev)
    return keys
