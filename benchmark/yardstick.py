"""An OPERB-style yardstick: one pass, O(1) state, error bounded.

"One-Pass Error Bounded Trajectory Simplification" (Lin et al., arXiv
1702.05597) is the published speed rival of BQS.  This is not that paper's
full fitting function; it is the local-distance-checking core such one-pass
methods share, in its simplest sound form: from the current anchor, every
buffered-away fix constrains the directions a segment may still leave in (a
sector of half-angle ``asin(eps / distance)`` round the fix), and a segment
ends as soon as the newest fix lies outside the intersection of those
sectors.  The state is the anchor, the previous fix and two bounding rays,
so it keeps the compress-layer numbers honest about what a constant-state
simplifier costs in this interpreter.

Used only for the ``yardstick.*`` rows of ``device_stream``; never an
end-to-end metric, never imported by ``src/``.
"""

from __future__ import annotations

import math
from collections import namedtuple

Key = namedtuple("Key", "x y t")
Result = namedtuple("Result", "key_points original_count")


class SectorSimplifier:
    """Point-to-line error ``<= epsilon`` for every fix, guaranteed."""

    name = "operb-style"

    def __init__(self, epsilon):
        self.epsilon = float(epsilon)
        self.key_points = []
        self.pushed = 0
        self._anchor = None  # (x, y)
        self._prev = None  # (x, y, t)
        self._open = True  # no fix has constrained the sector yet
        self._lo = self._hi = (0.0, 0.0)

    def push_xyt(self, ts, xs, ys):
        eps = self.epsilon
        anchor, prev = self._anchor, self._prev
        unconstrained, lo, hi = self._open, self._lo, self._hi
        keys = self.key_points
        for i in range(len(ts)):
            x, y, t = xs[i], ys[i], ts[i]
            if anchor is None:
                keys.append(Key(x, y, t))
                anchor, prev = (x, y), (x, y, t)
                continue
            while True:
                dx, dy = x - anchor[0], y - anchor[1]
                d = math.hypot(dx, dy)
                if unconstrained:
                    inside = True
                elif d == 0.0:
                    inside = False
                else:
                    inside = (lo[0] * dy - lo[1] * dx >= 0.0
                              and dx * hi[1] - dy * hi[0] >= 0.0)
                if inside:
                    break
                # The previous fix was a valid segment end: commit it, restart.
                keys.append(Key(*prev))
                anchor = (prev[0], prev[1])
                unconstrained = True
            if d > eps:
                ux, uy = dx / d, dy / d
                s = eps / d
                c = math.sqrt(1.0 - s * s)
                lo_p = (ux * c + uy * s, uy * c - ux * s)  # rotated by -alpha
                hi_p = (ux * c - uy * s, uy * c + ux * s)  # rotated by +alpha
                if unconstrained:
                    lo, hi, unconstrained = lo_p, hi_p, False
                else:
                    if lo[0] * lo_p[1] - lo[1] * lo_p[0] > 0.0:
                        lo = lo_p
                    if hi_p[0] * hi[1] - hi_p[1] * hi[0] > 0.0:
                        hi = hi_p
            prev = (x, y, t)
        self.pushed += len(ts)
        self._anchor, self._prev = anchor, prev
        self._open, self._lo, self._hi = unconstrained, lo, hi
        return len(ts)

    def finish(self):
        if self._prev is not None and self.pushed > 1:
            self.key_points.append(Key(*self._prev))
        return Result(tuple(self.key_points), self.pushed)
