"""The Bounded Quadrant System compressor (paper Section V).

BQS is a one-pass, error-bounded compressor.  It opens a segment at an
*anchor* (the last committed key point) and, as points stream in, asks for
each new point ``p`` whether every point seen since the anchor stays within
``epsilon`` of the *path line* through the anchor and ``p``; if not, the
previous point is committed and becomes the next anchor.

The paper answers that question with per-quadrant bounds and an exact
fallback over convex hulls.  This implementation answers it exactly in
O(1) per arrival, by arc intersection (the cone idea behind one-pass
simplifiers such as OPERB):

* An interior point at radius ``r > ε`` and polar angle ``θ`` (anchor at
  the origin) is within ``ε`` of the line through the anchor with
  direction ``φ`` iff ``φ ∈ [θ − asin(ε/r), θ + asin(ε/r)]`` mod π.  A
  point at ``r ≤ ε`` is within ``ε`` of every such line.
* Past ``r = ε√2`` every such arc is narrower than half the mod-π circle,
  so the arcs of these *far* points intersect in one interval
  ``[lo, hi]``: two floats, whatever the segment length.
* Points in the *ring* ``ε < r ≤ ε√2`` have wider arcs that can split the
  intersection in two, so they are kept in a short list and checked
  directly, by ``|dx·y − dy·x| ≤ ε·|d|``.

So an arrival at direction ``φ`` is admitted iff ``φ`` lies in the far
interval and every ring point passes its cross-product test.  Float
rounding in ``atan2`` / ``asin`` is kept out of the answer: when ``φ``
falls within :data:`_BAND` radians of either end of the interval, the far
points whose own arc ends lie that close to it (kept in two short
*end-band* lists) are decided by the same cross products a brute-force
scan would compute, and every other far point clears its arc by more than
the rounding of any of these quantities.  Outside the bands the interval
test cannot disagree with the scan.  An arrival that coincides with the
anchor has no direction: it is admitted iff the farthest interior point
is within ``epsilon`` of the anchor.

The ``.stats`` labels keep the paper's names with these meanings:

``upper_bound``
    ``φ`` is inside the far interval and there are no ring points: the
    interval proves every interior point within ``epsilon``.
``lower_bound``
    ``φ`` is outside the far interval (or the arrival sits on the anchor
    with a point farther than ``epsilon``): a real point is over
    ``epsilon``, and the previous fix is committed.
``exact_accept`` / ``exact_commit``
    Decided by per-point tests: the ring points, the end-band points,
    or the anchor-coincident distance check.

The decision is written once, in :meth:`BQSCompressor._step`, which takes
the fix as floats.  ``push``, ``push_many`` and ``push_xyt`` are adapters
around it (:class:`~repro.compression.base.SteppedCompressor`), so their
outputs agree by construction.

A full point buffer survives only behind the ``debug_audit`` flag, where
every decision is cross-checked against a brute-force scan of the buffered
segment points (and the test suite keeps that mode honest).
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..model.point import PlanePoint
from .base import Decision, PointBuffer, SteppedCompressor

__all__ = ["BQSCompressor"]

_PI = math.pi
_HALF_PI = 0.5 * math.pi
_atan2 = math.atan2
_asin = math.asin
_hypot = math.hypot

#: Half-width (radians) of the band around each end of the far interval in
#: which far points are decided by cross products.  Every quantity that
#: places an arc end or a direction is off by at most a few ulps of π
#: (~1e-15 rad), so a far point whose arc end is more than one band away
#: from the arrival's direction gives the same answer as its cross product.
_BAND = 1e-9
_BAND2 = 2.0 * _BAND
#: A point is *far* above ``ε√2·(1 + 1e-6)`` and ignored below
#: ``ε·(1 − 1e-6)``; the slack puts points that sit within rounding of
#: either radius into the ring, where they are decided by cross products.
_FAR_FACTOR = math.sqrt(2.0) * (1.0 + 1e-6)
_NEAR_FACTOR = 1.0 - 1e-6
#: A ring point is dropped once its arc holds the far interval with this
#: much room (radians) on both sides.
_RING_ROOM = 1e-6

# Decision results returned by ``_step``: (commit, slot), the slot indexing
# the public Decision label when stats are folded in.
_DECISION_LABELS = (
    Decision.INIT,
    Decision.ACCEPT,
    Decision.UPPER_BOUND,
    Decision.LOWER_BOUND,
    Decision.EXACT_ACCEPT,
    Decision.EXACT_COMMIT,
)
_INIT = (True, 0)
_ACCEPT = (False, 1)
_UPPER = (False, 2)
_LOWER = (True, 3)
_EXACT_ACCEPT = (False, 4)
_EXACT_COMMIT = (True, 5)


class BQSCompressor(SteppedCompressor):
    """Full Bounded Quadrant System: every decision exact, O(1) per fix.

    ``debug_audit=True`` additionally buffers every segment point and
    cross-checks each decision against a brute-force scan of the buffer,
    raising ``RuntimeError`` on divergence.  It exists for tests and
    investigations; the production path never buffers.
    """

    name = "bqs"
    _labels = _DECISION_LABELS

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
        debug_audit: bool = False,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("BQS needs a finite error bound")
        if metric is not DistanceMetric.POINT_TO_LINE:
            raise ValueError(
                "BQS decides for the point-to-line deviation metric (the "
                "paper's default); got " + metric.value
            )
        super().__init__(epsilon, metric)
        self._debug_audit = bool(debug_audit)
        self._far_r = epsilon * _FAR_FACTOR
        self._near_r = epsilon * _NEAR_FACTOR
        self._reset()

    # -- state --------------------------------------------------------------

    def _reset(self) -> None:
        self._anchor: tuple[float, float] | None = None
        self._fresh = True  # no interior point since the stream's anchor
        self._buffer: PointBuffer | None = (
            PointBuffer() if self._debug_audit else None
        )
        self._kept_peak = 0
        self._open_segment()

    def _open_segment(self) -> None:
        """Forget the interior points (the anchor has just moved)."""
        self._max_r = 0.0  # of the ring points (far points all lie beyond ε)
        # Far interval [lo, hi], unwrapped so that lo <= hi < lo + π/2;
        # lo > hi marks "no far point yet" (every direction admissible).
        self._lo = 1.0
        self._hi = 0.0
        # Ring points not yet proved redundant: (x, y, θ, arc half-width).
        self._ring: list[tuple[float, float, float, float]] = []
        # Far points whose own lower (upper) arc end lies within two bands
        # of lo (hi): (x, y, that end).
        self._lo_band: list[tuple[float, float, float]] = []
        self._hi_band: list[tuple[float, float, float]] = []

    @property
    def buffered_points(self) -> int:
        """Points held in the ring and end-band lists of the open segment.

        These are the only per-point state the decider keeps; the far
        interval and ``max_r`` are three floats.  The ``debug_audit``
        buffer is not counted (see :attr:`audit_buffered`).
        """
        return len(self._ring) + len(self._lo_band) + len(self._hi_band)

    @property
    def buffer_peak(self) -> int:
        """High-water mark of :attr:`buffered_points` across the stream."""
        return self._kept_peak

    @property
    def audit_buffered(self) -> int:
        """Points in the ``debug_audit`` buffer (0 when auditing is off)."""
        return 0 if self._buffer is None else len(self._buffer)

    # -- algorithm ----------------------------------------------------------

    def _step(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> tuple[bool, int]:
        """One arrival: (commit the previous fix?, decision slot).

        A commit makes the previous fix the anchor, and the arrival opens
        the new segment as its first interior point.
        """
        anchor = self._anchor
        if anchor is None:
            self._anchor = (x, y)
            return _INIT
        dx = x - anchor[0]
        dy = y - anchor[1]
        r = _hypot(dx, dy)
        phi = _atan2(dy, dx)
        lo = self._lo
        hi = self._hi
        if r == 0.0:
            result = self._coincident()
        elif lo <= hi:
            k = (phi - lo) % _PI
            if hi - lo + _BAND < k < _PI - _BAND:
                result = _LOWER
            elif _BAND < k < hi - lo - _BAND:
                result = self._check_ring(dx, dy, r) if self._ring else _UPPER
            else:
                result = self._check_band(dx, dy, r)
        elif self._ring:
            result = self._check_ring(dx, dy, r)
        else:
            result = self._unconstrained()
        buffer = self._buffer
        if buffer is not None:
            if result is not _ACCEPT:
                self._audit(dx, dy, r, result[0])
            if src is None:
                src = PlanePoint(x, y, t)
        if result[0]:
            px, py = self._anchor = self._prev[:2]
            self._open_segment()
            if buffer is not None:
                buffer.restart_from(())
            dx = x - px
            dy = y - py
            r = _hypot(dx, dy)
            phi = _atan2(dy, dx)
            lo = 1.0
            hi = 0.0
        if buffer is not None:
            buffer.append(src)

        # Admit the arrival into the open segment's summary.
        if r <= self._far_r:
            if r >= self._near_r:
                self._admit_ring(dx, dy, r, phi)
            return result
        w = _asin(self._epsilon / r)
        if lo > hi:
            # First far point: its arc is the interval.
            self._lo = phi - w
            self._hi = phi + w
            self._lo_band = [(dx, dy, phi - w)]
            self._hi_band = [(dx, dy, phi + w)]
        else:
            # Unwrap the arc centre next to the interval (the arrival's own
            # direction was admitted, so it lies in or at the interval).
            d = phi - 0.5 * (lo + hi)
            if d > _HALF_PI or d < -_HALF_PI:
                phi -= _PI * round(d / _PI)
            p_lo = phi - w
            p_hi = phi + w
            if p_lo - _BAND2 > lo and p_hi + _BAND2 < hi:
                # The usual case: the arc is inside the interval by more
                # than two bands at both ends, so it alone sets both.
                self._lo = p_lo
                self._hi = p_hi
                self._lo_band = [(dx, dy, p_lo)]
                self._hi_band = [(dx, dy, p_hi)]
                if not self._ring:
                    return result  # two entries, never above the peak
            else:
                self._narrow(dx, dy, p_lo, p_hi)
        if self._ring:
            self._ring = [e for e in self._ring if not self._covers(e)]
        self._note_kept()
        return result

    def _coincident(self) -> tuple[bool, int]:
        """Decision for an arrival on the anchor (the path line collapses
        to a point): admitted iff every interior point is within epsilon
        of the anchor.  Far points all lie beyond epsilon; ``_max_r`` is
        the farthest ring point."""
        if self._fresh:
            self._fresh = False
            return _ACCEPT
        if self._lo <= self._hi or self._max_r > self._epsilon:
            return _LOWER
        return _EXACT_ACCEPT

    def _unconstrained(self) -> tuple[bool, int]:
        """Decision when no interior point constrains the direction."""
        if self._fresh:
            # First point after the anchor: no interior points yet, the
            # two-point segment is trivially within bound.
            self._fresh = False
            return _ACCEPT
        return _UPPER

    def _check_ring(self, dx: float, dy: float, r: float) -> tuple[bool, int]:
        """Cross-product test of every kept ring point."""
        scaled_eps = self._epsilon * r
        for px, py, _, _ in self._ring:
            c = dx * py - dy * px
            if c > scaled_eps or -c > scaled_eps:
                return _EXACT_COMMIT
        return _EXACT_ACCEPT

    def _check_band(self, dx: float, dy: float, r: float) -> tuple[bool, int]:
        """Near an end of the far interval: the far points whose arc ends
        lie there decide by cross products, then the ring points."""
        scaled_eps = self._epsilon * r
        for band in (self._lo_band, self._hi_band):
            for px, py, _ in band:
                c = dx * py - dy * px
                if c > scaled_eps or -c > scaled_eps:
                    return _EXACT_COMMIT
        return self._check_ring(dx, dy, r) if self._ring else _EXACT_ACCEPT

    def _narrow(self, dx: float, dy: float, p_lo: float, p_hi: float) -> None:
        """Intersect the far interval with an admitted far point's arc
        ``[p_lo, p_hi]`` (unwrapped next to it), updating the band lists."""
        lo = self._lo
        hi = self._hi
        new_lo = p_lo if p_lo > lo else lo
        new_hi = p_hi if p_hi < hi else hi
        if new_lo > new_hi:
            # Rounding emptied the interval (an arc narrower than a band,
            # admitted through its end band): keep it one point wide; the
            # band lists still hold every point that binds.
            new_lo = new_hi = 0.5 * (new_lo + new_hi)
        # Keep, per end, the points whose own end lies within two bands of
        # it.  Old ends sit at or beyond the old interval end.
        cut = new_lo - _BAND2
        if cut > lo:
            self._lo_band = [(dx, dy, p_lo)] if p_lo >= cut else []
        else:
            if new_lo != lo:
                self._lo_band = [e for e in self._lo_band if e[2] >= cut]
            if p_lo >= cut:
                self._lo_band.append((dx, dy, p_lo))
        cut = new_hi + _BAND2
        if cut < hi:
            self._hi_band = [(dx, dy, p_hi)] if p_hi <= cut else []
        else:
            if new_hi != hi:
                self._hi_band = [e for e in self._hi_band if e[2] <= cut]
            if p_hi <= cut:
                self._hi_band.append((dx, dy, p_hi))
        self._lo = new_lo
        self._hi = new_hi

    def _admit_ring(self, dx: float, dy: float, r: float, phi: float) -> None:
        """Keep an admitted ring point unless the far interval already
        proves it redundant."""
        if r > self._max_r:
            self._max_r = r
        entry = (dx, dy, phi, _asin(min(1.0, self._epsilon / r)))
        if not self._covers(entry):
            self._ring.append(entry)
            self._note_kept()

    def _covers(self, entry: tuple[float, float, float, float]) -> bool:
        """Does a ring point's arc hold the far interval with room to spare?

        Then no direction the far interval admits can fail the point (the
        interval only shrinks), so it need not be kept.  The room,
        :data:`_RING_ROOM`, dwarfs the rounding of a cross product even for
        a point at ``r ≈ ε``, whose arc ends are flat.
        """
        lo = self._lo - _RING_ROOM
        hi = self._hi + _RING_ROOM
        if lo > hi:
            return False
        theta = entry[2]
        theta += _PI * round((0.5 * (lo + hi) - theta) / _PI)
        w = entry[3]
        return theta - w <= lo and theta + w >= hi

    def _note_kept(self) -> None:
        kept = len(self._ring) + len(self._lo_band) + len(self._hi_band)
        if kept > self._kept_peak:
            self._kept_peak = kept

    def _audit(self, dx: float, dy: float, r: float, commit: bool) -> None:
        """Cross-check one decision against a scan of the buffered segment."""
        ax, ay = self._anchor
        eps = self._epsilon
        if r == 0.0:
            over = any(math.hypot(b.x - ax, b.y - ay) > eps for b in self._buffer)
        else:
            scaled_eps = eps * r
            over = any(
                abs(dx * (b.y - ay) - dy * (b.x - ax)) > scaled_eps
                for b in self._buffer
            )
        if over != commit:
            raise RuntimeError(
                "bqs debug_audit: decision diverged from the buffered scan "
                f"(commit={commit}, scan says over epsilon={over})"
            )

    def _info(self) -> dict:
        info = super()._info()
        stats = self._stats
        info["exact_accepts"] = stats.get(Decision.EXACT_ACCEPT, 0)
        info["exact_commits"] = stats.get(Decision.EXACT_COMMIT, 0)
        info["retained_points_peak"] = self._kept_peak
        if self._buffer is not None:
            info["audit_buffer_peak"] = self._buffer.peak
        return info
