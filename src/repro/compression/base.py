"""Streaming-compressor architecture shared by every algorithm.

The paper frames trajectory compression as an *online* problem: points
arrive one at a time from a GPS unit, and the compressor must decide on the
fly which of them become key points of the compressed trajectory.  This
module fixes the contract every algorithm in :mod:`repro.compression`
implements, so BQS, Fast-BQS and the baselines are interchangeable from the
caller's point of view:

``StreamingCompressor`` (protocol)
    ``push(point) -> PushResult`` folds one point into the stream and
    reports any key points committed by that arrival; ``finish()`` seals the
    stream and returns the :class:`~repro.model.trajectory.CompressedTrajectory`.
    ``CompressorBase`` additionally offers ``push_many(points)``, a batched
    fast path with bit-identical output that skips per-point result
    allocation — the right call when nobody inspects individual arrivals.

``CompressorBase`` (ABC)
    The shared machinery: timestamp-monotonicity validation, key-point
    emission, push counting, lifecycle (``reset`` / one-shot ``finish``),
    the ``compress()`` convenience driver and the ``buffered_points``
    instrumentation used by the memory-behaviour tests.

``SteppedCompressor`` (ABC)
    The base of BQS and Fast-BQS: the whole per-arrival decision is one
    ``_step(x, y, t, src)``, and ``push``, ``push_many`` and ``push_xyt``
    are adapters that only check the clock, step, count decisions and
    commit key points as float columns.

``PointBuffer``
    A small buffer with high-water-mark tracking, used by the algorithms
    that legitimately buffer (BQS's ``debug_audit`` mode, the batch
    baselines) so their memory behaviour is observable.
"""

from __future__ import annotations

import abc
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from ..geometry.metrics import DistanceMetric
from ..model.point import PlanePoint, plane_points_from_columns
from ..model.trajectory import CompressedTrajectory

__all__ = [
    "Decision",
    "PushResult",
    "StreamingCompressor",
    "CompressorBase",
    "SteppedCompressor",
    "PointBuffer",
]


class Decision:
    """How a compressor arrived at a push outcome (for stats and tests).

    String constants rather than an enum so algorithm-specific decisions can
    be added without touching this module.
    """

    INIT = "init"  #: first point of the stream, always a key point
    ACCEPT = "accept"  #: point folded into the open segment, no analysis
    UPPER_BOUND = "upper_bound"  #: a summary bound proved deviation <= ε
    LOWER_BOUND = "lower_bound"  #: a summary bound proved deviation > ε
    EXACT_ACCEPT = "exact_accept"  #: per-point test run, point admitted
    EXACT_COMMIT = "exact_commit"  #: per-point test run, segment split
    THRESHOLD = "threshold"  #: scalar threshold test (dead reckoning)
    PERIODIC = "periodic"  #: fixed-rate decision (uniform sampling)
    BATCH = "batch"  #: deferred to finish() (batch baselines)


@dataclass(frozen=True)
class PushResult:
    """Outcome of feeding one point to a streaming compressor.

    Attributes:
        index: 0-based position of the pushed point in the original stream.
        new_key_points: key points committed *by this arrival* (usually
            empty; one on a segment split; the point itself on stream start).
        decided_by: one of the :class:`Decision` constants.
    """

    index: int
    new_key_points: tuple[PlanePoint, ...]
    decided_by: str

    @property
    def committed(self) -> bool:
        return bool(self.new_key_points)


@runtime_checkable
class StreamingCompressor(Protocol):
    """The uniform online interface of every compressor in this package."""

    @property
    def name(self) -> str:
        """Short algorithm identifier (used by the evaluation harness)."""
        ...

    @property
    def epsilon(self) -> float:
        """The error tolerance in metres (``math.inf`` when unbounded)."""
        ...

    @property
    def pushed(self) -> int:
        """Number of points consumed so far (any entry point)."""
        ...

    def push(self, point: PlanePoint) -> PushResult:
        """Fold one point into the stream; report committed key points."""
        ...

    def push_many(self, points: Iterable[PlanePoint]) -> int:
        """Fold a batch of points in (same output as a ``push`` loop);
        return how many were consumed."""
        ...

    def push_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Fold a columnar batch of fixes in (same output as a ``push``
        loop over ``PlanePoint(x, y, t)``); return how many were consumed."""
        ...

    def finish(self) -> CompressedTrajectory:
        """Seal the stream and return the compressed trajectory."""
        ...

    def reset(self) -> None:
        """Return to the pristine pre-stream state."""
        ...


class PointBuffer:
    """A point buffer that remembers its high-water mark.

    Algorithms that buffer (BQS ``debug_audit``, batch baselines) route their
    storage through this class so tests — and the evaluation harness — can
    report peak memory behaviour per algorithm.
    """

    __slots__ = ("_points", "peak")

    def __init__(self) -> None:
        self._points: list[PlanePoint] = []
        self.peak = 0

    def append(self, point: PlanePoint) -> None:
        self._points.append(point)
        if len(self._points) > self.peak:
            self.peak = len(self._points)

    def clear(self) -> None:
        self._points.clear()

    def restart_from(self, points: Iterable[PlanePoint]) -> None:
        """Replace the contents (new segment opened) without resetting peak."""
        self._points = list(points)
        if len(self._points) > self.peak:
            self.peak = len(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[PlanePoint]:
        return iter(self._points)

    def __getitem__(self, idx: int) -> PlanePoint:
        return self._points[idx]


class CompressorBase(abc.ABC):
    """Shared push/finish machinery for online compressors.

    Subclasses implement :meth:`_ingest` (per-point decision, returning any
    key points committed by that arrival plus the decision label),
    :meth:`_ingest_xyt` (the columnar twin) and :meth:`_flush` (key points
    emitted at end of stream).  The base class owns stream validation,
    key-point ordering, counting and lifecycle.
    """

    #: Short identifier; subclasses override.
    name: str = "base"

    def __init__(
        self,
        epsilon: float = math.inf,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
    ) -> None:
        if not (epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {epsilon!r}")
        self._epsilon = float(epsilon)
        self._metric = metric
        self._new_keys()
        self._count = 0
        self._last_t = -math.inf
        self._finished = False
        self._stats: dict[str, int] = {}

    # -- public interface ---------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def metric(self) -> DistanceMetric:
        return self._metric

    @property
    def pushed(self) -> int:
        """Number of points pushed so far."""
        return self._count

    @property
    def key_points(self) -> tuple[PlanePoint, ...]:
        """Key points committed so far (the stream tail is still open)."""
        return tuple(self._key_points)

    @property
    def buffered_points(self) -> int:
        """Points currently held in internal buffers (0 for O(1) algorithms)."""
        return 0

    @property
    def stats(self) -> dict[str, int]:
        """Per-decision counters accumulated during the stream."""
        return dict(self._stats)

    def push(self, point: PlanePoint) -> PushResult:
        if self._finished:
            raise RuntimeError(
                f"{self.name}: finish() already called; reset() to reuse"
            )
        if not isinstance(point, PlanePoint):
            raise TypeError(f"push expects PlanePoint, got {type(point).__name__}")
        if not (point.t >= self._last_t):
            raise _backwards(self._last_t, point.t)
        self._last_t = point.t
        index = self._count
        self._count += 1
        committed, decided_by = self._ingest(point)
        for key in committed:
            self._emit(key)
        self._stats[decided_by] = self._stats.get(decided_by, 0) + 1
        return PushResult(index, tuple(committed), decided_by)

    def push_many(self, points: Iterable[PlanePoint]) -> int:
        """Batched fast path: fold a whole chunk of points into the stream.

        Produces *bit-identical* key points and stats to an equivalent loop
        of :meth:`push` calls (the property tests pin this down), but skips
        the per-point costs that only matter to callers inspecting each
        arrival: no :class:`PushResult` is allocated, no per-point
        ``isinstance`` check runs, and subclasses may bump plain integer
        slot counters that are folded into the stats dict once per batch
        (:meth:`_ingest_many`) rather than per point.  Timestamp
        monotonicity is still enforced on every point.

        Returns the number of points consumed.  Use :meth:`push` when the
        per-point decision or committed key points are needed as they
        happen.
        """
        if self._finished:
            raise RuntimeError(
                f"{self.name}: finish() already called; reset() to reuse"
            )
        return self._ingest_many(points)

    def push_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Columnar batched entry point: fold flat ``(ts, xs, ys)`` columns in.

        The struct-of-arrays twin of :meth:`push_many` — the natural fit for
        :class:`~repro.model.columns.TrajectoryColumns` (pass ``cols.ts,
        cols.xs, cols.ys``) or any parallel float sequences.  Output is
        *bit-identical* to pushing ``PlanePoint(x, y, t)`` objects one at a
        time, but :meth:`_ingest_xyt` reads the floats straight out of the
        columns, so no per-fix object is ever built (BQS and Fast-BQS build
        none for their key points either; the baselines build one per key
        point).

        BQS and Fast-BQS reject a NaN / ±inf coordinate exactly like a
        ``push`` loop would (see :meth:`SteppedCompressor._ingest_xyt`).
        The baselines' columnar overrides trust their values: a non-finite
        coordinate surfaces as a ``ValueError`` only if its fix is
        materialized as a key point.  Timestamp monotonicity is always
        enforced on every fix.  A mid-batch error of either kind consumes
        the valid prefix before raising.  Returns the number of fixes
        consumed.
        """
        if self._finished:
            raise RuntimeError(
                f"{self.name}: finish() already called; reset() to reuse"
            )
        n = len(ts)
        if len(xs) != n or len(ys) != n:
            raise ValueError(
                f"column length mismatch: ts={n}, xs={len(xs)}, ys={len(ys)}"
            )
        return self._ingest_xyt(ts, xs, ys)

    def finish(self) -> CompressedTrajectory:
        if self._finished:
            raise RuntimeError(f"{self.name}: finish() already called")
        for key in self._flush():
            self._emit(key)
        self._finished = True
        return CompressedTrajectory(
            **self._key_output(),
            original_count=self._count,
            metric=self._metric,
            tolerance=self._epsilon,
            algorithm=self.name,
            info=self._info(),
        )

    def reset(self) -> None:
        """Reset the shared state, then the subclass state via _reset()."""
        self._new_keys()
        self._count = 0
        self._last_t = -math.inf
        self._finished = False
        self._stats = {}
        self._reset()

    def compress(self, points: Iterable[PlanePoint]) -> CompressedTrajectory:
        """One-pass convenience driver: reset, push everything, finish.

        Routed through :meth:`push_many`, so callers get the batched fast
        path for free; the output is identical to a per-point push loop.
        Like ``push_many`` — and unlike ``push`` — elements are trusted to
        be :class:`~repro.model.point.PlanePoint` instances; a wrong type
        fails with an ``AttributeError`` rather than ``push``'s
        ``TypeError``.
        """
        self.reset()
        self.push_many(points)
        return self.finish()

    # -- subclass contract --------------------------------------------------

    @abc.abstractmethod
    def _ingest(self, point: PlanePoint) -> tuple[list[PlanePoint], str]:
        """Process one point; return (committed key points, decision label)."""

    def _ingest_many(self, points: Iterable[PlanePoint]) -> int:
        """Batch ingest behind :meth:`push_many`; returns points consumed.

        The default drives :meth:`_ingest` in a tight loop with the stream
        bookkeeping hoisted into locals.  :class:`SteppedCompressor`
        overrides this with a loop that skips the per-point ``(committed,
        label)`` tuple entirely and counts decisions in integer slots — the
        contract is only that key points, counts and stats end up exactly
        as a :meth:`push` loop would leave them, even when a point
        mid-batch raises.
        """
        ingest = self._ingest
        emit = self._emit
        stats = self._stats
        last_t = self._last_t
        count = start = self._count
        try:
            for point in points:
                t = point.t
                if not (t >= last_t):
                    raise _backwards(last_t, t)
                last_t = t
                count += 1
                committed, decided_by = ingest(point)
                for key in committed:
                    emit(key)
                stats[decided_by] = stats.get(decided_by, 0) + 1
        finally:
            self._last_t = last_t
            self._count = count
        return count - start

    @abc.abstractmethod
    def _ingest_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Columnar ingest behind :meth:`push_xyt`; returns fixes consumed.

        Every compressor reads the raw floats in its own loop; the contract
        is the same as :meth:`_ingest_many`: key points, counts and stats
        must end up exactly as a :meth:`push` loop over
        ``PlanePoint(x, y, t)`` would leave them, even when a fix mid-batch
        raises.
        """

    @abc.abstractmethod
    def _flush(self) -> list[PlanePoint]:
        """Key points to emit when the stream ends (e.g. the open tail)."""

    def _reset(self) -> None:
        """Clear subclass state; default no-op for stateless compressors."""

    def _info(self) -> dict:
        """Extra info recorded on the output; defaults to the stats counters."""
        info: dict = {"decisions": dict(self._stats)}
        return info

    # -- key-point storage --------------------------------------------------

    def _new_keys(self) -> None:
        """Start an empty key-point store (a finished output keeps the old)."""
        self._key_points: list[PlanePoint] = []

    def _key_output(self) -> dict:
        """The key points as :class:`CompressedTrajectory` arguments."""
        return {"key_points": tuple(self._key_points)}

    def _emit(self, point: PlanePoint) -> None:
        """Append a key point, dropping exact consecutive duplicates."""
        if self._key_points:
            last = self._key_points[-1]
            if (
                last.x == point.x
                and last.y == point.y
                and last.t == point.t
            ):
                return
        self._key_points.append(point)


class SteppedCompressor(CompressorBase):
    """A compressor whose whole per-arrival decision is one :meth:`_step`.

    ``_step(x, y, t, src)`` takes the fix as floats plus the pushed
    :class:`PlanePoint` (``None`` on the columnar path) and returns
    ``(commit, slot)``: whether the arrival commits a key point, and the
    decision slot, indexing :attr:`_labels`.  A commit is the previous fix
    (the arrival itself when it is the stream's first).  ``push``,
    ``push_many`` and ``push_xyt`` only check the clock, step, count slots
    and commit, so their outputs agree by construction.

    The previous fix is one tuple ``(x, y, t, src)`` in ``_prev``, kept
    here and read by ``_step``.  Key points are committed as floats into
    ``array('d')`` columns — ``z`` from ``src`` when a point was pushed,
    a ``zs`` column only once some ``z != 0`` — which :meth:`finish` hands
    to the :class:`~repro.model.trajectory.CompressedTrajectory` as they
    are, so no key point is built unless someone reads ``key_points``.
    """

    #: Decision labels, indexed by the slots :meth:`_step` returns.
    _labels: tuple[str, ...] = ()
    _prev: tuple[float, float, float, PlanePoint | None] | None = None

    @abc.abstractmethod
    def _step(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> tuple[bool, int]:
        """One arrival: (commit a key point?, decision slot)."""

    # -- key-point columns --------------------------------------------------

    def _new_keys(self) -> None:
        self._kts = array("d")
        self._kxs = array("d")
        self._kys = array("d")
        self._kzs: array | None = None
        self._prev = None

    def _key_output(self) -> dict:
        return {"ts": self._kts, "xs": self._kxs, "ys": self._kys, "zs": self._kzs}

    @property
    def key_points(self) -> tuple[PlanePoint, ...]:
        return plane_points_from_columns(self._kxs, self._kys, self._kts, self._kzs)

    def _commit(
        self, x: float, y: float, t: float, src: PlanePoint | None
    ) -> None:
        """Append one key point's floats, dropping an exact repeat of the
        last one (same ``x``, ``y`` and ``t``)."""
        ts = self._kts
        if ts and ts[-1] == t and self._kxs[-1] == x and self._kys[-1] == y:
            return
        ts.append(t)
        self._kxs.append(x)
        self._kys.append(y)
        z = 0.0 if src is None else src.z
        zs = self._kzs
        if zs is not None:
            zs.append(z)
        elif z:
            self._kzs = zs = array("d", bytes(8 * (len(ts) - 1)))
            zs.append(z)

    def _emit(self, point: PlanePoint) -> None:
        self._commit(point.x, point.y, point.t, point)

    # -- entry points -------------------------------------------------------

    def _ingest(self, point: PlanePoint) -> tuple[list[PlanePoint], str]:
        prev = self._prev
        x = point.x
        y = point.y
        t = point.t
        commit, slot = self._step(x, y, t, point)
        self._prev = (x, y, t, point)
        if not commit:
            return [], self._labels[slot]
        if prev is None:
            return [point], self._labels[slot]
        px, py, pt, src = prev
        return [PlanePoint(px, py, pt) if src is None else src], self._labels[slot]

    def _ingest_many(self, points: Iterable[PlanePoint]) -> int:
        step = self._step
        commit_ = self._commit
        counters = [0] * len(self._labels)
        last_t = self._last_t
        count = start = self._count
        try:
            for point in points:
                t = point.t
                if not (t >= last_t):
                    raise _backwards(last_t, t)
                last_t = t
                count += 1
                x = point.x
                y = point.y
                commit, slot = step(x, y, t, point)
                counters[slot] += 1
                if commit:
                    commit_(*(self._prev or (x, y, t, point)))
                self._prev = (x, y, t, point)
        finally:
            self._last_t = last_t
            self._count = count
            self._fold(counters)
        return count - start

    def _ingest_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Columnar ingest: floats straight into :meth:`_step`.

        Coordinates are screened once per batch with a C-level ``sum`` per
        column (a non-finite element can never sum to a finite total).  On
        a non-finite total the first bad fix is located, the valid prefix
        is ingested, and the ``ValueError`` that ``PlanePoint(x, y, t)``
        raises for that fix propagates, exactly as in a :meth:`push` loop.
        A total that merely overflowed finds no bad fix and runs normally.
        """
        stop = None
        if not (math.isfinite(sum(xs)) and math.isfinite(sum(ys))):
            stop = next(
                (
                    i
                    for i, (x, y) in enumerate(zip(xs, ys))
                    if not (math.isfinite(x) and math.isfinite(y))
                ),
                None,
            )
        fixes = zip(ts if stop is None else islice(ts, stop), xs, ys)
        step = self._step
        commit_ = self._commit
        counters = [0] * len(self._labels)
        last_t = self._last_t
        count = start = self._count
        try:
            for t, x, y in fixes:
                if not (t >= last_t):
                    raise _backwards(last_t, t)
                last_t = t
                count += 1
                commit, slot = step(x, y, t, None)
                counters[slot] += 1
                if commit:
                    commit_(*(self._prev or (x, y, t, None)))
                self._prev = (x, y, t, None)
        finally:
            self._last_t = last_t
            self._count = count
            self._fold(counters)
        if stop is not None:
            PlanePoint(xs[stop], ys[stop], ts[stop])  # raises, like push would
        return count - start

    def _fold(self, counters: list[int]) -> None:
        """Add per-slot decision counts into the stats dict."""
        stats = self._stats
        for label, n in zip(self._labels, counters):
            if n:
                stats[label] = stats.get(label, 0) + n

    def _flush(self) -> list[PlanePoint]:
        if self._prev is not None:
            self._commit(*self._prev)
        return []


def _backwards(last_t: float, t: float) -> ValueError:
    return ValueError(
        f"points must be non-decreasing in time ({last_t} then {t})"
    )
