"""Trajectory data model (paper Section IV).

Definitions implemented here, verbatim from the paper:

*Segment* — "a set of location points that are taken consecutively in the
temporal domain, denoted τ = {v1, ..., vn}".

*Trajectory* — "a set of consecutive segments, T = {τ1, τ2, ...}".

*Deviation* — "the largest distance from any location vi ∈ {v2,...,vn−1} to
the line defined by v1 and vn"; the trajectory deviation is the maximum over
its segments.

*Compressed trajectory* — the ordered start/end locations of all segments.

*Error-bounded trajectory* — a compressed trajectory whose every segment has
deviation ≤ d.

The classes below operate on projected :class:`~repro.model.point.PlanePoint`
instances; use :mod:`repro.model.projection` to get there from raw GPS.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..geometry.metrics import DistanceMetric, deviation as metric_deviation
from .point import PlanePoint, plane_points_from_columns
from .projection import UTMProjection

if TYPE_CHECKING:  # runtime import stays late: columns imports point
    from .columns import TrajectoryColumns

__all__ = [
    "Segment",
    "Trajectory",
    "CompressedTrajectory",
    "segment_deviation",
    "GPS_SAMPLE_BYTES",
]

#: Storage footprint of one stored sample on the target platform:
#: latitude, longitude and timestamp at 4 bytes each (Section VI-C-4).
GPS_SAMPLE_BYTES = 12


def segment_deviation(
    points: Sequence[PlanePoint],
    metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
) -> float:
    """The paper's deviation ``â(τ)`` of a raw segment.

    Measures every interior point against the line (or line segment)
    defined by the first and last points.  Segments with fewer than three
    points have zero deviation by definition.
    """
    if len(points) < 3:
        return 0.0
    a = points[0].xy
    b = points[-1].xy
    best = 0.0
    for p in points[1:-1]:
        d = metric_deviation(p.xy, a, b, metric)
        if d > best:
            best = d
    return best


@dataclass(frozen=True)
class Segment:
    """A temporally-consecutive run of location points ``τ = {v1..vn}``."""

    points: tuple[PlanePoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("a segment needs at least one point")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.t < prev.t:
                raise ValueError(
                    "segment points must be non-decreasing in time "
                    f"({prev.t} then {cur.t})"
                )

    @classmethod
    def from_points(cls, points: Iterable[PlanePoint]) -> "Segment":
        return cls(tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PlanePoint]:
        return iter(self.points)

    @property
    def start(self) -> PlanePoint:
        return self.points[0]

    @property
    def end(self) -> PlanePoint:
        return self.points[-1]

    @property
    def duration(self) -> float:
        """Elapsed seconds between the first and last sample."""
        return self.end.t - self.start.t

    def deviation(
        self, metric: DistanceMetric = DistanceMetric.POINT_TO_LINE
    ) -> float:
        """``â(τ)``: max interior-point distance to the start-end line."""
        return segment_deviation(self.points, metric)

    def path_length(self) -> float:
        """Sum of consecutive point-to-point distances (metres)."""
        total = 0.0
        for prev, cur in zip(self.points, self.points[1:]):
            total += prev.distance_to(cur)
        return total


@dataclass(frozen=True)
class Trajectory:
    """A set of consecutive segments ``T = {τ1, τ2, ...}``."""

    segments: tuple[Segment, ...]

    @classmethod
    def from_segments(cls, segments: Iterable[Segment]) -> "Trajectory":
        return cls(tuple(segments))

    @classmethod
    def single(cls, points: Iterable[PlanePoint]) -> "Trajectory":
        """A trajectory holding one segment with all the given points."""
        return cls((Segment.from_points(points),))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def point_count(self) -> int:
        return sum(len(s) for s in self.segments)

    def all_points(self) -> list[PlanePoint]:
        out: list[PlanePoint] = []
        for seg in self.segments:
            out.extend(seg.points)
        return out

    def deviation(
        self, metric: DistanceMetric = DistanceMetric.POINT_TO_LINE
    ) -> float:
        """Trajectory deviation: ``max(â(τi))`` over the segments."""
        return max((s.deviation(metric) for s in self.segments), default=0.0)


@dataclass(frozen=True, init=False)
class CompressedTrajectory:
    """The ordered key points of a compressed trajectory ``T'``.

    Consecutive key points delimit compressed segments; ``key_points[i]``
    and ``key_points[i+1]`` are segment i's start and end.  The object also
    remembers how many raw points it represents so compression rate
    (``N_compressed / N_original``, lower is better) can be reported the way
    the paper does.

    The key points are stored as float columns: ``ts`` / ``xs`` / ``ys``
    as ``array('d')``, plus ``zs`` only when some key point has ``z != 0``
    (``None`` otherwise).  Build one from points (``key_points=``) or from
    columns (``ts=``, ``xs=``, ``ys=``, ``zs=``, kept as given, not
    copied).  :attr:`key_points` is a view that builds
    its :class:`PlanePoint` objects on first read and caches them, so a
    trajectory nobody reads point by point — one that is encoded, stored
    or re-framed with ``dataclasses.replace(t, frame=...)`` — never builds
    any.  Equality compares values, columns included; the columns must not
    be mutated once the trajectory exists.
    """

    original_count: int
    ts: "array[float]" = field(repr=False)
    xs: "array[float]" = field(repr=False)
    ys: "array[float]" = field(repr=False)
    metric: DistanceMetric = DistanceMetric.POINT_TO_LINE
    tolerance: float = 0.0
    #: Short identifier of the producing compressor ("bqs", "td-tr", ...);
    #: every algorithm in :mod:`repro.compression` stamps its name here so
    #: evaluation output is self-describing.
    algorithm: str = ""
    #: The UTM frame the plane coordinates live in, when known.  The
    #: geodetic engine front-end stamps the zone it auto-selected from each
    #: device's first fix here, and the storage layer
    #: (:class:`~repro.storage.store.StoreSink` /
    #: :func:`~repro.storage.codec.encode_trajectory`) propagates it into
    #: every blob header, so a reader can unproject key points back to GPS
    #: without out-of-band context.  ``None`` for trajectories compressed
    #: from already-planar fixes.
    frame: "UTMProjection | None" = None
    #: Extra bookkeeping from the producing algorithm (e.g. decision stats).
    info: dict[str, Any] = field(default_factory=dict, compare=False)
    zs: "array[float] | None" = field(default=None, repr=False)

    def __init__(
        self,
        key_points: Iterable[PlanePoint] | None = None,
        original_count: int | None = None,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
        tolerance: float = 0.0,
        algorithm: str = "",
        frame: "UTMProjection | None" = None,
        info: dict[str, Any] | None = None,
        *,
        ts: "array[float] | None" = None,
        xs: "array[float] | None" = None,
        ys: "array[float] | None" = None,
        zs: "array[float] | None" = None,
    ) -> None:
        if original_count is None:
            raise TypeError("CompressedTrajectory needs original_count")
        put = object.__setattr__
        if key_points is not None:
            # Points win over columns: dataclasses.replace passes the old
            # columns along with a replacement ``key_points=``.
            points = tuple(key_points)
            ts = array("d", [p.t for p in points])
            xs = array("d", [p.x for p in points])
            ys = array("d", [p.y for p in points])
            zs = array("d", [p.z for p in points])
            self.__dict__["key_points"] = points  # the cached view
        elif ts is None or xs is None or ys is None:
            ts, xs, ys, zs = array("d"), array("d"), array("d"), None
        elif not (len(ts) == len(xs) == len(ys) and (zs is None or len(zs) == len(ts))):
            raise ValueError(
                f"column length mismatch: ts={len(ts)}, xs={len(xs)}, "
                f"ys={len(ys)}, zs={'-' if zs is None else len(zs)}"
            )
        if zs is not None and not any(zs):
            zs = None
        put(self, "original_count", original_count)
        put(self, "metric", metric)
        put(self, "tolerance", tolerance)
        put(self, "algorithm", algorithm)
        put(self, "frame", frame)
        put(self, "info", {} if info is None else info)
        put(self, "ts", ts)
        put(self, "xs", xs)
        put(self, "ys", ys)
        put(self, "zs", zs)
        n = len(ts)
        if original_count < 0:
            raise ValueError("original_count must be non-negative")
        if n > original_count and original_count:
            raise ValueError(
                "compressed trajectory cannot contain more points than the "
                f"original ({n} > {original_count})"
            )
        if n > 1 and any(map(operator.gt, ts, ts[1:])):
            raise ValueError("key points must be non-decreasing in time")

    @cached_property
    def key_points(self) -> tuple[PlanePoint, ...]:
        """The key points as :class:`PlanePoint`\\ s, built on first read."""
        return plane_points_from_columns(self.xs, self.ys, self.ts, self.zs)

    def __getstate__(self) -> dict[str, Any]:
        # The cached point view is rebuilt on demand, never pickled.
        state = dict(self.__dict__)
        state.pop("key_points", None)
        return state

    def __hash__(self) -> int:
        return hash(
            (self.original_count, self.metric, self.tolerance, self.algorithm,
             tuple(self.ts), tuple(self.xs), tuple(self.ys))
        )

    def __len__(self) -> int:
        return len(self.ts)

    def __iter__(self) -> Iterator[PlanePoint]:
        return iter(self.key_points)

    @property
    def compression_rate(self) -> float:
        """``N_compressed / N_original`` (paper Section VI-B; lower = better)."""
        if self.original_count == 0:
            return 0.0
        return len(self) / self.original_count

    @property
    def compression_ratio(self) -> float:
        """``N_original / N_compressed`` (the conventional ratio; higher = better)."""
        if not len(self):
            return 0.0
        return self.original_count / len(self)

    def storage_bytes(self, bytes_per_point: int = GPS_SAMPLE_BYTES) -> int:
        """Bytes needed to store the key points on the target platform."""
        return len(self) * bytes_per_point

    def to_columns(self) -> "TrajectoryColumns":
        """The stored ``(ts, xs, ys)`` columns, not copied.

        The serialization hook used by :mod:`repro.storage.codec`: the
        binary codec delta-encodes these columns, and decoding produces a
        :class:`~repro.model.columns.TrajectoryColumns` again (``z`` is
        dropped — the codec covers the 2-D hot path).
        """
        from .columns import TrajectoryColumns  # late: columns imports point

        return TrajectoryColumns.wrap(self.ts, self.xs, self.ys)

    def segments(self) -> list[tuple[PlanePoint, PlanePoint]]:
        """The (start, end) pairs of every compressed segment."""
        return list(zip(self.key_points, self.key_points[1:]))

    def segment_for_time(self, t: float) -> tuple[PlanePoint, PlanePoint]:
        """The compressed segment whose time window contains ``t``.

        Raises ``ValueError`` outside the trajectory's time range.
        """
        if not self.key_points:
            raise ValueError("empty compressed trajectory")
        if t < self.key_points[0].t or t > self.key_points[-1].t:
            raise ValueError(
                f"t={t} outside trajectory time range "
                f"[{self.key_points[0].t}, {self.key_points[-1].t}]"
            )
        # Linear scan is fine: reconstruction walks segments in order, and
        # random access uses segment_for_time rarely; key point lists are
        # small by construction (that is the whole point of compression).
        for a, b in zip(self.key_points, self.key_points[1:]):
            if a.t <= t <= b.t:
                return (a, b)
        # t equals the final timestamp of a single-point trajectory.
        last = self.key_points[-1]
        return (last, last)

    def max_deviation_from(self, original: Sequence[PlanePoint]) -> float:
        """Audit helper: maximum deviation of ``original`` from this result.

        Every original point is measured against the compressed segment
        covering its timestamp (endpoints measure as zero).  This is the
        quantity the error bound promises to keep ≤ tolerance.
        """
        if len(self.key_points) < 2:
            if not self.key_points or not original:
                return 0.0
            anchor = self.key_points[0].xy
            return max(
                metric_deviation(p.xy, anchor, anchor, self.metric)
                for p in original
            )
        worst = 0.0
        seg_iter = list(zip(self.key_points, self.key_points[1:]))
        idx = 0
        for p in original:
            while idx + 1 < len(seg_iter) and seg_iter[idx][1].t < p.t:
                idx += 1
            # Several segments can cover p.t when consecutive key points
            # share a timestamp (zero-duration segments, which push()
            # permits); the compressed representation is multivalued there,
            # so the point is audited against the nearest covering segment.
            best = math.inf
            j = idx
            while j < len(seg_iter) and seg_iter[j][0].t <= p.t:
                a, b = seg_iter[j]
                d = metric_deviation(p.xy, a.xy, b.xy, self.metric)
                if d < best:
                    best = d
                j += 1
            if math.isinf(best):
                a, b = seg_iter[idx]
                best = metric_deviation(p.xy, a.xy, b.xy, self.metric)
            if best > worst:
                worst = best
        return worst
