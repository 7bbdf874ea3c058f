"""Columnar (struct-of-arrays) storage for trajectory fixes.

A :class:`~repro.model.point.PlanePoint` is convenient at the API surface,
but on the batched hot path the object itself is the cost: every fix pays a
dataclass construction, three finiteness checks and per-field attribute
loads before any compression math runs.  ``TrajectoryColumns`` holds the
same data as three flat stdlib ``array('d')`` columns — timestamps, x, y —
so batch producers (file readers, network decoders, the fleet engine) can
hand a compressor thousands of fixes with **zero per-point objects**; the
columnar ingest paths (``StreamingCompressor.push_xyt``) read the floats
straight out of the columns, and BQS and Fast-BQS commit their key points
as floats too (a :class:`~repro.model.trajectory.CompressedTrajectory` is
column-backed).

The columns are time-ordered per trajectory (the same non-decreasing
timestamp contract ``push`` enforces) and carry no ``z``: the columnar path
is the 2-D hot path, and a materialized point gets ``z = 0.0`` — exactly
what ``PlanePoint(x, y, t)`` defaults to.  Streams that carry ``z`` keep
using the object path, which keeps each key point's ``z``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence, Tuple

from .point import PlanePoint

__all__ = ["TrajectoryColumns"]


class TrajectoryColumns:
    """Flat ``(ts, xs, ys)`` columns describing one stream of fixes.

    The three columns are plain ``array('d')`` instances and are exposed
    directly (``cols.ts`` etc.) so hot loops can iterate them without any
    wrapper indirection; the class itself only guarantees they stay the
    same length through its mutators.
    """

    __slots__ = ("ts", "xs", "ys")

    def __init__(
        self,
        ts: Iterable[float] = (),
        xs: Iterable[float] = (),
        ys: Iterable[float] = (),
    ) -> None:
        self.ts = array("d", ts)
        self.xs = array("d", xs)
        self.ys = array("d", ys)
        if not (len(self.ts) == len(self.xs) == len(self.ys)):
            raise ValueError(
                "column length mismatch: "
                f"ts={len(self.ts)}, xs={len(self.xs)}, ys={len(self.ys)}"
            )

    @classmethod
    def wrap(
        cls, ts: "array[float]", xs: "array[float]", ys: "array[float]"
    ) -> "TrajectoryColumns":
        """Columns over existing equal-length arrays, without copying."""
        if not (len(ts) == len(xs) == len(ys)):
            raise ValueError(
                f"column length mismatch: ts={len(ts)}, xs={len(xs)}, ys={len(ys)}"
            )
        cols = cls.__new__(cls)
        cols.ts = ts
        cols.xs = xs
        cols.ys = ys
        return cols

    @classmethod
    def from_points(cls, points: Iterable[PlanePoint]) -> "TrajectoryColumns":
        """Shred an object stream into columns (``z`` is dropped)."""
        cols = cls()
        append_t = cols.ts.append
        append_x = cols.xs.append
        append_y = cols.ys.append
        for p in points:
            append_t(p.t)
            append_x(p.x)
            append_y(p.y)
        return cols

    @classmethod
    def from_fixes(
        cls, fixes: Iterable[Tuple[float, float, float]]
    ) -> "TrajectoryColumns":
        """Build columns from ``(t, x, y)`` tuples."""
        cols = cls()
        for t, x, y in fixes:
            cols.ts.append(t)
            cols.xs.append(x)
            cols.ys.append(y)
        return cols

    def append(self, t: float, x: float, y: float) -> None:
        """Append one fix."""
        self.ts.append(t)
        self.xs.append(x)
        self.ys.append(y)

    def extend(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> None:
        """Bulk-append parallel columns (validated to equal lengths)."""
        n = len(ts)
        if len(xs) != n or len(ys) != n:
            raise ValueError(
                f"column length mismatch: ts={n}, xs={len(xs)}, ys={len(ys)}"
            )
        self.ts.extend(ts)
        self.xs.extend(xs)
        self.ys.extend(ys)

    def to_points(self) -> list[PlanePoint]:
        """Materialize every fix as a :class:`PlanePoint` (``z = 0``)."""
        return list(map(PlanePoint, self.xs, self.ys, self.ts))

    def point(self, i: int) -> PlanePoint:
        """Materialize fix ``i`` only."""
        return PlanePoint(self.xs[i], self.ys[i], self.ts[i])

    def clear(self) -> None:
        del self.ts[:]
        del self.xs[:]
        del self.ys[:]

    def __len__(self) -> int:
        return len(self.ts)

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        """Yield ``(t, x, y)`` per fix (cold-path convenience)."""
        return zip(self.ts, self.xs, self.ys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryColumns):
            return NotImplemented
        return (
            self.ts == other.ts and self.xs == other.xs and self.ys == other.ys
        )

    def __repr__(self) -> str:
        return f"TrajectoryColumns(n={len(self.ts)})"
