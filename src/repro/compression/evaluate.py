"""Cross-algorithm evaluation harness (paper Section VI methodology).

Runs every compressor one-pass over the same point stream and reports, per
algorithm, the three quantities the paper compares:

* **compression rate** — stored points / original points (lower is better);
* **max deviation** — the geometric error bound audit
  (:meth:`CompressedTrajectory.max_deviation_from`), plus the **max SED**
  under temporal reconstruction
  (:func:`repro.model.reconstruction.max_synchronized_deviation`);
* **per-point cost** — wall-clock seconds per ``push`` call, the figure of
  merit for running "on the go" on constrained hardware.

A correlated-random-walk synthetic track doubles as the default workload
(speeds drawn from an empirical distribution, smooth heading drift), so the
module is runnable standalone::

    PYTHONPATH=src python -m repro.compression.evaluate --points 10000 --epsilon 10
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from ..model.point import PlanePoint
from ..model.reconstruction import max_synchronized_deviation
from ..model.statistics import EmpiricalDistribution
from ..model.trajectory import CompressedTrajectory
from .base import StreamingCompressor
from .baselines import (
    DeadReckoningCompressor,
    DouglasPeucker,
    TDTRCompressor,
    UniformSampler,
)
from .bqs import BQSCompressor
from .fast_bqs import FastBQSCompressor

__all__ = [
    "EvaluationRow",
    "synthetic_track",
    "default_suite",
    "evaluate_compressor",
    "evaluate_suite",
    "format_rows",
    "main",
]

#: Speed sample pool (m/s) for the synthetic walker: a mix of pedestrian,
#: cycling and urban-driving paces, quantiled through EmpiricalDistribution
#: the same way the paper draws speeds "from the empirical distribution".
_SPEED_SAMPLES = (0.8, 1.2, 1.4, 1.6, 2.5, 4.0, 6.5, 9.0, 11.0, 13.5, 15.0)


def synthetic_track(
    n: int,
    seed: int = 7,
    dt: float = 1.0,
    turn_sigma: float = 0.12,
    noise_sigma: float = 0.0,
) -> list[PlanePoint]:
    """A correlated random walk of ``n`` points in a metric plane.

    Heading performs Gaussian drift (``turn_sigma`` radians per step), speed
    is drawn per step from the empirical speed distribution, and optional
    isotropic GPS noise of ``noise_sigma`` metres is added to each fix.
    Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got {n!r}")
    rng = random.Random(seed)
    speeds = EmpiricalDistribution(_SPEED_SAMPLES)
    points: list[PlanePoint] = []
    x = y = 0.0
    heading = rng.uniform(0.0, 2.0 * math.pi)
    t = 0.0
    for _ in range(n):
        px, py = x, y
        if noise_sigma > 0.0:
            px += rng.gauss(0.0, noise_sigma)
            py += rng.gauss(0.0, noise_sigma)
        points.append(PlanePoint(px, py, t))
        heading += rng.gauss(0.0, turn_sigma)
        speed = speeds.sample(rng.random())
        x += speed * dt * math.cos(heading)
        y += speed * dt * math.sin(heading)
        t += dt
    return points


@dataclass(frozen=True)
class EvaluationRow:
    """One algorithm's results over one stream."""

    algorithm: str
    epsilon: float
    original_points: int
    key_points: int
    compression_rate: float
    max_deviation: float
    max_sed: float
    push_seconds_per_point: float
    finish_seconds: float
    wall_seconds: float
    peak_buffered_points: int
    error_bounded: bool

    @property
    def total_seconds_per_point(self) -> float:
        """Full per-point cost: pushes plus finish() amortised over the stream.

        The batch baselines do all their work inside ``finish()``, so the
        push-only figure would flatter them; this is the comparable number.
        """
        return self.push_seconds_per_point + self.finish_seconds / max(
            1, self.original_points
        )

    @property
    def points_per_second(self) -> float:
        """Throughput over the whole run (pushes + finish), points/sec.

        Original points divided by total wall time.  This harness drives
        the per-point ``push()`` path and samples buffer occupancy inside
        the timed region, so it reads lower than a batched ``push_xyt``
        run of the same stream (the reference benchmark's
        ``device_stream`` workload times both entry points).
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.original_points / self.wall_seconds

    @property
    def within_bound(self) -> bool:
        """Whether the audit stayed inside the advertised tolerance."""
        return self.max_deviation <= self.epsilon * (1.0 + 1e-9)


def evaluate_compressor(
    compressor: StreamingCompressor,
    points: Sequence[PlanePoint],
) -> tuple[EvaluationRow, CompressedTrajectory]:
    """Drive one compressor point-by-point and audit the result."""
    compressor.reset()
    peak_buffered = 0
    start = time.perf_counter()
    for p in points:
        compressor.push(p)
        buffered = compressor.buffered_points
        if buffered > peak_buffered:
            peak_buffered = buffered
    elapsed = time.perf_counter() - start
    finish_start = time.perf_counter()
    compressed = compressor.finish()
    finish_elapsed = time.perf_counter() - finish_start
    row = EvaluationRow(
        algorithm=compressed.algorithm or compressor.name,
        epsilon=compressor.epsilon,
        original_points=len(points),
        key_points=len(compressed),
        compression_rate=compressed.compression_rate,
        max_deviation=compressed.max_deviation_from(points),
        max_sed=max_synchronized_deviation(compressed, points),
        push_seconds_per_point=elapsed / max(1, len(points)),
        finish_seconds=finish_elapsed,
        wall_seconds=elapsed + finish_elapsed,
        peak_buffered_points=peak_buffered,
        error_bounded=math.isfinite(compressor.epsilon),
    )
    return row, compressed


def default_suite(
    epsilon: float, uniform_period: int = 10
) -> list[StreamingCompressor]:
    """The paper's comparison set: BQS, Fast-BQS and the baselines."""
    return [
        BQSCompressor(epsilon),
        FastBQSCompressor(epsilon),
        DeadReckoningCompressor(epsilon),
        UniformSampler(uniform_period),
        DouglasPeucker(epsilon),
        TDTRCompressor(epsilon),
    ]


def evaluate_suite(
    points: Sequence[PlanePoint],
    epsilon: float,
    uniform_period: int = 10,
) -> list[EvaluationRow]:
    """Evaluate the default comparison suite over one stream."""
    rows = []
    for compressor in default_suite(epsilon, uniform_period):
        row, _ = evaluate_compressor(compressor, points)
        rows.append(row)
    return rows


def format_rows(rows: Sequence[EvaluationRow]) -> str:
    """Plain-text comparison table."""
    header = (
        f"{'algorithm':<16}{'keys':>8}{'rate':>8}{'max dev':>10}"
        f"{'max SED':>10}{'us/pt':>8}{'pts/s':>10}{'wall s':>9}{'peak buf':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.algorithm:<16}{r.key_points:>8}{r.compression_rate:>8.3f}"
            f"{r.max_deviation:>10.2f}{r.max_sed:>10.2f}"
            f"{r.total_seconds_per_point * 1e6:>8.1f}"
            f"{r.points_per_second:>10.0f}{r.wall_seconds:>9.3f}"
            f"{r.peak_buffered_points:>10}"
        )
    return "\n".join(lines)


def _bounded(kind, minimum: float, strict: bool):
    """An argparse ``type``: a finite ``kind`` value ``> minimum``
    (``strict``) or ``>= minimum``, else a one-line usage error."""
    op = ">" if strict else ">="

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (
            math.isfinite(value)
            and (value > minimum if strict else value >= minimum)
        ):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {op} {minimum:g}, got {text!r}"
            )
        return value

    return parse


def main(argv: Sequence[str] | None = None) -> int:
    """Print the comparison table; exit status 1 when any error-bounded
    compressor's audited max deviation exceeds its epsilon.  Bad arguments
    are a usage error (argparse's exit status 2), never status 1."""
    parser = argparse.ArgumentParser(
        description="Compare trajectory compressors on a synthetic track."
    )
    count = _bounded(int, 1, strict=False)
    parser.add_argument("--points", type=count, default=10_000)
    parser.add_argument(
        "--epsilon", type=_bounded(float, 0.0, strict=True), default=10.0,
        help="metres",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--uniform-period", type=count, default=10)
    parser.add_argument(
        "--noise", type=_bounded(float, 0.0, strict=False), default=0.0,
        help="GPS noise sigma (m)",
    )
    args = parser.parse_args(argv)

    points = synthetic_track(args.points, seed=args.seed, noise_sigma=args.noise)
    rows = evaluate_suite(points, args.epsilon, args.uniform_period)
    print(
        f"{args.points} points, epsilon={args.epsilon} m, seed={args.seed}"
        + (f", noise={args.noise} m" if args.noise else "")
    )
    print(format_rows(rows))
    broken = [r for r in rows if r.error_bounded and not r.within_bound]
    for r in broken:
        print(
            f"{r.algorithm}: max deviation {r.max_deviation!r} exceeds "
            f"epsilon {r.epsilon!r}",
            file=sys.stderr,
        )
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
