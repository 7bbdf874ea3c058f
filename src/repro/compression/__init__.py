"""Streaming trajectory compression: BQS, Fast-BQS and baselines.

Layered on top of :mod:`repro.geometry` (pure-math kernels) and
:mod:`repro.model` (points, trajectories, reconstruction).  Every algorithm
implements the :class:`StreamingCompressor` protocol — ``push`` points one
at a time, ``finish`` to obtain a
:class:`~repro.model.trajectory.CompressedTrajectory` — so callers can swap
algorithms freely; :mod:`repro.compression.evaluate` does exactly that to
reproduce the paper's comparisons.
"""

from .base import (
    CompressorBase,
    Decision,
    PointBuffer,
    PushResult,
    StreamingCompressor,
)
from .baselines import (
    DeadReckoningCompressor,
    DouglasPeucker,
    TDTRCompressor,
    UniformSampler,
)
from .bqs import BQSCompressor
from .evaluate import (
    EvaluationRow,
    default_suite,
    evaluate_compressor,
    evaluate_suite,
    format_rows,
    synthetic_track,
)
from .fast_bqs import FastBQSCompressor, QuadrantState, quadrant_index

__all__ = [
    "BQSCompressor",
    "CompressorBase",
    "DeadReckoningCompressor",
    "Decision",
    "DouglasPeucker",
    "EvaluationRow",
    "FastBQSCompressor",
    "PointBuffer",
    "PushResult",
    "QuadrantState",
    "StreamingCompressor",
    "TDTRCompressor",
    "UniformSampler",
    "default_suite",
    "evaluate_compressor",
    "evaluate_suite",
    "format_rows",
    "quadrant_index",
    "synthetic_track",
]
