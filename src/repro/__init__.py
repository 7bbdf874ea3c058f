"""Reproduction of "Bounded Quadrant System: Error-bounded trajectory
compression on the go" (Liu et al., ICDE 2015).

Three layers, lowest first:

``repro.geometry``
    Dependency-free 2-D math kernels: distances, hulls, the wedge/box
    bound helpers behind the BQS deviation bounds.

``repro.model``
    The data model: GPS and plane points, projections, trajectories,
    compressed trajectories, temporal reconstruction, online statistics.

``repro.compression``
    The streaming compressors — BQS, Fast-BQS, dead reckoning, uniform
    sampling, Douglas-Peucker, TD-TR — behind one online protocol, plus the
    evaluation harness.

``repro.engine``
    The multi-stream fleet engine: multiplex thousands of device streams
    over per-device compressors, with bounded-memory eviction policies,
    an optional sharded multiprocessing mode, and the ``Sink`` protocol
    every sealed stream is delivered through.

``repro.storage``
    Persistence and queries: a compact binary codec for compressed
    trajectories, an append-only segmented store with crash-safe appends
    and compaction, and error-aware spatio-temporal queries answered
    directly over the compressed records (``python -m repro.storage``).

The most common entry points are re-exported here.
"""

from . import compression, engine, geometry, model, storage
from .compression import (
    BQSCompressor,
    DeadReckoningCompressor,
    DouglasPeucker,
    FastBQSCompressor,
    StreamingCompressor,
    TDTRCompressor,
    UniformSampler,
    evaluate_suite,
    synthetic_track,
)
from .engine import GeoStreamEngine, ListSink, ShardedStreamEngine, Sink, StreamEngine
from .geometry import DistanceMetric
from .model import (
    CompressedTrajectory,
    LocationPoint,
    PlanePoint,
    Segment,
    Trajectory,
    TrajectoryColumns,
)
from .storage import StoreSink, TrajectoryStore

__all__ = [
    "BQSCompressor",
    "CompressedTrajectory",
    "DeadReckoningCompressor",
    "DistanceMetric",
    "DouglasPeucker",
    "FastBQSCompressor",
    "GeoStreamEngine",
    "ListSink",
    "LocationPoint",
    "PlanePoint",
    "Segment",
    "ShardedStreamEngine",
    "Sink",
    "StoreSink",
    "StreamEngine",
    "StreamingCompressor",
    "TDTRCompressor",
    "Trajectory",
    "TrajectoryColumns",
    "TrajectoryStore",
    "UniformSampler",
    "compression",
    "engine",
    "evaluate_suite",
    "geometry",
    "model",
    "storage",
    "synthetic_track",
]
