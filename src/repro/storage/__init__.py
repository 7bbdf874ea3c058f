"""Persistence for compressed trajectories: codec, store, index, queries.

BQS compresses "on the go" so constrained devices can afford to *keep*
their trajectories — this package is where they are kept.  Four modules,
lowest first:

:mod:`repro.storage.codec`
    A compact binary encoding of
    :class:`~repro.model.trajectory.CompressedTrajectory`: a
    self-describing header (algorithm, ε, metric, quanta, optional UTM
    zone) followed by delta-encoded fixed-point zig-zag varint columns.
    Decoding yields :class:`~repro.model.columns.TrajectoryColumns` plus
    the header — lossless at the declared quantum.

:mod:`repro.storage.index`
    Persistent per-segment index sidecars (``seg-*.idx``): packed
    envelope rows, a space-ordered block table and per-device posting
    lists with CRC'd footers, served zero-copy through ``mmap``.  Sidecars make opening a store
    O(segments) instead of O(records); a missing or corrupt sidecar
    degrades to the envelope scan and is regenerated.

:mod:`repro.storage.store`
    :class:`~repro.storage.store.TrajectoryStore`: an append-only
    segmented log of codec records with crash-safe appends (length +
    CRC-prefixed records, truncated-tail tolerance), per-device manifests,
    lazy sidecar-backed opens, tombstone deletes, compaction with a
    manifest generation counter (stale concurrent readers raise
    :class:`~repro.storage.store.StaleStoreError` and reload), and
    in-place format migration (:func:`~repro.storage.store.
    migrate_store`).  :class:`~repro.storage.store.StoreSink` plugs the
    store into the engine's :class:`~repro.engine.sinks.Sink` protocol so
    fleet runs stream straight to disk.

:mod:`repro.storage.query`
    Error-aware spatio-temporal queries answered over the compressed
    segments: time-window (exact — compression preserves stream spans)
    and spatial range in two modes, ``approximate`` (ε-expanded bounding
    boxes from the index only) and ``exact`` (chord-level geometry against
    the ε-expanded rectangle; no false negatives by the error bound).
    Candidate selection runs over the mmap'd sidecar rows with
    block-level pruning; geographic rectangles may wrap the antimeridian.

``python -m repro.storage`` drives all of it: ``ingest`` a simulated
fleet to disk, ``stat`` a store, ``query`` it, ``compact`` it,
``migrate``/``reindex`` it, and ``scale-smoke`` the open/query fast
paths.
"""

from .codec import (
    DEFAULT_T_QUANTUM,
    DEFAULT_XY_QUANTUM,
    CodecError,
    DecodedTrajectory,
    decode_trajectory,
    encode_trajectory,
)
from .index import ScannedSegment, SegmentIndex, SidecarError
from .query import (
    QueryMatch,
    geo_range_query,
    geo_rect_to_plane,
    range_query,
    time_window_query,
)
from .store import (
    RecordRef,
    StaleStoreError,
    StoreSink,
    TrajectoryStore,
    migrate_store,
    shard_store_sink,
)

__all__ = [
    "CodecError",
    "DEFAULT_T_QUANTUM",
    "DEFAULT_XY_QUANTUM",
    "DecodedTrajectory",
    "QueryMatch",
    "RecordRef",
    "ScannedSegment",
    "SegmentIndex",
    "SidecarError",
    "StaleStoreError",
    "StoreSink",
    "TrajectoryStore",
    "decode_trajectory",
    "encode_trajectory",
    "geo_range_query",
    "geo_rect_to_plane",
    "migrate_store",
    "range_query",
    "shard_store_sink",
    "time_window_query",
]
