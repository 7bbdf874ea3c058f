"""Multi-stream fleet engine: many devices, bounded memory, optional shards.

Sits between :mod:`repro.compression` (which it drives) and
:mod:`repro.storage` (which its sinks fill).  Two engines behind one
batch interface:

:class:`StreamEngine`
    Single-process multiplexer: per-device compressor state behind dict
    dispatch, interleaved ``(device_id, t, x, y)`` batches regrouped into
    per-device columns and ingested through the zero-object ``push_xyt``
    path, bounded memory via ``max_devices`` (LRU finish/evict) and
    ``idle_timeout`` policies.

:class:`ShardedStreamEngine`
    Multi-core scale-out: hash(device id) → worker process, columnar
    batches over pipes, identical results to the single-process engine.

:class:`GeoStreamEngine`
    GPS-native front-end: ``(device_id, t, lat, lon)`` batches, per-device
    UTM zone auto-selection from the first fix, bulk projection through
    the vectorized ``forward_columns`` path, and zone-stamped sealed
    trajectories (``ShardedStreamEngine(geodetic=True)`` hosts one per
    worker).

:mod:`repro.engine.simulate`
    Seeded fleet workload generator for benchmarks and demos
    (``python -m repro.engine`` drives it end to end), including seeded
    disorder injection for dirty-feed runs.

:mod:`repro.engine.sanitize`
    The feed sanitizer every engine can put in front of its compressors:
    a :class:`SanitizePolicy` handles out-of-order, duplicate, non-finite
    and teleporting fixes, splits streams at long silences and (geodetic)
    UTM zone boundaries, and accounts every dropped fix in a
    :class:`FeedReport`.

:mod:`repro.engine.journal`
    The write-ahead fix journal behind every engine's ``journal=`` /
    ``recover()`` crash-durability path: acknowledged batches are durable
    before dispatch, sealed deliveries are checkpointed, and replay
    through the same deterministic pipeline rebuilds the exact pre-crash
    state (the sharded engine journals per shard and can restart dead
    workers from their journals).
"""

from .core import BatchIngestError, DeviceId, Fix, StreamEngine
from .geodetic import GeoFix, GeoStreamEngine
from .journal import FixJournal, JournalError, RecoveryReport
from .sanitize import FeedReport, FeedSanitizer, SanitizePolicy
from .sharded import (
    ShardCrashError,
    ShardedStreamEngine,
    TransportError,
    shard_of,
)
from .simulate import (
    DisorderSummary,
    bqs_fleet_factory,
    fleet_fixes,
    gps_fleet_fixes,
    inject_disorder,
    iter_fix_batches,
    iter_geo_fix_batches,
)
from .sinks import CallbackSink, ListSink, Sink

__all__ = [
    "BatchIngestError",
    "CallbackSink",
    "DeviceId",
    "DisorderSummary",
    "FeedReport",
    "FeedSanitizer",
    "Fix",
    "FixJournal",
    "GeoFix",
    "GeoStreamEngine",
    "JournalError",
    "ListSink",
    "RecoveryReport",
    "SanitizePolicy",
    "ShardCrashError",
    "ShardedStreamEngine",
    "TransportError",
    "Sink",
    "StreamEngine",
    "bqs_fleet_factory",
    "fleet_fixes",
    "gps_fleet_fixes",
    "inject_disorder",
    "iter_fix_batches",
    "iter_geo_fix_batches",
    "shard_of",
]
