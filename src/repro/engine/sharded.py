"""Sharded multi-core fleet engine: hash(device) → worker process.

:class:`ShardedStreamEngine` runs one :class:`~repro.engine.core.
StreamEngine` per worker process and routes every device to exactly one
worker by a stable hash of its id, so per-device fix order — and therefore
per-device output — is preserved no matter how batches interleave.

The data plane is a per-worker ``multiprocessing.shared_memory`` ring
buffer carrying length-prefixed columnar frames (tagged device ids + raw
little-endian ``f64`` columns, the write-ahead journal's encoding — see
:mod:`repro.engine.transport`).  The control pipe carries only a tiny
doorbell ``("frame", seq, offset, length)`` per frame and an ``("ack",
seq)`` reply, and the worker feeds the decoded per-device groups straight
into ``push_grouped`` — no pickling, no worker-side regrouping.  Acks are
pipelined: the parent keeps filling the ring up to ``ack_window``
outstanding frames while the worker drains, and blocks only when the ring
or the window is full.  Device ids must be str, int or bytes — the same
contract the journal imposes; anything else raises
:class:`~repro.engine.transport.TransportError` before a byte ships.

Output is bit-identical to the single-process engine (the equivalence
tests pin this); what sharding buys is CPU scale-out — each worker burns
its own core.  On a single-core host the process hop is overhead, so
expect speedups only when ``workers`` ≤ available cores; the fleet
benchmark records both regimes honestly.

``compressor_factory`` must be picklable (a module-level function or a
``functools.partial`` over one), since it is shipped to the workers once at
start-up.

Crash supervision
-----------------

A worker process can die mid-stream (OOM kill, a segfault in a native
extension, an operator's ``kill -9``).  The engine always *detects* that
— a broken pipe or an EOF on the reply channel surfaces as a typed
:class:`ShardCrashError` naming the shard, its exit code, and the device
ids routed to it — and can optionally *survive* it: with ``journal_dir``
every worker journals its accepted batches to a per-shard
:class:`~repro.engine.journal.FixJournal`, and ``restart_workers=N``
allows up to N restarts per shard, where the parent respawns the worker,
the worker rebuilds its pre-crash state by replaying its shard journal
(``StreamEngine.recover``), and the parent re-drives the batches the
dead worker never journaled from its pending-acknowledgement buffer.
Frames are sequence-numbered and acknowledged after they are journaled,
so the buffer stays small and the re-drive is exact: no acknowledged fix
lost, none applied twice.  Every frame is one journal record, the pending
buffer holds the encoded frame bytes, and a respawn resets the ring and
re-writes the unacknowledged tail.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from typing import Callable, Dict, Iterable, List, Sequence

from ..model.trajectory import CompressedTrajectory
from .core import (
    DeviceId,
    Fix,
    StreamEngine,
    group_fix_columns,
    group_fix_stream,
)
from .sanitize import FeedReport, SanitizePolicy
from .transport import (
    FRAME_HEADER_BYTES,
    MIN_RING_BYTES,
    RingReader,
    RingWriter,
    TransportError,
    encode_payloads,
)

__all__ = [
    "ShardCrashError",
    "ShardedStreamEngine",
    "TransportError",
    "shard_of",
]

#: Cap on retained per-frame ack-latency samples (enough for any bench
#: run; pathological frame counts stop sampling, not ingesting).
_MAX_LATENCY_SAMPLES = 65536


class ShardCrashError(RuntimeError):
    """A shard worker died mid-ingest (and could not be restarted).

    Subclasses ``RuntimeError`` so existing ``except RuntimeError``
    handling keeps working; the message always starts with ``"sharded
    ingestion failed: "``.

    Attributes:
        shard: index of the dead worker.
        exitcode: the worker process's exit code (negative = killed by
            that signal), or ``None`` if it could not be reaped.
        device_ids: the device ids routed to that shard this run — the
            devices whose unsealed streams the crash affected.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        exitcode: int | None = None,
        device_ids: tuple = (),
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode
        self.device_ids = device_ids


def shard_of(device_id: DeviceId, workers: int) -> int:
    """Stable shard index of a device (crc32, not ``hash``: the builtin is
    salted per process and would re-shard devices on every restart)."""
    if isinstance(device_id, bytes):
        payload = device_id
    else:
        payload = str(device_id).encode("utf-8", "surrogatepass")
    return zlib.crc32(payload) % workers


def _shard_journal_path(journal_dir, shard: int) -> str:
    return os.path.join(os.fspath(journal_dir), f"shard-{shard:04d}")


class _ShardStats:
    """Per-shard transport counters (parent-side, cheap to update)."""

    __slots__ = (
        "frames",
        "fixes",
        "bytes",
        "acks",
        "ring_waits",
        "window_waits",
        "ack_wait_seconds",
        "max_in_flight",
        "ack_lat",
    )

    def __init__(self) -> None:
        self.frames = 0
        self.fixes = 0
        self.bytes = 0
        self.acks = 0
        self.ring_waits = 0
        self.window_waits = 0
        self.ack_wait_seconds = 0.0
        self.max_in_flight = 0
        self.ack_lat: List[float] = []


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[int(q * (len(sorted_values) - 1))]


def _worker_main(
    conn,
    compressor_factory,
    engine_kwargs,
    sink_factory,
    shard,
    geodetic,
    ring_name,
    journal_dir=None,
    journal_fsync=False,
    supervised=False,
    recover=False,
) -> None:
    """Worker loop: apply ring frames, answer ``finish`` with results.

    On an ingestion error the worker reports once, then keeps acking
    doorbells (discarding their frames) so the parent never blocks on a
    full ring; the error is re-raised parent-side at ``finish_all``.

    When a ``sink_factory`` is configured, the worker owns its shard's
    sink: built here (sinks — a store handle, a socket — generally cannot
    cross a process boundary, but a factory can), fed every sealed stream
    through the engine, and closed after ``finish`` so buffered output is
    durable before the parent sees the results.

    With ``geodetic``, the worker hosts a :class:`~repro.engine.geodetic.
    GeoStreamEngine`: the pushed coordinate columns are degrees, each
    device's UTM zone is selected worker-side from its first fix, and the
    projection work parallelizes with the compression.  Both engines share
    the ``push_columns`` / ``push_grouped`` shapes, so the message
    protocol is engine-agnostic.

    Message tags: ``frame`` names a region of the shared ring that is
    decoded in place and fed through ``push_grouped``; every ``frame`` is
    acknowledged with ``("ack", seq)`` once applied (after its journal
    frame landed, when journaling) — the ack releases the parent's ring
    space and, under supervision, prunes the pending re-drive buffer.

    With ``journal_dir`` the worker's engine journals into its own
    per-shard directory.  With ``supervised`` the worker opens with
    ``("ready", journal_seq)`` (after replaying the shard journal when
    ``recover``) — the parent maps its frame seqs onto journal seqs with
    it, prunes its pending buffer on acks, and re-drives the
    unacknowledged tail after a respawn.
    """
    failure: str | None = None
    sink = None
    engine = None
    reader = None
    try:
        if sink_factory is not None:
            sink = sink_factory(shard)
        if geodetic:
            from .geodetic import GeoStreamEngine as engine_cls
        else:
            engine_cls = StreamEngine
        if journal_dir is not None:
            journal_path = _shard_journal_path(journal_dir, shard)
            if recover:
                # The shard's own durable store (when its sink is one)
                # closes the emit-before-checkpoint window during replay.
                dedupe = (
                    getattr(sink, "store", None)
                    if getattr(sink, "durable", False)
                    else None
                )
                engine = engine_cls.recover(
                    journal_path,
                    compressor_factory,
                    sink=sink,
                    dedupe_store=dedupe,
                    journal_fsync=journal_fsync,
                    **engine_kwargs,
                )
            else:
                engine = engine_cls(
                    compressor_factory,
                    sink=sink,
                    journal=journal_path,
                    journal_fsync=journal_fsync,
                    **engine_kwargs,
                )
        else:
            engine = engine_cls(compressor_factory, sink=sink, **engine_kwargs)
        reader = RingReader(ring_name)
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
        engine = None
    try:
        if supervised:
            base = 0
            if engine is not None and engine.journal is not None:
                base = engine.journal.last_seq
            conn.send(("ready", base))
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "frame":
                seq, offset, length = message[1], message[2], message[3]
                if failure is None:
                    try:
                        groups = reader.read(seq, offset, length)
                        engine.push_grouped(groups)
                    except Exception as exc:  # reported at finish, not fatal
                        failure = f"{type(exc).__name__}: {exc}"
                # Always acked, after the journal frame landed (the engine
                # journals write-ahead, so even a frame that raised
                # mid-ingest is journaled before the error) — and even
                # after a failure, since the parent's ring accounting
                # needs the space back.
                conn.send(("ack", seq))
            elif tag == "finish":
                if failure is None:
                    try:
                        results = engine.finish_all()
                        reports = engine.device_feed_reports()
                        if sink is not None:
                            sink.close()
                            sink = None
                    except Exception as exc:
                        failure = f"{type(exc).__name__}: {exc}"
                if failure is not None:
                    conn.send(("error", failure))
                else:
                    # Devices are disjoint across shards, so the parent
                    # can merge both mappings with plain dict updates.
                    conn.send(("ok", results, reports))
                return
            else:
                conn.send(("error", f"unknown message tag {tag!r}"))
                return
    except EOFError:
        pass
    finally:
        if reader is not None:
            reader.close()
        if sink is not None:
            try:
                sink.close()
            except Exception:
                pass
        conn.close()


class ShardedStreamEngine:
    """Fan a fleet of device streams out over worker processes.

    Accepts the same batch shapes as :class:`StreamEngine` and produces the
    same results; ``max_devices`` / ``idle_timeout`` policies apply *per
    shard*.  Sealed streams can flow to per-shard sinks: ``sink_factory``
    (picklable, called as ``sink_factory(shard_index)`` inside each worker)
    builds one :class:`~repro.engine.sinks.Sink` per worker — e.g. one
    :class:`~repro.storage.store.StoreSink` over a per-shard store
    directory, since the store is single-writer.  With ``geodetic=True``
    each worker hosts a :class:`~repro.engine.geodetic.GeoStreamEngine`
    instead: the pushed coordinate columns are interpreted as latitude /
    longitude degrees, each device's UTM zone is selected worker-side from
    its first fix, and sealed trajectories come back zone-stamped.  With
    ``collect=False``
    the workers retain no sealed state and :meth:`finish_all` merges empty
    ledgers — the sinks are then the only output path.  One behavioural
    difference from the in-process engine: this engine is one-shot — its
    workers exit at :meth:`finish_all`, so pushing afterwards raises
    ``RuntimeError`` (the in-process engine treats ``finish_all`` as a
    checkpoint and keeps accepting batches), and so does pushing after
    :meth:`close`.  Use as a context manager, or call :meth:`finish_all` /
    :meth:`close` explicitly.

    Frames cross per-worker shared-memory rings of ``ring_bytes`` each,
    with up to ``ack_window`` frames in flight per shard (see the module
    docstring); ``transport`` names that data plane and accepts only
    ``"shm"``.  Device ids must be str, int or bytes — the same contract
    the write-ahead journal imposes — and an id that cannot cross the ring
    (another type, or one too long to fit a one-fix frame in
    ``ring_bytes``) raises :class:`TransportError` before the push ships
    anything.  One caveat: a single batch larger than ``ring_bytes`` is
    split into several frames, and each frame is its own engine push,
    which batch-boundary policies (``idle_timeout``) observe.  Size the
    ring above the batch size (the defaults are comfortable) if that
    matters.

    ``journal_dir`` makes every worker journal its accepted batches into
    ``journal_dir/shard-%04d`` (see :class:`~repro.engine.journal.
    FixJournal`); ``journal_fsync`` extends the durability to power loss.
    ``restart_workers=N`` additionally *supervises* the shards: a worker
    that dies mid-ingest is respawned (up to N times per shard), replays
    its shard journal to rebuild its pre-crash state, and the parent
    re-drives the batches the dead worker never acknowledged.  A crash
    past the restart budget — or any crash when supervision is off —
    raises :class:`ShardCrashError` naming the shard, its exit code, and
    the devices routed to it.
    """

    def __init__(
        self,
        compressor_factory: Callable[[DeviceId], object],
        workers: int = 2,
        *,
        max_devices: int | None = None,
        idle_timeout: float | None = None,
        collect: bool = True,
        sink_factory: Callable[[int], object] | None = None,
        geodetic: bool = False,
        policy: SanitizePolicy | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        journal_dir: str | os.PathLike | None = None,
        journal_fsync: bool = False,
        restart_workers: int = 0,
        transport: str = "shm",
        ring_bytes: int = 4 << 20,
        ack_window: int = 32,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if restart_workers < 0:
            raise ValueError(
                f"restart_workers must be >= 0, got {restart_workers!r}"
            )
        if restart_workers and journal_dir is None:
            raise ValueError(
                "restart_workers requires journal_dir: a respawned worker "
                "rebuilds its state from its shard journal"
            )
        if transport != "shm":
            raise ValueError(
                f"transport must be 'shm' (the only data plane), got {transport!r}"
            )
        if ring_bytes < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes!r}"
            )
        if ack_window < 1:
            raise ValueError(f"ack_window must be >= 1, got {ack_window!r}")
        ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        # SanitizePolicy is a frozen scalar dataclass, so it ships to the
        # workers in the start-up pickle like the compressor factory.
        engine_kwargs = {
            "max_devices": max_devices,
            "idle_timeout": idle_timeout,
            "collect": collect,
            "policy": policy,
        }
        self.workers = workers
        self._ack_window = ack_window
        self._conns = []
        self._procs = []
        self._finished = False
        #: Per-device sanitation ledgers, merged from the workers at
        #: :meth:`finish_all` (empty before it, and without a policy).
        self._device_reports: Dict[DeviceId, FeedReport] = {}
        self._supervised = restart_workers > 0
        self._restart_budget = restart_workers
        self._restarts = [0] * workers
        #: Everything a respawn needs to rebuild a worker.
        self._spawn_args = (
            compressor_factory,
            engine_kwargs,
            sink_factory,
            geodetic,
            journal_dir,
            journal_fsync,
        )
        self._ctx = ctx
        #: Device ids routed to each shard this run (the blast radius a
        #: :class:`ShardCrashError` reports).
        self._shard_devices: List[set] = [set() for _ in range(workers)]
        #: device id → shard index, filled on first sight: crc32 hashing
        #: (and id encoding) happens once per device, not once per batch.
        #: Bounded by the number of distinct devices pushed.
        self._route: Dict[DeviceId, int] = {}
        self._id_cache: Dict[DeviceId, bytes] = {}
        #: Per-shard frame sequence (acks drive the ring accounting), the
        #: unacknowledged frames (seq → frame bytes, insertion-ordered;
        #: supervised mode only), and the journal seq each worker started
        #: from (maps parent seq ↔ journal seq).
        self._seq = [0] * workers
        self._pending: List[Dict[int, tuple]] | None = (
            [{} for _ in range(workers)] if self._supervised else None
        )
        self._shard_base = [0] * workers
        self._rings: List[RingWriter] = []
        self._stats = [_ShardStats() for _ in range(workers)]
        self._send_times: List[Dict[int, float]] = [
            {} for _ in range(workers)
        ]
        try:
            for shard in range(workers):
                self._rings.append(RingWriter(ring_bytes))
            for shard in range(workers):
                self._conns.append(None)
                self._procs.append(None)
                self._spawn_worker(shard, recover=False)
            if self._supervised:
                for shard in range(workers):
                    self._shard_base[shard] = self._handshake(shard)
        except Exception:
            self.close()
            raise

    def _spawn_worker(self, shard: int, *, recover: bool) -> None:
        (
            compressor_factory,
            engine_kwargs,
            sink_factory,
            geodetic,
            journal_dir,
            journal_fsync,
        ) = self._spawn_args
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                compressor_factory,
                engine_kwargs,
                sink_factory,
                shard,
                geodetic,
                self._rings[shard].name,
                journal_dir,
                journal_fsync,
                self._supervised,
                recover,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc

    def _handshake(self, shard: int) -> int:
        """Receive a supervised worker's ``("ready", journal_seq)``."""
        try:
            tag, base = self._conns[shard].recv()
        except (EOFError, OSError) as exc:
            raise self._crash_error(shard, cause=exc) from exc
        if tag != "ready":
            # A garbled handshake means the worker (or its pipe) cannot be
            # trusted — same blast radius as a crash.
            raise ShardCrashError(
                f"sharded ingestion failed: worker {shard} sent "
                f"{tag!r} instead of the ready handshake",
                shard=shard,
                device_ids=tuple(sorted(self._shard_devices[shard], key=str)),
            )
        return base

    def _crash_error(self, shard: int, cause=None) -> ShardCrashError:
        proc = self._procs[shard]
        exitcode = None
        if proc is not None:
            proc.join(timeout=5.0)
            exitcode = proc.exitcode
        devices = sorted(self._shard_devices[shard], key=str)
        sample = ", ".join(repr(d) for d in devices[:8])
        if len(devices) > 8:
            sample += f", ... ({len(devices) - 8} more)"
        detail = f" after {cause!r}" if cause is not None else ""
        return ShardCrashError(
            f"sharded ingestion failed: worker {shard} died "
            f"(exitcode {exitcode}){detail}; "
            f"{len(devices)} device(s) routed to it: [{sample}]",
            shard=shard,
            exitcode=exitcode,
            device_ids=tuple(devices),
        )

    # -- ingestion -----------------------------------------------------------

    def push_batch(self, fixes: Iterable[Fix]) -> int:
        """Route an interleaved ``(device_id, t, x, y)`` batch to the shards.

        Groups per device in one pass, the same way
        :meth:`StreamEngine.push_batch` does, so each worker receives its
        devices' columns ready to ingest.
        """
        self._ensure_not_finished()
        groups = group_fix_stream(fixes)
        self._send_frames(groups)
        return sum(len(cols[0]) for cols in groups.values())

    def push_columns(
        self,
        device_ids: Sequence[DeviceId],
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Route a columnar interleaved batch to the shards."""
        self._ensure_not_finished()
        self._send_frames(group_fix_columns(device_ids, ts, xs, ys))
        return len(device_ids)

    def _ensure_not_finished(self) -> None:
        if self._finished:
            # Use-after-finish is caller lifecycle misuse (a bug in the
            # calling code), not a data-plane failure a caller should
            # route on — a deliberately untyped error.
            # repro: ignore[RA04] lifecycle misuse by the caller, not a routable data-plane failure
            raise RuntimeError(
                "sharded engine is closed: finish_all() or close() already called"
            )

    # -- ring data plane -----------------------------------------------------

    def _send_frames(self, groups: Dict[DeviceId, tuple]) -> None:
        """Route per-device ``(ts, xs, ys)`` groups to their shards and
        ship each shard's frames through its ring.

        Every shard's frames are encoded before the first one ships, so a
        device id that cannot cross the ring (:class:`TransportError`)
        rejects the whole push with nothing shipped or accounted.
        """
        workers = self.workers
        route = self._route
        shards: Dict[int, Dict[DeviceId, tuple]] = {}
        for device_id, cols in groups.items():
            shard = route.get(device_id)
            if shard is None:
                shard = route[device_id] = shard_of(device_id, workers)
                self._shard_devices[shard].add(device_id)
            shards.setdefault(shard, {})[device_id] = cols
        max_payload = self._rings[0].max_payload
        encoded = []
        for shard, shard_groups in shards.items():
            payloads = encode_payloads(shard_groups, max_payload, self._id_cache)
            n_fixes = sum(len(cols[0]) for cols in shard_groups.values())
            encoded.append((shard, payloads, n_fixes))
        for shard in range(workers):
            self._drain_queued_acks(shard)
        for shard, payloads, n_fixes in encoded:
            self._stats[shard].fixes += n_fixes
            for payload in payloads:
                seq = self._seq[shard] + 1
                self._seq[shard] = seq
                if self._pending is not None:
                    self._pending[shard][seq] = payload
                self._write_and_doorbell(shard, seq, payload)

    def _write_and_doorbell(self, shard: int, seq: int, payload) -> None:
        """Write one frame into the shard's ring (blocking on acks for ring
        or window space) and ring the doorbell.

        If a supervised restart fires while waiting, the restart has
        already re-driven every pending frame — this one included — so
        the method returns without shipping a duplicate.
        """
        ring = self._rings[shard]
        stats = self._stats[shard]
        epoch = self._restarts[shard]
        while True:
            if ring.in_flight >= self._ack_window:
                stats.window_waits += 1
                self._await_ack(shard)
            else:
                offset = ring.try_write(seq, payload)
                if offset is not None:
                    break
                stats.ring_waits += 1
                self._await_ack(shard)
            if self._restarts[shard] != epoch:
                return
        stats.frames += 1
        stats.bytes += FRAME_HEADER_BYTES + len(payload)
        if ring.in_flight > stats.max_in_flight:
            stats.max_in_flight = ring.in_flight
        self._send_times[shard][seq] = time.perf_counter()
        try:
            self._conns[shard].send(
                ("frame", seq, offset, FRAME_HEADER_BYTES + len(payload))
            )
        except (BrokenPipeError, OSError):
            self._restart_shard(shard)

    def _await_ack(self, shard: int) -> None:
        """Block until the shard acknowledges a frame (or dies, in which
        case the supervised path restarts it and the unsupervised path
        raises :class:`ShardCrashError`)."""
        conn = self._conns[shard]
        t0 = time.perf_counter()
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._restart_shard(shard)
            return
        self._stats[shard].ack_wait_seconds += time.perf_counter() - t0
        if message[0] == "ack":
            self._on_ack(shard, message[1])

    # -- acks and supervision ------------------------------------------------

    def _on_ack(self, shard: int, seq: int) -> None:
        """One ack: free ring space, prune pending, record latency."""
        stats = self._stats[shard]
        stats.acks += 1
        self._rings[shard].release(seq)
        if self._pending is not None:
            self._pending[shard].pop(seq, None)
        sent = self._send_times[shard].pop(seq, None)
        if sent is not None and len(stats.ack_lat) < _MAX_LATENCY_SAMPLES:
            stats.ack_lat.append(time.perf_counter() - sent)

    def _drain_queued_acks(self, shard: int) -> None:
        """Apply any queued acks without blocking."""
        conn = self._conns[shard]
        try:
            while conn.poll(0):
                message = conn.recv()
                if message[0] == "ack":
                    self._on_ack(shard, message[1])
        except (EOFError, OSError):
            self._restart_shard(shard)

    def _restart_shard(self, shard: int) -> None:
        """Respawn a dead worker and re-drive its unacknowledged frames.

        Raises the :class:`ShardCrashError` instead when supervision is
        off or the shard's restart budget is spent.
        """
        proc = self._procs[shard]
        if proc is not None and proc.is_alive():
            # The pipe broke but the process lives (wedged worker): a
            # restart would fork a competitor for its journal and sink.
            proc.terminate()
        if not self._supervised or self._restarts[shard] >= self._restart_budget:
            raise self._crash_error(shard)
        if proc is not None:
            proc.join(timeout=5.0)  # reap the corpse before respawning
        self._restarts[shard] += 1
        try:
            self._conns[shard].close()
        except OSError:
            pass
        # The ring's unacked contents died with the worker; pending frames
        # are re-written below, so the ring restarts empty.
        self._rings[shard].reset()
        self._send_times[shard].clear()
        self._spawn_worker(shard, recover=True)
        journal_seq = self._handshake(shard)
        delivered = journal_seq - self._shard_base[shard]
        pending = self._pending[shard]
        for seq in [s for s in pending if s <= delivered]:
            del pending[seq]
        epoch = self._restarts[shard]
        for seq, payload in sorted(pending.items()):
            self._write_and_doorbell(shard, seq, payload)
            if self._restarts[shard] != epoch:
                return  # a nested restart re-drove the rest

    # -- lifecycle -----------------------------------------------------------

    def finish_all(self) -> Dict[DeviceId, List[CompressedTrajectory]]:
        """Seal every stream on every worker and merge their results.

        Raises :class:`ShardCrashError` if a worker died (and, under
        supervision, could not be restarted within budget), or a plain
        ``RuntimeError`` carrying the first worker-side ingestion error.
        Healthy shards' results are still merged before the raise is
        decided, and the workers are torn down either way.
        """
        self._ensure_not_finished()
        self._finished = True
        merged: Dict[DeviceId, List[CompressedTrajectory]] = {}
        errors: List[str] = []
        crash: ShardCrashError | None = None
        try:
            for shard in range(self.workers):
                try:
                    reply = self._finish_shard(shard)
                except ShardCrashError as exc:
                    # Keep the healthy shards' results and report the
                    # casualty after every shard had its chance.
                    if crash is None:
                        crash = exc
                    continue
                if reply[0] == "ok":
                    # device ↛ two shards: both mappings' keys disjoint
                    merged.update(reply[1])
                    self._device_reports.update(reply[2])
                else:
                    errors.append(reply[1])
        finally:
            self.close()
        if crash is not None:
            raise crash
        if errors:
            # The worker is alive and drained — this is not a crash, and
            # the docstring promises a *plain* RuntimeError for worker-side
            # ingestion errors (the message carries the worker's own typed
            # error text).  ShardCrashError would claim a dead shard.
            # repro: ignore[RA04] documented plain-RuntimeError contract for live-worker ingest errors
            raise RuntimeError(f"sharded ingestion failed: {errors[0]}")
        return merged

    def _finish_shard(self, shard: int):
        """Send ``finish`` to one shard and return its final reply,
        restarting the worker (within budget) if it dies on the way."""
        while True:
            conn = self._conns[shard]
            try:
                conn.send(("finish",))
                while True:
                    reply = conn.recv()
                    if reply[0] == "ack":
                        self._on_ack(shard, reply[1])
                        continue
                    return reply
            except (BrokenPipeError, EOFError, OSError):
                # Raises ShardCrashError when restarting is not allowed;
                # otherwise the worker is rebuilt from its journal and
                # the loop re-sends the finish.
                self._restart_shard(shard)

    def transport_stats(self) -> List[dict]:
        """Per-shard data-plane counters (valid after :meth:`finish_all`,
        and live during ingest).

        Each shard reports ``frames`` shipped, ``fixes`` routed,
        ``utilization`` (this shard's share of all routed fixes — the
        load-balance view), ``restarts``, ``acks`` plus send-to-ack
        latency percentiles in microseconds, and ring accounting:
        ``bytes`` through the ring, ``max_in_flight`` frames, and how
        often the parent blocked on a full ring (``ring_waits``) or an
        exhausted ack window (``window_waits``), with the total blocked
        wall in ``ack_wait_seconds``.  ``transport`` is always ``"shm"``.
        """
        total_fixes = sum(s.fixes for s in self._stats)
        out = []
        for shard, s in enumerate(self._stats):
            lat = sorted(s.ack_lat)
            out.append(
                {
                    "shard": shard,
                    "transport": "shm",
                    "frames": s.frames,
                    "fixes": s.fixes,
                    "bytes": s.bytes,
                    "acks": s.acks,
                    "max_in_flight": s.max_in_flight,
                    "ring_waits": s.ring_waits,
                    "window_waits": s.window_waits,
                    "ack_wait_seconds": round(s.ack_wait_seconds, 6),
                    "restarts": self._restarts[shard],
                    "utilization": (
                        round(s.fixes / total_fixes, 4) if total_fixes else 0.0
                    ),
                    "ack_us_p50": round(_percentile(lat, 0.5) * 1e6, 1),
                    "ack_us_p99": round(_percentile(lat, 0.99) * 1e6, 1),
                }
            )
        return out

    def feed_report(self) -> FeedReport:
        """The fleet-wide sanitation ledger, merged across every shard.

        Populated by :meth:`finish_all` (the workers own the counters
        until they seal); empty before it, and without a policy.
        """
        report = FeedReport()
        for device_report in self._device_reports.values():
            report = report.merged(device_report)
        return report

    def device_feed_reports(self) -> Dict[DeviceId, FeedReport]:
        """Per-device ledgers merged at :meth:`finish_all` (see above)."""
        return dict(self._device_reports)

    def close(self) -> None:
        """Tear the workers down (idempotent; called by ``finish_all``).

        The engine is finished afterwards: a later push or
        :meth:`finish_all` raises ``RuntimeError``.
        """
        self._finished = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self._conns = []
        self._procs = []
        for ring in self._rings:
            ring.close(unlink=True)
        self._rings = []

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
