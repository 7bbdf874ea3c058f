"""GPS-native ingestion: the geodetic front-end over the stream engine.

The paper builds every BQS in a *UTM-projected* frame (Section V-A), but
real traffic arrives as ``(device_id, t, lat, lon)`` fixes.
:class:`GeoStreamEngine` closes that gap: it accepts geodetic batches in
the same interleaved shapes :class:`~repro.engine.core.StreamEngine`
accepts planar ones, auto-selects each device's UTM zone from its **first
fix** (:meth:`UTMProjection.for_coordinate` — the standard convention for
single-deployment trajectory datasets), projects each device's columns in
bulk through the vectorized ``forward_columns`` path (no
``LocationPoint`` / ``PlanePoint`` objects per fix — the zero-object
ingestion path stays zero-object), and feeds the projected columns to an
inner :class:`StreamEngine`.

**Zone stamping.**  When a stream is sealed — explicitly or by an
eviction policy — the front-end stamps the device's
:class:`~repro.model.projection.UTMProjection` onto the trajectory's
``frame`` field before it reaches any sink, ledger or callback.  The
storage layer reads that frame: :class:`~repro.storage.store.StoreSink` /
:func:`~repro.storage.codec.encode_trajectory` write the UTM
zone/hemisphere into every blob header, so a store built from GPS traffic
answers lat/lon queries (:func:`repro.storage.query.geo_range_query`)
without out-of-band context.

A sealed device's projection is forgotten with its stream: a device that
reappears after eviction re-selects its zone from its new first fix, the
geodetic mirror of the engine's fresh-compressor semantics (a vehicle
evicted in zone 32 may well wake up in zone 33).  A device that *crosses*
a zone boundary mid-stream keeps its first fix's frame by default — UTM
projects consistently outside the nominal strip, so the plane stays
continuous.  With a :class:`~repro.engine.sanitize.SanitizePolicy` whose
``split_zones`` is on, the front-end instead **splits at the boundary**:
the stream is sealed in the old frame (stamped with its zone like any
seal) and reopened in the new zone selected from the first fix past the
boundary, with ``zone_margin_deg`` of hysteresis so a device straddling
the boundary does not shatter its track into per-fix trajectories.

For multi-core scale-out, :class:`~repro.engine.sharded.
ShardedStreamEngine` accepts ``geodetic=True`` and builds one
``GeoStreamEngine`` per worker — lat/lon columns cross the ring and the
projection work parallelizes with the compression.

Latitude/longitude are validated **at this boundary** (finite, |lat| ≤
90°, |lon| ≤ 180°): without a policy an invalid fix raises
:class:`~repro.engine.core.BatchIngestError` naming the device and fix
index *before* any of the batch is dispatched (instead of a bare ``math
domain error`` from deep inside the projection); with a policy invalid
fixes are dropped and charged to the device's feed ledger.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import replace
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from ..compression.base import StreamingCompressor
from ..model.projection import UTMProjection, utm_zone_for
from ..model.trajectory import CompressedTrajectory
from .core import (
    BatchIngestError,
    DeviceId,
    StreamEngine,
    group_fix_columns,
    group_fix_stream,
)
from .journal import EmitGate, FixJournal, RecoveryReport
from .sanitize import (
    SPLIT_ZONE,
    FeedReport,
    SanitizePolicy,
    filter_geo_columns,
    first_invalid_geo,
)
from .sinks import CallbackSink, ListSink, Sink

__all__ = ["GeoStreamEngine", "GeoFix"]

GeoFix = Tuple[DeviceId, float, float, float]  #: ``(device_id, t, lat, lon)``


def _stamped(
    trajectory: CompressedTrajectory, projection: UTMProjection | None
) -> CompressedTrajectory:
    """The trajectory with ``frame`` set (cheap field rebuild, no copy of
    the key-point tuple)."""
    if projection is None or trajectory.frame is projection:
        return trajectory
    return replace(trajectory, frame=projection)


def _zone_cuts(
    lats: Sequence[float],
    lons: Sequence[float],
    projection: UTMProjection,
    margin: float,
) -> List[int] | None:
    """Indices where a device's columns exit their current UTM frame.

    A fix cuts only when it is *both* outside the frame's nominal 6°
    longitude strip widened by ``margin`` degrees of hysteresis *and*
    assigned a different zone by :func:`utm_zone_for` (which honours the
    Norway/Svalbard exceptions, so a zone-32V widening never splits).
    Later fixes are judged against the frame opened at the previous cut.
    Returns ``None`` on the no-split fast path — the whole batch stays
    inside the widened strip, decided by two C-speed column scans.
    """
    west = projection.zone * 6.0 - 186.0
    east = west + 6.0
    if min(lons) >= west - margin and max(lons) <= east + margin:
        return None
    zone = projection.zone
    cuts: List[int] = []
    for i in range(len(lons)):
        lon = lons[i]
        if west - margin <= lon <= east + margin:
            continue
        new_zone = utm_zone_for(lats[i], lon)
        if new_zone == zone:
            continue
        cuts.append(i)
        zone = new_zone
        west = zone * 6.0 - 186.0
        east = west + 6.0
    return cuts or None


class _FrameStampSink:
    """Inner-engine sink: stamp the device's UTM frame, fan out, forget.

    Sits between the inner :class:`StreamEngine` and the caller-facing
    sinks so *every* seal path — ``finish_device``, ``finish_all``, LRU
    and idle evictions, and the policy path's gap/teleport splits —
    delivers zone-stamped trajectories.  The projection is popped only
    when the device's stream is actually closed (keeping the registry
    bounded by *open* streams and making a reappearing device re-select
    its zone); a mid-stream split emits with the device still open, and
    the frame must survive for the sub-trajectories that follow.
    """

    __slots__ = ("_projections", "_sinks", "_gate", "is_open")

    def __init__(
        self,
        projections: Dict[DeviceId, UTMProjection],
        sinks: Sequence[Sink],
        gate: EmitGate,
    ) -> None:
        self._projections = projections
        self._sinks = tuple(sinks)
        #: The geodetic front-end's emit gate: seals are checkpointed in
        #: (and, during recovery, suppressed against) the *geodetic*
        #: journal, after stamping — the inner engine has no journal.
        self._gate = gate
        #: The inner engine's ``is_open`` — assigned right after that
        #: engine is constructed (it takes this sink as an argument).
        self.is_open: Callable[[DeviceId], bool] | None = None

    def emit(
        self, device_id: Hashable, trajectory: CompressedTrajectory
    ) -> None:
        if self.is_open is not None and self.is_open(device_id):
            projection = self._projections.get(device_id)
        else:
            projection = self._projections.pop(device_id, None)
        stamped = _stamped(trajectory, projection)
        self._gate.deliver(device_id, stamped, self._sinks)

    def close(self) -> None:
        pass


class GeoStreamEngine:
    """Multiplex GPS device streams: project per device, compress, stamp.

    Mirrors the :class:`~repro.engine.core.StreamEngine` constructor and
    batch interface, with columns in **degrees** (``lats``/``lons``
    replacing ``xs``/``ys``) — so the sharded engine's workers can host
    either engine behind the same message protocol.

    Args:
        compressor_factory: ``factory(device_id) -> StreamingCompressor``,
            exactly as for :class:`StreamEngine`.
        max_devices / idle_timeout: the inner engine's bounded-memory
            policies, unchanged.
        on_finish: ``(device_id, trajectory)`` callback; receives
            zone-stamped trajectories.
        collect: keep stamped trajectories in :attr:`results`.
        sink: any :class:`~repro.engine.sinks.Sink`; receives every
            stamped sealed stream, evictions included.
        policy: a :class:`~repro.engine.sanitize.SanitizePolicy` enables
            the feed sanitizer exactly as for :class:`StreamEngine`, plus
            the geodetic-only behaviours: invalid lat/lon fixes are
            dropped (instead of failing the batch) and, with
            ``split_zones`` on, a device crossing a UTM zone boundary is
            sealed in its old frame and reopened in the new.
    """

    def __init__(
        self,
        compressor_factory: Callable[[DeviceId], StreamingCompressor],
        *,
        max_devices: int | None = None,
        idle_timeout: float | None = None,
        on_finish: Callable[[DeviceId, CompressedTrajectory], None] | None = None,
        collect: bool = True,
        sink: Sink | None = None,
        policy: SanitizePolicy | None = None,
        journal: FixJournal | str | os.PathLike | None = None,
        journal_fsync: bool = False,
    ) -> None:
        #: Open streams' UTM projections (device id -> zone frame chosen
        #: from the device's first fix); entries live exactly as long as
        #: the stream.
        self._projections: Dict[DeviceId, UTMProjection] = {}
        #: Stamped sealed trajectories per device, when ``collect`` is on.
        self.results: Dict[DeviceId, List[CompressedTrajectory]] = {}
        if journal is not None and not isinstance(journal, FixJournal):
            journal = FixJournal(journal, fsync=journal_fsync, geodetic=True)
        if journal is not None and not journal.geodetic:
            raise ValueError(
                "a planar journal cannot drive a GeoStreamEngine"
            )
        #: The geodetic write-ahead journal: raw lat/lon batches are
        #: journaled *before* validation or projection, so replay passes
        #: through the identical zone-selection and sanitation pipeline.
        self._journal = journal
        self._gate = EmitGate(journal)
        self.recovery: RecoveryReport | None = None
        sinks: List[Sink] = []
        if collect:
            sinks.append(ListSink(self.results))
        if on_finish is not None:
            sinks.append(CallbackSink(on_finish))
        if sink is not None:
            sinks.append(sink)
        stamp_sink = _FrameStampSink(self._projections, sinks, self._gate)
        self._engine = StreamEngine(
            compressor_factory,
            max_devices=max_devices,
            idle_timeout=idle_timeout,
            collect=False,
            sink=stamp_sink,
            policy=policy,
        )
        stamp_sink.is_open = self._engine.is_open
        self._policy = policy

    # -- introspection -------------------------------------------------------

    @property
    def active_devices(self) -> int:
        return self._engine.active_devices

    @property
    def total_fixes(self) -> int:
        return self._engine.total_fixes

    @property
    def sealed_trajectories(self) -> int:
        return self._engine.sealed_trajectories

    @property
    def evictions(self) -> int:
        return self._engine.evictions

    @property
    def clock(self) -> float:
        return self._engine.clock

    def device_ids(self) -> list[DeviceId]:
        return self._engine.device_ids()

    def projection_for(self, device_id: DeviceId) -> UTMProjection | None:
        """The UTM frame of an *open* stream (``None`` once sealed)."""
        return self._projections.get(device_id)

    @property
    def policy(self) -> SanitizePolicy | None:
        """The sanitization policy, or ``None`` on the trusted fast path."""
        return self._policy

    @property
    def journal(self) -> FixJournal | None:
        """The geodetic write-ahead journal, or ``None`` when not durable."""
        return self._journal

    def feed_report(self) -> FeedReport:
        """The merged sanitation ledger (boundary drops included)."""
        return self._engine.feed_report()

    def device_feed_reports(self) -> Dict[DeviceId, FeedReport]:
        """Per-device sanitation ledgers (empty without a policy)."""
        return self._engine.device_feed_reports()

    # -- ingestion -----------------------------------------------------------

    def push_fix(
        self, device_id: DeviceId, t: float, latitude: float, longitude: float
    ) -> None:
        """Fold a single GPS fix in (convenience; batches are the fast path)."""
        self.push_columns((device_id,), (t,), (latitude,), (longitude,))

    def push_batch(self, fixes: Iterable[GeoFix]) -> int:
        """Fold an interleaved ``(device_id, t, lat, lon)`` batch in."""
        return self._project_and_dispatch(group_fix_stream(fixes))

    def push_columns(
        self,
        device_ids: Sequence[DeviceId],
        ts: Sequence[float],
        lats: Sequence[float],
        lons: Sequence[float],
    ) -> int:
        """Fold a columnar interleaved geodetic batch in.

        Same shape as :meth:`StreamEngine.push_columns` with the
        coordinate columns in degrees; the zero-object GPS path end to
        end (group → pick/reuse zone → bulk-project → compress).
        """
        return self._project_and_dispatch(
            group_fix_columns(
                device_ids, ts, lats, lons, c1_name="lats", c2_name="lons"
            )
        )

    def push_grouped(
        self,
        groups: Dict[DeviceId, tuple],
    ) -> int:
        """Fold per-device ``(ts, lats, lons)`` degree columns in without
        regrouping (mirrors :meth:`StreamEngine.push_grouped`; the entry
        point for the sharded engine's ring frames, which arrive already
        device-grouped)."""
        for device_id, (ts, lats, lons) in groups.items():
            if not (len(ts) == len(lats) == len(lons)):
                raise ValueError(
                    f"column length mismatch for device {device_id!r}: "
                    f"ts={len(ts)}, lats={len(lats)}, lons={len(lons)}"
                )
        return self._project_and_dispatch(groups)

    def _project_and_dispatch(
        self, groups: Dict[DeviceId, tuple[array, array, array]]
    ) -> int:
        """Validate, project each device's columns in its frame, dispatch.

        Boundary validation comes first: without a policy one invalid
        lat/lon fails the *whole* batch (consumed = 0) with the device
        and index named; with a policy invalid fixes are dropped into the
        device's ledger before zone selection or projection sees them.
        With ``split_zones`` on, a device's columns are sliced at zone
        exits — the first slice dispatches batched with everyone else's,
        each continuation seals the old frame and reopens in the new.
        """
        if self._journal is not None and not self._gate.replaying:
            # Write-ahead at the geodetic boundary: raw degrees, before
            # validation or projection, so replay reproduces the whole
            # pipeline (zone selection included) bit for bit.
            self._journal.log_push(groups)
        projections = self._projections
        policy = self._policy
        engine = self._engine
        if policy is None:
            for device_id, (ts, lats, lons) in groups.items():
                bad = first_invalid_geo(lats, lons)
                if bad is not None:
                    index, reason, value = bad
                    raise BatchIngestError(
                        f"device {device_id!r}: fix {index}: {reason} "
                        f"coordinate {value!r} [batch consumed 0 fixes]",
                        device_id=device_id,
                        index=index,
                    )
        else:
            cleaned: Dict[DeviceId, tuple] = {}
            for device_id, (ts, lats, lons) in groups.items():
                ts, lats, lons = filter_geo_columns(
                    ts, lats, lons, engine._counters(device_id)
                )
                if len(ts):
                    cleaned[device_id] = (ts, lats, lons)
            groups = cleaned
        split_zones = policy is not None and policy.split_zones
        projected: Dict[DeviceId, tuple[array, array, array]] = {}
        batch_frames: Dict[DeviceId, UTMProjection] = {}
        continuations: List[tuple] = []
        for device_id, (ts, lats, lons) in groups.items():
            projection = projections.get(device_id)
            if projection is None:
                projection = UTMProjection.for_coordinate(lats[0], lons[0])
                projections[device_id] = projection
            batch_frames[device_id] = projection
            cuts = (
                _zone_cuts(lats, lons, projection, policy.zone_margin_deg)
                if split_zones
                else None
            )
            if not cuts:
                xs, ys = projection.forward_columns(lats, lons)
                projected[device_id] = (ts, xs, ys)
            else:
                first = cuts[0]
                xs, ys = projection.forward_columns(lats[:first], lons[:first])
                projected[device_id] = (ts[:first], xs, ys)
                bounds = list(cuts) + [len(ts)]
                continuations.append(
                    (
                        device_id,
                        [
                            (ts[s:e], lats[s:e], lons[s:e])
                            for s, e in zip(bounds, bounds[1:])
                        ],
                    )
                )
        consumed = 0
        try:
            consumed = engine.push_grouped(projected)
        finally:
            # Re-sync the registry with the inner engine's open streams —
            # dispatch can desync it in both directions:
            # * An eviction *inside* the dispatch (LRU cap hit by a new
            #   device, or the idle policy at batch end) pops the sealed
            #   stream's projection — but if fixes for that device later
            #   in the same batch reopened it, the reopened compressor
            #   already holds coordinates projected in the old frame; a
            #   later batch would select a fresh zone and stamp
            #   mixed-frame output.  Restore the batch's frame.
            # * A dispatch error (e.g. backwards timestamps in another
            #   device's group) can leave a newly-registered device with
            #   no opened stream; drop the entry so its zone is
            #   re-selected from the first fix actually ingested.  The
            #   policy path can also close a stream without an emit (an
            #   all-dropped device sealed empty), which the stamp sink
            #   never sees — prune every closed device so the registry
            #   stays bounded by open streams.
            for device_id, projection in batch_frames.items():
                if engine.is_open(device_id):
                    projections.setdefault(device_id, projection)
            for device_id in [
                d for d in projections if not engine.is_open(d)
            ]:
                del projections[device_id]
        # Continuation slices (zone splits): seal what the device has in
        # its old frame — the stamp sink delivers it zone-stamped like any
        # seal — then reopen in the zone of the first fix past the
        # boundary and dispatch the slice there.
        for device_id, slices in continuations:
            counters = engine._counters(device_id)
            for ts, lats, lons in slices:
                if engine.is_open(device_id):
                    sealed = engine.finish_device(device_id)
                    if sealed.original_count:
                        counters.split(SPLIT_ZONE)
                projection = UTMProjection.for_coordinate(lats[0], lons[0])
                projections[device_id] = projection
                xs, ys = projection.forward_columns(lats, lons)
                consumed += engine.push_grouped({device_id: (ts, xs, ys)})
                if not engine.is_open(device_id):
                    projections.pop(device_id, None)
        return consumed

    # -- sealing -------------------------------------------------------------

    def finish_device(self, device_id: DeviceId) -> CompressedTrajectory:
        """Seal one device's stream now; returns the stamped trajectory."""
        if (
            self._journal is not None
            and not self._gate.replaying
            and self._engine.is_open(device_id)
        ):
            self._journal.log_finish(device_id)
        projection = self._projections.get(device_id)
        try:
            return _stamped(self._engine.finish_device(device_id), projection)
        finally:
            # The stamp sink pops on emit, but the policy path suppresses
            # empty seals — drop the entry unconditionally so a reborn
            # device always re-selects its zone.
            self._projections.pop(device_id, None)

    def finish_all(self) -> Dict[DeviceId, List[CompressedTrajectory]]:
        """Seal every open stream; returns the stamped collected results.

        With a journal this is its quiesce point (see
        :meth:`StreamEngine.finish_all`): the journal rotates once every
        stream is sealed and checkpointed.
        """
        journal = None
        if self._journal is not None and not self._gate.replaying:
            journal = self._journal
            journal.log_finish_all()
        self._engine.finish_all()
        self._projections.clear()
        if journal is not None:
            journal.rotate()
        return self.results

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_dir: FixJournal | str | os.PathLike,
        compressor_factory: Callable[[DeviceId], StreamingCompressor],
        *,
        max_devices: int | None = None,
        idle_timeout: float | None = None,
        on_finish: Callable[[DeviceId, CompressedTrajectory], None] | None = None,
        collect: bool = True,
        sink: Sink | None = None,
        policy: SanitizePolicy | None = None,
        dedupe_store=None,
        journal_fsync: bool = False,
    ) -> "GeoStreamEngine":
        """Rebuild a geodetic engine's pre-crash state from its journal.

        The geodetic twin of :meth:`StreamEngine.recover`: the journal
        holds raw lat/lon batches, and replaying them through the same
        validation → zone-selection → projection → sanitation pipeline
        (with the same configuration) reproduces the crashed engine's
        state — projections registry included — exactly.  Already
        delivered seals are suppressed via the journal's checkpoints and,
        through ``dedupe_store``, the emit-before-checkpoint window.
        """
        journal = journal_dir
        if not isinstance(journal, FixJournal):
            journal = FixJournal(
                journal, fsync=journal_fsync, geodetic=True, keep_records=True
            )
        engine = cls(
            compressor_factory,
            max_devices=max_devices,
            idle_timeout=idle_timeout,
            on_finish=on_finish,
            collect=collect,
            sink=sink,
            policy=policy,
            journal=journal,
        )
        engine.recovery = engine._replay(dedupe_store)
        return engine

    def _replay(self, dedupe_store) -> RecoveryReport:
        journal = self._journal
        gate = self._gate
        gate.begin_replay(journal.seal_counts(), dedupe_store)
        batches = fixes = 0
        try:
            for record in journal.iter_records():
                kind = record[0]
                if kind == "push":
                    batches += 1
                    try:
                        fixes += self._project_and_dispatch(record[2])
                    except BatchIngestError:
                        # Same error, same point, same consumed prefix as
                        # the crashed run — the state already matches.
                        pass
                elif kind == "finish":
                    if self._engine.is_open(record[1]):
                        self.finish_device(record[1])
                else:  # finish_all
                    self.finish_all()
        finally:
            suppressed, deduped, reemitted = gate.end_replay()
        journal.drop_records()
        return RecoveryReport(
            last_seq=journal.last_seq,
            batches_replayed=batches,
            fixes_replayed=fixes,
            seals_suppressed=suppressed,
            seals_deduped=deduped,
            seals_reemitted=reemitted,
            damaged_bytes=journal.damaged_bytes,
            segments=len(journal.segments),
        )
