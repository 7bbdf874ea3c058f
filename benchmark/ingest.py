"""``fleet_ingest`` and ``sharded_ingest``: the whole write journey.

One raw-GPS fleet (devices on a shared clock, anchors on two UTM zone
boundaries, 2 m noise, trips split by one-hour silences, planted swaps,
duplicates and teleports) is fed in 4096-fix batches through

* ``fleet_ingest``: ``GeoStreamEngine`` with a sanitize policy, a journal and
  a ``StoreSink`` in one process - the only workload where sanitize, project,
  journal, compress, encode and append all sit on the blocking path;
* ``sharded_ingest``: the same through ``ShardedStreamEngine(workers=2,
  transport="shm", geodetic=True)`` with per-shard journals and stores - the
  only workload that runs the transport, and the one where compression
  leaves the parent's blocking path.

The timer of one unit runs from the first ``push_columns`` until
``finish_all()`` and the sink's ``close()`` have returned, that is until
everything is sealed and sidecar-indexed.
"""

from __future__ import annotations

import functools
import os
import resource
from time import perf_counter, perf_counter_ns

from repro import BQSCompressor, fsio
from repro.engine import (
    FeedSanitizer,
    GeoStreamEngine,
    SanitizePolicy,
    ShardedStreamEngine,
)
from repro.engine.core import group_fix_columns
from repro.engine.transport import decode_payload, encode_payloads
from repro.model.projection import UTMProjection
from repro.storage import (
    StoreSink,
    TrajectoryStore,
    decode_trajectory,
    encode_trajectory,
    shard_store_sink,
)

import gates
import gen
import metrics
from harness import OUT, dir_bytes, fastest_steps, step_percentile
from spans import CompressorProxy, CountingFS, Tracer, TracingJournal, TracingSink

EPS = gen.EPSILON_M
WORKERS = 2
#: The input is an eighth of the issue's sizing run, and at the engine's default
#: window of 32 frames all of it fits in flight, so the gateway would never
#: block.  Scaling the window by the same eighth keeps it back-pressured, as it
#: is in steady state on a long stream.
ACK_WINDOW = 4
RING_BYTES = 4 << 20  # the engine's default; sizes the standalone frames too
POLICY = SanitizePolicy(max_lateness=2, max_speed_mps=80, gap_seconds=600,
                        split_zones=True)


def bqs_factory(device_id):
    return BQSCompressor(EPS)


class Fleet:
    """The loaded input: arrival-order batches and the planted ground truth."""

    def __init__(self, directory):
        columns, meta = gen.load_columns(directory)
        names = [gen.device_name(i) for i in range(meta["truth"]["devices"])]
        ids = [names[i] for i in columns["ids"]]
        ts, lats, lons = columns["ts"], columns["lats"], columns["lons"]
        step = gen.BATCH_FIXES
        self.batches = [(ids[s:s + step], ts[s:s + step], lats[s:s + step],
                         lons[s:s + step]) for s in range(0, len(ids), step)]
        self.fixes = len(ids)
        self.truth = meta["truth"]


# -- one unit of work ----------------------------------------------------------


def _drive(engine, batches, close, tracer):
    """Push every batch, finish, ``close()``; returns ``(wall_s, steps)`` where
    the steps are the seconds each ``push_columns`` held the caller, then the
    seconds to finish and close.  With a tracer each call is a root span."""
    steps = []
    t0 = a = perf_counter()
    for seq, batch in enumerate(batches):
        if tracer is None:
            engine.push_columns(*batch)
        else:
            tracer.batch_seq = seq
            tracer.call("engine.push_columns", engine.push_columns, *batch)
        b = perf_counter()
        steps.append(b - a)
        a = b
    if tracer is None:
        engine.finish_all()
    else:
        tracer.batch_seq = -1
        tracer.call("engine.finish_all", engine.finish_all)
    close()
    b = perf_counter()
    steps.append(b - a)
    return b - t0, steps


def ingest_single(base, batches, *, factory=bqs_factory, tracer=None, keep=False):
    """One unit through a fresh single-process engine into ``base``; returns
    ``(wall_s, steps, engine, sink)``.  With a tracer, every seam the benchmark
    owns is spanned."""
    if tracer is None:
        sink = StoreSink(base / "store")
        journal = str(base / "wal")
    else:
        sink = TracingSink(StoreSink(base / "store"), tracer, keep)
        journal = TracingJournal(base / "wal", tracer, geodetic=True)
    engine = GeoStreamEngine(factory, collect=False, policy=POLICY, journal=journal,
                             journal_fsync=False, sink=sink)
    wall, steps = _drive(engine, batches, sink.close, tracer)
    engine.journal.close()
    return wall, steps, engine, sink


def ingest_sharded(base, batches, tracer=None):
    """One unit through two shm-transport workers; returns ``(wall_s, steps,
    engine)``.  ``finish_all`` returns once every worker has sealed and closed
    its sink.  The workers come from the engine's default multiprocessing
    context, as they do for any caller of the engine."""
    engine = ShardedStreamEngine(
        bqs_factory, workers=WORKERS, collect=False, geodetic=True, policy=POLICY,
        sink_factory=functools.partial(shard_store_sink, str(base / "store")),
        journal_dir=str(base / "wal"), journal_fsync=False, transport="shm",
        ring_bytes=RING_BYTES, ack_window=ACK_WINDOW)
    try:
        wall, steps = _drive(engine, batches, lambda: None, tracer)
    finally:
        engine.close()
    return wall, steps, engine


def _stores(base):
    root = base / "store"
    return [TrajectoryStore(p) for p in (sorted(root.glob("shard-*")) or [root])]


def stored(base, digests=True):
    """What one ingest left on disk: exact counts, and (unless told not to
    decode every record for them) per-device digests."""
    stores = _stores(base)
    try:
        counts = {
            "key_points": sum(s.key_point_count for s in stores),
            "records": sum(s.record_count for s in stores),
            "segments": sum(len(s.segment_names) for s in stores),
            "scanned_segments": sum(s.index_report()["scanned_segments"] for s in stores),
            "bytes": dir_bytes(base / "store"),
        }
        return counts, gates.device_digests(stores) if digests else None
    finally:
        for s in stores:
            s.close()


# -- gates ---------------------------------------------------------------------


def audited_reference(ctx, fleet):
    """An untimed single-process pass in which every compressor is proxied, so
    each sealed trajectory is measured against exactly the fixes it was given.
    Returns the per-device digests every other run must reproduce, plus the
    compression facts gathered on the way."""
    facts = {"fixes": 0, "key_points": 0, "bounded": 0, "decided": 0,
             "peak_retained": 0, "worst": 0.0}
    off = Tracer(enabled=False)

    def audit(trajectory, raw, inner):
        if not trajectory.original_count:
            return
        dev, _ = gates.audit_epsilon(ctx.gate, "sealed trajectory", EPS, *raw, trajectory)
        stats = inner.stats
        bounded = stats.get("upper_bound", 0) + stats.get("lower_bound", 0)
        facts["fixes"] += trajectory.original_count
        facts["key_points"] += len(trajectory.key_points)
        facts["bounded"] += bounded
        facts["decided"] += (bounded + stats.get("exact_accept", 0)
                             + stats.get("exact_commit", 0))
        facts["peak_retained"] = max(facts["peak_retained"], inner.buffer_peak)
        facts["worst"] = max(facts["worst"], dev)

    base = ctx.fresh_dir("reference")
    _, _, engine, _ = ingest_single(
        base, fleet.batches,
        factory=lambda device_id: CompressorProxy(BQSCompressor(EPS), off, audit))
    facts["report"] = engine.feed_report()
    facts["sealed"] = engine.sealed_trajectories
    facts["evictions"] = engine.evictions
    gates.check_ledger(ctx.gate, "reference", facts["report"], fleet.truth)
    counts, digests = stored(base)
    ctx.gate.check(counts["scanned_segments"] == 0,
                   "reference store reopened with scanned segments")
    ctx.drop(base)
    return digests, facts


def recovery_leg(ctx, fleet, reference):
    """Ingest the first quarter, abandon the engine unfinished, time
    ``recover()``, resume to the end; the result must equal the reference.
    Returns ``(recover wall_s, fixes replayed)``."""
    base = ctx.fresh_dir("recover")
    cut = max(1, len(fleet.batches) // 4)
    store = TrajectoryStore(base / "store")
    engine = GeoStreamEngine(bqs_factory, collect=False, policy=POLICY,
                             journal=str(base / "wal"), sink=StoreSink(store))
    for batch in fleet.batches[:cut]:
        engine.push_columns(*batch)
    engine.journal.close()  # the crash: only the journal and the store survive
    store.close()
    store = TrajectoryStore(base / "store")
    t0 = perf_counter()
    engine = GeoStreamEngine.recover(
        str(base / "wal"), bqs_factory, collect=False, policy=POLICY,
        sink=StoreSink(store), dedupe_store=store)
    wall = perf_counter() - t0
    replayed = engine.recovery.fixes_replayed
    ctx.gate.check(engine.recovery.batches_replayed == cut,
                   f"recovery replayed {engine.recovery.batches_replayed} of {cut} batches")
    for batch in fleet.batches[cut:]:
        engine.push_columns(*batch)
    engine.finish_all()
    engine.journal.close()
    store.close()
    gates.check_ledger(ctx.gate, "recovered", engine.feed_report(), fleet.truth)
    gates.check_same_digests(ctx.gate, "recovered-and-resumed", stored(base)[1], reference)
    ctx.drop(base)
    return wall, replayed


# -- the run -------------------------------------------------------------------


def run(ctx):
    sharded = ctx.workload == "sharded_ingest"
    fleet = Fleet(ctx.inputs)
    warm = fleet.batches[:max(1, len(fleet.batches) // 20)]
    base = ctx.fresh_dir("warm")
    if sharded:
        ingest_sharded(base, warm)
    else:
        ingest_single(base, warm)
    ctx.drop(base)
    ctx.setup_done()
    if ctx.setup_only:
        return

    first = {}

    def unit():
        base = ctx.fresh_dir("unit")
        if sharded:
            wall, steps, engine = ingest_sharded(base, fleet.batches)
        else:
            wall, steps, engine, _ = ingest_single(base, fleet.batches)
        counts, digests = stored(base, digests=not first)
        if not first:
            gates.check_ledger(ctx.gate, "timed run", engine.feed_report(), fleet.truth)
            first.update(counts=counts, digests=digests)
        ctx.gate.check(counts == first["counts"],
                       f"same input, different store: {counts} != {first['counts']}")
        ctx.gate.count(len(fleet.batches))
        ctx.drop(base)
        return wall, steps

    units = ctx.repeat(unit, until=0.45 if ctx.trace else 1.0)
    counts = first["counts"]
    ctx.gate.check(counts["scanned_segments"] == 0, "store reopened with scanned segments")
    reference, facts = audited_reference(ctx, fleet)
    gates.check_same_digests(ctx.gate, ctx.workload, first["digests"], reference)
    recovered = [] if sharded else [recovery_leg(ctx, fleet, reference)]

    # The fastest unit is the undisturbed one; likewise the fastest repeat of
    # each batch's hold time (see README, "How timings are taken").
    fastest = min(wall for wall, _ in units)
    if not ctx.trace:
        holds = fastest_steps([steps[:-1] for _, steps in units])
        samples = len(units) * len(holds)
        ctx.put("throughput_per_s", {**metrics.summary([fleet.fixes / w for w, _ in units]),
                                     "value": fleet.fixes / fastest})
        ctx.put("op_ms_p50", step_percentile(holds, 50, 1e3, samples))
        ctx.put("op_ms_p90", step_percentile(holds, 90, 1e3, samples))
        ctx.put("key_point_rate", metrics.exact(counts["key_points"] / fleet.fixes, fleet.fixes))
        ctx.put("stored_bytes_per_fix", metrics.exact(counts["bytes"] / fleet.fixes, fleet.fixes))
        ctx.put("peak_rss_mb", metrics.exact(ctx.peak_rss_mb()))
        return

    put, exact = ctx.put, metrics.exact
    report = facts["report"]
    put("compression.bqs.fixes", exact(facts["fixes"]))
    put("compression.bqs.key_points", exact(facts["key_points"]))
    put("compression.bqs.bound_decided_share",
        exact(facts["bounded"] / max(1, facts["decided"]), facts["decided"]))
    put("compression.bqs.peak_retained_points", exact(facts["peak_retained"]))
    put("compression.bqs.max_dev_over_eps", exact(facts["worst"] / EPS, facts["fixes"]))
    put("engine.sanitize.fixes_in", exact(report.fixes_in))
    put("engine.sanitize.fixes_out", exact(report.fixes_out))
    put("engine.sanitize.dropped", exact(report.dropped_total))
    put("engine.sanitize.reordered", exact(report.reordered))
    put("engine.sanitize.splits", exact(report.splits_total))
    put("engine.sanitize.pass_share", exact(report.fixes_out / report.fixes_in))
    put("engine.core.sealed", exact(facts["sealed"]))
    put("engine.core.evictions", exact(facts["evictions"]))
    put("storage.store.bytes", exact(counts["bytes"]))
    put("storage.store.segments", exact(counts["segments"]))
    put("storage.index.scanned_segments", exact(counts["scanned_segments"]))
    standalone = _standalone_layers(ctx, fleet)
    typical = metrics.quartiles([wall for wall, _ in units])[1]  # tracing overhead's base
    if sharded:
        _traced_sharded(ctx, fleet, fastest, typical, standalone)
    else:
        while len(recovered) < 3:
            recovered.append(recovery_leg(ctx, fleet, reference))
        put("engine.journal.replay_s", exact(min(w for w, _ in recovered), len(recovered)))
        put("engine.journal.recover_fixes_per_s",
            exact(max(n / w for w, n in recovered), len(recovered)))
        _traced_single(ctx, fleet, typical, standalone, counts, reference)


def _standalone_layers(ctx, fleet):
    """Time the layers that have no seam - grouping, projection, sanitation -
    on their own, over the same batches in the same order; nanoseconds each."""
    ns = {"engine.core.group": 0, "model.projection": 0, "engine.sanitize": 0}
    frames, sanitizers = {}, {}
    projected = 0
    for ids, ts, lats, lons in fleet.batches:
        a = perf_counter_ns()
        groups = group_fix_columns(ids, ts, lats, lons)
        ns["engine.core.group"] += perf_counter_ns() - a
        for device, (dts, dlats, dlons) in groups.items():
            frame = frames.get(device)
            if frame is None:
                frame = frames[device] = UTMProjection.for_coordinate(dlats[0], dlons[0])
                sanitizers[device] = FeedSanitizer(POLICY)
            a = perf_counter_ns()
            xs, ys = frame.forward_columns(dlats, dlons)
            b = perf_counter_ns()
            sanitizers[device].process(dts, xs, ys)
            ns["model.projection"] += b - a
            ns["engine.sanitize"] += perf_counter_ns() - b
            projected += len(dts)
    a = perf_counter_ns()
    for sanitizer in sanitizers.values():
        sanitizer.flush()
    ns["engine.sanitize"] += perf_counter_ns() - a
    ctx.put("engine.core.group_busy_s", metrics.exact(ns["engine.core.group"] * 1e-9))
    ctx.put("model.projection.busy_s", metrics.exact(ns["model.projection"] * 1e-9))
    ctx.put("model.projection.fixes", metrics.exact(projected))
    ctx.put("engine.sanitize.busy_s", metrics.exact(ns["engine.sanitize"] * 1e-9))
    return ns


def _traced_single(ctx, fleet, untraced, standalone, counts, reference):
    """One traced unit: spans at every seam the benchmark owns, then the codec
    timed on its own over the trajectories that unit sealed."""
    tracer = Tracer()
    shim = CountingFS()
    base = ctx.fresh_dir("traced")
    with fsio.injected(shim):
        wall, _, engine, sink = ingest_single(
            base, fleet.batches, tracer=tracer, keep=True,
            factory=lambda device_id: CompressorProxy(BQSCompressor(EPS), tracer))
    journal = engine.journal
    gates.check_same_digests(ctx.gate, "traced run", stored(base)[1], reference)
    ctx.drop(base)

    a = perf_counter_ns()
    blobs = [encode_trajectory(t) for t in sink.kept if t.key_points]
    b = perf_counter_ns()
    for blob in blobs:
        decode_trajectory(blob)
    encode_ns, decode_ns = b - a, perf_counter_ns() - b

    self_ns = tracer.self_times()
    root_ns = tracer.root_wall_ns()
    engine_self = self_ns.pop("engine.push_columns") + self_ns.pop("engine.finish_all")
    layers = {**self_ns, **standalone,
              "unattributed": engine_self - sum(standalone.values())}
    ctx.gate.check(sum(layers.values()) == root_ns,
                   "trace: layer self times and unattributed time do not add up to the wall")
    tracer.dump(OUT / "trace-fleet_ingest.json",
                {"workload": "fleet_ingest", "root_wall_ns": root_ns, "layers_ns": layers,
                 "standalone": "engine.core.group, model.projection and engine.sanitize "
                               "are timed on their own over the same batches"})

    emit_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == "storage.store.emit")
    blob_bytes = sum(len(blob) for blob in blobs)
    key_points = sum(len(t.key_points) for t in sink.kept)
    put, exact = ctx.put, metrics.exact
    put("compression.bqs.busy_s", exact(self_ns["compression.bqs"] * 1e-9))
    put("engine.journal.busy_s", exact(self_ns["engine.journal"] * 1e-9))
    put("engine.journal.records", exact(journal.records_logged))
    put("engine.journal.bytes", exact(journal.bytes_at_rotate))
    put("engine.journal.bytes_per_fix", exact(journal.bytes_at_rotate / fleet.fixes))
    put("storage.codec.encode_busy_s", exact(encode_ns * 1e-9))
    put("storage.codec.decode_busy_s", exact(decode_ns * 1e-9))
    put("storage.codec.encode_bytes", exact(blob_bytes))
    put("storage.codec.bytes_per_key_point", exact(blob_bytes / key_points))
    put("storage.store.emit_busy_s", exact(emit_ns * 1e-9))
    put("storage.store.append_self_s", exact((emit_ns - encode_ns) * 1e-9))
    put("storage.store.seal_s", exact(self_ns["storage.store.seal"] * 1e-9))
    put("storage.store.write_amp", exact(counts["bytes"] / blob_bytes))
    for name, value in shim.counts.items():
        put(f"fsio.{name}", exact(value))
    put("trace.spans", exact(len(tracer.spans)))
    put("trace.overhead_share", exact((wall - untraced) / untraced))
    put("trace.unattributed_share", exact(layers["unattributed"] / root_ns))


def _traced_sharded(ctx, fleet, fastest, untraced, standalone):
    """Workers cannot be proxied from outside (spans do not cross the process
    boundary), so the traced unit has root spans only, and the sharded layers
    report ``transport_stats()``, parent and worker CPU, and the frame codec
    timed on its own over the same per-device groups."""
    tracer = Tracer()
    base = ctx.fresh_dir("traced")
    usage = resource.getrusage
    cpu0 = usage(resource.RUSAGE_SELF), usage(resource.RUSAGE_CHILDREN)
    wall, _, engine = ingest_sharded(base, fleet.batches, tracer)
    cpu1 = usage(resource.RUSAGE_SELF), usage(resource.RUSAGE_CHILDREN)
    parent_cpu, worker_cpu = (
        (b.ru_utime + b.ru_stime) - (a.ru_utime + a.ru_stime) for a, b in zip(cpu0, cpu1))
    stats = engine.transport_stats()
    ctx.drop(base)

    encode_ns = decode_ns = frame_bytes = 0
    id_cache = {}
    for ids, ts, lats, lons in fleet.batches:
        groups = group_fix_columns(ids, ts, lats, lons)
        a = perf_counter_ns()
        # A ring offers its capacity less a frame header; 64 bytes cover it.
        payloads = encode_payloads(groups, RING_BYTES - 64, id_cache)
        b = perf_counter_ns()
        for payload in payloads:
            decode_payload(memoryview(payload))
        encode_ns += b - a
        decode_ns += perf_counter_ns() - b
        frame_bytes += sum(len(p) for p in payloads)

    # The base of the speed-up: the same input through one process, in this
    # same subprocess, taken the same way (the fastest of a few).
    single = []
    for _ in range(3):
        sbase = ctx.fresh_dir("single")
        single.append(ingest_single(sbase, fleet.batches)[0])
        ctx.drop(sbase)

    root_ns = tracer.root_wall_ns()
    ack_wait_ns = int(sum(s["ack_wait_seconds"] for s in stats) * 1e9)
    layers = {
        "engine.core.group": standalone["engine.core.group"],
        "engine.transport.encode": encode_ns,
        "engine.sharded.ack_wait": ack_wait_ns,
        # finish_all blocks until both workers have drained their rings.
        "engine.sharded.drain": tracer.self_times()["engine.finish_all"],
    }
    layers["unattributed"] = root_ns - sum(layers.values())
    tracer.dump(OUT / "trace-sharded_ingest.json",
                {"workload": "sharded_ingest", "root_wall_ns": root_ns,
                 "layers_ns": layers, "transport_stats": stats,
                 "nproc": os.cpu_count()})
    shard_fixes = [s["fixes"] for s in stats]
    put, exact = ctx.put, metrics.exact
    put("engine.transport.encode_busy_s", exact(encode_ns * 1e-9))
    put("engine.transport.decode_busy_s", exact(decode_ns * 1e-9))
    put("engine.transport.bytes_per_fix", exact(frame_bytes / fleet.fixes))
    put("engine.sharded.ring_waits", exact(sum(s["ring_waits"] for s in stats)))
    put("engine.sharded.window_waits", exact(sum(s["window_waits"] for s in stats)))
    put("engine.sharded.ack_wait_s", exact(ack_wait_ns * 1e-9))
    put("engine.sharded.ack_us_p50", exact(max(s["ack_us_p50"] for s in stats)))
    put("engine.sharded.ack_us_p99", exact(max(s["ack_us_p99"] for s in stats)))
    put("engine.sharded.shard_skew",
        exact(max(shard_fixes) * len(shard_fixes) / sum(shard_fixes)))
    put("engine.sharded.parent_cpu_s", exact(parent_cpu))
    put("engine.sharded.worker_cpu_s", exact(worker_cpu))
    put("engine.sharded.speedup", exact(min(single) / fastest, len(single)))
    put("engine.sharded.nproc", exact(os.cpu_count()))
    put("trace.spans", exact(len(tracer.spans)))
    put("trace.overhead_share", exact((wall - untraced) / untraced))
    put("trace.unattributed_share", exact(layers["unattributed"] / root_ns))
