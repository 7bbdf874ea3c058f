"""``store_query``: the read side.

Set-up builds a sealed store through ``TrajectoryStore.append`` - a pool of
BQS-compressed 600-fix trips, replicated by seeded translation over a 100 x
100 km patch on each side of the 32|33 UTM boundary and 50 h of time - then
closes it and reopens it off the sidecars.  Each timed round runs one seeded,
shuffled mix of exact and approximate geo rectangles, 30-minute time windows
and per-device manifest + read.  Index, query and codec *decode* do all the
work and compression none: the store and the codec run in the opposite
direction from ``fleet_ingest``, so a write-side saving charged to readers
shows here.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

from repro import BQSCompressor, CompressedTrajectory, PlanePoint
from repro.model.projection import UTMProjection
from repro.storage import (
    TrajectoryStore,
    geo_range_query,
    geo_rect_to_plane,
    time_window_query,
)

import gates
import gen
import metrics
from harness import OUT, dir_bytes, fastest_steps, step_percentile
from spans import Tracer

EPS = gen.EPSILON_M


def _trip(columns, i):
    return tuple(columns[f"trip{i:03d}.{c}"] for c in ("ts", "xs", "ys"))


def _placements(columns):
    return {k: columns[f"place.{k}"] for k in ("trip", "zone", "device", "dx", "dy", "dt")}


def build_store(directory, columns, meta, records=None):
    """Compress the trip pool, append ``records`` translated copies, close.
    Returns ``(keys, key_points, raw_fixes)`` of what was stored."""
    pool = []
    for i in range(meta["trips"]):
        compressor = BQSCompressor(EPS)
        compressor.push_xyt(*_trip(columns, i))
        pool.append(compressor.finish())
    frames = {zone: UTMProjection(zone) for zone in (32, 33)}
    place = _placements(columns)
    count = len(place["trip"]) if records is None else records
    keys = []
    key_points = raw_fixes = 0
    with TrajectoryStore(directory) as store:
        for i in range(count):
            trip = pool[place["trip"][i]]
            dx, dy, dt = place["dx"][i], place["dy"][i], place["dt"][i]
            ref = store.append(
                gen.device_name(place["device"][i]),
                CompressedTrajectory(
                    key_points=tuple(PlanePoint(p.x + dx, p.y + dy, p.t + dt)
                                     for p in trip.key_points),
                    original_count=trip.original_count, tolerance=EPS,
                    algorithm=trip.algorithm, frame=frames[place["zone"][i]]))
            keys.append((ref.segment, ref.offset))
            key_points += len(trip.key_points)
            raw_fixes += trip.original_count
    return keys, key_points, raw_fixes


def run_op(store, op):
    kind = op["kind"]
    if kind == "time_window":
        return time_window_query(store, op["t0"], op["t1"])
    if kind == "device_read":
        return [store.read(ref) for ref in store.device_manifest(gen.device_name(op["device"]))]
    mode = "approximate" if kind == "geo_approx" else "exact"
    return geo_range_query(store, tuple(op["rect"]), mode=mode)


def run(ctx):
    columns, meta = gen.load_columns(ctx.inputs)
    ops = meta["queries"]
    warm_dir = ctx.fresh_dir("warm")
    build_store(warm_dir, columns, meta, records=max(1, meta["size"]["records"] // 20))
    with TrajectoryStore(warm_dir) as warm:
        for op in ops[:len(ops) // 20 + 1]:
            run_op(warm, op)
    ctx.drop(warm_dir)
    directory = ctx.fresh_dir("store")
    keys, key_points, raw_fixes = build_store(directory, columns, meta)
    t0 = perf_counter()
    store = TrajectoryStore(directory)
    open_s = perf_counter() - t0
    ctx.setup_done()
    if ctx.setup_only:
        store.close()
        return

    gate = ctx.gate
    gate.check(store.index_report()["scanned_segments"] == 0,
               "clean reopen scanned segments instead of reading sidecars")

    def round_():
        times = []
        for op in ops:
            a = perf_counter()
            run_op(store, op)
            times.append(perf_counter() - a)
        return times

    rounds = ctx.repeat(round_, until=0.6 if ctx.trace else 1.0)
    # The fastest round is the undisturbed one; likewise the fastest repeat of
    # each operation (see README, "How timings are taken").
    steps = fastest_steps(rounds)
    gate.count(len(rounds) * len(ops))
    answers = [run_op(store, op) for op in ops]
    _check_answers(gate, store, columns, meta, keys, ops, answers)

    if not ctx.trace:
        samples = len(rounds) * len(ops)
        ctx.put("throughput_per_s", {**metrics.summary([len(ops) / sum(r) for r in rounds]),
                                     "value": len(ops) / min(sum(r) for r in rounds)})
        ctx.put("op_ms_p50", step_percentile(steps, 50, 1e3, samples))
        ctx.put("op_ms_p90", step_percentile(steps, 90, 1e3, samples))
        ctx.put("key_point_rate", metrics.exact(key_points / raw_fixes, raw_fixes))
        ctx.put("stored_bytes_per_fix", metrics.exact(dir_bytes(directory) / raw_fixes,
                                                      raw_fixes))
        ctx.put("peak_rss_mb", metrics.exact(ctx.peak_rss_mb()))
    else:
        _traced(ctx, store, ops, steps, rounds, answers, directory, open_s, len(keys))
    store.close()


def _check_answers(gate, store, columns, meta, keys, ops, answers):
    """Every answer of the mix against brute force over the raw inputs."""
    trips = [_trip(columns, i) for i in range(meta["trips"])]
    truth = gates.QueryTruth(trips, _placements(columns), keys)
    for op, answer in zip(ops, answers):
        kind = op["kind"]
        if kind == "time_window":
            expected = truth.time_window(op["t0"], op["t1"])
            gate.check(gates.match_keys(answer) == expected,
                       f"time window [{op['t0']:.0f}, {op['t1']:.0f}]: "
                       f"{len(answer)} matches, brute force finds {len(expected)}")
        elif kind == "device_read":
            expected = truth.device(op["device"])
            gate.check(len(answer) == len(expected)
                       and all(r.original_count == gen.TRIP_FIXES for r in answer),
                       f"device {op['device']}: read {len(answer)} records, "
                       f"stored {len(expected)}")
        else:
            rect = tuple(op["rect"])
            exact = answer if kind != "geo_approx" else geo_range_query(store, rect, mode="exact")
            approximate = answer if kind == "geo_approx" else geo_range_query(
                store, rect, mode="approximate")
            gates.check_geo_chain(gate, f"{kind} {rect}", truth.geo(rect), exact, approximate)


def _traced(ctx, store, ops, steps, rounds, answers, directory, open_s, records):
    """One traced round - a root span per call, which has no seam inside it
    reachable from outside - then the index and the store timed on their own
    over the same rectangles, windows and candidates."""
    tracer = Tracer()
    for seq, op in enumerate(ops):
        tracer.batch_seq = seq
        tracer.call(f"storage.query.{op['kind']}", run_op, store, op)
    root_ns = tracer.root_wall_ns()
    by_kind = {}
    for op, t in zip(ops, steps):
        by_kind.setdefault(op["kind"], []).append(t)

    candidate_ns = read_ns = geometry_ns = candidates = reads = decoded = matched = 0
    frames = sorted(store.stamped_frames())
    for op, answer, span in zip(ops, answers, tracer.spans):
        kind = op["kind"]
        a = perf_counter_ns()
        if kind == "time_window":
            found = list(store.candidates(t0=op["t0"], t1=op["t1"]))
        elif kind == "device_read":
            found = store.device_manifest(gen.device_name(op["device"]))
        else:
            found = []
            for zone, south in frames:
                plane = geo_rect_to_plane(tuple(op["rect"]), UTMProjection(zone, south))
                found += store.candidates(rect=plane, zone=zone, south=south)
        b = perf_counter_ns()
        read_here = 0
        if kind.startswith("geo_exact") or kind == "device_read":
            for ref in found:
                store.read(ref)
            read_here = perf_counter_ns() - b
            reads += len(found)
        candidate_ns += b - a
        read_ns += read_here
        candidates += len(found)
        if kind.startswith("geo_exact"):
            decoded += len(found)
            matched += len(answer)
            geometry_ns += (span[2] - span[1]) - (b - a) - read_here
    layers = {"storage.index": candidate_ns, "storage.store.read": read_ns,
              "storage.query": root_ns - candidate_ns - read_ns}
    tracer.dump(OUT / "trace-store_query.json",
                {"workload": "store_query", "root_wall_ns": root_ns, "layers_ns": layers,
                 "standalone": "storage.index (candidates) and storage.store.read are "
                               "timed on their own for the same queries"})

    put = ctx.put
    for kind in ("geo_exact_small", "geo_exact_wide", "geo_approx", "time_window",
                 "device_read"):
        put(f"storage.query.{kind.replace('device_', '')}_ms_p50",
            step_percentile(by_kind[kind], 50, 1e3, len(rounds) * len(by_kind[kind])))
    put("storage.query.decoded_per_match", metrics.exact(decoded / max(1, matched), matched))
    put("storage.query.matches", metrics.exact(sum(len(a) for a in answers)))
    put("storage.query.geometry_self_s", metrics.exact(geometry_ns * 1e-9))
    put("storage.index.open_ms", metrics.exact(open_s * 1e3))
    put("storage.index.scanned_segments",
        metrics.exact(store.index_report()["scanned_segments"]))
    put("storage.index.candidate_busy_s", metrics.exact(candidate_ns * 1e-9))
    put("storage.index.candidates_per_query", metrics.exact(candidates / len(ops), len(ops)))
    put("storage.index.prune_share", metrics.exact(1.0 - candidates / (len(ops) * records)))
    put("storage.store.read_busy_s", metrics.exact(read_ns * 1e-9))
    put("storage.store.reads", metrics.exact(reads))
    put("storage.store.bytes", metrics.exact(dir_bytes(directory)))
    put("storage.store.segments", metrics.exact(len(store.segment_names)))
    untraced = metrics.quartiles([sum(r) for r in rounds])[1]
    put("trace.spans", metrics.exact(len(tracer.spans)))
    put("trace.overhead_share", metrics.exact((root_ns * 1e-9 - untraced) / untraced))
    put("trace.unattributed_share", metrics.exact(0.0))
