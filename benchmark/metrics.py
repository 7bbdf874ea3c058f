"""The benchmark's metric tables and the statistics every number goes through.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names, units
and directions that ``BENCHMARK.json`` repeats (a self-test holds the two
equal).  Every workload reports every end-to-end metric with ``--trace 0``
and every per-layer metric with ``--trace 1``; a layer that does no work on
a workload reports 0 there.
"""

from __future__ import annotations

import statistics

WORKLOADS = {
    "device_stream": "one tracker, four motion regimes: compression does all "
    "the work, through both the columnar and the per-fix entry point",
    "fleet_ingest": "raw GPS fleet through sanitize, project, journal, compress, "
    "encode, append and seal in one process: every write layer blocks",
    "sharded_ingest": "the same fleet through two shm-transport workers: the only "
    "run of transport and sharding; compression leaves the parent's path",
    "store_query": "geo, time-window and device reads on a sealed 20k-record "
    "store: index, query and decode do the work, compression none",
}

#: name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.20),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("key_point_rate", "kp/fix", "lower", 0.05),
    ("stored_bytes_per_fix", "B/fix", "lower", 0.05),
)

_REGIMES = ("random_walk", "vehicle_route", "flight_arc", "bursty_pause")

PER_LAYER = (
    ("compression.bqs.busy_s", "s", "lower"),
    ("compression.bqs.fixes", "count", "higher"),
    ("compression.bqs.key_points", "count", "lower"),
    ("compression.bqs.bound_decided_share", "share", "higher"),
    ("compression.bqs.peak_retained_points", "count", "lower"),
    ("compression.bqs.push_fixes_per_s", "1/s", "higher"),
    ("compression.bqs.push_many_fixes_per_s", "1/s", "higher"),
    ("compression.bqs.push_us_p50", "us", "lower"),
    ("compression.bqs.push_us_p99", "us", "lower"),
    *((f"compression.bqs.{r}_fixes_per_s", "1/s", "higher") for r in _REGIMES),
    ("compression.bqs.max_dev_over_eps", "share", "lower"),
    ("compression.bqs.max_sed_over_eps", "share", "lower"),
    ("compression.fast_bqs.busy_s", "s", "lower"),
    ("compression.fast_bqs.push_xyt_fixes_per_s", "1/s", "higher"),
    ("compression.fast_bqs.push_fixes_per_s", "1/s", "higher"),
    ("compression.fast_bqs.push_us_p50", "us", "lower"),
    ("compression.fast_bqs.push_us_p99", "us", "lower"),
    ("compression.fast_bqs.key_point_rate", "kp/fix", "lower"),
    *((f"compression.fast_bqs.{r}_fixes_per_s", "1/s", "higher") for r in _REGIMES),
    ("model.projection.busy_s", "s", "lower"),
    ("model.projection.fixes", "count", "higher"),
    ("engine.sanitize.busy_s", "s", "lower"),
    ("engine.sanitize.fixes_in", "count", "higher"),
    ("engine.sanitize.fixes_out", "count", "higher"),
    ("engine.sanitize.dropped", "count", "lower"),
    ("engine.sanitize.reordered", "count", "lower"),
    ("engine.sanitize.splits", "count", "lower"),
    ("engine.sanitize.pass_share", "share", "higher"),
    ("engine.core.group_busy_s", "s", "lower"),
    ("engine.core.sealed", "count", "lower"),
    ("engine.core.evictions", "count", "lower"),
    ("engine.journal.busy_s", "s", "lower"),
    ("engine.journal.bytes", "B", "lower"),
    ("engine.journal.bytes_per_fix", "B/fix", "lower"),
    ("engine.journal.records", "count", "lower"),
    ("engine.journal.replay_s", "s", "lower"),
    ("engine.journal.recover_fixes_per_s", "1/s", "higher"),
    ("engine.transport.encode_busy_s", "s", "lower"),
    ("engine.transport.decode_busy_s", "s", "lower"),
    ("engine.transport.bytes_per_fix", "B/fix", "lower"),
    ("engine.sharded.ring_waits", "count", "lower"),
    ("engine.sharded.window_waits", "count", "lower"),
    ("engine.sharded.ack_wait_s", "s", "lower"),
    ("engine.sharded.ack_us_p50", "us", "lower"),
    ("engine.sharded.ack_us_p99", "us", "lower"),
    ("engine.sharded.shard_skew", "share", "lower"),
    ("engine.sharded.parent_cpu_s", "s", "lower"),
    ("engine.sharded.worker_cpu_s", "s", "lower"),
    ("engine.sharded.speedup", "share", "higher"),
    ("engine.sharded.nproc", "count", "higher"),
    ("storage.codec.encode_busy_s", "s", "lower"),
    ("storage.codec.encode_bytes", "B", "lower"),
    ("storage.codec.bytes_per_key_point", "B", "lower"),
    ("storage.codec.decode_busy_s", "s", "lower"),
    ("storage.store.emit_busy_s", "s", "lower"),
    ("storage.store.append_self_s", "s", "lower"),
    ("storage.store.seal_s", "s", "lower"),
    ("storage.store.bytes", "B", "lower"),
    ("storage.store.segments", "count", "lower"),
    ("storage.store.write_amp", "share", "lower"),
    ("storage.store.read_busy_s", "s", "lower"),
    ("storage.store.reads", "count", "lower"),
    ("storage.index.open_ms", "ms", "lower"),
    ("storage.index.scanned_segments", "count", "lower"),
    ("storage.index.candidate_busy_s", "s", "lower"),
    ("storage.index.candidates_per_query", "count", "lower"),
    ("storage.index.prune_share", "share", "higher"),
    ("storage.query.geo_exact_small_ms_p50", "ms", "lower"),
    ("storage.query.geo_exact_wide_ms_p50", "ms", "lower"),
    ("storage.query.geo_approx_ms_p50", "ms", "lower"),
    ("storage.query.time_window_ms_p50", "ms", "lower"),
    ("storage.query.read_ms_p50", "ms", "lower"),
    ("storage.query.decoded_per_match", "share", "lower"),
    ("storage.query.matches", "count", "higher"),
    ("storage.query.geometry_self_s", "s", "lower"),
    ("fsio.opens", "count", "lower"),
    ("fsio.write_calls", "count", "lower"),
    ("fsio.bytes_written", "B", "lower"),
    ("fsio.fsyncs", "count", "lower"),
    ("fsio.replaces", "count", "lower"),
    ("yardstick.operb_fixes_per_s", "1/s", "higher"),
    ("yardstick.operb_key_point_rate", "kp/fix", "lower"),
    ("yardstick.dead_reckoning_fixes_per_s", "1/s", "higher"),
    ("yardstick.dead_reckoning_key_point_rate", "kp/fix", "lower"),
    ("yardstick.douglas_peucker_key_point_rate", "kp/fix", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.host_slowdown", "share", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds):
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def quartiles(values):
    """``(q1, median, q3)`` the way the driver takes them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def top_percentile(n):
    """The highest of p50, p90, p95, p99 and p99.9 with at least ten of ``n``
    samples beyond it (``None`` below twenty samples)."""
    best = None
    for p, one_in in ((50, 2), (90, 10), (95, 20), (99, 100), (99.9, 1000)):
        if n >= 10 * one_in:
            best = p
    return best


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def summary(values, n=None):
    """``{value: median, n, q1, q3}`` for a list of per-unit measurements."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "n": len(values) if n is None else n,
            "q1": q1, "q3": q3}


def exact(value, n=1):
    """An exact count or ratio: no spread."""
    return {"value": value, "n": n, "q1": value, "q3": value}
