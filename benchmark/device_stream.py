"""``device_stream``: one tracker, the paper's own setting.

Four seeded 1 Hz motion regimes, a fresh compressor per regime.  The
compression layer (with geometry under it) does all the work and the engine
and the store none.  One kernel is driven through both of its entry points -
``push_xyt`` in 4096-fix column chunks, and ``push(PlanePoint)`` one fix at a
time - so a columnar gain paid for by the per-fix path shows.
"""

from __future__ import annotations

from array import array
from time import perf_counter, perf_counter_ns

from repro import (
    BQSCompressor,
    DeadReckoningCompressor,
    DouglasPeucker,
    FastBQSCompressor,
    PlanePoint,
)
from repro.storage import encode_trajectory

import gates
import gen
import metrics
from harness import OUT, fastest_steps
from spans import Tracer
from yardstick import SectorSimplifier

EPS = gen.EPSILON_M
CHUNK = gen.BATCH_FIXES


def columnar_pass(make, chunked, tracer=None):
    """Push every regime through a fresh compressor, chunk by chunk.  Returns
    ``(steps, outcome)``: the seconds of every ``push_xyt`` and ``finish`` call
    in order, and ``{regime: (compressor, trajectory)}``."""
    steps = []
    outcome = {}
    for name, chunks in chunked.items():
        compressor = make()
        span = f"compression.{compressor.name}"
        for seq, chunk in enumerate(chunks):
            a = perf_counter()
            if tracer is None:
                compressor.push_xyt(*chunk)
            else:
                tracer.batch_seq = seq
                tracer.call(span, compressor.push_xyt, *chunk)
            steps.append(perf_counter() - a)
        a = perf_counter()
        if tracer is None:
            trajectory = compressor.finish()
        else:
            trajectory = tracer.call(span, compressor.finish)
        steps.append(perf_counter() - a)
        outcome[name] = (compressor, trajectory)
    return steps, outcome


def per_fix_pass(make, points):
    """``push`` one fix at a time with a clock read round every call; returns
    ``(wall_s, ascending latencies_ns)`` over all regimes."""
    latencies = array("q")
    record = latencies.append
    wall = 0.0
    for pts in points.values():
        push = make().push
        t0 = perf_counter()
        for p in pts:
            a = perf_counter_ns()
            push(p)
            record(perf_counter_ns() - a)
        wall += perf_counter() - t0
    return wall, sorted(latencies)


def key_point_rate(outcome):
    return sum(len(t.key_points) for _, t in outcome.values()) / sum(
        t.original_count for _, t in outcome.values())


def bqs():
    return BQSCompressor(EPS)


def fast_bqs():
    return FastBQSCompressor(EPS)


def run(ctx):
    columns, meta = gen.load_columns(ctx.inputs)
    regimes = {name: tuple(columns[f"{name}.{c}"] for c in ("ts", "xs", "ys"))
               for name in meta["regimes"]}
    chunked = {name: [(ts[s:s + CHUNK], xs[s:s + CHUNK], ys[s:s + CHUNK])
                      for s in range(0, len(ts), CHUNK)]
               for name, (ts, xs, ys) in regimes.items()}
    points = {name: [PlanePoint(x, y, t) for t, x, y in zip(ts, xs, ys)]
              for name, (ts, xs, ys) in regimes.items()}
    fixes = sum(len(r[0]) for r in regimes.values())
    warm = len(next(iter(points.values()))) // 20 + 2
    columnar_pass(bqs, {n: [tuple(c[:warm] for c in r)] for n, r in regimes.items()})
    per_fix_pass(bqs, {n: p[:warm] for n, p in points.items()})
    ctx.setup_done()
    if ctx.setup_only:
        return
    if ctx.trace:
        return _traced(ctx, regimes, chunked, points, fixes)

    p50, p90 = [], []

    def round_():
        steps, outcome = columnar_pass(bqs, chunked)
        _, latencies = per_fix_pass(bqs, points)
        p50.append(metrics.percentile(latencies, 50) * 1e-6)
        p90.append(metrics.percentile(latencies, 90) * 1e-6)
        return steps, outcome

    rounds = ctx.repeat(round_)
    ctx.gate.count(len(rounds) * fixes * 2)
    # The fastest round is the undisturbed one, for the columnar pass and for
    # the per-fix percentiles alike (see README, "How timings are taken").
    ctx.put("throughput_per_s", {**metrics.summary([fixes / sum(s) for s, _ in rounds]),
                                 "value": fixes / min(sum(s) for s, _ in rounds)})
    ctx.put("op_ms_p50", {**metrics.summary(p50, len(p50) * fixes), "value": min(p50)})
    ctx.put("op_ms_p90", {**metrics.summary(p90, len(p90) * fixes), "value": min(p90)})
    outcome = rounds[-1][1]
    ctx.put("key_point_rate", metrics.exact(key_point_rate(outcome), fixes))
    ctx.put("stored_bytes_per_fix", metrics.exact(
        sum(len(encode_trajectory(t)) for _, t in outcome.values()) / fixes, fixes))
    ctx.put("peak_rss_mb", metrics.exact(ctx.peak_rss_mb()))
    for name, (_, trajectory) in outcome.items():
        gates.audit_epsilon(ctx.gate, f"bqs/{name}", EPS, *regimes[name], trajectory)


def _traced(ctx, regimes, chunked, points, fixes):
    """Untraced rounds of both compressors through both entry points, then one
    traced round of the columnar passes: a root span per ``push_xyt`` and
    ``finish`` call, which has no seam inside it."""
    gate = ctx.gate
    makers = {"bqs": bqs, "fast_bqs": fast_bqs}
    steps = {key: [] for key in makers}
    push_walls = {key: [] for key in makers}
    push_p50 = {key: [] for key in makers}
    push_p99 = {key: [] for key in makers}

    def round_():
        for key, make in makers.items():
            steps[key].append(columnar_pass(make, chunked)[0])
            wall, latencies = per_fix_pass(make, points)
            push_walls[key].append(wall)
            push_p50[key].append(metrics.percentile(latencies, 50) * 1e-3)
            push_p99[key].append(metrics.percentile(latencies, 99) * 1e-3)

    rounds = len(ctx.repeat(round_, until=0.6, at_least=2))
    gate.count(rounds * fixes * 4)
    tracer = Tracer()
    traced = {key: columnar_pass(make, chunked, tracer) for key, make in makers.items()}
    self_ns = tracer.self_times()
    root_ns = tracer.root_wall_ns()
    layers = {**self_ns, "unattributed": root_ns - sum(self_ns.values())}
    gate.check(sum(layers.values()) == root_ns, "trace: layers do not add up to the wall")
    tracer.dump(OUT / "trace-device_stream.json",
                {"workload": "device_stream", "root_wall_ns": root_ns, "layers_ns": layers})

    many_wall = 0.0
    for pts in points.values():
        compressor = bqs()
        t0 = perf_counter()
        compressor.push_many(pts)
        compressor.finish()
        many_wall += perf_counter() - t0

    worst_dev = worst_sed = 0.0
    decisions = {}
    for name, (compressor, trajectory) in traced["bqs"][1].items():
        dev, sed = gates.audit_epsilon(gate, f"bqs/{name}", EPS, *regimes[name],
                                       trajectory, with_sed=True)
        worst_dev, worst_sed = max(worst_dev, dev), max(worst_sed, sed)
        for label, n in compressor.stats.items():
            decisions[label] = decisions.get(label, 0) + n
    for name, (_, trajectory) in traced["fast_bqs"][1].items():
        gates.audit_epsilon(gate, f"fast_bqs/{name}", EPS, *regimes[name], trajectory)
    bounded = decisions.get("upper_bound", 0) + decisions.get("lower_bound", 0)
    decided = bounded + decisions.get("exact_accept", 0) + decisions.get("exact_commit", 0)

    put, exact = ctx.put, metrics.exact
    put("compression.bqs.busy_s", exact(self_ns["compression.bqs"] * 1e-9))
    put("compression.bqs.fixes", exact(fixes))
    put("compression.bqs.key_points", exact(
        sum(len(t.key_points) for _, t in traced["bqs"][1].values())))
    put("compression.bqs.bound_decided_share", exact(bounded / max(1, decided), decided))
    put("compression.bqs.peak_retained_points", exact(
        max(c.buffer_peak for c, _ in traced["bqs"][1].values())))
    put("compression.bqs.push_many_fixes_per_s", exact(fixes / many_wall))
    put("compression.bqs.max_dev_over_eps", exact(worst_dev / EPS, fixes))
    put("compression.bqs.max_sed_over_eps", exact(worst_sed / EPS, fixes))
    put("compression.fast_bqs.busy_s", exact(self_ns["compression.fast-bqs"] * 1e-9))
    put("compression.fast_bqs.key_point_rate",
        exact(key_point_rate(traced["fast_bqs"][1]), fixes))
    untraced = 0.0
    for key in makers:
        profile = fastest_steps(steps[key])
        untraced += metrics.quartiles([sum(s) for s in steps[key]])[1]
        samples = rounds * fixes
        put(f"compression.{key}.push_us_p50",
            {**metrics.summary(push_p50[key], samples), "value": min(push_p50[key])})
        put(f"compression.{key}.push_us_p99",
            {**metrics.summary(push_p99[key], samples), "value": min(push_p99[key])})
        start = 0
        for name, chunks in chunked.items():
            wall = sum(profile[start:start + len(chunks) + 1])
            start += len(chunks) + 1
            put(f"compression.{key}.{name}_fixes_per_s", exact(len(points[name]) / wall, rounds))
        put(f"compression.{key}.push_fixes_per_s", exact(fixes / min(push_walls[key]), rounds))
    put("compression.fast_bqs.push_xyt_fixes_per_s",
        exact(fixes / min(sum(s) for s in steps["fast_bqs"]), rounds))

    _yardsticks(ctx, regimes, chunked, fixes)
    traced_wall = sum(sum(s) for s, _ in traced.values())
    put("trace.spans", exact(len(tracer.spans)))
    put("trace.overhead_share", exact((traced_wall - untraced) / untraced))
    put("trace.unattributed_share", exact(layers["unattributed"] / root_ns))


def _yardsticks(ctx, regimes, chunked, fixes):
    """Context rows: the one-pass rival and two baselines on the same input."""
    rows = (
        ("operb", lambda: SectorSimplifier(EPS), True),
        ("dead_reckoning", lambda: DeadReckoningCompressor(EPS), True),
        ("douglas_peucker", lambda: DouglasPeucker(EPS), False),
    )
    for label, make, timed in rows:
        passes = [columnar_pass(make, chunked) for _ in range(3 if timed else 1)]
        outcome = passes[-1][1]
        if timed:
            wall = min(sum(steps) for steps, _ in passes)
            ctx.put(f"yardstick.{label}_fixes_per_s", metrics.exact(fixes / wall, len(passes)))
        ctx.put(f"yardstick.{label}_key_point_rate",
                metrics.exact(key_point_rate(outcome), fixes))
        if label == "operb":
            for name, (_, result) in outcome.items():
                gates.audit_epsilon(ctx.gate, f"yardstick/{name}", EPS,
                                    *regimes[name], result)
