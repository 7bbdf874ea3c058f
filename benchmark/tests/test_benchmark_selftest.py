import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import gen
import harness
import metrics
import run
import spans
import yardstick

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- span arithmetic -----------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    #        name  start end parent seq
    trace = [
        ["root", 0, 100, -1, 0],
        ["child", 10, 40, 0, 0],
        ["grandchild", 15, 25, 1, 0],
        ["child", 50, 70, 0, 0],
        ["root", 100, 130, -1, 1],
    ]
    own = spans.self_times(trace)
    assert own == {"root": (100 - 30 - 20) + 30, "child": (30 - 10) + 20, "grandchild": 10}
    assert sum(own.values()) == 130  # self times add back up to the root wall


def test_tracer_nests_and_disabled_tracer_records_nothing():
    tracer = spans.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    own = tracer.self_times()
    assert sum(own.values()) == tracer.root_wall_ns()
    off = spans.Tracer(enabled=False)
    assert off.call("x", lambda: 5) == 5 and off.spans == []


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, top", [(9, None), (20, 50), (99, 50), (100, 90),
                                    (199, 90), (200, 95), (1000, 99), (10_000, 99.9)])
def test_top_percentile_needs_ten_samples_beyond(n, top):
    assert metrics.top_percentile(n) == top


def test_percentile_is_nearest_rank_and_summary_never_claims_more():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 100) == 100
    few = [float(i) for i in range(1, 31)]  # 30 samples support p50 only
    assert harness.step_percentile(few, 90, 1.0, 30)["value"] == metrics.percentile(few, 50)
    assert harness.step_percentile(few, 90, 1.0, 300)["value"] == metrics.percentile(few, 90)


def test_quartiles_match_the_drivers_statistic():
    import statistics

    values = [random.Random(1).random() for _ in range(10)]
    q1, median, q3 = metrics.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)


# -- generators ----------------------------------------------------------------


def test_generators_repeat_per_seed_and_differ_across_seeds(tmp_path):
    for workload in metrics.WORKLOADS:
        a = gen.write_inputs(workload, 3, tmp_path / "a" / workload, gen.SMOKE_SIZES)
        b = gen.write_inputs(workload, 3, tmp_path / "b" / workload, gen.SMOKE_SIZES)
        c = gen.write_inputs(workload, 4, tmp_path / "c" / workload, gen.SMOKE_SIZES)
        assert a == b
        files = sorted(p.name for p in (tmp_path / "a" / workload).iterdir())
        same = [(tmp_path / "a" / workload / f).read_bytes()
                == (tmp_path / "b" / workload / f).read_bytes() for f in files]
        assert all(same)
        other = [(tmp_path / "a" / workload / f).read_bytes()
                 != (tmp_path / "c" / workload / f).read_bytes() for f in files]
        assert any(other)
        columns, meta = gen.load_columns(tmp_path / "a" / workload)
        assert meta["seed"] == 3 and columns


def test_fleet_truth_counts_what_was_planted():
    columns, truth = gen.fleet(5, devices=16, fixes_per_device=320)
    assert truth["fixes"] == len(columns["ids"]) == 16 * 320 + truth["dups"]
    assert truth["swaps"] == 16 * 3 and truth["dups"] == 16 * 3
    assert truth["teleports"] == 16 * round(320 * 0.002)
    assert 0 < truth["gaps"] <= 16  # 320 fixes are one trip or two
    # Adjacent duplicates are the planted ones, nothing else repeats.
    rows = list(zip(columns["ids"], columns["ts"]))
    assert sum(a == b for a, b in zip(rows, rows[1:])) == truth["dups"]


# -- names ---------------------------------------------------------------------


def test_metric_names_and_units_use_the_contract_charset():
    names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in metrics.UNITS.values())
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
    assert all(len(why) <= 200 and "\n" not in why for why in metrics.WORKLOADS.values())
    assert 1 <= len(metrics.PER_LAYER) <= 128 and 1 <= len(metrics.END_TO_END) <= 16


def test_benchmark_json_is_the_metric_tables():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == metrics.benchmark_json(document["run_seconds"])
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]


@pytest.mark.parametrize("trace, table", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_run_emits_exactly_the_names_in_benchmark_json(trace, table, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", "device_stream",
         "--seed", "11", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in table]
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert list((tmp_path / "bench_out").glob("work-*")) == []  # scratch is removed


# -- gates ---------------------------------------------------------------------


def _compressed(regime="vehicle_route", n=2000):
    from repro import BQSCompressor

    ts, xs, ys = gen.REGIMES[regime](n, random.Random(9))
    compressor = BQSCompressor(gen.EPSILON_M)
    compressor.push_xyt(ts, xs, ys)
    return (ts, xs, ys), compressor.finish()


def test_epsilon_audit_passes_bqs_and_agrees_with_the_programs_own_audit():
    from repro import PlanePoint

    (ts, xs, ys), trajectory = _compressed()
    gate = harness.Gate()
    dev, _ = gates.audit_epsilon(gate, "bqs", gen.EPSILON_M, ts, xs, ys, trajectory)
    assert gate.failures == [] and 0 < dev <= gen.EPSILON_M
    raw = [PlanePoint(x, y, t) for t, x, y in zip(ts, xs, ys)]
    assert dev == pytest.approx(trajectory.max_deviation_from(raw), rel=1e-9)


def test_epsilon_audit_fails_on_a_truncated_key_point_list():
    from dataclasses import replace

    (ts, xs, ys), trajectory = _compressed()
    broken = replace(trajectory, key_points=trajectory.key_points[::4])
    gate = harness.Gate()
    gates.audit_epsilon(gate, "broken", gen.EPSILON_M, ts, xs, ys, broken)
    assert len(gate.failures) == 1 and "max deviation" in gate.failures[0]
    result = {"failed": 1, "attempted": 1, "metrics": {}}
    assert json.loads(run.contract_line(result))["correct"] is False


def test_ledger_gate_rejects_a_wrong_ground_truth():
    from repro.engine import FeedReport

    truth = {"fixes": 10, "dups": 1, "teleports": 0, "swaps": 0, "gaps": 0, "zone_splits": 0}
    good = FeedReport(fixes_in=10, fixes_out=9, dropped={"duplicate": 1})
    gate = harness.Gate()
    gates.check_ledger(gate, "good", good, truth)
    assert gate.failures == []
    gates.check_ledger(gate, "bad", good, {**truth, "dups": 2})
    assert len(gate.failures) == 1


def test_yardstick_keeps_the_error_bound_in_one_pass():
    for name, regime in gen.REGIMES.items():
        ts, xs, ys = regime(3000, random.Random(2))
        simplifier = yardstick.SectorSimplifier(gen.EPSILON_M)
        for s in range(0, len(ts), 700):  # chunk boundaries must not matter
            simplifier.push_xyt(ts[s:s + 700], xs[s:s + 700], ys[s:s + 700])
        result = simplifier.finish()
        gate = harness.Gate()
        gates.audit_epsilon(gate, name, gen.EPSILON_M, ts, xs, ys, result)
        assert gate.failures == [], name
        assert len(result.key_points) < len(ts) / 4


def test_without_a_program_to_measure_the_benchmark_refuses(tmp_path):
    import shutil

    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "device_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_times_and_rates_are_read_at_nominal_speed_counts_are_not():
    ctx = harness.Context("device_stream", ".", ".", 1.0, 0, False, 0.0)
    ctx._reference = [harness.REFERENCE_LOOP_S * 2.5, harness.REFERENCE_LOOP_S * 2]
    ctx.setup_s = 3.0
    ctx.put("op_ms_p50", metrics.exact(10.0))
    ctx.put("throughput_per_s", metrics.exact(100.0))
    ctx.put("key_point_rate", metrics.exact(0.05))
    result = ctx.result()
    got = {n: m["value"] for n, m in result["metrics"].items()}
    assert got == {"op_ms_p50": 5.0, "throughput_per_s": 200.0, "key_point_rate": 0.05}
    assert result["setup_s"] == 1.5
    assert harness.fastest_steps([[3, 1, 2], [1, 2, 3]]) == [1, 1, 2]
