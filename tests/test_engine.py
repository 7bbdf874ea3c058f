"""Fleet engine tests: determinism, bounded-memory policies, sharding.

The engine's contract is that multiplexing never changes compression
output: every device's trajectory must equal the one produced by running
that device's fixes through its own compressor sequentially, regardless of
how the interleaved stream is batched, which entry point is used, or how
many worker processes shard the fleet.
"""

import functools

import pytest

from repro.compression import BQSCompressor, FastBQSCompressor
from repro.engine import (
    BatchIngestError,
    SanitizePolicy,
    ShardedStreamEngine,
    StreamEngine,
    fleet_fixes,
    inject_disorder,
    iter_fix_batches,
    shard_of,
)


def _factory(device_id):
    return BQSCompressor(10.0)


def _fast_factory(epsilon, device_id):
    """Module-level (and partial-friendly): picklable for sharded workers."""
    return FastBQSCompressor(epsilon)


def _sequential_reference(ids, cols, make=_factory):
    per_device = {}
    for i, device_id in enumerate(ids):
        per_device.setdefault(device_id, ([], [], []))
        ts, xs, ys = per_device[device_id]
        ts.append(cols.ts[i])
        xs.append(cols.xs[i])
        ys.append(cols.ys[i])
    reference = {}
    for device_id, (ts, xs, ys) in per_device.items():
        compressor = make(device_id)
        compressor.push_xyt(ts, xs, ys)
        reference[device_id] = compressor.finish().key_points
    return reference


@pytest.fixture(scope="module")
def fleet():
    return fleet_fixes(30, 200, seed=5)


class TestSimulate:
    def test_deterministic_and_interleaved(self):
        ids_a, cols_a = fleet_fixes(8, 50, seed=2)
        ids_b, cols_b = fleet_fixes(8, 50, seed=2)
        _, cols_c = fleet_fixes(8, 50, seed=3)
        assert ids_a == ids_b and cols_a == cols_b
        assert cols_a != cols_c  # a different seed moves the fleet
        assert len(ids_a) == 8 * 50
        # Interleaved: consecutive fixes belong to different devices.
        assert ids_a[0] != ids_a[1]
        # Globally non-decreasing timestamps (shared 1 Hz clock).
        assert list(cols_a.ts) == sorted(cols_a.ts)

    def test_batch_iterator_covers_stream(self, fleet):
        ids, cols = fleet
        seen = 0
        for batch_ids, ts, xs, ys in iter_fix_batches(ids, cols, 999):
            assert len(batch_ids) == len(ts) == len(xs) == len(ys)
            seen += len(batch_ids)
        assert seen == len(ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            fleet_fixes(0, 10)
        with pytest.raises(ValueError):
            fleet_fixes(3, 0)
        ids, cols = fleet_fixes(2, 5)
        with pytest.raises(ValueError):
            list(iter_fix_batches(ids, cols, 0))


class TestStreamEngine:
    def test_matches_sequential_per_device_run(self, fleet):
        ids, cols = fleet
        reference = _sequential_reference(ids, cols)
        engine = StreamEngine(_factory)
        for batch in iter_fix_batches(ids, cols, 701):
            engine.push_columns(*batch)
        results = engine.finish_all()
        assert set(results) == set(reference)
        for device_id, expected in reference.items():
            assert len(results[device_id]) == 1
            assert results[device_id][0].key_points == expected, device_id
        assert engine.total_fixes == len(ids)
        assert engine.sealed_trajectories == len(reference)

    def test_batching_invariance(self, fleet):
        """One giant batch, odd chunks, and tuple-based push_batch agree."""
        ids, cols = fleet
        one = StreamEngine(_factory)
        one.push_columns(ids, cols.ts, cols.xs, cols.ys)
        res_one = one.finish_all()

        tup = StreamEngine(_factory)
        fixes = list(zip(ids, cols.ts, cols.xs, cols.ys))
        for start in range(0, len(fixes), 333):
            tup.push_batch(fixes[start:start + 333])
        res_tup = tup.finish_all()

        fix_by_fix = StreamEngine(_factory)
        for device_id, t, x, y in fixes[:600]:
            fix_by_fix.push_fix(device_id, t, x, y)

        assert {d: v[0].key_points for d, v in res_one.items()} == {
            d: v[0].key_points for d, v in res_tup.items()
        }
        assert fix_by_fix.total_fixes == 600

    def test_max_devices_lru_eviction(self, fleet):
        ids, cols = fleet
        engine = StreamEngine(_factory, max_devices=7)
        for batch in iter_fix_batches(ids, cols, 500):
            engine.push_columns(*batch)
        assert engine.active_devices <= 7
        assert engine.evictions > 0
        results = engine.finish_all()
        # Every sealed segment is still a valid error-bounded trajectory.
        total = sum(len(v) for v in results.values())
        assert total == engine.sealed_trajectories
        assert total > len(set(ids))  # eviction split streams

    def test_idle_timeout_eviction(self):
        engine = StreamEngine(_factory, idle_timeout=50.0)
        # Device a reports continuously; device b goes quiet at t=10.
        engine.push_batch([("a", float(t), float(t), 0.0) for t in range(10)])
        engine.push_batch([("b", float(t), 0.0, float(t)) for t in range(10)])
        assert engine.active_devices == 2
        engine.push_batch([("a", 100.0, 100.0, 0.0)])
        assert engine.active_devices == 1
        assert engine.evictions == 1
        assert "b" in engine.results  # sealed trajectory delivered

    def test_on_finish_callback_without_collect(self):
        sealed = []
        engine = StreamEngine(
            _factory,
            collect=False,
            on_finish=lambda device_id, traj: sealed.append((device_id, len(traj))),
        )
        engine.push_batch([("x", 0.0, 0.0, 0.0), ("x", 1.0, 5.0, 0.0)])
        results = engine.finish_all()
        assert results == {}
        assert sealed == [("x", 2)]

    def test_finish_device_and_unknown_device(self):
        engine = StreamEngine(_factory)
        engine.push_fix("a", 0.0, 0.0, 0.0)
        trajectory = engine.finish_device("a")
        assert len(trajectory) == 1
        with pytest.raises(KeyError):
            engine.finish_device("a")

    def test_column_length_validation(self):
        engine = StreamEngine(_factory)
        with pytest.raises(ValueError, match="length mismatch"):
            engine.push_columns(["a"], [0.0, 1.0], [0.0], [0.0])

    def test_zero_consuming_batch_does_not_refresh_lru(self):
        """A device spamming invalid fixes must not promote itself over
        healthy quiet devices in the eviction order."""
        engine = StreamEngine(_factory, max_devices=2)
        engine.push_batch([("a", 10.0, 0.0, 0.0), ("b", 10.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            engine.push_batch([("a", 1.0, 0.0, 0.0)])  # consumes nothing
        assert engine.device_ids() == ["a", "b"]  # "a" stays least recent
        engine.push_batch([("c", 11.0, 0.0, 0.0)])  # cap evicts "a"
        assert engine.device_ids() == ["b", "c"]
        assert engine.evictions == 1

    def test_mid_batch_error_keeps_accounting_consistent(self):
        """A device whose columns fail mid-ingest keeps its valid prefix,
        and the engine's clock/counters match what was actually consumed —
        so eviction policies keep working after the error."""
        engine = StreamEngine(_factory, idle_timeout=50.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.push_batch(
                [
                    ("a", 0.0, 0.0, 0.0),
                    ("a", 1.0, 1.0, 0.0),
                    ("b", 10.0, 0.0, 0.0),
                    ("b", 5.0, 0.0, 0.0),  # travels back in time
                ]
            )
        assert engine.total_fixes == 3  # a: 2, b: valid prefix of 1
        assert engine.clock == 10.0
        # Device b's recency reflects its consumed prefix: it is NOT
        # spuriously idle-evicted by the next nearby batch...
        engine.push_batch([("a", 30.0, 2.0, 0.0)])
        assert engine.active_devices == 2
        # ...but a genuinely idle device still ages out.
        engine.push_batch([("a", 100.0, 3.0, 0.0)])
        assert engine.active_devices == 1
        assert engine.evictions == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StreamEngine(_factory, max_devices=0)
        with pytest.raises(ValueError):
            StreamEngine(_factory, idle_timeout=0.0)

    def test_mid_batch_error_reports_consumption(self):
        """The trusted path's mid-batch failure is a BatchIngestError (a
        ValueError, so existing handlers keep working) that names the
        device, the failing fix index within the device's columns, and
        how much of the batch WAS consumed — the caller's resume point."""
        engine = StreamEngine(_factory)
        with pytest.raises(BatchIngestError) as info:
            engine.push_batch(
                [
                    ("a", 0.0, 0.0, 0.0),
                    ("a", 1.0, 1.0, 0.0),
                    ("b", 10.0, 0.0, 0.0),
                    ("b", 5.0, 0.0, 0.0),
                ]
            )
        err = info.value
        assert isinstance(err, ValueError)
        assert err.device_id == "b"
        assert err.device_consumed == 1  # b's valid prefix
        assert err.consumed == 3  # a: 2, b: 1 — matches engine.total_fixes
        assert engine.total_fixes == 3
        assert "consumed 3 fixes" in str(err)
        assert "'b'" in str(err)


class TestShardedStreamEngine:
    def test_shard_of_is_stable_and_total(self):
        assert shard_of("dev-0001", 4) == shard_of("dev-0001", 4)
        assert {shard_of(f"dev-{i}", 3) for i in range(50)} <= {0, 1, 2}
        assert shard_of(b"raw", 2) in (0, 1)
        assert shard_of(42, 2) in (0, 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_single_process_engine(self, fleet, workers):
        ids, cols = fleet
        factory = functools.partial(_fast_factory, 10.0)
        single = StreamEngine(factory)
        single.push_columns(ids, cols.ts, cols.xs, cols.ys)
        expected = {d: v[0].key_points for d, v in single.finish_all().items()}

        sharded = ShardedStreamEngine(factory, workers=workers)
        try:
            for batch in iter_fix_batches(ids, cols, 777):
                sharded.push_columns(*batch)
            results = sharded.finish_all()
        finally:
            sharded.close()
        assert {d: v[0].key_points for d, v in results.items()} == expected

    def test_push_batch_tuples(self, fleet):
        ids, cols = fleet
        factory = functools.partial(_fast_factory, 10.0)
        single = StreamEngine(factory)
        single.push_columns(ids, cols.ts, cols.xs, cols.ys)
        expected = {d: v[0].key_points for d, v in single.finish_all().items()}
        with ShardedStreamEngine(factory, workers=2) as sharded:
            n = sharded.push_batch(
                (ids[i], cols.ts[i], cols.xs[i], cols.ys[i])
                for i in range(len(ids))
            )
            assert n == len(ids)
            results = sharded.finish_all()
        assert {d: v[0].key_points for d, v in results.items()} == expected

    def test_worker_error_surfaces_at_finish(self):
        factory = functools.partial(_fast_factory, 10.0)
        sharded = ShardedStreamEngine(factory, workers=2)
        try:
            sharded.push_batch([("a", 5.0, 0.0, 0.0), ("a", 1.0, 0.0, 0.0)])
            with pytest.raises(RuntimeError, match="non-decreasing"):
                sharded.finish_all()
        finally:
            sharded.close()

    def test_dead_worker_surfaces_as_runtime_error(self):
        """A worker killed mid-stream must not escape as a raw EOFError,
        and the remaining processes must still be torn down."""
        import os
        import signal
        import time

        factory = functools.partial(_fast_factory, 10.0)
        sharded = ShardedStreamEngine(factory, workers=2)
        sharded.push_batch([("a", 0.0, 0.0, 0.0), ("b", 0.0, 1.0, 1.0)])
        os.kill(sharded._procs[0].pid, signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(RuntimeError, match="sharded ingestion failed"):
            sharded.finish_all()
        assert sharded._procs == [] and sharded._conns == []

    def test_finish_twice_rejected(self):
        factory = functools.partial(_fast_factory, 10.0)
        sharded = ShardedStreamEngine(factory, workers=1)
        sharded.finish_all()
        with pytest.raises(RuntimeError):
            sharded.finish_all()

    def test_use_after_close_raises_lifecycle_error(self):
        factory = functools.partial(_fast_factory, 10.0)
        sharded = ShardedStreamEngine(factory, workers=1)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.push_batch([("a", 0.0, 0.0, 0.0)])
        with pytest.raises(RuntimeError, match="closed"):
            sharded.push_columns(["a"], [0.0], [0.0], [0.0])
        with pytest.raises(RuntimeError, match="closed"):
            sharded.finish_all()
        with ShardedStreamEngine(factory, workers=2) as scoped:
            scoped.push_batch([("a", 0.0, 0.0, 0.0)])
        with pytest.raises(RuntimeError, match="closed"):
            scoped.push_batch([("a", 1.0, 0.0, 0.0)])
        with pytest.raises(RuntimeError, match="closed"):
            scoped.finish_all()

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ShardedStreamEngine(functools.partial(_fast_factory, 10.0), workers=0)


class TestEngineCLI:
    def test_main_single_process(self, capsys):
        from repro.engine.__main__ import main

        assert main(["--devices", "5", "--fixes", "40"]) == 0
        out = capsys.readouterr().out
        assert "fixes/s" in out
        assert "200 fixes -> 5 trajectories" in out

    def test_main_sharded(self, capsys):
        from repro.engine.__main__ import main

        assert main(["--devices", "5", "--fixes", "40", "--workers", "2"]) == 0
        assert "trajectories" in capsys.readouterr().out

    def test_main_dirty_check_feed(self, capsys):
        """The CI smoke path: inject known disorder, sanitize, and demand
        the ledger equals the injection ground truth exactly."""
        from repro.engine.__main__ import main

        assert main(
            [
                "--devices", "6", "--fixes", "60", "--dirty",
                "--swaps", "4", "--dups", "3", "--teleports", "2",
                "--gaps", "1", "--check-feed",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "duplicate=3" in out
        assert "out_of_order=4" in out
        assert "teleport=2" in out
        assert "gap=1" in out
        assert "feed report matches injection ground truth" in out

    def test_main_dirty_check_feed_reorder_mode(self, capsys):
        from repro.engine.__main__ import main

        assert main(
            [
                "--devices", "5", "--fixes", "50", "--dirty",
                "--swaps", "5", "--max-lateness", "2.0", "--check-feed",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "reordered 5" in out
        assert "out_of_order" not in out  # repaired, not dropped

    def test_main_dirty_flag_validation(self, capsys):
        from repro.engine.__main__ import main

        with pytest.raises(SystemExit):
            main(["--devices", "5", "--fixes", "40", "--swaps", "3"])
        with pytest.raises(SystemExit):
            main(["--devices", "5", "--fixes", "40", "--check-feed"])
        assert "--dirty" in capsys.readouterr().err

    def test_ingest_csv(self, tmp_path, capsys):
        from repro.engine.__main__ import main

        csv_path = tmp_path / "feed.csv"
        csv_path.write_text(
            "device_id,t,x,y\n"
            "a,0.0,0.0,0.0\n"
            "a,1.0,1.0,0.0\n"
            "a,1.0,9.0,0.0\n"  # duplicate timestamp
            "a,0.5,0.5,0.0\n"  # out of order
            "b,0.0,5.0,5.0\n"
            "b,1.0,6.0,5.0\n"
            "b,5000.0,7.0,5.0\n"  # gap -> split
        )
        assert main(["ingest-csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "7 rows" in out
        assert "3 trajectories" in out  # a, b before gap, b after gap
        assert "duplicate=1" in out and "out_of_order=1" in out
        assert "gap=1" in out

    def test_ingest_csv_to_store(self, tmp_path, capsys):
        from repro.engine.__main__ import main
        from repro.storage import TrajectoryStore

        csv_path = tmp_path / "feed.csv"
        csv_path.write_text(
            "device_id,t,x,y\n"
            + "\n".join(f"a,{i}.0,{i}.0,0.0" for i in range(20))
            + "\n"
        )
        store_dir = tmp_path / "store"
        assert main(
            ["ingest-csv", str(csv_path), "--store", str(store_dir)]
        ) == 0
        with TrajectoryStore(store_dir) as store:
            assert list(store.devices()) == ["a"]
            assert store.record_count == 1

    def test_ingest_csv_malformed_row_fails_loudly(self, tmp_path, capsys):
        from repro.engine.__main__ import main

        csv_path = tmp_path / "feed.csv"
        csv_path.write_text("device_id,t,x,y\na,0.0,0.0,0.0\na,not-a-number,1.0,0.0\n")
        assert main(["ingest-csv", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err


class TestSinks:
    """Sealed streams flow through the Sink protocol — eviction included."""

    def test_eviction_cannot_be_dropped(self):
        """The satellite guarantee: with collect off and no callback, a
        sink still receives every LRU- and idle-evicted trajectory."""
        from repro.engine import ListSink

        sink = ListSink()
        engine = StreamEngine(
            _factory, collect=False, sink=sink, max_devices=2
        )
        for i in range(5):
            engine.push_fix(f"d{i}", float(i), float(i), 0.0)
        assert engine.evictions == 3
        assert engine.results == {}  # engine retains nothing itself
        assert sorted(sink.results) == ["d0", "d1", "d2"]  # evicted, delivered
        engine.finish_all()
        assert sorted(sink.results) == [f"d{i}" for i in range(5)]
        assert len(sink) == 5

    def test_idle_eviction_reaches_sink(self):
        from repro.engine import ListSink

        sink = ListSink()
        engine = StreamEngine(
            _factory, collect=False, sink=sink, idle_timeout=10.0
        )
        engine.push_fix("quiet", 0.0, 0.0, 0.0)
        engine.push_fix("chatty", 5.0, 1.0, 1.0)
        engine.push_fix("chatty", 100.0, 2.0, 2.0)  # clock jumps past horizon
        assert engine.evictions == 1
        assert list(sink.results) == ["quiet"]

    def test_all_delivery_paths_agree(self, fleet):
        """collect ledger, on_finish callback and sink see identical output."""
        from repro.engine import ListSink

        ids, cols = fleet
        sink = ListSink()
        calls = []
        engine = StreamEngine(
            _factory,
            sink=sink,
            on_finish=lambda d, t: calls.append((d, t)),
        )
        for batch in iter_fix_batches(ids, cols, 512):
            engine.push_columns(*batch)
        results = engine.finish_all()
        assert sink.results == results
        assert dict((d, [t]) for d, t in calls) == results

    def test_callback_sink_adapts_plain_function(self):
        from repro.engine import CallbackSink

        seen = []
        sink = CallbackSink(lambda d, t: seen.append(d))
        engine = StreamEngine(_factory, collect=False, sink=sink)
        engine.push_fix("x", 0.0, 0.0, 0.0)
        engine.finish_all()
        sink.close()
        assert seen == ["x"]

    def test_list_sink_shares_caller_dict(self):
        from repro.engine import ListSink

        target = {}
        sink = ListSink(target)
        engine = StreamEngine(_factory, collect=False, sink=sink)
        engine.push_fix("x", 0.0, 0.0, 0.0)
        engine.finish_all()
        assert list(target) == ["x"]

    def test_sink_protocol_runtime_checkable(self):
        from repro.engine import CallbackSink, ListSink, Sink

        assert isinstance(ListSink(), Sink)
        assert isinstance(CallbackSink(lambda d, t: None), Sink)


class TestSanitizedEngine:
    """The policy path: FeedSanitizer in front of every compressor."""

    def test_clean_input_output_matches_trusted_path(self, fleet):
        """Transparency: on clean input a sanitizing engine produces the
        same trajectories as the trusted path, key point for key point
        (CI's dirty-feed smoke leans on this for the clean-input side)."""
        ids, cols = fleet
        trusted = StreamEngine(_factory)
        trusted.push_columns(ids, cols.ts, cols.xs, cols.ys)
        expected = {d: [t.key_points for t in v] for d, v in trusted.finish_all().items()}

        policy = SanitizePolicy(max_speed_mps=50.0, gap_seconds=600.0)
        sanitized = StreamEngine(_factory, policy=policy)
        for batch in iter_fix_batches(ids, cols, 701):
            sanitized.push_columns(*batch)
        results = sanitized.finish_all()
        assert {d: [t.key_points for t in v] for d, v in results.items()} == expected
        report = sanitized.feed_report()
        assert report.fixes_in == report.fixes_out == len(ids)
        assert report.dropped == {} and report.splits == {}

    def test_gap_split_produces_separate_trajectories(self):
        policy = SanitizePolicy(gap_seconds=60.0)
        engine = StreamEngine(_factory, policy=policy)
        engine.push_batch(
            [("a", 0.0, 0.0, 0.0), ("a", 1.0, 1.0, 0.0)]
            + [("a", 5000.0, 50.0, 0.0), ("a", 5001.0, 51.0, 0.0)]
        )
        results = engine.finish_all()
        assert len(results["a"]) == 2
        assert [len(t) for t in results["a"]] == [2, 2]
        assert engine.sealed_trajectories == 2
        report = engine.feed_report()
        assert report.splits == {"gap": 1}
        assert report.reconciles

    def test_dirty_stream_drops_are_ledgered(self):
        ids, cols = fleet_fixes(6, 60, seed=17)
        out_ids, ts, xs, ys, summary = inject_disorder(
            ids, cols.ts, cols.xs, cols.ys, swaps=4, dups=3, teleports=2, gaps=1
        )
        policy = SanitizePolicy(max_speed_mps=50.0, gap_seconds=60.0)
        engine = StreamEngine(_factory, policy=policy)
        engine.push_columns(out_ids, ts, xs, ys)
        results = engine.finish_all()
        report = engine.feed_report()
        assert report.reconciles
        assert report.dropped == {
            "out_of_order": summary.swaps,
            "duplicate": summary.dups,
            "teleport": summary.teleports,
        }
        assert report.splits == {"gap": summary.gaps}
        # Every sealed trajectory is non-empty and per-device reports
        # roll up to the fleet report.
        assert all(len(t) > 0 for v in results.values() for t in v)
        per_device = engine.device_feed_reports()
        assert sum(r.fixes_in for r in per_device.values()) == report.fixes_in
        assert sum(r.dropped_total for r in per_device.values()) == report.dropped_total

    def test_reorder_mode_preserves_output_across_eviction(self):
        """A lateness window survives engine eviction: the sanitizer's
        buffer is flushed into the stream before the device is sealed, so
        no fix is silently lost."""
        policy = SanitizePolicy(max_lateness=5.0)
        engine = StreamEngine(_factory, policy=policy, max_devices=2)
        engine.push_batch([("a", 0.0, 0.0, 0.0), ("a", 1.0, 1.0, 0.0)])
        engine.push_batch([("b", 2.0, 0.0, 0.0), ("c", 3.0, 0.0, 0.0)])
        engine.finish_all()
        report = engine.feed_report()
        assert report.reconciles
        assert report.buffered == 0
        assert report.fixes_out == 4  # every buffered fix reached a compressor

    def test_empty_stream_after_drops_emits_nothing(self):
        """A device whose every fix is dropped must not seal an empty
        trajectory."""
        policy = SanitizePolicy(max_speed_mps=10.0)
        engine = StreamEngine(_factory, policy=policy)
        # One good fix, then only duplicates of it.
        engine.push_batch(
            [("a", 0.0, 0.0, 0.0), ("b", 0.0, 0.0, 0.0), ("b", 0.0, 0.0, 0.0)]
        )
        results = engine.finish_all()
        assert len(results["a"]) == 1 and len(results["b"]) == 1
        # Now a device with zero surviving fixes: all non-finite.
        engine2 = StreamEngine(_factory, policy=policy)
        engine2.push_batch([("z", float("nan"), 0.0, 0.0)])
        assert engine2.finish_all() == {}
        assert engine2.sealed_trajectories == 0
        assert engine2.feed_report().dropped == {"non_finite": 1}

    def test_sharded_policy_transport(self):
        """The policy ships to workers; sharded output and ledger match
        the single-process sanitizing engine."""
        ids, cols = fleet_fixes(8, 50, seed=23)
        out_ids, ts, xs, ys, summary = inject_disorder(
            ids, cols.ts, cols.xs, cols.ys, swaps=3, dups=3, teleports=2, gaps=1
        )
        policy = SanitizePolicy(max_speed_mps=50.0, gap_seconds=60.0)
        factory = functools.partial(_fast_factory, 10.0)

        single = StreamEngine(factory, policy=policy)
        single.push_columns(out_ids, ts, xs, ys)
        expected = {
            d: [t.key_points for t in v] for d, v in single.finish_all().items()
        }
        expected_report = single.feed_report()

        with ShardedStreamEngine(factory, workers=2, policy=policy) as sharded:
            sharded.push_columns(out_ids, ts, xs, ys)
            results = sharded.finish_all()
            report = sharded.feed_report()
        assert {
            d: [t.key_points for t in v] for d, v in results.items()
        } == expected
        assert report.to_json() == expected_report.to_json()
        assert report.reconciles
