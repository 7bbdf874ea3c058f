"""End-to-end geodetic tests: GPS in, zone-stamped storage, lat/lon out.

The acceptance surface of the GPS-native stack:

* :class:`GeoStreamEngine` determinism — identical key points to
  projecting each device's fixes oneself and running its compressor
  sequentially (the engine adds multiplexing, never behaviour).
* Zone stamping — every blob written by ``StoreSink`` carries the UTM
  zone/hemisphere selected from the device's first fix, readable from
  both the index envelope and the decoded header, surviving reopen and
  compaction.
* Geographic range queries — for a multi-zone noisy fleet and seeded
  random lat/lon rectangles, ``definite ⊆ truth ⊆ exact ⊆ approximate``
  against a brute-force scan of the raw GPS traces, where matches from
  different zones are each tested in their own frame.
* The conservative rectangle projection that guarantee rests on.
* The CLI surfaces (``repro.engine --geodetic``, ``repro.storage ingest
  --geodetic`` / ``query --geo-rect``).
"""

import functools
import random

import pytest

from repro.compression import BQSCompressor
from repro.engine import (
    GeoStreamEngine,
    ShardedStreamEngine,
    bqs_fleet_factory,
    gps_fleet_fixes,
    iter_geo_fix_batches,
)
from repro.model.projection import UTMProjection, utm_zone_for
from repro.storage import (
    QueryMatch,
    StoreSink,
    TrajectoryStore,
    geo_range_query,
    geo_rect_to_plane,
    range_query,
)
from repro.storage import query as query_module
from repro.storage.query import geo_envelope_of
from repro.storage import __main__ as storage_cli
from repro.engine import __main__ as engine_cli
from repro.storage.store import shard_store_sink

EPSILON = 10.0


def _factory(device_id):
    return BQSCompressor(EPSILON)


def _fleet(devices=10, fixes=80, seed=11, **kw):
    return gps_fleet_fixes(devices, fixes, seed=seed, **kw)


def _first_fix_projection(ids, lats, lons, device):
    for d, la, lo in zip(ids, lats, lons):
        if d == device:
            return UTMProjection.for_coordinate(la, lo)
    raise AssertionError(f"no fixes for {device}")


def _brute_devices(ids, lats, lons, rect, ts=None, t0=None, t1=None):
    lat0, lon0, lat1, lon1 = rect
    inside = set()
    for i, d in enumerate(ids):
        if t0 is not None and not (t0 <= ts[i] <= t1):
            continue
        if lat0 <= lats[i] <= lat1 and lon0 <= lons[i] <= lon1:
            inside.add(d)
    return inside


class TestGeoStreamEngine:
    def test_matches_sequential_per_device(self):
        """Engine output == project-it-yourself + sequential compression."""
        ids, ts, lats, lons = _fleet(multi_zone=True)
        engine = GeoStreamEngine(_factory)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 113):
            engine.push_columns(*batch)
        results = engine.finish_all()

        per_device = {}
        for d, t, la, lo in zip(ids, ts, lats, lons):
            per_device.setdefault(d, []).append((t, la, lo))
        for device, fixes in per_device.items():
            projection = UTMProjection.for_coordinate(fixes[0][1], fixes[0][2])
            reference = BQSCompressor(EPSILON)
            t_col = [f[0] for f in fixes]
            xs, ys = projection.forward_columns(
                [f[1] for f in fixes], [f[2] for f in fixes]
            )
            reference.push_xyt(t_col, xs, ys)
            expected = reference.finish()
            (got,) = results[device]
            assert got.key_points == expected.key_points
            assert got.frame == projection

    def test_zone_selected_from_first_fix(self):
        ids, ts, lats, lons = _fleet(multi_zone=True)
        engine = GeoStreamEngine(_factory)
        engine.push_columns(ids, ts, lats, lons)
        for device in set(ids):
            expected = _first_fix_projection(ids, lats, lons, device)
            assert engine.projection_for(device) == expected
        results = engine.finish_all()
        # Sealing forgets the projection and stamps the trajectory.
        for device, trajectories in results.items():
            assert engine.projection_for(device) is None
            assert trajectories[0].frame == _first_fix_projection(
                ids, lats, lons, device
            )

    def test_eviction_reselects_zone(self):
        """A device evicted in one zone and reappearing in another gets a
        fresh frame — the geodetic mirror of fresh-compressor semantics."""
        engine = GeoStreamEngine(_factory, max_devices=1)
        engine.push_fix("a", 0.0, 41.0, 9.1)  # zone 32
        engine.push_fix("a", 1.0, 41.0, 9.2)
        engine.push_fix("b", 2.0, 41.0, 9.0)  # evicts "a"
        engine.push_fix("a", 3.0, -23.0, -48.0)  # "a" reappears, zone 23 south
        results = engine.finish_all()
        first, second = results["a"]
        assert first.frame == UTMProjection(zone=32, south=False)
        assert second.frame == UTMProjection(zone=23, south=True)
        assert results["b"][0].frame == UTMProjection(zone=32, south=False)

    def test_mid_batch_eviction_keeps_frame_consistent(self):
        """Regression: a device LRU-evicted *inside* a batch that also
        carries later fixes for it reopens mid-dispatch; the reopened
        stream holds coordinates projected in the old frame, so the
        registry must keep that frame — not re-select a zone from the
        next batch's first fix and stamp mixed-frame output."""
        engine = GeoStreamEngine(_factory, max_devices=1)
        engine.push_fix("a", 0.0, 41.0, 9.1)  # "a" opens in zone 32
        # One batch: new device "b" first (its open evicts "a"), then
        # more fixes for "a" — which reopen it mid-dispatch.
        engine.push_columns(
            ("b", "a", "a"),
            (1.0, 2.0, 3.0),
            (41.0, 41.0, 41.0),
            (9.0, 9.1, 9.1),
        )
        # The reopened stream's coordinates were projected in zone 32;
        # the registry must still say zone 32.
        assert engine.projection_for("a") == UTMProjection(zone=32, south=False)
        # Later fixes that would select a different zone keep the frame.
        engine.push_fix("b", 4.0, 41.0, 9.0)  # evicts "a" again (sealed)
        results = engine.finish_all()
        first, second = results["a"]
        assert first.frame == UTMProjection(zone=32, south=False)
        assert second.frame == UTMProjection(zone=32, south=False)
        # And the reopened stream's key points really are zone-32 metres.
        proj = UTMProjection(zone=32, south=False)
        x, y = proj.forward(41.0, 9.1)
        assert second.key_points[0].x == pytest.approx(x, abs=1e-6)
        assert second.key_points[0].y == pytest.approx(y, abs=1e-6)

    def test_sharded_geodetic_identical(self):
        ids, ts, lats, lons = _fleet(multi_zone=True, noise_m=2.0)
        single = GeoStreamEngine(_factory)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 97):
            single.push_columns(*batch)
        expected = single.finish_all()
        with ShardedStreamEngine(_factory, workers=2, geodetic=True) as sharded:
            for batch in iter_geo_fix_batches(ids, ts, lats, lons, 97):
                sharded.push_columns(*batch)
            got = sharded.finish_all()
        assert set(got) == set(expected)
        for device in expected:
            assert [t.key_points for t in got[device]] == [
                t.key_points for t in expected[device]
            ]
            assert [t.frame for t in got[device]] == [
                t.frame for t in expected[device]
            ]

    def test_column_length_mismatch(self):
        engine = GeoStreamEngine(_factory)
        with pytest.raises(ValueError):
            engine.push_columns(("a",), (0.0,), (1.0,), (1.0, 2.0))

    def test_failed_dispatch_does_not_leak_projections(self):
        """Regression: a batch that errors before a new device's group is
        ingested must not leave that device's zone pinned in the registry
        (the entry would outlive any stream and shadow the zone of the
        first fix actually ingested later)."""
        engine = GeoStreamEngine(_factory)
        engine.push_fix("a", 10.0, 41.0, 9.1)
        # "a"'s group has a backwards timestamp -> dispatch raises; "b"
        # is new in the same batch and may never have been opened.
        with pytest.raises(ValueError):
            engine.push_columns(
                ("a", "b"), (5.0, 6.0), (41.0, -23.0), (9.1, -48.0)
            )
        # Registry entries correspond exactly to open inner streams.
        open_ids = set(engine.device_ids())
        assert set(
            d for d in ("a", "b") if engine.projection_for(d) is not None
        ) == {d for d in ("a", "b") if d in open_ids}
        # "b" arriving later from the southern cluster gets its real zone.
        engine.push_fix("b", 20.0, -23.0, -48.0)
        assert engine.projection_for("b") == UTMProjection(zone=23, south=True)


class TestGeoSanitized:
    """Boundary validation, policy filtering, and zone splitting."""

    def test_invalid_coordinate_named_without_policy(self):
        from repro.engine import BatchIngestError

        engine = GeoStreamEngine(_factory)
        engine.push_fix("a", 0.0, 41.0, 9.1)
        with pytest.raises(BatchIngestError) as info:
            engine.push_columns(
                ("a", "a", "b"),
                (1.0, 2.0, 0.0),
                (41.0, 95.0, 41.0),
                (9.1, 9.1, 9.0),
            )
        err = info.value
        assert err.device_id == "a"
        assert err.index == 1  # the offending fix within a's columns
        assert "out_of_range" in str(err)
        assert "95.0" in str(err)
        # Validation screens the whole batch before ANY dispatch: neither
        # a's valid prefix nor b was consumed, and b got no projection.
        assert engine.total_fixes == 1
        assert engine.projection_for("b") is None

    def test_non_finite_coordinate_named_without_policy(self):
        from repro.engine import BatchIngestError

        engine = GeoStreamEngine(_factory)
        with pytest.raises(BatchIngestError, match="non_finite"):
            engine.push_columns(
                ("a",), (0.0,), (41.0,), (float("nan"),)
            )
        assert engine.total_fixes == 0

    def test_policy_filters_invalid_coordinates(self):
        from repro.engine import SanitizePolicy

        engine = GeoStreamEngine(_factory, policy=SanitizePolicy())
        n = engine.push_columns(
            ("a", "a", "a", "a"),
            (0.0, 1.0, 2.0, 3.0),
            (41.0, 95.0, 41.001, 41.002),
            (9.1, 9.1, float("inf"), 9.103),
        )
        assert n == 2  # the two valid fixes
        results = engine.finish_all()
        assert len(results["a"]) == 1 and len(results["a"][0]) == 2
        report = engine.feed_report()
        assert report.reconciles
        assert report.dropped == {"non_finite": 1, "out_of_range": 1}

    def test_zone_split_seals_in_old_frame_and_reopens(self):
        """A device crossing a UTM boundary with split_zones gets one
        trajectory per zone, each stamped with the frame its coordinates
        were projected in."""
        from repro.engine import SanitizePolicy

        policy = SanitizePolicy(split_zones=True, zone_margin_deg=0.05)
        engine = GeoStreamEngine(_factory, policy=policy)
        # Zone 32 is lon [6, 12); walk across into zone 33.
        lons = [11.90, 11.95, 12.40, 12.45]
        engine.push_columns(
            ("a",) * 4,
            (0.0, 1.0, 2.0, 3.0),
            (41.0,) * 4,
            lons,
        )
        results = engine.finish_all()
        first, second = results["a"]
        assert first.frame == UTMProjection(zone=32, south=False)
        assert second.frame == UTMProjection(zone=33, south=False)
        assert len(first) == 2 and len(second) == 2
        report = engine.feed_report()
        assert report.splits == {"zone": 1}
        assert report.reconciles

    def test_zone_margin_hysteresis_prevents_shatter(self):
        """A track straddling the boundary within the margin must NOT
        split into per-fix trajectories."""
        from repro.engine import SanitizePolicy

        policy = SanitizePolicy(split_zones=True, zone_margin_deg=0.2)
        engine = GeoStreamEngine(_factory, policy=policy)
        lons = [11.95, 12.05, 11.98, 12.1, 11.9]  # jitter around 12.0
        engine.push_columns(
            ("a",) * 5,
            tuple(float(i) for i in range(5)),
            (41.0,) * 5,
            lons,
        )
        results = engine.finish_all()
        assert len(results["a"]) == 1
        assert engine.feed_report().splits == {}

    def test_two_zone_splits_in_one_batch_stamp_correct_frames(self):
        """Regression: a mid-batch split seals while the device is still
        open — the frame stamp must come from the registry's get path,
        not pop, or the SECOND split in the batch stamps frame=None."""
        from repro.engine import SanitizePolicy

        policy = SanitizePolicy(split_zones=True, zone_margin_deg=0.01)
        engine = GeoStreamEngine(_factory, policy=policy)
        # 32 -> 33 -> back to 32: two splits, three trajectories.
        lons = [11.90, 11.95, 12.50, 12.55, 11.40, 11.35]
        engine.push_columns(
            ("a",) * 6,
            tuple(float(i) for i in range(6)),
            (41.0,) * 6,
            lons,
        )
        results = engine.finish_all()
        frames = [t.frame for t in results["a"]]
        assert frames == [
            UTMProjection(zone=32, south=False),
            UTMProjection(zone=33, south=False),
            UTMProjection(zone=32, south=False),
        ]
        assert engine.feed_report().splits == {"zone": 2}
        # The registry is clean after finish_all.
        assert engine.projection_for("a") is None

    def test_zone_split_composes_with_gap_split(self):
        from repro.engine import SanitizePolicy

        policy = SanitizePolicy(
            split_zones=True, zone_margin_deg=0.01, gap_seconds=60.0
        )
        engine = GeoStreamEngine(_factory, policy=policy)
        engine.push_columns(
            ("a",) * 4,
            (0.0, 1.0, 5000.0, 5001.0),  # gap between 1.0 and 5000.0
            (41.0,) * 4,
            (11.90, 11.91, 12.50, 12.51),  # crossing happens at the gap
        )
        results = engine.finish_all()
        assert len(results["a"]) == 2
        report = engine.feed_report()
        # One seal suffices: the zone cut and the gap land between the
        # same two fixes, and both ledger entries record why.
        assert report.splits["zone"] == 1
        assert results["a"][0].frame == UTMProjection(zone=32, south=False)
        assert results["a"][1].frame == UTMProjection(zone=33, south=False)

    def test_sharded_geodetic_policy_matches_single(self):
        from repro.engine import SanitizePolicy

        ids, ts, lats, lons = _fleet(devices=6, fixes=50, multi_zone=True)
        policy = SanitizePolicy(max_speed_mps=500.0, gap_seconds=3600.0)
        single = GeoStreamEngine(_factory, policy=policy)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 97):
            single.push_columns(*batch)
        expected = single.finish_all()
        expected_report = single.feed_report()
        with ShardedStreamEngine(
            _factory, workers=2, geodetic=True, policy=policy
        ) as sharded:
            for batch in iter_geo_fix_batches(ids, ts, lats, lons, 97):
                sharded.push_columns(*batch)
            got = sharded.finish_all()
            report = sharded.feed_report()
        assert set(got) == set(expected)
        for device in expected:
            assert [t.key_points for t in got[device]] == [
                t.key_points for t in expected[device]
            ]
        assert report.to_json() == expected_report.to_json()


class TestZoneStampedStore:
    def _ingest(self, tmp_path, **fleet_kw):
        ids, ts, lats, lons = _fleet(**fleet_kw)
        sink = StoreSink(tmp_path / "geo")
        engine = GeoStreamEngine(_factory, collect=False, sink=sink)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 211):
            engine.push_columns(*batch)
        engine.finish_all()
        sink.close()
        return ids, ts, lats, lons

    def test_blobs_carry_correct_zone(self, tmp_path):
        ids, ts, lats, lons = self._ingest(tmp_path, multi_zone=True)
        with TrajectoryStore(tmp_path / "geo") as store:
            assert store.record_count == len(set(ids))
            zones = set()
            for ref in store.records():
                expected = _first_fix_projection(ids, lats, lons, ref.device_id)
                # Index envelope and decoded blob header agree with the
                # zone the device's first fix selects.
                assert ref.projection() == expected
                decoded = store.read(ref)
                assert decoded.utm_zone == expected.zone
                assert decoded.utm_south == expected.south
                assert decoded.projection() == expected
                zones.add((ref.utm_zone, ref.utm_south))
            assert len(zones) == 4  # two boundaries x two hemispheres

    def test_frame_survives_reopen_and_compaction(self, tmp_path):
        ids, _, lats, lons = self._ingest(tmp_path, multi_zone=True)
        with TrajectoryStore(tmp_path / "geo") as store:
            before = {
                r.device_id: (r.utm_zone, r.utm_south) for r in store.records()
            }
            store.compact()
            after = {
                r.device_id: (r.utm_zone, r.utm_south) for r in store.records()
            }
            assert after == before
        with TrajectoryStore(tmp_path / "geo") as store:
            assert {
                r.device_id: (r.utm_zone, r.utm_south) for r in store.records()
            } == before

    def test_unprojected_envelope_contains_track(self, tmp_path):
        ids, _, lats, lons = self._ingest(tmp_path)
        raw = {}
        for d, la, lo in zip(ids, lats, lons):
            raw.setdefault(d, []).append((la, lo))
        with TrajectoryStore(tmp_path / "geo") as store:
            rect = (min(lats), min(lons), max(lats), max(lons))
            for match in geo_range_query(store, rect, mode="approximate"):
                env = match.geo_envelope
                assert env is not None
                # Key points are a subset of the raw fixes, so the
                # record's envelope tracks the raw track's — the bbox
                # corners mix extremes of different points, so grid
                # curvature allows metre-scale (~1e-4 degree) slack, which
                # is the envelope's documented reporting precision.
                track = raw[match.device_id]
                slack = 1e-4
                assert env[0] >= min(t[0] for t in track) - slack
                assert env[2] <= max(t[0] for t in track) + slack
                assert env[1] >= min(t[1] for t in track) - slack
                assert env[3] <= max(t[1] for t in track) + slack
                # And it genuinely covers where the device was: the first
                # raw fix is always a key point.
                first = track[0]
                assert env[0] - slack <= first[0] <= env[2] + slack
                assert env[1] - slack <= first[1] <= env[3] + slack


class TestGeoRangeQuery:
    @pytest.fixture(scope="class")
    def fleet_store(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("geoq") / "store"
        ids, ts, lats, lons = _fleet(
            devices=16, fixes=120, seed=29, multi_zone=True, noise_m=2.0
        )
        sink = StoreSink(directory)
        engine = GeoStreamEngine(_factory, collect=False, sink=sink)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 509):
            engine.push_columns(*batch)
        engine.finish_all()
        sink.close()
        store = TrajectoryStore(directory)
        yield store, ids, ts, lats, lons
        store.close()

    def _bracket(self, store, ids, ts, lats, lons, rect, t0=None, t1=None):
        exact = geo_range_query(store, rect, mode="exact", t0=t0, t1=t1)
        approx = geo_range_query(store, rect, mode="approximate", t0=t0, t1=t1)
        definite = {m.device_id for m in exact if m.definite}
        exact_set = {m.device_id for m in exact}
        approx_set = {m.device_id for m in approx}
        truth = _brute_devices(ids, lats, lons, rect, ts=ts, t0=t0, t1=t1)
        assert definite <= truth, rect
        assert truth <= exact_set, rect
        assert exact_set <= approx_set, rect
        return truth, exact_set

    def test_bracket_on_random_rects(self, fleet_store):
        """The acceptance bracket, across both boundary clusters."""
        store, ids, ts, lats, lons = fleet_store
        rng = random.Random(404)
        nonempty = 0
        for _ in range(30):
            # Random sub-rectangles of one hemisphere's coverage —
            # including rects straddling the zone boundary.
            if rng.random() < 0.5:
                pool = [
                    (la, lo) for la, lo in zip(lats, lons) if la >= 0.0
                ]
            else:
                pool = [(la, lo) for la, lo in zip(lats, lons) if la < 0.0]
            la0, lo0 = pool[rng.randrange(len(pool))]
            dla = rng.uniform(0.0005, 0.05)
            dlo = rng.uniform(0.0005, 0.05)
            rect = (la0 - dla, lo0 - dlo, la0 + dla, lo0 + dlo)
            truth, _ = self._bracket(store, ids, ts, lats, lons, rect)
            if truth:
                nonempty += 1
        assert nonempty >= 10  # the fuzz actually exercised matches

    def test_boundary_straddling_rect_hits_both_zones(self, fleet_store):
        store, ids, ts, lats, lons = fleet_store
        north = [
            (la, lo) for la, lo in zip(lats, lons) if la >= 0.0
        ]
        rect = (
            min(p[0] for p in north),
            min(p[1] for p in north),
            max(p[0] for p in north),
            max(p[1] for p in north),
        )
        truth, exact_set = self._bracket(store, ids, ts, lats, lons, rect)
        zones = {
            m.ref.utm_zone
            for m in geo_range_query(store, rect, mode="exact")
        }
        assert zones == {32, 33}  # candidates tested in two frames
        assert truth == exact_set or truth < exact_set

    def test_windowed_bracket(self, fleet_store):
        store, ids, ts, lats, lons = fleet_store
        t0, t1 = 30.0, 80.0
        north = [(la, lo) for la, lo in zip(lats, lons) if la >= 0.0]
        rect = (
            min(p[0] for p in north),
            min(p[1] for p in north),
            max(p[0] for p in north),
            max(p[1] for p in north),
        )
        self._bracket(store, ids, ts, lats, lons, rect, t0=t0, t1=t1)

    def test_unstamped_records_are_skipped(self, tmp_path):
        """Planar-ingested records have no ellipsoid placement; the
        geographic query must not guess."""
        from repro.model import CompressedTrajectory, PlanePoint

        with TrajectoryStore(tmp_path / "mixed") as store:
            planar = CompressedTrajectory(
                key_points=(PlanePoint(500_000.0, 4_500_000.0, 0.0),),
                original_count=1,
                tolerance=EPSILON,
                algorithm="bqs",
            )
            store.append("planar-dev", planar)
            stamped = CompressedTrajectory(
                key_points=(PlanePoint(500_000.0, 4_500_000.0, 0.0),),
                original_count=1,
                tolerance=EPSILON,
                algorithm="bqs",
                frame=UTMProjection(zone=33, south=False),
            )
            store.append("gps-dev", stamped)
            matches = geo_range_query(
                store, (-90.0, -180.0, 90.0, 180.0), mode="approximate"
            )
            assert {m.device_id for m in matches} == {"gps-dev"}

    def test_input_validation(self, fleet_store):
        store = fleet_store[0]
        with pytest.raises(ValueError):
            geo_range_query(store, (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            geo_range_query(store, (-91.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            geo_range_query(store, (0.0, 170.0, 1.0, 181.0))
        with pytest.raises(ValueError):
            geo_range_query(store, (0.0, 0.0, 1.0, 1.0), mode="fuzzy")
        with pytest.raises(ValueError):
            geo_range_query(store, (0.0, 0.0, 1.0, 1.0), t0=5.0)


class TestLazyGeoEnvelope:
    """``QueryMatch.geo_envelope`` is computed on first read, from the
    ``frame`` the match carries, and equals what the query used to compute
    for every match up front."""

    @pytest.fixture(scope="class")
    def geo_store(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("lazy") / "store"
        ids, ts, lats, lons = _fleet(
            devices=12, fixes=100, seed=41, multi_zone=True, noise_m=1.0
        )
        sink = StoreSink(directory)
        engine = GeoStreamEngine(_factory, collect=False, sink=sink)
        for batch in iter_geo_fix_batches(ids, ts, lats, lons, 400):
            engine.push_columns(*batch)
        engine.finish_all()
        sink.close()
        north = [(la, lo) for la, lo in zip(lats, lons) if la > 0.0]
        south = [(la, lo) for la, lo in zip(lats, lons) if la < 0.0]
        rects = [
            (min(p[0] for p in half), min(p[1] for p in half),
             max(p[0] for p in half), max(p[1] for p in half))
            for half in (north, south)
        ]
        with TrajectoryStore(directory) as store:
            yield store, rects, directory

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_envelope_unchanged_in_both_hemispheres(self, geo_store, mode):
        store, rects, _ = geo_store
        hemispheres = set()
        for rect in rects:
            matches = geo_range_query(store, rect, mode=mode)
            assert matches
            for m in matches:
                assert m.frame == m.ref.projection()
                assert m.geo_envelope == geo_envelope_of(m.ref, m.frame)
                assert m.geo_envelope == geo_envelope_of(m.ref)
                hemispheres.add(m.frame.south)
        assert hemispheres == {False, True}

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_unread_matches_unproject_only_for_definite_tests(
        self, geo_store, mode, monkeypatch
    ):
        store, rects, _ = geo_store
        inverse_calls = []
        real_inverse = UTMProjection.inverse

        def counting_inverse(self, x, y):
            inverse_calls.append((x, y))
            return real_inverse(self, x, y)

        predicate_calls = []
        real_definite_test = query_module._geo_definite_test

        def counting_definite_test(geo_rect, projection):
            test = real_definite_test(geo_rect, projection)

            def counted(x, y):
                predicate_calls.append((x, y))
                return test(x, y)

            return counted

        monkeypatch.setattr(UTMProjection, "inverse", counting_inverse)
        monkeypatch.setattr(
            query_module, "_geo_definite_test", counting_definite_test
        )
        for rect in rects:
            inverse_calls.clear()
            predicate_calls.clear()
            matches = geo_range_query(store, rect, mode=mode)
            assert matches
            assert len(inverse_calls) == len(predicate_calls)
            if mode == "approximate":
                assert predicate_calls == []
            envelopes = [m.geo_envelope for m in matches]
            assert len(inverse_calls) == len(predicate_calls) + 4 * len(matches)
            assert [m.geo_envelope for m in matches] == envelopes  # cached
            assert len(inverse_calls) == len(predicate_calls) + 4 * len(matches)

    def test_equality_is_unchanged(self, geo_store):
        store, rects, _ = geo_store
        first = geo_range_query(store, rects[0])
        second = geo_range_query(store, rects[0])
        for m in first:
            m.geo_envelope  # read on one side only
        assert first == second
        assert [hash(m) for m in first] == [hash(m) for m in second]
        for m in first:
            rebuilt = QueryMatch(
                device_id=m.device_id, ref=m.ref, definite=m.definite,
                frame=UTMProjection(zone=m.ref.utm_zone, south=m.ref.utm_south),
            )
            assert rebuilt == m and hash(rebuilt) == hash(m)
            assert QueryMatch(m.device_id, m.ref, m.definite) != m
        # Planar queries carry no frame, so no envelope, even on stamped
        # records — as before.
        ref = first[0].ref
        planar = range_query(
            store, (ref.x_min, ref.y_min, ref.x_max, ref.y_max), mode="approximate"
        )
        assert planar and all(
            m.frame is None and m.geo_envelope is None for m in planar
        )

    def test_cli_geo_rect_output_unchanged(self, geo_store, capsys):
        """The ``query --geo-rect`` lines, rebuilt here from envelopes
        computed up front the old way."""
        store, rects, directory = geo_store
        for rect in rects:
            assert storage_cli.main(
                ["query", str(directory), "--geo-rect=" + ",".join(map(repr, rect))]
            ) == 0
            out = capsys.readouterr().out
            matches = geo_range_query(store, rect)
            expected = []
            for m in sorted(matches, key=lambda m: (m.device_id, m.ref.t_min)):
                env = geo_envelope_of(m.ref)
                flag = "definite" if m.definite else "possible"
                expected.append(
                    f"{m.device_id}  {flag}  t=[{m.ref.t_min:.3f}, "
                    f"{m.ref.t_max:.3f}]  keys={m.ref.n_key_points}  "
                    f"lat=[{env[0]:.5f}, {env[2]:.5f}] "
                    f"lon=[{env[1]:.5f}, {env[3]:.5f}] "
                    f"zone={m.ref.utm_zone}{'S' if m.ref.utm_south else 'N'}  "
                    f"{m.ref.segment}@{m.ref.offset}"
                )
            assert out.splitlines() == expected


class TestConservativeRectProjection:
    def _assert_contained(self, rng, rect, projection, samples=200):
        x_min, y_min, x_max, y_max = geo_rect_to_plane(rect, projection)
        for _ in range(samples):
            la = rng.uniform(rect[0], rect[2])
            lo = rng.uniform(rect[1], rect[3])
            x, y = projection.forward(la, lo)
            assert x_min <= x <= x_max and y_min <= y <= y_max, (rect, la, lo)

    @pytest.mark.parametrize("case", range(20))
    def test_true_image_contained(self, case):
        """Every geographic point inside the lat/lon rect must project
        inside the conservative planar rect — the property the
        no-false-negative guarantee stands on."""
        rng = random.Random(7100 + case)
        zone = rng.randrange(1, 61)
        south = rng.random() < 0.5
        projection = UTMProjection(zone=zone, south=south)
        cm = zone * 6.0 - 183.0
        lat0 = rng.uniform(2.0, 78.0) * (-1.0 if south else 1.0)
        lon0 = cm + rng.uniform(-3.2, 3.2)
        dla = rng.uniform(1e-4, 2.0)
        dlo = rng.uniform(1e-4, 2.0)
        rect = (lat0 - dla, lon0 - dlo, lat0 + dla, lon0 + dlo)
        self._assert_contained(rng, rect, projection)

    @pytest.mark.parametrize("case", range(12))
    def test_true_image_contained_near_poles(self, case):
        """Regression: the curvature margin must scale with latitude —
        a fixed mid-latitude bound let points of high-latitude rects
        escape the 'containing' rect by ~100 m (projected parallels near
        the pole curve like tan(φ)/R, 10–1000× the 84° value)."""
        rng = random.Random(7900 + case)
        zone = rng.randrange(1, 61)
        south = rng.random() < 0.5
        sign = -1.0 if south else 1.0
        projection = UTMProjection(zone=zone, south=south)
        lat_lo = rng.uniform(80.0, 89.0)
        lat_hi = min(lat_lo + rng.uniform(0.1, 2.0), 89.9)
        lon0 = rng.uniform(-180.0, 120.0)
        rect = (
            min(sign * lat_lo, sign * lat_hi),
            lon0,
            max(sign * lat_lo, sign * lat_hi),
            lon0 + rng.uniform(0.5, 60.0),
        )
        self._assert_contained(rng, rect, projection)

    def test_reviewers_polar_counterexample(self):
        """The concrete escape case: (88..89.5)° × (±60)° in zone 31."""
        rng = random.Random(1)
        self._assert_contained(
            rng, (88.0, -60.0, 89.5, 60.0), UTMProjection(zone=31), samples=500
        )

    def test_degenerate_rect(self):
        projection = UTMProjection(zone=32)
        rect = geo_rect_to_plane((47.0, 9.0, 47.0, 9.0), projection)
        x, y = projection.forward(47.0, 9.0)
        assert rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]


class TestShardedGeodeticToDisk:
    def test_multi_zone_fleet_through_sharded_engine(self, tmp_path):
        """The ISSUE acceptance path: GPS fixes for a multi-zone fleet flow
        through the *sharded* engine into per-shard stores whose blobs
        carry the correct zone, and the lat/lon bracket holds against the
        raw traces."""
        ids, ts, lats, lons = _fleet(
            devices=12, fixes=90, seed=41, multi_zone=True, noise_m=1.5
        )
        base = tmp_path / "shards"
        sink_factory = functools.partial(shard_store_sink, str(base))
        with ShardedStreamEngine(
            functools.partial(bqs_fleet_factory, EPSILON),
            workers=2,
            collect=False,
            sink_factory=sink_factory,
            geodetic=True,
        ) as engine:
            for batch in iter_geo_fix_batches(ids, ts, lats, lons, 301):
                engine.push_columns(*batch)
            engine.finish_all()

        shard_dirs = sorted(base.glob("shard-*"))
        assert len(shard_dirs) == 2
        seen_devices = set()
        definite = set()
        exact_set = set()
        approx_set = set()
        north = [(la, lo) for la, lo in zip(lats, lons) if la >= 0.0]
        rect = (
            min(p[0] for p in north),
            min(p[1] for p in north),
            max(p[0] for p in north),
            max(p[1] for p in north),
        )
        for directory in shard_dirs:
            with TrajectoryStore(directory) as store:
                for ref in store.records():
                    seen_devices.add(ref.device_id)
                    assert ref.projection() == _first_fix_projection(
                        ids, lats, lons, ref.device_id
                    )
                    assert store.read(ref).utm_zone == ref.utm_zone
                exact = geo_range_query(store, rect, mode="exact")
                definite |= {m.device_id for m in exact if m.definite}
                exact_set |= {m.device_id for m in exact}
                approx_set |= {
                    m.device_id
                    for m in geo_range_query(store, rect, mode="approximate")
                }
        assert seen_devices == set(ids)
        truth = _brute_devices(ids, lats, lons, rect)
        assert definite <= truth <= exact_set <= approx_set
        assert truth  # the rect actually contains devices


class TestCLI:
    def test_engine_cli_geodetic(self, capsys):
        assert (
            engine_cli.main(
                [
                    "--devices", "6", "--fixes", "40",
                    "--geodetic", "--multi-zone", "--batch", "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zones stamped:" in out
        assert "32N" in out and "23S" in out

    def test_storage_cli_geodetic_roundtrip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "clistore")
        assert (
            storage_cli.main(
                [
                    "ingest", store_dir,
                    "--devices", "6", "--fixes", "40",
                    "--geodetic", "--multi-zone", "--noise-m", "1.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zones stamped:" in out
        assert (
            storage_cli.main(
                ["query", store_dir, "--geo-rect=41.2,11.9,41.4,12.1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zone=3" in out  # zone 32 or 33 reported per match
        assert "lat=[" in out
        # --rect and --geo-rect are mutually exclusive.
        with pytest.raises(SystemExit):
            storage_cli.main(
                [
                    "query", store_dir,
                    "--rect=0,0,1,1", "--geo-rect=0,0,1,1",
                ]
            )
        # GPS-only simulator flags without --geodetic are a user error,
        # not a silent no-op (matches the engine CLI).
        with pytest.raises(SystemExit):
            storage_cli.main(
                [
                    "ingest", str(tmp_path / "oops"),
                    "--devices", "2", "--fixes", "5", "--multi-zone",
                ]
            )
