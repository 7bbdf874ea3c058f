"""Tests for :mod:`repro.testing.workloads`: the seeded motion generators
and the exact-output digests (moved here from the retired bench tests)."""

import pytest

from repro.compression import BQSCompressor, synthetic_track
from repro.testing.workloads import WORKLOADS, fleet_digest, make_workload


class TestWorkloads:
    def test_registry_covers_the_four_regimes(self):
        assert set(WORKLOADS) == {
            "random_walk",
            "vehicle_route",
            "flight_arc",
            "bursty_pause",
        }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_seeded_and_monotone(self, name):
        a = make_workload(name, 400, seed=3)
        b = make_workload(name, 400, seed=3)
        c = make_workload(name, 400, seed=4)
        assert a == b
        assert a != c
        assert len(a) == 400
        times = [p.t for p in a]
        assert times == sorted(times)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("warp_drive", 10)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_is_compressible_within_bound(self, name):
        points = make_workload(name, 1500, seed=7)
        compressed = BQSCompressor(10.0).compress(points)
        assert 1 < len(compressed) < len(points)
        assert compressed.max_deviation_from(points) <= 10.0 * (1.0 + 1e-9)


class TestDigests:
    def test_fleet_digest_sensitive_to_output(self):
        track = synthetic_track(200, seed=1)
        a = {"dev": [BQSCompressor(10.0).compress(track)]}
        b = {"dev": [BQSCompressor(5.0).compress(track)]}
        assert fleet_digest(a) == fleet_digest(a)
        assert fleet_digest(a) != fleet_digest(b)
