"""Behaviour pins: seeded input in, exact output digest out.

Every constant was copied from the legacy bench's committed smoke
baseline before PR 23 deleted it (source field named beside each; see
CHANGES.md), never recomputed: a digest that moves means output bytes
moved.  A deliberate re-baseline (segment metric, codec format bump)
edits this table in the same PR and says why in CHANGES.md.
"""

import hashlib
from functools import partial

import pytest

from repro.compression import BQSCompressor, default_suite
from repro.engine import StreamEngine, bqs_fleet_factory, fleet_fixes, iter_fix_batches
from repro.storage import StoreSink, TrajectoryStore, encode_trajectory
from repro.testing.workloads import fleet_digest, key_point_digest, make_workload

# results[]: workload, algorithm, key_points, key_digest (2000 points, seed 7, eps 10)
KEY_POINT_PINS = """
random_walk   bqs               81 740894ea587208a9
random_walk   fast-bqs         132 9261f7bfb233d0ca
random_walk   dead-reckoning  1028 3d80fad180cbc252
random_walk   uniform          201 3afd5d6052cf5b23
random_walk   douglas-peucker   98 3783b94987e4c5e6
random_walk   td-tr            281 c3d07d93fa072ee5
vehicle_route bqs               29 9423f54d1ec11845
vehicle_route fast-bqs          29 50889809c6a46b1a
vehicle_route dead-reckoning   744 d4db2bddb26295eb
vehicle_route uniform          201 104fcbaa57be77d2
vehicle_route douglas-peucker   31 9f3a62b026542233
vehicle_route td-tr            171 2ad3de8ce67131cf
flight_arc    bqs               17 7deddaececa497a3
flight_arc    fast-bqs         351 e6263c266cbbb6d7
flight_arc    dead-reckoning  1270 8fcb1a735bcf3943
flight_arc    uniform          201 b4800ada46799b4f
flight_arc    douglas-peucker   27 a193a8bf91820d87
flight_arc    td-tr             34 5d9475b68799dc86
bursty_pause  bqs               66 acd945110c447d83
bursty_pause  fast-bqs         111 4872dc9b43a9781d
bursty_pause  dead-reckoning   998 c6151479da742155
bursty_pause  uniform          201 514442634cfa8038
bursty_pause  douglas-peucker   79 052ccb3e85b834f2
bursty_pause  td-tr            100 a038a4a91af6b8f6
"""
FLEET_PIN = ("4c28eb8b48f87275", 118, 25)  # fleet[]: key_digest, key_points, trajectories
STORE_PIN = "915784f3f1ef381313f2e27e206072e7d048acea2272ab7597c60caa7d106f17"  # durability.store_digest
BLOB_PIN = "8d7ab8256d787d7b"  # storage.blob_digest
FACTORY = partial(bqs_fleet_factory, 10.0)


@pytest.mark.parametrize("row", KEY_POINT_PINS.strip().splitlines())
def test_key_point_pin(row):
    workload, algorithm, key_points, digest = row.split()
    compressor = {c.name: c for c in default_suite(10.0)}[algorithm]  # the paper's six at eps 10
    out = compressor.compress(make_workload(workload, 2000, seed=7))
    assert (len(out.key_points), key_point_digest(out.key_points)) == (int(key_points), digest)


def test_fleet_and_store_pins(tmp_path):
    ids, cols = fleet_fixes(25, 80, seed=7)
    engine = StreamEngine(FACTORY)
    engine.push_columns(ids, cols.ts, cols.xs, cols.ys)
    results = engine.finish_all()
    sealed = [t for per_device in results.values() for t in per_device]
    assert (fleet_digest(results), sum(map(len, sealed)), len(sealed)) == FLEET_PIN
    with TrajectoryStore(str(tmp_path / "store")) as store:
        engine = StreamEngine(FACTORY, collect=False, sink=StoreSink(store))
        for batch in iter_fix_batches(ids, cols, 256):
            engine.push_columns(*batch)
        engine.finish_all()
        assert store.content_digest() == STORE_PIN


def test_codec_byte_pin():
    blob = encode_trajectory(BQSCompressor(10.0).compress(make_workload("random_walk", 2000, seed=7)))
    assert hashlib.sha256(blob).hexdigest()[:16] == BLOB_PIN
