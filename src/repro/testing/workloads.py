"""Seeded motion generators and the output digests the pins are stated in.

Each generator is stdlib-only, fully deterministic for a given seed, and
returns ``n`` :class:`~repro.model.point.PlanePoint` samples at 1 Hz in a
local metric plane.  The four regimes cover the motion classes the paper's
evaluation discusses — smooth wander, constrained street driving, long
near-straight arcs, and the stop-and-go pattern that stresses degenerate
(stationary) path lines:

``random_walk``
    The correlated random walk shared with the evaluation harness
    (:func:`repro.compression.evaluate.synthetic_track`), so the tests
    and the evaluation CLI see the exact same stream.

``vehicle_route``
    Manhattan-grid driving: straight blocks at urban cruise speed with
    acceleration/braking envelopes, 90° turns at intersections, red-light
    dwells, and ~1 m GPS jitter throughout.

``flight_arc``
    High-speed cruise (240 m/s) along very gentle, occasionally banked
    arcs — long segments, highly compressible, dominated by the
    upper-bound fast path.

``bursty_pause``
    Alternating stationary dwells (GPS scatter only) and movement bursts
    at pedestrian/cycling pace — many co-located and repeated fixes, the
    regime that exercises cache reuse and degenerate direction handling.

:func:`key_point_digest` and :func:`fleet_digest` fingerprint compressor
output exactly (``repr`` round-trips floats), so equal digests mean
bit-identical key points; ``tests/test_digest_pins.py`` and the crash
harness (:mod:`repro.testing.faults`) compare them.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, List

from ..compression.evaluate import synthetic_track
from ..model.point import PlanePoint

__all__ = [
    "WORKLOADS",
    "random_walk",
    "vehicle_route",
    "flight_arc",
    "bursty_pause",
    "make_workload",
    "key_point_digest",
    "fleet_digest",
]

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi


def random_walk(n: int, seed: int = 7) -> List[PlanePoint]:
    """Correlated random walk — identical to the evaluation harness track."""
    return synthetic_track(n, seed=seed)


def vehicle_route(n: int, seed: int = 7) -> List[PlanePoint]:
    """Grid-city driving: blocks, turns, lights, urban cruise speeds."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n!r}")
    rng = random.Random(seed ^ 0x5EED1)
    pts: List[PlanePoint] = []
    x = y = 0.0
    t = 0.0
    heading = rng.randrange(4) * _HALF_PI
    speed = 0.0
    cruise = 13.9  # ~50 km/h
    accel = 2.0
    brake = 3.0
    block_left = rng.uniform(80.0, 400.0)
    dwell = 0
    for _ in range(n):
        pts.append(PlanePoint(x + rng.gauss(0.0, 1.0), y + rng.gauss(0.0, 1.0), t))
        t += 1.0
        if dwell > 0:
            dwell -= 1
            speed = 0.0
            continue
        # Brake when the remaining block is shorter than the stopping
        # distance; otherwise accelerate toward cruise.
        if block_left < speed * speed / (2.0 * brake):
            speed = max(0.0, speed - brake)
        else:
            speed = min(cruise, speed + accel)
        x += speed * math.cos(heading)
        y += speed * math.sin(heading)
        block_left -= speed
        if block_left <= 0.0:
            if rng.random() < 0.4:
                dwell = rng.randint(5, 40)  # red light
            turn = rng.choice((-1, 0, 0, 1))
            heading = (heading + turn * _HALF_PI) % _TWO_PI
            block_left = rng.uniform(80.0, 400.0)
    return pts


def flight_arc(n: int, seed: int = 7) -> List[PlanePoint]:
    """Cruise-speed flight along long, gently curving arcs."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n!r}")
    rng = random.Random(seed ^ 0xF11647)
    pts: List[PlanePoint] = []
    x = y = 0.0
    t = 0.0
    speed = 240.0
    heading = rng.uniform(0.0, _TWO_PI)
    turn_rate = 0.0
    for _ in range(n):
        pts.append(PlanePoint(x + rng.gauss(0.0, 2.0), y + rng.gauss(0.0, 2.0), t))
        t += 1.0
        if rng.random() < 0.005:
            # Enter (or leave) a standard-rate-ish banked turn.
            turn_rate = rng.choice((0.0, 0.0, rng.uniform(-0.005, 0.005)))
        heading += turn_rate
        x += speed * math.cos(heading)
        y += speed * math.sin(heading)
    return pts


def bursty_pause(n: int, seed: int = 7) -> List[PlanePoint]:
    """Stop-and-go: stationary dwells with GPS scatter, then motion bursts."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n!r}")
    rng = random.Random(seed ^ 0xB0B57)
    pts: List[PlanePoint] = []
    x = y = 0.0
    t = 0.0
    heading = rng.uniform(0.0, _TWO_PI)
    moving = False
    remaining = rng.randint(20, 120)
    speed = 0.0
    for _ in range(n):
        if moving:
            heading += rng.gauss(0.0, 0.2)
            x += speed * math.cos(heading)
            y += speed * math.sin(heading)
            jitter = 1.0
        else:
            jitter = 2.5  # GPS scatter around the dwell location
        pts.append(
            PlanePoint(x + rng.gauss(0.0, jitter), y + rng.gauss(0.0, jitter), t)
        )
        t += 1.0
        remaining -= 1
        if remaining <= 0:
            moving = not moving
            if moving:
                speed = rng.choice((1.4, 1.4, 4.0, 6.5))
                remaining = rng.randint(30, 180)
            else:
                remaining = rng.randint(20, 120)
    return pts


#: Name → generator registry the tests iterate.
WORKLOADS: Dict[str, Callable[[int, int], List[PlanePoint]]] = {
    "random_walk": random_walk,
    "vehicle_route": vehicle_route,
    "flight_arc": flight_arc,
    "bursty_pause": bursty_pause,
}


def make_workload(name: str, n: int, seed: int = 7) -> List[PlanePoint]:
    """Generate a registered workload by name."""
    try:
        generator = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {', '.join(sorted(WORKLOADS))}"
        ) from None
    return generator(n, seed)


def key_point_digest(key_points) -> str:
    """Short stable digest of a key-point sequence (exact coordinates)."""
    payload = "|".join(f"{p.x!r},{p.y!r},{p.t!r}" for p in key_points)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def fleet_digest(results: Dict[object, List]) -> str:
    """Order-insensitive digest of per-device compressed trajectories.

    Hashes every device's id and the exact key points of each of its
    trajectories (in completion order), with devices visited in sorted-id
    order — equal digests mean every device got bit-identical output.
    """
    digest = hashlib.sha256()
    for device_id in sorted(results, key=repr):
        digest.update(repr(device_id).encode())
        for trajectory in results[device_id]:
            digest.update(key_point_digest(trajectory.key_points).encode())
    return digest.hexdigest()[:16]
