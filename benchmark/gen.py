"""Seeded input generators, owned by the benchmark.

Nothing here imports ``repro``: the motion regimes and the fleet/disorder
generator are vendored so that a later change to ``repro.bench`` or
``repro.engine.simulate`` cannot shift or break the benchmark's inputs.
The same seed always gives the same bytes.

Inputs are written as flat column files (``array.tofile``) plus one
``meta.json`` per workload; the measuring subprocess loads them with
:func:`load_columns`, so the program under test only ever sees generated
inputs and the generator's transient memory never counts against it.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from pathlib import Path

EPSILON_M = 10.0
BATCH_FIXES = 4096

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0
#: Pedestrian, cycling and urban-driving paces (m/s) the random walk draws from.
_SPEEDS = (0.8, 1.2, 1.4, 1.6, 2.5, 4.0, 6.5, 9.0, 11.0, 13.5, 15.0)


# -- single-device motion regimes (1 Hz, local metric plane) -----------------
#
# The driver of this benchmark measures spread over runs that each take another
# seed, so a seed must change the fixes without changing the mix of work.  The
# structural choices of a regime (block lengths, dwell times, turn rates ...)
# are therefore dealt from small fixed decks that the seed only shuffles, and
# the seed draws the GPS noise; a realisation then goes through many whole decks
# and its key-point rate and cost barely depend on the seed.


def _deck(rng, cards):
    """Deal ``cards`` in seeded order, reshuffling whenever they run out."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def _spread(lo, hi, n):
    """``n`` values evenly spread over ``[lo, hi]``."""
    return [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]


def random_walk(n, rng, noise=0.0, speeds=_SPEEDS, turn_sigma=0.12, heading=None):
    """Correlated random walk: Gaussian heading drift, empirical speeds."""
    ts, xs, ys = array("d"), array("d"), array("d")
    x = y = 0.0
    if heading is None:
        heading = rng.uniform(0.0, _TWO_PI)
    top = len(speeds) - 1
    for i in range(n):
        ts.append(float(i))
        xs.append(x + rng.gauss(0.0, noise) if noise else x)
        ys.append(y + rng.gauss(0.0, noise) if noise else y)
        heading += rng.gauss(0.0, turn_sigma)
        q = rng.random() * top
        k = int(q)
        speed = speeds[k] + (speeds[min(k + 1, top)] - speeds[k]) * (q - k)
        x += speed * math.cos(heading)
        y += speed * math.sin(heading)
    return ts, xs, ys


def vehicle_route(n, rng):
    """Grid-city driving: blocks, 90-degree turns, red lights, 1 m jitter."""
    ts, xs, ys = array("d"), array("d"), array("d")
    x = y = speed = 0.0
    heading = rng.randrange(4) * _HALF_PI
    cruise, accel, brake = 13.9, 2.0, 3.0
    blocks = _deck(rng, _spread(80.0, 400.0, 8))
    lights = _deck(rng, (0, 0, 0, 12, 33))  # red two times in five
    turns = _deck(rng, (-1, 0, 0, 1))
    block_left = next(blocks)
    dwell = 0
    for i in range(n):
        ts.append(float(i))
        xs.append(x + rng.gauss(0.0, 1.0))
        ys.append(y + rng.gauss(0.0, 1.0))
        if dwell > 0:
            dwell -= 1
            speed = 0.0
            continue
        if block_left < speed * speed / (2.0 * brake):
            speed = max(0.0, speed - brake)
        else:
            speed = min(cruise, speed + accel)
        x += speed * math.cos(heading)
        y += speed * math.sin(heading)
        block_left -= speed
        if block_left <= 0.0:
            dwell = next(lights)
            heading = (heading + next(turns) * _HALF_PI) % _TWO_PI
            block_left = next(blocks)
    return ts, xs, ys


def flight_arc(n, rng):
    """Cruise-speed flight along long, gently banked arcs, 2 m jitter."""
    ts, xs, ys = array("d"), array("d"), array("d")
    x = y = 0.0
    heading = rng.uniform(0.0, _TWO_PI)
    # (turn rate, seconds on it): straight half of the time, every rate on a
    # short and on a long leg.
    legs = _deck(rng, [(rate, seconds) for seconds in (120, 280) for rate in
                       (0.0, 0.0, 0.0, 0.0, -0.004, -0.0015, 0.0015, 0.004)])
    turn_rate, left = next(legs)
    for i in range(n):
        ts.append(float(i))
        xs.append(x + rng.gauss(0.0, 2.0))
        ys.append(y + rng.gauss(0.0, 2.0))
        left -= 1
        if left <= 0:
            turn_rate, left = next(legs)
        heading += turn_rate
        x += 240.0 * math.cos(heading)
        y += 240.0 * math.sin(heading)
    return ts, xs, ys


def bursty_pause(n, rng):
    """Stop-and-go: stationary dwells with GPS scatter, then motion bursts."""
    ts, xs, ys = array("d"), array("d"), array("d")
    x = y = speed = 0.0
    heading = rng.uniform(0.0, _TWO_PI)
    dwells = _deck(rng, (25, 45, 70, 95, 115))
    bursts = _deck(rng, [(speed, seconds) for seconds in (60, 150)
                         for speed in (1.4, 1.4, 4.0, 6.5)])
    moving = False
    remaining = next(dwells)
    for i in range(n):
        if moving:
            heading += rng.gauss(0.0, 0.2)
            x += speed * math.cos(heading)
            y += speed * math.sin(heading)
        jitter = 1.0 if moving else 2.5
        ts.append(float(i))
        xs.append(x + rng.gauss(0.0, jitter))
        ys.append(y + rng.gauss(0.0, jitter))
        remaining -= 1
        if remaining <= 0:
            moving = not moving
            if moving:
                speed, remaining = next(bursts)
            else:
                remaining = next(dwells)
    return ts, xs, ys


REGIMES = {
    "random_walk": random_walk,
    "vehicle_route": vehicle_route,
    "flight_arc": flight_arc,
    "bursty_pause": bursty_pause,
}


def device_stream(seed, fixes_per_regime):
    """The four regimes as ``{name: (ts, xs, ys)}`` for one seed."""
    return {
        name: fn(fixes_per_regime, random.Random(f"{name}:{seed}"))
        for name, fn in REGIMES.items()
    }


# -- fleet of raw-GPS devices with seeded disorder ---------------------------

#: Device anchors sit on two UTM zone boundaries (32|33 at 12 E in the north,
#: 22|23 at 48 W in the south), so zone selection, hemisphere stamping and
#: boundary-straddling tracks are all exercised.
_ANCHORS = ((41.3, 11.98), (41.3, 12.02), (-23.3, -48.02), (-23.3, -47.98))
_M_PER_DEG_LAT = 111_132.0
ZONE_MARGIN_DEG = 0.05  # SanitizePolicy.zone_margin_deg default
GAP_SECONDS = 3600.0
TELEPORT_DEG = 0.45  # ~50 km of latitude: never crosses a UTM zone
NOISE_M = 2.0
_CROSSER_SPEEDS = (22.0, 24.0, 26.0, 28.0)


def device_name(index):
    return f"dev-{index:04d}"


def _zone(lon):
    return int((lon + 180.0) // 6.0) + 1


def _zone_splits(lons, trip_starts):
    """``(splits, merged)`` for one device's longitudes in arrival order:
    how many times they leave their UTM strip widened by the hysteresis margin
    (the split rule of the policy), and how many of those splits fall on the
    first fix after a silence, where the zone split is the only split."""
    zone = _zone(lons[0][1])
    splits = merged = 0
    for j, lon in lons:
        west = zone * 6.0 - 186.0
        if west - ZONE_MARGIN_DEG <= lon <= west + 6.0 + ZONE_MARGIN_DEG:
            continue
        new_zone = _zone(lon)
        if new_zone != zone:
            splits += 1
            merged += j in trip_starts
            zone = new_zone
    return splits, merged


def _artifact_sites(rng, trips, counts):
    """Pick device-local fix indices for each artifact kind, at least three
    fixes away from each other and from every trip boundary."""
    used = set()
    start = 0
    free = []
    for length in trips:
        free.extend(range(start + 3, start + length - 4))
        start += length
    rng.shuffle(free)
    sites = []
    for count in counts:
        chosen = []
        while len(chosen) < count and free:
            j = free.pop()
            if any(j + k in used for k in range(-3, 5)):
                continue
            used.update((j, j + 1))
            chosen.append(j)
        sites.append(set(chosen))
    return sites


def fleet(seed, devices, fixes_per_device, swap_share=0.01, dup_share=0.01,
          teleport_share=0.002):
    """One interleaved raw-GPS fleet stream with planted disorder.

    Returns ``(columns, truth)``: ``columns`` maps ``ids`` (device index per
    fix), ``ts``, ``lats``, ``lons`` to arrays in arrival order; ``truth`` is
    the exact count of every artifact planted, which the ingest's feed report
    must reproduce.  All devices share a 1 Hz clock and report in an order
    that rotates by one device per tick; each device drives trips of 200-300
    fixes separated by one-hour silences.
    """
    rng = random.Random(f"fleet:{seed}:{devices}:{fixes_per_device}")
    per_device = []
    truth = {"swaps": 0, "dups": 0, "teleports": 0, "gaps": 0, "zone_splits": 0}
    for d in range(devices):
        lat0, lon0 = _ANCHORS[d % len(_ANCHORS)]
        lat0 += rng.uniform(-0.02, 0.02)
        crosser = d % 16 in (5, 10)
        if crosser:
            # Steady eastward drive from west of the boundary through the margin.
            lon0 = round(lon0 / 6.0) * 6.0 - 0.03
            _, xs, ys = random_walk(fixes_per_device, rng, NOISE_M,
                                    _CROSSER_SPEEDS, 0.01, heading=0.0)
        else:
            lon0 += rng.uniform(-0.02, 0.02)
            _, xs, ys = random_walk(fixes_per_device, rng, NOISE_M)
        trips = []
        left = fixes_per_device
        while left > 0:
            length = min(left, rng.randint(200, 300))
            if left - length < 40:  # no stub trips
                length = left
            trips.append(length)
            left -= length
        m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians(lat0))
        ts, lats, lons = array("d"), array("d"), array("d")
        j = 0
        for k, length in enumerate(trips):
            for _ in range(length):
                ts.append(j + k * GAP_SECONDS)
                lats.append(lat0 + ys[j] / _M_PER_DEG_LAT)
                lons.append(lon0 + xs[j] / m_per_deg_lon)
                j += 1
        n = fixes_per_device
        swaps, dups, teleports = _artifact_sites(
            rng, trips,
            (round(n * swap_share), round(n * dup_share), round(n * teleport_share)),
        )
        for j in teleports:
            lats[j] += TELEPORT_DEG
        order = list(range(n))  # arrival slot -> fix index
        for j in swaps:
            order[j], order[j + 1] = j + 1, j
        truth["swaps"] += len(swaps)
        truth["dups"] += len(dups)
        truth["teleports"] += len(teleports)
        arrival_lons = []
        for j in order:
            arrival_lons.extend([(j, lons[j])] * (2 if j in dups else 1))
        starts = set()
        start = 0
        for length in trips[:-1]:
            start += length
            starts.add(start)
        zone_splits, merged = _zone_splits(arrival_lons, starts)
        truth["zone_splits"] += zone_splits
        truth["gaps"] += len(trips) - 1 - merged
        per_device.append((ts, lats, lons, order, dups))
    ids, ts_out, lats_out, lons_out = array("i"), array("d"), array("d"), array("d")
    for tick in range(fixes_per_device):
        offset = tick % devices
        for k in range(devices):
            d = (k + offset) % devices
            ts, lats, lons, order, dups = per_device[d]
            j = order[tick]
            for _ in range(2 if j in dups else 1):
                ids.append(d)
                ts_out.append(ts[j])
                lats_out.append(lats[j])
                lons_out.append(lons[j])
    truth["fixes"] = len(ids)
    truth["devices"] = devices
    return {"ids": ids, "ts": ts_out, "lats": lats_out, "lons": lons_out}, truth


# -- query store: trip pool, placements and the query mix --------------------

#: UTM plane patches (easting, northing of the south-west corner, metres) of
#: 100 x 100 km on each side of the 32|33 boundary at 41 N.
_PATCHES = {32: (650_000.0, 4_520_000.0), 33: (250_000.0, 4_520_000.0)}
_PATCH_M = 100_000.0
_QUERY_LAT = (40.9, 41.6)
_QUERY_LON = (10.9, 13.1)
TIME_SPAN_S = 50 * 3600.0
TRIP_FIXES = 600
#: One round of the read mix, in the ratio 60 small : 20 medium : 4 wide exact
#: rectangles : 30 approximate : 100 time windows : 100 manifest+read.
QUERY_ROUND = (
    ("geo_exact_small", 15), ("geo_exact_medium", 5), ("geo_exact_wide", 1),
    ("geo_approx", 8), ("time_window", 25), ("device_read", 25),
)
_RECT_DEG = {"geo_exact_small": 0.01, "geo_exact_medium": 0.05,
             "geo_exact_wide": 0.2}


def trip_pool(seed, trips):
    """Raw planar 600-fix trips: half street driving, half noisy random walk."""
    pool = {}
    for i in range(trips):
        rng = random.Random(f"trip:{seed}:{i}")
        pool[f"trip{i:03d}"] = (
            vehicle_route(TRIP_FIXES, rng) if i % 2 else
            random_walk(TRIP_FIXES, rng, NOISE_M)
        )
    return pool


def placements(seed, records, trips, devices):
    """Where each stored record goes: ``trip`` index, UTM ``zone``, plane
    translation ``dx``/``dy`` (metres), time shift ``dt`` and ``device``."""
    rng = random.Random(f"place:{seed}:{records}")
    cols = {"trip": array("i"), "zone": array("i"), "device": array("i"),
            "dx": array("d"), "dy": array("d"), "dt": array("d")}
    for i in range(records):
        zone = 32 + (i & 1)
        e0, n0 = _PATCHES[zone]
        cols["trip"].append(rng.randrange(trips))
        cols["zone"].append(zone)
        cols["device"].append(rng.randrange(devices))
        cols["dx"].append(round(e0 + rng.uniform(0.0, _PATCH_M), 2))
        cols["dy"].append(round(n0 + rng.uniform(0.0, _PATCH_M), 2))
        cols["dt"].append(float(rng.randrange(int(TIME_SPAN_S))))
    return cols


def query_round(seed, devices):
    """One seeded, shuffled round of read operations as JSON-able dicts."""
    rng = random.Random(f"queries:{seed}")
    ops = []
    for kind, count in QUERY_ROUND:
        for _ in range(count):
            if kind == "time_window":
                t0 = rng.uniform(0.0, TIME_SPAN_S)
                ops.append({"kind": kind, "t0": t0, "t1": t0 + 1800.0})
            elif kind == "device_read":
                ops.append({"kind": kind, "device": rng.randrange(devices)})
            else:
                side = _RECT_DEG.get(kind) or rng.choice((0.01, 0.05))
                lat = rng.uniform(*_QUERY_LAT)
                lon = rng.uniform(*_QUERY_LON)
                ops.append({"kind": kind,
                            "rect": [lat, lon, lat + side, lon + side]})
    rng.shuffle(ops)
    return ops


# -- column files ------------------------------------------------------------


def save_columns(directory, columns, meta):
    """Write ``{name: array}`` as ``<name>.<typecode>`` files plus meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layout = {}
    for name, column in columns.items():
        with open(directory / f"{name}.{column.typecode}", "wb") as handle:
            column.tofile(handle)
        layout[name] = [column.typecode, len(column)]
    with open(directory / "meta.json", "w", encoding="utf-8") as handle:
        json.dump({"columns": layout, **meta}, handle, sort_keys=True)


def load_columns(directory):
    """The inverse of :func:`save_columns`: ``(columns, meta)``."""
    directory = Path(directory)
    with open(directory / "meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    columns = {}
    for name, (typecode, count) in meta.pop("columns").items():
        column = array(typecode)
        with open(directory / f"{name}.{typecode}", "rb") as handle:
            column.fromfile(handle, count)
        columns[name] = column
    return columns, meta


def write_inputs(workload, seed, directory, sizes):
    """Generate and save the inputs of one workload; returns its meta."""
    size = sizes[workload]
    if workload == "device_stream":
        columns = {}
        for name, (ts, xs, ys) in device_stream(seed, size["fixes_per_regime"]).items():
            columns.update({f"{name}.ts": ts, f"{name}.xs": xs, f"{name}.ys": ys})
        meta = {"regimes": list(REGIMES)}
    elif workload in ("fleet_ingest", "sharded_ingest"):
        columns, truth = fleet(seed, size["devices"], size["fixes_per_device"])
        meta = {"truth": truth}
    elif workload == "store_query":
        devices = max(1, size["records"] // 50)
        columns = {}
        for name, (ts, xs, ys) in trip_pool(seed, size["trips"]).items():
            columns.update({f"{name}.ts": ts, f"{name}.xs": xs, f"{name}.ys": ys})
        for name, column in placements(seed, size["records"], size["trips"],
                                       devices).items():
            columns[f"place.{name}"] = column
        meta = {"trips": size["trips"], "devices": devices,
                "queries": query_round(seed, devices)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta.update(workload=workload, seed=seed, size=size)
    save_columns(directory, columns, meta)
    return meta


#: Full-scale input sizes.  They are set so that one timed unit of work takes
#: one to three seconds on a 2-core host and several fit in a 15 s run; see
#: README.md for how they relate to the sizing runs in the issue.
SIZES = {
    "device_stream": {"fixes_per_regime": 25_000},
    "fleet_ingest": {"devices": 200, "fixes_per_device": 600},
    "sharded_ingest": {"devices": 200, "fixes_per_device": 600},
    "store_query": {"trips": 100, "records": 20_000},
}
#: ``--smoke``: every workload, gate and trace at about 1/50 of the work.
SMOKE_SIZES = {
    "device_stream": {"fixes_per_regime": 1_500},
    "fleet_ingest": {"devices": 16, "fixes_per_device": 320},
    "sharded_ingest": {"devices": 16, "fixes_per_device": 320},
    "store_query": {"trips": 10, "records": 800},
}
