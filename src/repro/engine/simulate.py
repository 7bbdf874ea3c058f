"""Seeded fleet simulation: many devices, one interleaved fix stream.

Builds the input shape the fleet engine is designed for — thousands of
devices reporting on a shared clock, their fixes arriving interleaved the
way a gateway would deliver them.  Each device runs its own correlated
random walk (:func:`repro.compression.evaluate.synthetic_track` with a
per-device seed), and the interleaving rotates the device order every tick
so batches never align with device boundaries.  Fully deterministic for a
given seed, pure stdlib, columnar from the start.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..compression.bqs import BQSCompressor
from ..compression.evaluate import synthetic_track
from ..model.columns import TrajectoryColumns
from ..model.projection import LocalTangentProjection

__all__ = [
    "DisorderSummary",
    "bqs_fleet_factory",
    "fleet_fixes",
    "gps_fleet_fixes",
    "inject_disorder",
    "iter_fix_batches",
    "iter_geo_fix_batches",
]


def bqs_fleet_factory(epsilon: float, device_id) -> BQSCompressor:
    """The canonical per-device BQS factory for fleet demos and benchmarks.

    Module-level (and ``functools.partial``-friendly) so
    :class:`~repro.engine.sharded.ShardedStreamEngine` workers can unpickle
    it; the engine CLI, the crash harness and the digest pins share it so
    they always run the same compressor configuration.
    """
    return BQSCompressor(epsilon)


def fleet_fixes(
    devices: int,
    fixes_per_device: int,
    seed: int = 7,
) -> Tuple[List[str], TrajectoryColumns]:
    """One interleaved fleet stream as parallel ``(device_ids, columns)``.

    Returns ``ids`` (one device id per fix, e.g. ``"dev-0042"``) parallel
    to a :class:`TrajectoryColumns` of the fixes.  All devices share the
    1 Hz clock, so timestamps are non-decreasing globally as well as per
    device; within each tick the reporting order rotates by one device per
    tick.
    """
    if devices < 1:
        raise ValueError(f"need at least one device, got {devices!r}")
    if fixes_per_device < 1:
        raise ValueError(
            f"need at least one fix per device, got {fixes_per_device!r}"
        )
    names = [f"dev-{i:04d}" for i in range(devices)]
    tracks = [
        synthetic_track(fixes_per_device, seed=seed * 10_007 + i)
        for i in range(devices)
    ]
    ids: List[str] = []
    cols = TrajectoryColumns()
    append_t = cols.ts.append
    append_x = cols.xs.append
    append_y = cols.ys.append
    for tick in range(fixes_per_device):
        offset = tick % devices
        for j in range(devices):
            d = (j + offset) % devices
            p = tracks[d][tick]
            ids.append(names[d])
            append_t(p.t)
            append_x(p.x)
            append_y(p.y)
    return ids, cols


#: Anchor clusters for the multi-zone GPS fleet: two UTM zone boundaries
#: (32|33 at 12°E, 22|23 at 48°W), one per hemisphere, so one simulated
#: fleet exercises zone selection, hemisphere stamping and
#: boundary-straddling tracks at once.  Longitudes sit close enough to the
#: boundary that a ±10 km track crosses it.
_MULTI_ZONE_ANCHORS = (
    (41.3, 11.98),  # zone 32/33 boundary, northern hemisphere
    (41.3, 12.02),  # just east of it: first fix usually lands in zone 33
    (-23.3, -48.02),  # zone 22/23 boundary, southern hemisphere
    (-23.3, -47.98),
)


def gps_fleet_fixes(
    devices: int,
    fixes_per_device: int,
    seed: int = 7,
    *,
    origin: Tuple[float, float] = (47.36, 8.55),
    multi_zone: bool = False,
    noise_m: float = 0.0,
) -> Tuple[List[str], array, array, array]:
    """One interleaved fleet stream as raw GPS: ``(ids, ts, lats, lons)``.

    The geodetic twin of :func:`fleet_fixes`: the same per-device
    correlated random walks and the same rotating interleave, but each
    device's metric track is placed on the ellipsoid through its own
    seeded :class:`~repro.model.projection.LocalTangentProjection` anchor
    (the simulator's metres → degrees leg; ingestion projects them back
    with the full UTM machinery, so the round trip crosses two distinct
    projections the way real GPS data crosses receiver and consumer).

    ``origin`` anchors a single-zone fleet (default: zone 32, north);
    ``multi_zone`` scatters devices over :data:`_MULTI_ZONE_ANCHORS`
    instead — two zone boundaries, both hemispheres, tracks crossing the
    boundary.  ``noise_m`` adds seeded Gaussian metre noise to every fix
    before unprojection (the noisy-GPS variant).  Fully deterministic for
    a given seed.
    """
    ids, cols = fleet_fixes(devices, fixes_per_device, seed=seed)
    anchor_rng = random.Random(seed * 40_009 + devices)
    projections = {}
    # Device names in index order, recovered from the stream itself (the
    # first tick reports devices 0..n-1 in order) — no duplication of
    # fleet_fixes' id format here.
    for i, name in enumerate(dict.fromkeys(ids)):
        if multi_zone:
            base_lat, base_lon = _MULTI_ZONE_ANCHORS[
                i % len(_MULTI_ZONE_ANCHORS)
            ]
        else:
            base_lat, base_lon = origin
        projections[name] = LocalTangentProjection(
            ref_latitude=base_lat + anchor_rng.uniform(-0.02, 0.02),
            ref_longitude=base_lon + anchor_rng.uniform(-0.02, 0.02),
        )
    noise_rng = random.Random(seed * 48_611 + devices) if noise_m > 0.0 else None
    n = len(ids)
    lats = array("d", bytes(8 * n))
    lons = array("d", bytes(8 * n))
    xs, ys = cols.xs, cols.ys
    for k in range(n):
        x = xs[k]
        y = ys[k]
        if noise_rng is not None:
            x += noise_rng.gauss(0.0, noise_m)
            y += noise_rng.gauss(0.0, noise_m)
        lat, lon = projections[ids[k]].inverse(x, y)
        lats[k] = lat
        lons[k] = lon
    return ids, cols.ts, lats, lons


@dataclass(frozen=True)
class DisorderSummary:
    """What :func:`inject_disorder` actually planted — the ground truth a
    dirty-feed run is audited against (each artifact kind maps to exactly
    one sanitizer counter under the matching policy)."""

    swaps: int  #: adjacent same-device fixes exchanged in arrival order
    dups: int  #: fixes emitted twice back to back
    teleports: int  #: fixes displaced by the teleport offset
    gaps: int  #: silences inserted by shifting a device's tail timestamps

    @property
    def artifacts(self) -> int:
        return self.swaps + self.dups + self.teleports + self.gaps


def inject_disorder(
    device_ids: Sequence[str],
    ts: Sequence[float],
    c1: Sequence[float],
    c2: Sequence[float],
    *,
    seed: int = 7,
    swaps: int = 0,
    dups: int = 0,
    teleports: int = 0,
    gaps: int = 0,
    teleport_offset: float = 50_000.0,
    gap_offset: float = 3_600.0,
) -> Tuple[List[str], array, array, array, DisorderSummary]:
    """A seeded dirty copy of an interleaved fleet stream.

    Plants four artifact kinds into a clean ``(ids, ts, c1, c2)`` stream
    (planar metres or geodetic degrees — the coordinate columns are
    opaque):

    * **swap** — two adjacent same-device fixes exchange their global
      arrival positions: one fix arrives exactly one tick late.  Under a
      drop-mode policy that is one ``out_of_order`` drop; with a reorder
      buffer (``max_lateness >=`` the tick) it is repaired, counted in
      ``reordered``, and the output matches the clean run.
    * **dup** — a fix is emitted twice back to back: one ``duplicate``
      drop.
    * **teleport** — a fix's first coordinate is displaced by
      ``teleport_offset`` (metres planar; pass degrees of *latitude* for
      geodetic streams so the spike never crosses a UTM zone boundary):
      one ``teleport`` drop under a max-speed gate.
    * **gap** — a device's timestamps from a cut onward all shift by
      ``gap_offset`` seconds: one ``gap`` split under a gap policy (and
      no drops — every fix is genuine).

    Artifact sites are chosen by a seeded RNG with at least two clean
    fixes between any two artifacts on the same device and the first fix
    of every device left untouched (so geodetic zone selection and the
    speed gate's anchor see clean data).  The planted counts are exact —
    the returned :class:`DisorderSummary` is ground truth the ingest's
    :class:`~repro.engine.sanitize.FeedReport` can be asserted against —
    and a placement that cannot satisfy the spacing raises ``ValueError``
    rather than silently planting less.
    """
    n = len(device_ids)
    if not (len(ts) == len(c1) == len(c2) == n):
        raise ValueError(
            "ids/columns length mismatch: "
            f"ids={n}, ts={len(ts)}, c1={len(c1)}, c2={len(c2)}"
        )
    for name, count in (
        ("swaps", swaps),
        ("dups", dups),
        ("teleports", teleports),
        ("gaps", gaps),
    ):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count!r}")
    # Device-local fix positions in the global stream, in arrival order.
    positions: Dict[str, List[int]] = {}
    for g, device_id in enumerate(device_ids):
        positions.setdefault(device_id, []).append(g)
    names = list(positions)
    rng = random.Random(seed * 65_537 + n)
    used: Dict[str, Set[int]] = {name: set() for name in names}

    def place(kind: str, lo_pad: int, hi_pad: int, footprint: int) -> Tuple[str, int]:
        """A seeded (device, device-local index) site with ±2 spacing from
        every other artifact on that device."""
        for _ in range(400):
            device_id = names[rng.randrange(len(names))]
            length = len(positions[device_id])
            lo, hi = lo_pad, length - hi_pad
            if hi <= lo:
                continue
            j = rng.randrange(lo, hi)
            taken = used[device_id]
            if any(
                abs(j + k - u) <= 2 for u in taken for k in range(footprint)
            ):
                continue
            for k in range(footprint):
                taken.add(j + k)
            return device_id, j
        # Argument validation of the caller's requested artifact counts
        # against the stream they supplied — ValueError is the right type,
        # it just is not expressible as a guard over one parameter name.
        # repro: ignore[RA04] rejects caller-requested counts that cannot fit the caller's stream — argument validation
        raise ValueError(
            f"could not place {kind} artifact: stream too small or too "
            f"dirty for the requested counts"
        )

    ts_out = array("d", ts)
    c1_out = array("d", c1)
    c2_out = array("d", c2)
    # Gaps first: they rewrite a suffix of a device's timestamps, which
    # every later artifact must see (a swap near the shifted region still
    # swaps fixes 1 tick apart, both shifted identically).
    for _ in range(gaps):
        device_id, j = place("gap", 2, 3, 2)
        for g in positions[device_id][j:]:
            ts_out[g] += gap_offset
    for _ in range(teleports):
        device_id, j = place("teleport", 1, 2, 1)
        c1_out[positions[device_id][j]] += teleport_offset
    swap_map: Dict[int, int] = {}
    for _ in range(swaps):
        device_id, j = place("swap", 1, 2, 2)
        a = positions[device_id][j]
        b = positions[device_id][j + 1]
        swap_map[a] = b
        swap_map[b] = a
    dup_sites: Set[int] = set()
    for _ in range(dups):
        device_id, j = place("dup", 1, 1, 1)
        dup_sites.add(positions[device_id][j])
    ids_dirty: List[str] = []
    ts_dirty = array("d")
    c1_dirty = array("d")
    c2_dirty = array("d")
    for g in range(n):
        source = swap_map.get(g, g)
        ids_dirty.append(device_ids[source])
        ts_dirty.append(ts_out[source])
        c1_dirty.append(c1_out[source])
        c2_dirty.append(c2_out[source])
        if g in dup_sites:
            ids_dirty.append(device_ids[g])
            ts_dirty.append(ts_out[g])
            c1_dirty.append(c1_out[g])
            c2_dirty.append(c2_out[g])
    return (
        ids_dirty,
        ts_dirty,
        c1_dirty,
        c2_dirty,
        DisorderSummary(swaps=swaps, dups=dups, teleports=teleports, gaps=gaps),
    )


def iter_geo_fix_batches(
    device_ids: Sequence[str],
    ts: Sequence[float],
    lats: Sequence[float],
    lons: Sequence[float],
    batch_size: int,
) -> Iterator[Tuple[Sequence[str], Sequence[float], Sequence[float], Sequence[float]]]:
    """Chunk an interleaved GPS stream into ``(ids, ts, lats, lons)`` batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    n = len(device_ids)
    if not (len(ts) == len(lats) == len(lons) == n):
        raise ValueError(
            "ids/columns length mismatch: "
            f"ids={n}, ts={len(ts)}, lats={len(lats)}, lons={len(lons)}"
        )
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield (
            device_ids[start:stop],
            ts[start:stop],
            lats[start:stop],
            lons[start:stop],
        )


def iter_fix_batches(
    device_ids: Sequence[str],
    cols: TrajectoryColumns,
    batch_size: int,
) -> Iterator[Tuple[Sequence[str], Sequence[float], Sequence[float], Sequence[float]]]:
    """Chunk an interleaved fleet stream into ``(ids, ts, xs, ys)`` batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    n = len(device_ids)
    if len(cols) != n:
        raise ValueError(
            f"ids/columns length mismatch: {n} vs {len(cols)}"
        )
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield (
            device_ids[start:stop],
            cols.ts[start:stop],
            cols.xs[start:stop],
            cols.ys[start:stop],
        )
