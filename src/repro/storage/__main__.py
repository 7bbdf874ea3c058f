"""CLI entry point: ``python -m repro.storage``.

Subcommands::

    # compress a simulated fleet straight to disk (engine -> StoreSink)
    PYTHONPATH=src python -m repro.storage ingest /tmp/fleet --devices 50 --fixes 200

    # raw GPS in: geodetic ingestion, zone-stamped blobs
    PYTHONPATH=src python -m repro.storage ingest /tmp/geo --devices 50 --fixes 200 \\
        --geodetic --multi-zone

    # what's in a store
    PYTHONPATH=src python -m repro.storage stat /tmp/fleet

    # who was active in a window / who entered a rectangle
    PYTHONPATH=src python -m repro.storage query /tmp/fleet --t0 10 --t1 60
    PYTHONPATH=src python -m repro.storage query /tmp/fleet --rect -200,-200,200,200
    PYTHONPATH=src python -m repro.storage query /tmp/fleet --rect -200,-200,200,200 \\
        --t0 0 --t1 100 --mode approximate

    # lat/lon answers out: geographic rectangle over a zone-stamped store
    PYTHONPATH=src python -m repro.storage query /tmp/geo --geo-rect=41.28,11.9,41.32,12.0

    # drop tombstoned data, rewrite live records into fresh segments
    PYTHONPATH=src python -m repro.storage compact /tmp/fleet

    # upgrade an old-format store directory in place (emit sidecars)
    PYTHONPATH=src python -m repro.storage migrate /tmp/old-fleet

    # rebuild every index sidecar from the segment logs
    PYTHONPATH=src python -m repro.storage reindex /tmp/fleet

    # CI guard: synthetic fill, timed lazy reopen, mmap-vs-scan parity
    PYTHONPATH=src python -m repro.storage scale-smoke /tmp/scale \\
        --records 50000 --max-open-seconds 2.0

``ingest`` runs the same seeded fleet simulation as ``python -m
repro.engine`` but streams every sealed trajectory through the
:class:`~repro.storage.store.StoreSink` with ``collect=False`` — the
process holds no compressed output in memory; the store directory is the
result.  With ``--geodetic`` the simulation emits raw GPS fixes and the
:class:`~repro.engine.geodetic.GeoStreamEngine` front-end auto-selects
each device's UTM zone, so every stored blob is zone-stamped and the
store answers ``--geo-rect`` queries.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import time
from typing import Sequence

from ..engine.core import StreamEngine
from ..engine.geodetic import GeoStreamEngine
from ..engine.simulate import (
    bqs_fleet_factory,
    fleet_fixes,
    gps_fleet_fixes,
    iter_fix_batches,
    iter_geo_fix_batches,
)
from .query import geo_range_query, range_query, time_window_query
from .store import StoreSink, TrajectoryStore, migrate_store

__all__ = ["main"]


def _parse_rect(text: str, flag: str = "--rect"):
    parts = text.split(",")
    if len(parts) != 4:
        names = (
            "lat_min,lon_min,lat_max,lon_max"
            if flag == "--geo-rect"
            else "x_min,y_min,x_max,y_max"
        )
        raise SystemExit(f"{flag} expects {names}, got {text!r}")
    try:
        rect = tuple(float(p) for p in parts)
    except ValueError:
        raise SystemExit(f"{flag} values must be numeric, got {text!r}")
    return rect


def _cmd_ingest(args) -> int:
    if (args.multi_zone or args.noise_m) and not args.geodetic:
        raise SystemExit("--multi-zone/--noise-m require --geodetic")
    factory = functools.partial(bqs_fleet_factory, args.epsilon)
    sink = StoreSink(args.store)
    engine_kwargs = dict(
        collect=False,
        sink=sink,
        max_devices=args.max_devices,
        idle_timeout=args.idle_timeout,
    )
    if args.geodetic:
        ids, ts, lats, lons = gps_fleet_fixes(
            args.devices,
            args.fixes,
            seed=args.seed,
            multi_zone=args.multi_zone,
            noise_m=args.noise_m,
        )
        batches = iter_geo_fix_batches(ids, ts, lats, lons, args.batch)
        engine = GeoStreamEngine(factory, **engine_kwargs)
    else:
        ids, cols = fleet_fixes(args.devices, args.fixes, seed=args.seed)
        batches = iter_fix_batches(ids, cols, args.batch)
        engine = StreamEngine(factory, **engine_kwargs)
    total = len(ids)
    start = time.perf_counter()
    for batch in batches:
        engine.push_columns(*batch)
    engine.finish_all()
    wall = time.perf_counter() - start
    # Read the summary off the sink's own store before closing it — no
    # reopen-and-rescan of segments we just wrote.
    store = sink.store
    store.flush()
    disk = store.total_bytes()
    keys = store.key_point_count
    records = store.record_count
    zones = (
        sorted(
            {
                (r.utm_zone, r.utm_south)
                for r in store.records()
                if r.utm_zone is not None
            }
        )
        if args.geodetic
        else []
    )
    sink.close()
    print(
        f"{total} fixes -> {records} trajectories, "
        f"{keys} key points, {disk} bytes on disk "
        f"({disk / total:.2f} B/raw fix, {disk / max(keys, 1):.2f} B/key point) "
        f"in {wall:.3f}s = {total / wall:,.0f} fixes/s"
    )
    if args.geodetic:
        print(
            "zones stamped: "
            + (
                ", ".join(f"{z}{'S' if s else 'N'}" for z, s in zones)
                or "none"
            )
        )
    return 0


def _cmd_stat(args) -> int:
    with TrajectoryStore(args.store) as store:
        span = store.time_span()
        box = store.bbox()
        print(f"store      {store.directory}")
        print(
            f"segments   {len(store.segment_names)} "
            f"({store.total_bytes()} bytes)"
        )
        print(f"devices    {len(store.devices())}")
        print(f"records    {store.record_count}")
        print(f"key points {store.key_point_count}")
        if span is not None:
            print(f"time span  [{span[0]:.3f}, {span[1]:.3f}]")
        if box is not None:
            print(
                f"bbox       [{box[0]:.2f}, {box[1]:.2f}] .. "
                f"[{box[2]:.2f}, {box[3]:.2f}]"
            )
        coverage = store.index_report()
        print(
            f"index      {coverage['sidecar_segments']}/"
            f"{coverage['segments']} segments sidecar-indexed "
            f"({coverage['sidecar_rows']}/{coverage['rows']} rows "
            "served via mmap)"
        )
        print(
            f"examined   {coverage['rows_examined']} rows, "
            f"{coverage['blocks_examined']} blocks by this command"
        )
        if store.scan_report:
            for segment, dropped in sorted(store.scan_report.items()):
                print(
                    f"warning    {segment}: {dropped} trailing bytes "
                    f"unreadable (truncated/corrupt tail)",
                    file=sys.stderr,
                )
    return 0


def _cmd_query(args) -> int:
    if args.rect is None and args.geo_rect is None and args.t0 is None:
        raise SystemExit("query needs --rect, --geo-rect and/or --t0/--t1")
    if args.rect is not None and args.geo_rect is not None:
        raise SystemExit("--rect and --geo-rect are mutually exclusive")
    if (args.t0 is None) != (args.t1 is None):
        raise SystemExit("--t0 and --t1 must be given together")
    with TrajectoryStore(args.store) as store:
        try:
            if args.geo_rect is not None:
                matches = geo_range_query(
                    store,
                    _parse_rect(args.geo_rect, "--geo-rect"),
                    mode=args.mode,
                    t0=args.t0,
                    t1=args.t1,
                )
            elif args.rect is not None:
                matches = range_query(
                    store,
                    _parse_rect(args.rect),
                    mode=args.mode,
                    t0=args.t0,
                    t1=args.t1,
                )
            else:
                matches = time_window_query(store, args.t0, args.t1)
        except ValueError as exc:
            # Degenerate/out-of-range rectangles and windows: a usage
            # error, reported like every other one (not a traceback).
            raise SystemExit(str(exc))
        for m in sorted(matches, key=lambda m: (m.device_id, m.ref.t_min)):
            flag = "definite" if m.definite else "possible"
            where = f"{m.ref.segment}@{m.ref.offset}"
            if m.geo_envelope is not None:
                where = (
                    f"lat=[{m.geo_envelope[0]:.5f}, {m.geo_envelope[2]:.5f}] "
                    f"lon=[{m.geo_envelope[1]:.5f}, {m.geo_envelope[3]:.5f}] "
                    f"zone={m.ref.utm_zone}{'S' if m.ref.utm_south else 'N'}  "
                    + where
                )
            print(
                f"{m.device_id}  {flag}  t=[{m.ref.t_min:.3f}, "
                f"{m.ref.t_max:.3f}]  keys={m.ref.n_key_points}  {where}"
            )
        devices = sorted({m.device_id for m in matches})
        print(
            f"{len(matches)} record(s), {len(devices)} device(s)",
            file=sys.stderr,
        )
    return 0


def _cmd_compact(args) -> int:
    with TrajectoryStore(args.store) as store:
        stats = store.compact()
    print(
        f"compacted: {stats['records']} live records, "
        f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
    )
    return 0


def _cmd_migrate(args) -> int:
    try:
        stats = migrate_store(args.store)
    except ValueError as exc:
        raise SystemExit(str(exc))
    action = (
        f"migrated from format {stats['from_format']}"
        if stats["migrated"]
        else "already current format"
    )
    print(
        f"{args.store}: {action}; {stats['records']} records in "
        f"{stats['segments']} segment(s), {stats['sidecars']} sidecar(s) "
        "written"
    )
    if stats["dropped_bytes"]:
        print(
            f"warning    {stats['dropped_bytes']} unreadable trailing "
            "bytes dropped (damaged tails)",
            file=sys.stderr,
        )
    return 0


def _cmd_reindex(args) -> int:
    with TrajectoryStore(args.store) as store:
        count = store.reindex()
        records = store.record_count
    print(f"reindexed: {count} sidecar(s) rewritten, {records} records")
    return 0


def synthetic_fill(store: TrajectoryStore, records: int, devices: int) -> None:
    """Append deterministic tiny zone-stamped trajectories, fast.

    Two key points each, spread over a ~50x50 km patch of UTM zone 33N so
    the block pruning has structure to bite on; no randomness, so every
    run of the smoke lays down byte-identical stores.
    """
    from ..model.point import PlanePoint
    from ..model.projection import UTMProjection
    from ..model.trajectory import CompressedTrajectory

    projection = UTMProjection(zone=33, south=False)
    start = store.record_count
    for i in range(start, start + records):
        device = i % devices
        t = float(i // devices) * 60.0
        x = 350_000.0 + (device * 37 % 997) * 50.0 + (i % 97) * 2.0
        y = 4_600_000.0 + (device * 61 % 997) * 50.0 + (i % 89) * 2.0
        store.append(
            f"dev-{device:05d}",
            CompressedTrajectory(
                key_points=(
                    PlanePoint(x, y, t),
                    PlanePoint(x + 25.0, y + 18.0, t + 30.0),
                ),
                original_count=30,
                tolerance=10.0,
                algorithm="bqs",
                frame=projection,
            ),
        )


def _cmd_scale_smoke(args) -> int:
    build_start = time.perf_counter()
    with TrajectoryStore(args.store) as store:
        missing = args.records - store.record_count
        if missing > 0:
            synthetic_fill(store, missing, args.devices)
        total = store.record_count
    build_wall = time.perf_counter() - build_start

    open_start = time.perf_counter()
    store = TrajectoryStore(args.store)
    open_wall = time.perf_counter() - open_start
    try:
        coverage = store.index_report()
        box = store.bbox()
        (zone, south) = sorted(store.stamped_frames())[0]
        from ..model.projection import UTMProjection

        projection = UTMProjection(zone=zone, south=south)

        def geo_rect_of(lo: float, hi: float):
            """The [lo, hi] fraction of the covered plane on each axis,
            unprojected: a geographic rectangle derived from the data."""
            corners = [
                projection.inverse(
                    box[0] + f * (box[2] - box[0]),
                    box[1] + f * (box[3] - box[1]),
                )
                for f in (lo, hi)
            ]
            return (
                min(c[0] for c in corners),
                min(c[1] for c in corners),
                max(c[0] for c in corners),
                max(c[1] for c in corners),
            )

        # The middle ninth of the plane, and 1/100 of the extent per side
        # (the corner, where the synthetic fill is sure to have records).
        queries = {
            label: functools.partial(
                geo_range_query, geo_rect=geo_rect, mode="approximate"
            )
            for label, geo_rect in (
                ("geo query", geo_rect_of(1.0 / 3.0, 2.0 / 3.0)),
                ("small query", geo_rect_of(0.0, 0.01)),
            )
        }
        # Thirty minutes centred on the median record start: a time-only
        # window, answered by the sidecars' time order.
        t_mid = statistics.median_low(ref.t_min for ref in store.records())
        queries["30-min window"] = functools.partial(
            time_window_query, t0=t_mid - 900.0, t1=t_mid + 900.0
        )
        fast = {}
        lines = []
        for label, query in queries.items():
            examined = store.index_report()["rows_examined"]
            start = time.perf_counter()
            fast[label] = query(store)
            wall = time.perf_counter() - start
            examined = store.index_report()["rows_examined"] - examined
            lines.append(
                f"{label} {len(fast[label])} matches in {wall*1e3:.1f}ms "
                f"({examined} rows examined)"
            )
    finally:
        store.close()

    # The same questions answered without sidecars: full envelope scan on
    # open, linear candidate selection — the fallback path must agree
    # record for record.
    scan_start = time.perf_counter()
    scan_store = TrajectoryStore(args.store, index_sidecars=False)
    scan_open_wall = time.perf_counter() - scan_start
    try:
        slow = {label: query(scan_store) for label, query in queries.items()}
    finally:
        scan_store.close()

    print(
        f"{total} records ({build_wall:.2f}s build): open {open_wall*1e3:.1f}ms "
        f"indexed vs {scan_open_wall*1e3:.1f}ms scan "
        f"({scan_open_wall / max(open_wall, 1e-9):.0f}x), "
        f"{coverage['sidecar_segments']}/{coverage['segments']} segments via "
        f"sidecar, {', '.join(lines)}"
    )
    for label in queries:
        fast_key = [(m.ref.segment, m.ref.offset, m.device_id) for m in fast[label]]
        slow_key = [(m.ref.segment, m.ref.offset, m.device_id) for m in slow[label]]
        if fast_key != slow_key:
            print(
                f"FAIL: {label}: mmap path returned {len(fast_key)} matches, "
                f"fallback scan {len(slow_key)} — the paths disagree",
                file=sys.stderr,
            )
            return 1
    if coverage["scanned_segments"]:
        print(
            f"FAIL: {coverage['scanned_segments']} segment(s) fell back to "
            "the envelope scan on a clean reopen",
            file=sys.stderr,
        )
        return 1
    if open_wall > args.max_open_seconds:
        print(
            f"FAIL: indexed open took {open_wall:.3f}s "
            f"(budget {args.max_open_seconds:.3f}s)",
            file=sys.stderr,
        )
        return 1
    print(
        "scale-smoke: PASS (mmap and scan paths agree; open within budget)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.storage",
        description="Persist, inspect and query compressed trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="stream a simulated fleet into a store")
    p.add_argument("store", help="store directory (created if missing)")
    p.add_argument("--devices", type=int, default=50)
    p.add_argument("--fixes", type=int, default=200, help="fixes per device")
    p.add_argument("--epsilon", type=float, default=10.0, help="metres")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--batch", type=int, default=4096, help="fixes per batch")
    p.add_argument("--max-devices", type=int, default=None)
    p.add_argument("--idle-timeout", type=float, default=None)
    p.add_argument(
        "--geodetic",
        action="store_true",
        help="simulate raw GPS fixes and ingest through the geodetic "
        "front-end (zone-stamped blobs)",
    )
    p.add_argument(
        "--multi-zone",
        action="store_true",
        help="with --geodetic: fleet straddles two UTM zone boundaries",
    )
    p.add_argument(
        "--noise-m",
        type=float,
        default=0.0,
        help="with --geodetic: Gaussian GPS noise sigma in metres",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stat", help="summarize a store")
    p.add_argument("store")
    p.set_defaults(func=_cmd_stat)

    p = sub.add_parser("query", help="time-window / spatial-range query")
    p.add_argument("store")
    p.add_argument("--rect", default=None, metavar="XMIN,YMIN,XMAX,YMAX")
    p.add_argument(
        "--geo-rect",
        default=None,
        metavar="LATMIN,LONMIN,LATMAX,LONMAX",
        help="geographic rectangle in degrees (zone-stamped records are "
        "each tested in their own UTM frame); use --geo-rect=... when "
        "the first value is negative",
    )
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)
    p.add_argument(
        "--mode",
        choices=("exact", "approximate"),
        default="exact",
        help="range mode: exact decodes candidates, approximate is index-only",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("compact", help="rewrite live records, drop dead data")
    p.add_argument("store")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "migrate",
        help="upgrade a format-1/format-2 store directory in place",
    )
    p.add_argument("store")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser(
        "reindex", help="rebuild every index sidecar from the segment logs"
    )
    p.add_argument("store")
    p.set_defaults(func=_cmd_reindex)

    p = sub.add_parser(
        "scale-smoke",
        help="CI guard: synthetic fill, timed lazy reopen, mmap-vs-scan "
        "query parity",
    )
    p.add_argument("store", help="store directory (filled on first run)")
    p.add_argument("--records", type=int, default=50_000)
    p.add_argument("--devices", type=int, default=250)
    p.add_argument(
        "--max-open-seconds",
        type=float,
        default=2.0,
        help="hard wall-clock budget for the sidecar-indexed reopen",
    )
    p.set_defaults(func=_cmd_scale_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
