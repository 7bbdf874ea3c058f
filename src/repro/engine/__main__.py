"""CLI demo: ``python -m repro.engine``.

Simulates a fleet of devices streaming interleaved fixes and drives them
through the engine, printing throughput and the compression outcome::

    PYTHONPATH=src python -m repro.engine --devices 200 --fixes 500
    PYTHONPATH=src python -m repro.engine --devices 200 --fixes 500 --workers 2
    PYTHONPATH=src python -m repro.engine --devices 100 --fixes 300 --geodetic --multi-zone

The default runs the single-process :class:`~repro.engine.core.
StreamEngine`; ``--workers N`` (N >= 1) runs the sharded multiprocessing
engine instead, its frames crossing zero-copy shared-memory rings.
``--geodetic`` feeds raw GPS ``(lat, lon)`` fixes through
the :class:`~repro.engine.geodetic.GeoStreamEngine` front-end (UTM zone
auto-selected per device; ``--multi-zone`` scatters the fleet across two
zone boundaries on both hemispheres, ``--noise-m`` adds GPS noise) and
reports the zones the run stamped.  Use the reference benchmark
(``python3 benchmark/run.py``) for recorded, comparable numbers — this
entry point is for watching the engine work.

``--dirty`` turns the simulated feed hostile: seeded disorder is injected
into the stream (``--swaps`` late arrivals, ``--dups`` duplicates,
``--teleports`` position spikes, ``--gaps`` long silences) and a
:class:`~repro.engine.sanitize.SanitizePolicy` is put in front of the
compressors; the run prints the resulting ``FeedReport`` and
``--check-feed`` exits non-zero unless the sanitizer's counters match the
injection ground truth exactly (the CI smoke runs this).

``python -m repro.engine ingest-csv FILE`` is the real-feed adapter: it
streams ``device_id,t,x,y`` (or ``device_id,t,lat,lon`` with
``--geodetic``) rows through the engine with the sanitizer on by default,
prints the per-run feed ledger, and can persist sealed trajectories
straight to a store directory with ``--store``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from array import array
from typing import Sequence

from .core import StreamEngine
from .geodetic import GeoStreamEngine
from .sanitize import (
    DROP_DUPLICATE,
    DROP_OUT_OF_ORDER,
    DROP_TELEPORT,
    SPLIT_GAP,
    FeedReport,
    SanitizePolicy,
    format_feed_report,
)
from .sharded import ShardedStreamEngine
from .simulate import (
    DisorderSummary,
    bqs_fleet_factory,
    fleet_fixes,
    gps_fleet_fixes,
    inject_disorder,
    iter_fix_batches,
    iter_geo_fix_batches,
)

__all__ = ["main"]


def _policy_from_args(args) -> SanitizePolicy:
    return SanitizePolicy(
        max_lateness=args.max_lateness,
        max_speed_mps=args.max_speed,
        gap_seconds=args.gap_seconds,
        split_zones=getattr(args, "split_zones", False),
    )


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-lateness",
        type=float,
        default=0.0,
        help="reorder-buffer window in seconds (0 = drop late fixes)",
    )
    parser.add_argument(
        "--max-speed",
        type=float,
        default=50.0,
        help="teleport gate in m/s",
    )
    parser.add_argument(
        "--gap-seconds",
        type=float,
        default=60.0,
        help="silence beyond this splits the stream",
    )


def _expected_report(
    summary: DisorderSummary, policy: SanitizePolicy, fixes_in: int
) -> FeedReport:
    """The ledger a clean run over the injected stream must produce."""
    dropped = {}
    reordered = 0
    if policy.max_lateness > 0.0:
        reordered = summary.swaps
    elif summary.swaps:
        dropped[DROP_OUT_OF_ORDER] = summary.swaps
    if summary.dups:
        dropped[DROP_DUPLICATE] = summary.dups
    if summary.teleports:
        dropped[DROP_TELEPORT] = summary.teleports
    splits = {SPLIT_GAP: summary.gaps} if summary.gaps else {}
    return FeedReport(
        fixes_in=fixes_in,
        fixes_out=fixes_in - sum(dropped.values()),
        buffered=0,
        reordered=reordered,
        dropped=dropped,
        splits=splits,
    )


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "ingest-csv":
        return _ingest_csv_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.engine",
        description="Stream a simulated device fleet through the engine.",
    )
    parser.add_argument("--devices", type=int, default=100)
    parser.add_argument("--fixes", type=int, default=300, help="fixes per device")
    parser.add_argument("--epsilon", type=float, default=10.0, help="metres")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--batch", type=int, default=4096, help="fixes per batch")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard over N worker processes (0 = single-process engine)",
    )
    parser.add_argument(
        "--max-devices",
        type=int,
        default=None,
        help="LRU-evict streams past this cap (per shard when sharded)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="finish streams idle for this many stream-seconds",
    )
    parser.add_argument(
        "--geodetic",
        action="store_true",
        help="feed raw GPS (lat, lon) fixes through the geodetic front-end "
        "(per-device UTM zone auto-selection, zone-stamped output)",
    )
    parser.add_argument(
        "--multi-zone",
        action="store_true",
        help="with --geodetic: scatter the fleet across two UTM zone "
        "boundaries on both hemispheres",
    )
    parser.add_argument(
        "--noise-m",
        type=float,
        default=0.0,
        help="with --geodetic: Gaussian GPS noise sigma in metres",
    )
    parser.add_argument(
        "--dirty",
        action="store_true",
        help="inject seeded disorder into the feed and sanitize it",
    )
    parser.add_argument(
        "--swaps", type=int, default=0, help="with --dirty: late arrivals"
    )
    parser.add_argument(
        "--dups", type=int, default=0, help="with --dirty: duplicated fixes"
    )
    parser.add_argument(
        "--teleports", type=int, default=0, help="with --dirty: position spikes"
    )
    parser.add_argument(
        "--gaps", type=int, default=0, help="with --dirty: inserted silences"
    )
    _add_policy_flags(parser)
    parser.add_argument(
        "--check-feed",
        action="store_true",
        help="with --dirty: fail unless the FeedReport matches the "
        "injection ground truth exactly",
    )
    args = parser.parse_args(argv)
    if (args.multi_zone or args.noise_m) and not args.geodetic:
        parser.error("--multi-zone/--noise-m require --geodetic")
    if (
        args.swaps or args.dups or args.teleports or args.gaps or args.check_feed
    ) and not args.dirty:
        parser.error("--swaps/--dups/--teleports/--gaps/--check-feed require --dirty")

    factory = functools.partial(bqs_fleet_factory, args.epsilon)
    summary = None
    if args.geodetic:
        ids, ts, lats, lons = gps_fleet_fixes(
            args.devices,
            args.fixes,
            seed=args.seed,
            multi_zone=args.multi_zone,
            noise_m=args.noise_m,
        )
        if args.dirty:
            # Teleport offset in degrees of latitude: far beyond any speed
            # gate, but never across a UTM zone (longitude) boundary.
            ids, ts, lats, lons, summary = inject_disorder(
                ids,
                ts,
                lats,
                lons,
                seed=args.seed,
                swaps=args.swaps,
                dups=args.dups,
                teleports=args.teleports,
                gaps=args.gaps,
                teleport_offset=0.5,
            )
        batches = iter_geo_fix_batches(ids, ts, lats, lons, args.batch)
    else:
        ids, cols = fleet_fixes(args.devices, args.fixes, seed=args.seed)
        if args.dirty:
            ids, ts, xs, ys, summary = inject_disorder(
                ids,
                cols.ts,
                cols.xs,
                cols.ys,
                seed=args.seed,
                swaps=args.swaps,
                dups=args.dups,
                teleports=args.teleports,
                gaps=args.gaps,
            )
            batches = iter_geo_fix_batches(ids, ts, xs, ys, args.batch)
        else:
            batches = iter_fix_batches(ids, cols, args.batch)
    policy = _policy_from_args(args) if args.dirty else None
    total = len(ids)
    print(
        f"fleet: {args.devices} devices x {args.fixes} fixes "
        f"({total} total), epsilon={args.epsilon} m, "
        f"{'GPS-native, ' if args.geodetic else ''}"
        f"{'dirty feed, ' if args.dirty else ''}"
        f"{'sharded x' + str(args.workers) if args.workers else 'single-process'}",
        file=sys.stderr,
    )

    start = time.perf_counter()
    if args.workers:
        engine = ShardedStreamEngine(
            factory,
            workers=args.workers,
            max_devices=args.max_devices,
            idle_timeout=args.idle_timeout,
            geodetic=args.geodetic,
            policy=policy,
        )
    elif args.geodetic:
        engine = GeoStreamEngine(
            factory,
            max_devices=args.max_devices,
            idle_timeout=args.idle_timeout,
            policy=policy,
        )
    else:
        engine = StreamEngine(
            factory,
            max_devices=args.max_devices,
            idle_timeout=args.idle_timeout,
            policy=policy,
        )
    for batch in batches:
        engine.push_columns(*batch)
    results = engine.finish_all()
    wall = time.perf_counter() - start

    trajectories = sum(len(v) for v in results.values())
    key_points = sum(len(t) for v in results.values() for t in v)
    print(
        f"{total} fixes -> {trajectories} trajectories, "
        f"{key_points} key points "
        f"(rate {key_points / total:.3f}) in {wall:.3f}s "
        f"= {total / wall:,.0f} fixes/s"
    )
    if args.geodetic:
        zones = sorted(
            {
                (t.frame.zone, "S" if t.frame.south else "N")
                for v in results.values()
                for t in v
                if t.frame is not None
            }
        )
        print(
            "zones stamped: "
            + (", ".join(f"{z}{h}" for z, h in zones) or "none")
        )
    if policy is not None:
        report = engine.feed_report()
        print(format_feed_report(report))
        if args.check_feed:
            expected = _expected_report(summary, policy, total)
            if not report.reconciles:
                print("FAIL: feed ledger does not reconcile", file=sys.stderr)
                return 1
            if report.to_json() != expected.to_json():
                print(
                    "FAIL: feed report does not match injection ground "
                    f"truth\n  expected: {expected.to_json()}\n"
                    f"  actual:   {report.to_json()}",
                    file=sys.stderr,
                )
                return 1
            print("feed report matches injection ground truth")
    return 0


def _ingest_csv_main(argv: Sequence[str]) -> int:
    """``python -m repro.engine ingest-csv FILE`` — the real-feed adapter."""
    parser = argparse.ArgumentParser(
        prog="repro.engine ingest-csv",
        description="Stream a CSV feed of device fixes through the engine.",
    )
    parser.add_argument(
        "path", help="CSV file with device_id,t,x,y rows ('-' for stdin)"
    )
    parser.add_argument("--epsilon", type=float, default=10.0, help="metres")
    parser.add_argument("--batch", type=int, default=4096)
    parser.add_argument(
        "--geodetic",
        action="store_true",
        help="coordinate columns are latitude/longitude degrees",
    )
    parser.add_argument(
        "--split-zones",
        action="store_true",
        help="with --geodetic: seal/reopen streams at UTM zone boundaries",
    )
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="columns are positional device_id,t,x,y (no header row)",
    )
    parser.add_argument(
        "--no-sanitize",
        action="store_true",
        help="trust the feed: no sanitizer, dirty rows fail the run",
    )
    _add_policy_flags(parser)
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist sealed trajectories to this store directory",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead journal directory: every accepted batch is "
        "durable before it is compressed, so a crashed run can be "
        "replayed exactly (StreamEngine.recover / GeoStreamEngine."
        "recover on this directory)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync journal frames and store appends (survives power "
        "loss, not just process death)",
    )
    args = parser.parse_args(argv)
    if args.split_zones and not args.geodetic:
        parser.error("--split-zones requires --geodetic")
    if args.fsync and args.journal is None and args.store is None:
        parser.error("--fsync needs --journal and/or --store to act on")
    policy = None if args.no_sanitize else _policy_from_args(args)

    sink = None
    store = None
    if args.store is not None:
        from ..storage.store import StoreSink, TrajectoryStore

        store = TrajectoryStore(args.store, fsync=args.fsync)
        sink = StoreSink(store)
    factory = functools.partial(bqs_fleet_factory, args.epsilon)
    cls = GeoStreamEngine if args.geodetic else StreamEngine
    engine = cls(
        factory,
        policy=policy,
        sink=sink,
        collect=sink is None,
        journal=args.journal,
        journal_fsync=args.fsync,
    )

    coord_names = ("lat", "lon") if args.geodetic else ("x", "y")
    handle = sys.stdin if args.path == "-" else open(args.path, newline="")
    rows_in = 0
    try:
        reader = csv.reader(handle)
        columns = (0, 1, 2, 3)
        if not args.no_header:
            try:
                header = next(reader)
            except StopIteration:
                print("empty feed", file=sys.stderr)
                return 1
            names = [h.strip().lower() for h in header]
            aliases = {
                "device_id": ("device_id", "device", "id"),
                "t": ("t", "timestamp", "time"),
                coord_names[0]: (coord_names[0], "latitude")
                if args.geodetic
                else (coord_names[0],),
                coord_names[1]: (coord_names[1], "longitude")
                if args.geodetic
                else (coord_names[1],),
            }
            resolved = []
            for field, candidates in aliases.items():
                for candidate in candidates:
                    if candidate in names:
                        resolved.append(names.index(candidate))
                        break
                else:
                    parser.error(
                        f"header {header!r} has no {field!r} column "
                        "(use --no-header for positional columns)"
                    )
            columns = tuple(resolved)
        ids: list = []
        ts = array("d")
        c1 = array("d")
        c2 = array("d")
        start = time.perf_counter()
        for row in reader:
            if not row:
                continue
            ids.append(row[columns[0]])
            # float('nan') on unparseable numbers would be silent; let a
            # malformed row fail loudly with its line number.
            try:
                ts.append(float(row[columns[1]]))
                c1.append(float(row[columns[2]]))
                c2.append(float(row[columns[3]]))
            except (ValueError, IndexError) as exc:
                print(
                    f"line {reader.line_num}: bad row {row!r}: {exc}",
                    file=sys.stderr,
                )
                return 1
            rows_in += 1
            if len(ids) >= args.batch:
                engine.push_columns(ids, ts, c1, c2)
                ids, ts = [], array("d")
                c1, c2 = array("d"), array("d")
        if ids:
            engine.push_columns(ids, ts, c1, c2)
        results = engine.finish_all()
        wall = time.perf_counter() - start
    finally:
        if handle is not sys.stdin:
            handle.close()
        if sink is not None:
            sink.close()
        if store is not None:
            store.close()

    trajectories = (
        sum(len(v) for v in results.values())
        if sink is None
        else engine.sealed_trajectories
    )
    key_points = sum(len(t) for v in results.values() for t in v)
    print(
        f"{rows_in} rows -> {trajectories} trajectories"
        + (f", {key_points} key points" if sink is None else "")
        + f" in {wall:.3f}s"
        + (f" -> store {args.store}" if sink is not None else "")
    )
    if policy is not None:
        print(format_feed_report(engine.feed_report()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
