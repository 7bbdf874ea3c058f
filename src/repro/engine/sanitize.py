"""Feed sanitization: the messy-GPS layer in front of the compressors.

The paper pitches BQS as compression *on the go* — field devices with
flaky receivers, lossy uplinks, drifting clocks — but every compressor in
:mod:`repro.compression` (correctly) demands a clean stream: timestamps
non-decreasing, coordinates finite, every fix genuine.  Real feeds break
all of that routinely: UDP reorders batches, gateways retransmit
duplicates, receivers emit (0, 0) or NaN while searching for satellites,
multipath teleports a fix across town, and a device going dark for an
hour should *end* a trajectory, not stretch one segment over the silence.

:class:`FeedSanitizer` is the per-device gatekeeper that turns a raw feed
into the stream the compressors were designed for.  It is configured by a
:class:`SanitizePolicy` (a frozen, picklable dataclass — the sharded
engine ships it to workers) and runs a fixed stage pipeline over every
fix:

1. **Finiteness** — a non-finite timestamp or coordinate is dropped
   (reason ``non_finite``) before it can poison any later stage.
2. **Reorder buffer** (``max_lateness > 0``) — fixes are held back and
   re-sorted by timestamp until the stream's watermark (max timestamp
   seen) has passed them by ``max_lateness`` seconds, so bounded network
   reordering is *repaired* instead of dropped.  The buffer is capped at
   ``reorder_capacity`` fixes; overflow force-releases the oldest.
3. **Ordering** — a fix still older than the released stream after the
   buffer (or any out-of-order fix when the buffer is off) is dropped
   (reason ``out_of_order``).
4. **Duplicates** — a fix co-timestamped with the last accepted one is
   dropped (first arrival wins), as is a near-duplicate within
   ``dup_dt`` seconds *and* ``dup_epsilon_m`` metres (reason
   ``duplicate``).
5. **Gap splitting** — silence longer than ``gap_seconds`` seals the
   stream and reopens a fresh one (split reason ``gap``): the fix after
   the gap starts a new trajectory, the amnesic behaviour a device going
   dark demands.
6. **Teleport gate** — a fix implying speed above ``max_speed_mps`` from
   the last accepted fix is dropped (reason ``teleport``).  A genuine
   relocation would starve forever behind a stale anchor, so after
   ``teleport_rejoin`` consecutive gated fixes the sanitizer concedes the
   device really moved: it accepts the fix and splits the stream there
   (split reason ``teleport``).  The gate is suspended for the first fix
   after a gap split — average speed across a long silence is
   meaningless.

Every fix is accounted for: the shared :class:`FeedCounters` /
:class:`FeedReport` machinery guarantees ``fixes_in == fixes_out +
dropped (by reason) + buffered`` at any instant, per device and in
aggregate, so sanitization can never silently lose data — the engines
expose the ledger via ``feed_report()``.

Zone splitting — the geodetic twin of gap splitting (seal in the old UTM
frame at a zone boundary, reopen in the new) — is policy-driven too
(``split_zones`` / ``zone_margin_deg``) but necessarily lives in
:class:`~repro.engine.geodetic.GeoStreamEngine`, the only layer that
still sees degrees.  This module contributes the geodetic validation
helpers (:func:`first_invalid_geo`, :func:`filter_geo_columns`) it uses
at the boundary.

With no policy configured the engines bypass this module entirely — the
clean-input fast paths are bit-identical to the pre-sanitizer engine,
which ``tests/test_digest_pins.py`` pins.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "DROP_DUPLICATE",
    "DROP_NON_FINITE",
    "DROP_OUT_OF_ORDER",
    "DROP_OUT_OF_RANGE",
    "DROP_TELEPORT",
    "SPLIT_GAP",
    "SPLIT_TELEPORT",
    "SPLIT_ZONE",
    "FeedChunk",
    "FeedCounters",
    "FeedReport",
    "FeedSanitizer",
    "SanitizePolicy",
    "filter_geo_columns",
    "first_invalid_geo",
    "format_feed_report",
]

# -- drop / split reason vocabulary (stable strings: they appear in
# FeedReport JSON and CLI output) -----------------------------------------

DROP_OUT_OF_ORDER = "out_of_order"  #: timestamp behind the released stream
DROP_DUPLICATE = "duplicate"  #: exact or near-duplicate of the last fix
DROP_NON_FINITE = "non_finite"  #: NaN/inf timestamp or coordinate
DROP_OUT_OF_RANGE = "out_of_range"  #: latitude/longitude outside the globe
DROP_TELEPORT = "teleport"  #: implied speed above the policy gate

SPLIT_GAP = "gap"  #: silence exceeded ``gap_seconds``
SPLIT_ZONE = "zone"  #: device left its UTM frame (geodetic engines)
SPLIT_TELEPORT = "teleport"  #: relocation conceded after a gated run

#: One sanitized run of fixes for the compressor: ``(seal_before, ts, xs,
#: ys)``.  ``seal_before`` asks the engine to seal the device's open
#: stream (if it has any fixes) before pushing the columns — the split
#: mechanic for gaps and teleport rejoins.
FeedChunk = Tuple[bool, "array[float]", "array[float]", "array[float]"]


@dataclass(frozen=True)
class SanitizePolicy:
    """How a feed is cleaned; one frozen object shared by every device.

    The default policy repairs nothing but exact/near duplicates and
    ordering (drop mode): enable the stages a deployment needs.  Frozen
    and purely scalar, so it pickles to sharded workers and serializes
    via :meth:`to_json`.

    Attributes:
        max_lateness: seconds of reordering the buffer absorbs; ``0``
            drops out-of-order fixes instead of re-sorting them.
        reorder_capacity: max fixes the reorder buffer may hold back per
            device; overflow force-releases the oldest.
        drop_duplicates: drop fixes co-timestamped with the last accepted
            fix (and near-duplicates per ``dup_dt`` / ``dup_epsilon_m``).
        dup_dt: near-duplicate time window in seconds (``0`` = exact
            same-timestamp only).
        dup_epsilon_m: near-duplicate distance in metres; a fix within
            ``dup_dt`` *and* ``dup_epsilon_m`` of the last accepted fix
            is dropped.
        max_speed_mps: teleport gate in metres/second; ``None`` disables.
        teleport_rejoin: consecutive gated fixes after which the gate
            concedes a genuine relocation (accept + split); ``None``
            never concedes.
        gap_seconds: silence beyond this seals the stream and reopens a
            fresh one; ``None`` disables gap splitting.
        split_zones: geodetic engines seal/reopen when a device leaves
            its UTM frame's strip (plus margin).
        zone_margin_deg: hysteresis in degrees longitude past the zone
            boundary before a zone split fires, so boundary-straddling
            tracks do not shatter into per-fix trajectories.
    """

    max_lateness: float = 0.0
    reorder_capacity: int = 512
    drop_duplicates: bool = True
    dup_dt: float = 0.0
    dup_epsilon_m: float = 0.0
    max_speed_mps: float | None = None
    teleport_rejoin: int | None = 8
    gap_seconds: float | None = None
    split_zones: bool = False
    zone_margin_deg: float = 0.05

    def __post_init__(self) -> None:
        if not (self.max_lateness >= 0.0 and math.isfinite(self.max_lateness)):
            raise ValueError(
                f"max_lateness must be finite and >= 0, got {self.max_lateness!r}"
            )
        if self.reorder_capacity < 1:
            raise ValueError(
                f"reorder_capacity must be >= 1, got {self.reorder_capacity!r}"
            )
        if not (self.dup_dt >= 0.0 and math.isfinite(self.dup_dt)):
            raise ValueError(f"dup_dt must be finite and >= 0, got {self.dup_dt!r}")
        if not (
            self.dup_epsilon_m >= 0.0 and math.isfinite(self.dup_epsilon_m)
        ):
            raise ValueError(
                f"dup_epsilon_m must be finite and >= 0, got {self.dup_epsilon_m!r}"
            )
        if self.max_speed_mps is not None and not (self.max_speed_mps > 0.0):
            raise ValueError(
                f"max_speed_mps must be > 0, got {self.max_speed_mps!r}"
            )
        if self.teleport_rejoin is not None and self.teleport_rejoin < 1:
            raise ValueError(
                f"teleport_rejoin must be >= 1, got {self.teleport_rejoin!r}"
            )
        if self.gap_seconds is not None and not (self.gap_seconds > 0.0):
            raise ValueError(
                f"gap_seconds must be > 0, got {self.gap_seconds!r}"
            )
        if not (
            self.zone_margin_deg >= 0.0 and math.isfinite(self.zone_margin_deg)
        ):
            raise ValueError(
                f"zone_margin_deg must be finite and >= 0, "
                f"got {self.zone_margin_deg!r}"
            )

    def to_json(self) -> dict:
        """A plain-JSON rendering."""
        return asdict(self)


class FeedCounters:
    """Mutable per-device sanitation ledger (one per device id, persistent
    across gap/zone splits *and* evictions — the engine owns the dict).

    The invariant every mutation preserves:
    ``fixes_in == fixes_out + sum(dropped.values()) + buffered``.
    """

    __slots__ = ("fixes_in", "fixes_out", "buffered", "reordered", "dropped", "splits")

    def __init__(self) -> None:
        self.fixes_in = 0  #: raw fixes handed to the sanitizer
        self.fixes_out = 0  #: fixes accepted and forwarded to a compressor
        self.buffered = 0  #: fixes currently held by the reorder buffer
        self.reordered = 0  #: fixes the buffer re-sequenced (insert not at tail)
        self.dropped: Dict[str, int] = {}  #: reason -> count
        self.splits: Dict[str, int] = {}  #: reason -> count

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    def split(self, reason: str) -> None:
        self.splits[reason] = self.splits.get(reason, 0) + 1

    def snapshot(self) -> "FeedReport":
        return FeedReport(
            fixes_in=self.fixes_in,
            fixes_out=self.fixes_out,
            buffered=self.buffered,
            reordered=self.reordered,
            dropped=dict(self.dropped),
            splits=dict(self.splits),
        )


@dataclass(frozen=True)
class FeedReport:
    """An immutable snapshot of sanitation counters (per device or merged).

    ``dropped`` and ``splits`` map reason strings (the module constants)
    to counts.  :attr:`reconciles` is the no-silent-loss audit: every raw
    fix is either compressed, dropped with a reason, or still buffered.
    """

    fixes_in: int = 0
    fixes_out: int = 0
    buffered: int = 0
    reordered: int = 0
    dropped: Dict[str, int] = field(default_factory=dict)
    splits: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    @property
    def splits_total(self) -> int:
        return sum(self.splits.values())

    @property
    def reconciles(self) -> bool:
        """``fixes_in == fixes_out + dropped + buffered`` — always true
        for reports produced by this package; exposed so benches and CI
        can assert it end to end."""
        return self.fixes_in == self.fixes_out + self.dropped_total + self.buffered

    def merged(self, other: "FeedReport") -> "FeedReport":
        """The element-wise sum of two reports (device -> fleet rollup)."""
        dropped = dict(self.dropped)
        for reason, n in other.dropped.items():
            dropped[reason] = dropped.get(reason, 0) + n
        splits = dict(self.splits)
        for reason, n in other.splits.items():
            splits[reason] = splits.get(reason, 0) + n
        return FeedReport(
            fixes_in=self.fixes_in + other.fixes_in,
            fixes_out=self.fixes_out + other.fixes_out,
            buffered=self.buffered + other.buffered,
            reordered=self.reordered + other.reordered,
            dropped=dropped,
            splits=splits,
        )

    def to_json(self) -> dict:
        return {
            "fixes_in": self.fixes_in,
            "fixes_out": self.fixes_out,
            "buffered": self.buffered,
            "reordered": self.reordered,
            "dropped": dict(sorted(self.dropped.items())),
            "splits": dict(sorted(self.splits.items())),
        }


def format_feed_report(report: FeedReport) -> str:
    """One-line human rendering for CLI output."""
    dropped = (
        ", ".join(f"{r}={n}" for r, n in sorted(report.dropped.items())) or "none"
    )
    splits = (
        ", ".join(f"{r}={n}" for r, n in sorted(report.splits.items())) or "none"
    )
    tail = "" if report.reconciles else "  [LEDGER DOES NOT RECONCILE]"
    return (
        f"feed: {report.fixes_in} in -> {report.fixes_out} compressed, "
        f"dropped {report.dropped_total} ({dropped}), "
        f"splits ({splits}), reordered {report.reordered}, "
        f"buffered {report.buffered}{tail}"
    )


class FeedSanitizer:
    """Per-device stream cleaner: raw fixes in, compressor-safe chunks out.

    One instance guards one device stream; the engine builds it alongside
    the device's compressor and drives it through :meth:`process` (per
    batch) and :meth:`flush` (at seal).  Both return :data:`FeedChunk`
    lists: runs of accepted fixes, each optionally demanding a stream
    seal first (gap / teleport-rejoin splits).

    State is O(policy.reorder_capacity): the reorder buffer plus the last
    accepted fix.  Counters live in the caller-owned
    :class:`FeedCounters` so the ledger survives the sanitizer itself
    (a device evicted and reborn keeps accumulating into the same row).
    """

    __slots__ = (
        "policy",
        "counters",
        "_last_t",
        "_last_x",
        "_last_y",
        "_has_last",
        "_gate_suspended",
        "_teleport_run",
        "_pend_t",
        "_pend_x",
        "_pend_y",
        "_watermark",
        "_carry_seal",
        "_out",
        "_cur",
    )

    def __init__(
        self, policy: SanitizePolicy, counters: FeedCounters | None = None
    ) -> None:
        self.policy = policy
        self.counters = counters if counters is not None else FeedCounters()
        self._last_t = -math.inf  #: timestamp of the last accepted fix
        self._last_x = 0.0
        self._last_y = 0.0
        self._has_last = False
        #: Gate suspension: the first fix of a fresh sub-stream (after a
        #: gap split) has no meaningful speed reference.
        self._gate_suspended = False
        self._teleport_run = 0
        # Reorder buffer: parallel t/x/y lists kept sorted by t (stable
        # for ties — bisect_right preserves arrival order of equal
        # timestamps, so the duplicate stage still sees first-arrival-wins).
        self._pend_t: List[float] = []
        self._pend_x: List[float] = []
        self._pend_y: List[float] = []
        self._watermark = -math.inf
        self._carry_seal = False  # a split marked with no fixes released yet
        self._out: List[FeedChunk] = []
        self._cur: tuple = ()

    # -- public API ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Fixes currently held back by the reorder buffer."""
        return len(self._pend_t)

    def process(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> List[FeedChunk]:
        """Fold one batch of raw fixes in; return released, cleaned chunks.

        With the reorder buffer active the returned fixes can lag the
        input (recent fixes are still held back); :meth:`flush` drains
        the remainder at seal time.
        """
        self._begin()
        counters = self.counters
        lateness = self.policy.max_lateness
        buffered = lateness > 0.0
        for i in range(len(ts)):
            t = ts[i]
            x = xs[i]
            y = ys[i]
            counters.fixes_in += 1
            if not (
                math.isfinite(t) and math.isfinite(x) and math.isfinite(y)
            ):
                counters.drop(DROP_NON_FINITE)
                continue
            if not buffered:
                self._stage(t, x, y)
                continue
            self._insert(t, x, y)
            if t > self._watermark:
                self._watermark = t
            self._release(self._watermark - lateness)
        return self._end()

    def flush(self) -> List[FeedChunk]:
        """Drain the reorder buffer through the stages (stream sealing)."""
        self._begin()
        self._release(math.inf)
        return self._end()

    # -- chunk assembly ------------------------------------------------------

    def _begin(self) -> None:
        self._out = []
        self._cur = (array("d"), array("d"), array("d"))
        # A split marked at the tail of the previous batch whose chunk
        # never materialized must not be lost across batch boundaries.
        # (carry_seal stays set until a fix follows it.)

    def _end(self) -> List[FeedChunk]:
        out = self._out
        cur = self._cur
        if len(cur[0]):
            out.append((self._carry_seal, cur[0], cur[1], cur[2]))
            self._carry_seal = False
        self._out = []
        self._cur = ()
        return out

    def _mark_split(self, reason: str) -> None:
        self.counters.split(reason)
        cur = self._cur
        if len(cur[0]):
            self._out.append((self._carry_seal, cur[0], cur[1], cur[2]))
            self._cur = (array("d"), array("d"), array("d"))
        self._carry_seal = True

    # -- reorder buffer ------------------------------------------------------

    def _insert(self, t: float, x: float, y: float) -> None:
        pend_t = self._pend_t
        pos = bisect_right(pend_t, t)
        if pos != len(pend_t):
            self.counters.reordered += 1
        pend_t.insert(pos, t)
        self._pend_x.insert(pos, x)
        self._pend_y.insert(pos, y)
        self.counters.buffered += 1
        if len(pend_t) > self.policy.reorder_capacity:
            self._release_one()

    def _release(self, horizon: float) -> None:
        pend_t = self._pend_t
        while pend_t and pend_t[0] <= horizon:
            self._release_one()

    def _release_one(self) -> None:
        t = self._pend_t.pop(0)
        x = self._pend_x.pop(0)
        y = self._pend_y.pop(0)
        self.counters.buffered -= 1
        self._stage(t, x, y)

    # -- the stage pipeline (post-buffer, fixes in released order) -----------

    def _stage(self, t: float, x: float, y: float) -> None:
        counters = self.counters
        policy = self.policy
        last_t = self._last_t

        # Ordering: behind the accepted stream is unrecoverable here —
        # either the buffer was off, or the fix outran its lateness window.
        if t < last_t:
            counters.drop(DROP_OUT_OF_ORDER)
            return

        if self._has_last:
            dt = t - last_t
            dx = x - self._last_x
            dy = y - self._last_y

            # Duplicates: first arrival wins on a shared timestamp; near
            # duplicates collapse retransmit jitter.
            if policy.drop_duplicates:
                if dt == 0.0:
                    counters.drop(DROP_DUPLICATE)
                    return
                if dt <= policy.dup_dt and (
                    dx * dx + dy * dy
                    <= policy.dup_epsilon_m * policy.dup_epsilon_m
                ):
                    counters.drop(DROP_DUPLICATE)
                    return

            # Gap: long silence ends the trajectory; the fix after the
            # gap starts a fresh one, with the speed gate suspended (no
            # meaningful reference across the silence).
            if policy.gap_seconds is not None and dt > policy.gap_seconds:
                self._mark_split(SPLIT_GAP)
                self._gate_suspended = True

            # Teleport gate: implied speed above the policy maximum.
            if (
                policy.max_speed_mps is not None
                and not self._gate_suspended
            ):
                limit = policy.max_speed_mps * dt
                if dx * dx + dy * dy > limit * limit:
                    rejoin = policy.teleport_rejoin
                    if rejoin is None or self._teleport_run + 1 < rejoin:
                        self._teleport_run += 1
                        counters.drop(DROP_TELEPORT)
                        return
                    # The device insists: concede a relocation — accept
                    # the fix but start a new trajectory there.
                    self._mark_split(SPLIT_TELEPORT)

        # Accepted.
        self._teleport_run = 0
        self._gate_suspended = False
        self._has_last = True
        self._last_t = t
        self._last_x = x
        self._last_y = y
        cur = self._cur
        cur[0].append(t)
        cur[1].append(x)
        cur[2].append(y)
        counters.fixes_out += 1


# -- geodetic boundary validation -------------------------------------------
#
# The geodetic engine is the only layer that still sees degrees, so
# latitude/longitude domain validation belongs at its boundary: without a
# policy an invalid fix raises with the device and index named (instead
# of a bare ``math domain error`` from deep inside the projection); with
# a policy the invalid fixes are dropped and counted here, before zone
# selection or projection ever sees them.


def first_invalid_geo(
    lats: Sequence[float], lons: Sequence[float]
) -> Tuple[int, str, float] | None:
    """``(index, reason, offending_value)`` of the first invalid
    coordinate, or ``None`` for a fully valid batch.

    Valid means finite latitude in [-90, 90] and finite longitude in
    [-180, 180] (both antimeridian spellings are legal; zone selection
    canonicalizes them).  NaN fails the range comparison, so one
    comparison pair per column covers both reasons.
    """
    for i in range(len(lats)):
        lat = lats[i]
        if not (-90.0 <= lat <= 90.0):
            reason = (
                DROP_OUT_OF_RANGE if math.isfinite(lat) else DROP_NON_FINITE
            )
            return i, reason, lat
        lon = lons[i]
        if not (-180.0 <= lon <= 180.0):
            reason = (
                DROP_OUT_OF_RANGE if math.isfinite(lon) else DROP_NON_FINITE
            )
            return i, reason, lon
    return None


def filter_geo_columns(
    ts: Sequence[float],
    lats: Sequence[float],
    lons: Sequence[float],
    counters: FeedCounters,
) -> Tuple[Sequence[float], Sequence[float], Sequence[float]]:
    """The valid subsequence of a geodetic batch, drops counted.

    Returns the input sequences untouched when every fix is valid (the
    overwhelmingly common case — one screening pass, no copies).  Dropped
    fixes are charged to ``counters`` as ``fixes_in`` plus the per-reason
    drop, so the ledger reconciles with the sanitizer counting only the
    surviving fixes downstream.
    """
    bad = first_invalid_geo(lats, lons)
    if bad is None:
        return ts, lats, lons
    keep_t = array("d", ts[: bad[0]])
    keep_lat = array("d", lats[: bad[0]])
    keep_lon = array("d", lons[: bad[0]])
    for i in range(bad[0], len(ts)):
        lat = lats[i]
        lon = lons[i]
        if not (-90.0 <= lat <= 90.0):
            counters.fixes_in += 1
            counters.drop(
                DROP_OUT_OF_RANGE if math.isfinite(lat) else DROP_NON_FINITE
            )
            continue
        if not (-180.0 <= lon <= 180.0):
            counters.fixes_in += 1
            counters.drop(
                DROP_OUT_OF_RANGE if math.isfinite(lon) else DROP_NON_FINITE
            )
            continue
        keep_t.append(ts[i])
        keep_lat.append(lat)
        keep_lon.append(lon)
    return keep_t, keep_lat, keep_lon
