"""Correctness checks, all outside every timer.

Each is written against the benchmark's own inputs and ground truth, not
against another code path of the program, so a layer that gets faster by
getting wrong is caught here.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.model.projection import UTMProjection

_SLACK = 1.0 + 1e-9  # float rounding in the audit's own arithmetic


def deviations(ts, xs, ys, key_points, with_sed=False):
    """``(max point-to-line deviation, max synchronized distance)`` of raw
    fixes from the compressed trajectory's segments.

    A fix is measured against the segment whose time span covers it (the
    nearest one where key points share a timestamp), as
    ``CompressedTrajectory.max_deviation_from`` does.
    """
    kts = [p.t for p in key_points]
    kxs = [p.x for p in key_points]
    kys = [p.y for p in key_points]
    if not kts or not len(ts):
        return 0.0, 0.0
    if len(kts) == 1:
        worst = max(math.hypot(x - kxs[0], y - kys[0]) for x, y in zip(xs, ys))
        return worst, worst
    last = len(kts) - 2
    worst = worst_sed = 0.0
    idx = 0
    for i in range(len(ts)):
        t, x, y = ts[i], xs[i], ys[i]
        while idx < last and kts[idx + 1] < t:
            idx += 1
        best = best_sed = math.inf
        j = idx
        while True:
            ax, ay = kxs[j], kys[j]
            bx, by = kxs[j + 1], kys[j + 1]
            dx, dy = bx - ax, by - ay
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                d = math.hypot(x - ax, y - ay)
            else:
                d = abs(dx * (y - ay) - dy * (x - ax)) / norm
            if d < best:
                best = d
            if with_sed:
                span = kts[j + 1] - kts[j]
                f = (t - kts[j]) / span if span > 0.0 else 0.0
                f = min(max(f, 0.0), 1.0)
                s = math.hypot(x - (ax + f * dx), y - (ay + f * dy))
                if s < best_sed:
                    best_sed = s
            j += 1
            if j > last or kts[j] > t:
                break
        if best > worst:
            worst = best
        if with_sed and best_sed > worst_sed:
            worst_sed = best_sed
    return worst, worst_sed


def audit_epsilon(gate, label, epsilon, ts, xs, ys, trajectory, with_sed=False):
    """Gate: the sealed trajectory keeps every raw fix within ε; returns the
    measured ``(deviation, sed)`` pair."""
    dev, sed = deviations(ts, xs, ys, trajectory.key_points, with_sed)
    gate.check(
        trajectory.original_count == len(ts) and dev <= epsilon * _SLACK,
        lambda: f"{label}: max deviation {dev:.4f} m > eps {epsilon} "
        f"({trajectory.original_count} fixes claimed, {len(ts)} pushed)",
    )
    return dev, sed


def check_ledger(gate, label, report, truth):
    """Gate: the feed report reconciles and equals the planted disorder."""
    expected = {
        "fixes_in": truth["fixes"],
        "fixes_out": truth["fixes"] - truth["dups"] - truth["teleports"],
        "buffered": 0,
        "reordered": truth["swaps"],
        "dropped": {k: v for k, v in (("duplicate", truth["dups"]),
                                      ("teleport", truth["teleports"])) if v},
        "splits": {k: v for k, v in (("gap", truth["gaps"]),
                                     ("zone", truth["zone_splits"])) if v},
    }
    got = report.to_json()
    gate.check(report.reconciles, f"{label}: feed ledger does not reconcile: {got}")
    gate.check(got == expected,
               f"{label}: feed ledger {got} != planted ground truth {expected}")


def device_digests(stores):
    """``{device: sha256}`` over every stored record of each device, decoded
    (columns, raw-fix count and UTM frame), in append order."""
    digests = {}
    for store in stores:
        for device in store.devices():
            h = hashlib.sha256()
            for ref in store.device_manifest(device):
                record = store.read(ref)
                cols = record.columns
                h.update(struct.pack("<QHB", record.original_count,
                                     record.utm_zone or 0, record.utm_south))
                h.update(cols.ts.tobytes())
                h.update(cols.xs.tobytes())
                h.update(cols.ys.tobytes())
            digests[device] = h.hexdigest()
    return digests


def check_same_digests(gate, label, got, reference):
    different = sorted(d for d in set(got) | set(reference)
                       if got.get(d) != reference.get(d))
    gate.check(not different,
               f"{label}: {len(different)} device(s) stored differently from the "
               f"reference run, first {different[:3]}")


# -- store_query: brute-force truth ------------------------------------------

_PLANE_MARGIN_M = 100.0  # lat/lon edges bow by metres at these sizes, not more
#: The store keeps key points at a 1 cm quantum, so a fix this close to a
#: rectangle's edge may sit on either side once stored (about 2 cm in degrees).
_EDGE_DEG = 2e-7


class QueryTruth:
    """Answers every query of the mix from the raw inputs alone."""

    def __init__(self, trips, place, keys):
        self.trips = trips  # trip index -> (ts, xs, ys) raw fixes
        self.place = place  # placement columns, one row per stored record
        self.keys = keys  # record index -> (segment, offset) as appended
        self.frames = {z: UTMProjection(z) for z in set(place["zone"])}
        self.boxes = [
            (min(xs), min(ys), max(xs), max(ys)) for _, xs, ys in trips
        ]
        self.spans = [(ts[0], ts[-1]) for ts, _, _ in trips]

    def time_window(self, t0, t1):
        place, spans = self.place, self.spans
        trip, dt = place["trip"], place["dt"]
        return {
            self.keys[i] for i in range(len(trip))
            if spans[trip[i]][0] + dt[i] <= t1 and spans[trip[i]][1] + dt[i] >= t0
        }

    def device(self, device):
        devices = self.place["device"]
        return {self.keys[i] for i in range(len(devices)) if devices[i] == device}

    def geo(self, rect):
        """``(strict, loose)``: records with at least one raw fix inside the
        lat/lon rectangle shrunk, and grown, by the storage quantum."""
        lat0, lon0, lat1, lon1 = rect
        e = _EDGE_DEG
        windows = {}
        for zone, frame in self.frames.items():
            corners = [frame.forward(la, lo) for la in (lat0, lat1) for lo in (lon0, lon1)]
            windows[zone] = (
                min(c[0] for c in corners) - _PLANE_MARGIN_M,
                min(c[1] for c in corners) - _PLANE_MARGIN_M,
                max(c[0] for c in corners) + _PLANE_MARGIN_M,
                max(c[1] for c in corners) + _PLANE_MARGIN_M,
            )
        place = self.place
        strict, loose = set(), set()
        for i in range(len(place["trip"])):
            zone = place["zone"][i]
            wx0, wy0, wx1, wy1 = windows[zone]
            dx, dy = place["dx"][i], place["dy"][i]
            bx0, by0, bx1, by1 = self.boxes[place["trip"][i]]
            if bx0 + dx > wx1 or bx1 + dx < wx0 or by0 + dy > wy1 or by1 + dy < wy0:
                continue
            inverse = self.frames[zone].inverse
            _, xs, ys = self.trips[place["trip"][i]]
            for x, y in zip(xs, ys):
                x += dx
                y += dy
                if wx0 <= x <= wx1 and wy0 <= y <= wy1:
                    lat, lon = inverse(x, y)
                    if lat0 - e <= lat <= lat1 + e and lon0 - e <= lon <= lon1 + e:
                        loose.add(self.keys[i])
                        if lat0 + e <= lat <= lat1 - e and lon0 + e <= lon <= lon1 - e:
                            strict.add(self.keys[i])
                            break
        return strict, loose


def match_keys(matches):
    return {(m.ref.segment, m.ref.offset) for m in matches}


def check_geo_chain(gate, label, truth, exact, approximate):
    """Gate: ``definite ⊆ truth ⊆ exact ⊆ approximate``."""
    truth, truth_loose = truth
    definite = {(m.ref.segment, m.ref.offset) for m in exact if m.definite}
    exact_keys = match_keys(exact)
    approx_keys = match_keys(approximate)
    gate.check(definite <= truth_loose,
               f"{label}: {len(definite - truth_loose)} definite match(es) hold no raw fix "
               "inside the rectangle")
    gate.check(truth <= exact_keys,
               f"{label}: exact mode missed {len(truth - exact_keys)} record(s) that "
               "have a raw fix inside the rectangle")
    gate.check(exact_keys <= approx_keys,
               f"{label}: {len(exact_keys - approx_keys)} exact match(es) absent from "
               "approximate mode")
