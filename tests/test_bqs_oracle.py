"""BQS against a brute-force greedy oracle on adversarial tracks.

:func:`repro.testing.adversarial.greedy_oracle` rescans every fix since the
anchor on each arrival; ``BQSCompressor`` decides from O(1) summaries.
Their key points must be equal, float for float, through every entry
point.  ``BQS_ORACLE_CASES`` scales the number of seeded cases (CI's
extended step raises it).
"""

import os
import random
from array import array

import pytest

from repro.compression import BQSCompressor
from repro.testing.adversarial import MODES, adversarial_track, greedy_oracle

CASES = int(os.environ.get("BQS_ORACLE_CASES", "30"))
N = 400
CHUNK = 97


def _case_modes(seed):
    """Every mode alone, all of them together, then seeded subsets."""
    if seed < len(MODES):
        return (MODES[seed],)
    if seed == len(MODES):
        return MODES
    rng = random.Random(seed)
    return tuple(m for m in MODES if rng.random() < 0.5)


def _keys(trajectory):
    return [(p.x, p.y, p.t) for p in trajectory.key_points]


def _drive(compressor, points, entry):
    if entry == "push":
        for p in points:
            compressor.push(p)
    elif entry == "push_many":
        compressor.push_many(points)
    else:
        ts = array("d", (p.t for p in points))
        xs = array("d", (p.x for p in points))
        ys = array("d", (p.y for p in points))
        for s in range(0, len(points), CHUNK):
            compressor.push_xyt(ts[s:s + CHUNK], xs[s:s + CHUNK], ys[s:s + CHUNK])
    return compressor.finish()


class TestGreedyOracle:
    @pytest.mark.parametrize("seed", range(CASES))
    def test_bqs_matches_oracle(self, seed):
        modes = _case_modes(seed)
        points, eps = adversarial_track(N, seed, modes)
        expected = greedy_oracle(points, eps)
        assert len(expected) > 2
        for entry in ("push", "push_many", "push_xyt"):
            got = _keys(_drive(BQSCompressor(eps), points, entry))
            assert got == expected, (modes, entry)

    @pytest.mark.parametrize("seed", range(0, CASES, 5))
    def test_debug_audit_agrees(self, seed):
        points, eps = adversarial_track(N, seed, _case_modes(seed))
        out = _drive(BQSCompressor(eps, debug_audit=True), points, "push")
        assert _keys(out) == greedy_oracle(points, eps)


class TestAdversarialGenerator:
    def test_deterministic_per_seed(self):
        assert adversarial_track(200, 3) == adversarial_track(200, 3)
        assert adversarial_track(200, 3) != adversarial_track(200, 4)

    def test_modes_show_in_the_track(self):
        pts, _ = adversarial_track(600, 1, ("stall",))
        assert any(a.t == b.t for a, b in zip(pts, pts[1:]))
        assert any(a.xy == b.xy for a, b in zip(pts, pts[1:]))
        pts, eps = adversarial_track(200, 1, ("far",))
        assert eps == 1e-3 and min(p.x for p in pts) > 9e6
        pts, _ = adversarial_track(400, 2, ("uturn",))
        xy = [p.xy for p in pts]
        assert any(xy[i] == xy[i + 2] for i in range(len(xy) - 2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            adversarial_track(10, 0, ("sideways",))
