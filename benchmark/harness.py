"""What the three workload modules share: the per-run context (clock, scratch
directories, reference loop), the failure ledger behind ``failed``, and the
loop that repeats one unit of work until the run's seconds are used up."""

from __future__ import annotations

import gc
import resource
import shutil
import time
from pathlib import Path

import metrics

MIN_UNITS = 3
#: Seconds :func:`reference_loop` takes on an undisturbed host of the kind the
#: benchmark was set up on (2 vCPUs, Xeon 2.1 GHz, CPython 3.11).  Timings are
#: scaled by the loop's fastest time in the same run over this constant, so on
#: such a host they read in real seconds; on another they are off by a constant
#: factor, which cancels in every comparison of two commits.
REFERENCE_LOOP_S = 0.0095
#: Everything the benchmark writes goes under here, in the current directory.
OUT = Path("bench_out")


class Gate:
    """Counts every correctness check and operation; keeps what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message if isinstance(message, str) else message())
        return ok

    def count(self, operations):
        self.attempted += operations


def _maxrss_mib(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Context:
    def __init__(self, workload, inputs, work, seconds, trace, setup_only, spawned_at):
        self.workload = workload
        self.inputs = Path(inputs)
        self.work = Path(work)
        self.seconds = seconds
        self.trace = trace
        self.setup_only = setup_only
        self.spawned_at = spawned_at
        self.gate = Gate()
        self.metrics = {}
        self.setup_s = None
        self._started = None
        self._dirs = 0
        self._reference = []

    # -- clock ---------------------------------------------------------------

    def setup_done(self):
        """Set-up ends here (subprocess start to first timed repeat)."""
        self.setup_s = time.monotonic() - self.spawned_at
        self._reference.append(reference_loop())
        self._started = time.perf_counter()

    def elapsed_share(self):
        return (time.perf_counter() - self._started) / self.seconds

    def repeat(self, unit, until=1.0, at_least=MIN_UNITS):
        """Run ``unit()`` until ``until`` of the run's seconds have gone (and at
        least ``at_least`` times); returns the list of what it returned."""
        out = []
        while len(out) < at_least or self.elapsed_share() < until:
            gc.collect()
            out.append(unit())
            self._reference.append(reference_loop())
        return out

    def slowdown(self):
        """How much slower than nominal this host ran the reference loop during
        the run, at its fastest; divide a time by it to read it at nominal speed."""
        return min(self._reference) / REFERENCE_LOOP_S

    # -- scratch -------------------------------------------------------------

    def fresh_dir(self, name):
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs:03d}"
        path.mkdir(parents=True)
        return path

    @staticmethod
    def drop(path):
        shutil.rmtree(path, ignore_errors=True)

    # -- results -------------------------------------------------------------

    @staticmethod
    def peak_rss_mb():
        """Peak resident memory of this process plus that of its largest child."""
        return _maxrss_mib(resource.RUSAGE_SELF) + _maxrss_mib(resource.RUSAGE_CHILDREN)

    def put(self, name, entry):
        if name not in metrics.UNITS:
            raise KeyError(f"metric {name!r} is not in the benchmark's tables")
        self.metrics[name] = {"unit": metrics.UNITS[name], **entry}

    def result(self):
        # Every time and rate is read at nominal speed; counts, sizes and shares
        # are what they are.
        slowdown = self.slowdown()
        for entry in self.metrics.values():
            scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "us": 1 / slowdown,
                     "1/s": slowdown}.get(entry["unit"])
            if scale:
                for key in ("value", "q1", "q3"):
                    entry[key] *= scale
        if self.trace and not self.setup_only:
            self.put("trace.host_slowdown", metrics.exact(slowdown, len(self._reference)))
        return {
            "workload": self.workload,
            "trace": self.trace,
            "setup_s": self.setup_s / slowdown,
            "metrics": self.metrics,
            "attempted": self.gate.attempted,
            "failed": len(self.gate.failures),
            "failures": self.gate.failures[:20],
        }


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def reference_loop(n=200_000, best_of=5):
    """Seconds a fixed piece of pure-Python arithmetic takes, the fastest of a
    few goes; it shares nothing with the program, so no change to the program
    can move it."""
    best = float("inf")
    for _ in range(best_of):
        s = 0.0
        x = 1.0001
        a = time.perf_counter()
        for i in range(n):
            s += x * i
            if s > 1e12:
                s = 0.0
        best = min(best, time.perf_counter() - a)
    return best


def fastest_steps(repeats):
    """Per step, the fastest of the repeats of the same sequence of steps."""
    return [min(step) for step in zip(*repeats)]


def step_percentile(steps, p, scale, samples):
    """The ``p``-th percentile step, in ``scale`` units; ``samples`` timings went
    into ``steps``, and a percentile they cannot support (fewer than ten of them
    beyond it) is lowered to one they can."""
    p = min(p, metrics.top_percentile(samples) or 50)
    value = metrics.percentile(sorted(steps), p) * scale
    return {"value": value, "n": samples, "q1": value, "q3": value}
