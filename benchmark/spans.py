"""Spans taken from outside the program, at its public seams.

The tracer and every proxy here belong to the benchmark: a span is opened
round a call into a layer and closed when the call returns.  Nothing under
``src/`` is touched.  ``Tracer(enabled=False)`` records nothing, so the same
seam objects serve the untraced (timed) and the traced repeats.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns

from repro.engine import FixJournal


class Tracer:
    """In-memory span list: ``[name, start_ns, end_ns, parent, batch_seq]``."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.batch_seq = -1

    def begin(self, name):
        if not self.enabled:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.batch_seq])
        self._stack.append(index)
        return index

    def end(self, index):
        if index < 0:
            return
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_times(self):
        return self_times(self.spans)

    def root_wall_ns(self):
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "batch_seq"],
                 "spans": self.spans, **extra},
                handle,
            )


def self_times(spans):
    """Nanoseconds of self time per span name: a span's duration minus the
    durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    totals = {}
    for s, ns in zip(spans, own):
        totals[s[0]] = totals.get(s[0], 0) + ns
    return totals


class CompressorProxy:
    """Forwards to a real compressor; spans ``push_xyt`` and ``finish``.

    With ``capture`` it also keeps the columns it was pushed, so the ε audit
    can measure each sealed trajectory against exactly the fixes that
    stream's compressor saw (after projection and sanitation).
    """

    def __init__(self, inner, tracer, capture=None):
        self._inner = inner
        self._tracer = tracer
        self._capture = capture
        self._raw = ([], [], []) if capture is not None else None

    @property
    def pushed(self):
        return self._inner.pushed

    def push_xyt(self, ts, xs, ys):
        if self._raw is not None:
            self._raw[0].extend(ts)
            self._raw[1].extend(xs)
            self._raw[2].extend(ys)
        tracer = self._tracer
        index = tracer.begin("compression.bqs")
        try:
            return self._inner.push_xyt(ts, xs, ys)
        finally:
            tracer.end(index)

    def finish(self):
        tracer = self._tracer
        index = tracer.begin("compression.bqs")
        try:
            trajectory = self._inner.finish()
        finally:
            tracer.end(index)
        if self._capture is not None:
            self._capture(trajectory, self._raw, self._inner)
        return trajectory

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracingSink:
    """A ``Sink`` round ``StoreSink``: spans ``emit`` and ``close`` and keeps
    the sealed trajectories when asked to (for the standalone codec timing)."""

    def __init__(self, inner, tracer, keep=False):
        self._inner = inner
        self._tracer = tracer
        self.kept = [] if keep else None
        self.durable = getattr(inner, "durable", False)

    def emit(self, device_id, trajectory):
        if self.kept is not None:
            self.kept.append(trajectory)
        self._tracer.call("storage.store.emit", self._inner.emit, device_id, trajectory)

    def close(self):
        self._tracer.call("storage.store.seal", self._inner.close)


class TracingJournal(FixJournal):
    """``FixJournal`` whose writes are spanned and counted."""

    def __init__(self, directory, tracer, **kwargs):
        self._tracer = tracer
        self.records_logged = 0
        self.bytes_at_rotate = 0  # the journal's size just before it is dropped
        super().__init__(directory, **kwargs)

    def _spanned(self, method, *args):
        self.records_logged += 1
        return self._tracer.call("engine.journal", method, *args)

    def log_push(self, groups):
        return self._spanned(super().log_push, groups)

    def log_seal(self, device_id):
        return self._spanned(super().log_seal, device_id)

    def log_finish(self, device_id):
        return self._spanned(super().log_finish, device_id)

    def log_finish_all(self):
        return self._spanned(super().log_finish_all)

    def rotate(self):
        self.bytes_at_rotate = self.total_bytes()
        return self._tracer.call("engine.journal", super().rotate)


class _CountingFile:
    def __init__(self, handle, counts):
        self._handle = handle
        self._counts = counts

    def write(self, data):
        self._counts["write_calls"] += 1
        self._counts["bytes_written"] += len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class CountingFS:
    """Pass-through ``fsio`` shim that counts what the write paths ask of it."""

    def __init__(self):
        self.counts = {"opens": 0, "write_calls": 0, "bytes_written": 0,
                       "fsyncs": 0, "replaces": 0}

    def open(self, path, mode="rb", **kwargs):
        self.counts["opens"] += 1
        return _CountingFile(open(path, mode, **kwargs), self.counts)

    def replace(self, src, dst):
        self.counts["replaces"] += 1
        os.replace(src, dst)

    def fsync(self, fileno):
        self.counts["fsyncs"] += 1
        os.fsync(fileno)

    def unlink(self, path):
        os.unlink(path)
