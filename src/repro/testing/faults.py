"""Fault injection for the durable write paths, and kill-9 crash harnesses.

Two layers:

**Filesystem shims** for the :mod:`repro.fsio` seam.  :class:`FaultyFS`
models the disk failures a durable store must survive — an ENOSPC budget
(every byte past N fails), a torn write (the Mth write persists only half
its buffer), a failing ``os.replace`` (the atomic-commit rename), and a
lying ``fsync`` that silently drops the request.  :class:`KillFS` is the
blunter instrument: after a byte budget it SIGKILLs the *calling process
mid-write*, leaving exactly the torn frame a real crash leaves.  Install
either with :func:`repro.fsio.install` / :func:`repro.fsio.injected`;
read paths are untouched, so recovery code under test reopens files the
way production does.

**Crash harnesses** that fork a child ingesting a seeded fleet through a
journaled engine into a store, kill it — at a seeded batch boundary
(lockstep acks) or mid-write (a :class:`KillFS` in the child) — and then
assert the recovery invariant in the parent:

* no acknowledged batch is lost (``recovery.last_seq`` covers every ack
  the parent received before the kill),
* the store always reopens,
* after recovery resumes and finishes the feed, the store's
  :meth:`~repro.storage.store.TrajectoryStore.content_digest` is
  **bit-identical** to an uninterrupted run's.

:func:`run_compact_kill` does the same for :meth:`~repro.storage.store.
TrajectoryStore.compact`: killed at any point, a reopened store serves
either the old generation or the new one in full — same content digest
— and never an unreadable directory.

``python -m repro.testing.faults --seeds 0 1 2`` runs the bounded
matrix the CI crash-injection smoke step drives.
"""

from __future__ import annotations

import errno
import functools
import multiprocessing
import os
import signal
from pathlib import Path

from .. import fsio
from .workloads import fleet_digest

__all__ = [
    "FaultyFS",
    "KillFS",
    "run_compact_kill",
    "run_crash_ingest",
    "run_sharded_transport_check",
]


# -- filesystem shims --------------------------------------------------------


class _ShimFile:
    """Write-intercepting proxy around a real file handle."""

    def __init__(self, inner, shim) -> None:
        self._inner = inner
        self._shim = shim

    def write(self, data):
        return self._shim._write(self._inner, data)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._inner.close()
        return False


class FaultyFS:
    """A :mod:`repro.fsio` shim that injects disk failures on schedule.

    Args:
        enospc_after: byte budget across all writes; a write that would
            exceed it persists the bytes that fit and raises ``OSError
            (ENOSPC)`` — the torn-by-full-disk shape.
        torn_write_at: 1-based index of the write call that persists only
            the first half of its buffer, then raises ``OSError(EIO)``.
        fail_replace_at: 1-based index of the ``os.replace`` call that
            raises ``OSError(EIO)`` instead of committing.
        drop_fsync: silently ignore ``fsync`` requests (a lying disk) —
            the data may still be in the page cache, so nothing observes
            it until paired with a kill or power-loss simulation.

    Counters (``bytes_written``, ``writes``, ``replaces``, ``fsyncs``)
    are public so tests can assert what the code under test attempted.
    """

    def __init__(
        self,
        *,
        enospc_after: int | None = None,
        torn_write_at: int | None = None,
        fail_replace_at: int | None = None,
        drop_fsync: bool = False,
    ) -> None:
        self.enospc_after = enospc_after
        self.torn_write_at = torn_write_at
        self.fail_replace_at = fail_replace_at
        self.drop_fsync = drop_fsync
        self.bytes_written = 0
        self.writes = 0
        self.replaces = 0
        self.fsyncs = 0
        self.unlinks = 0

    def open(self, path, mode="rb", **kwargs):
        handle = open(path, mode, **kwargs)
        if "w" in mode or "a" in mode or "+" in mode:
            return _ShimFile(handle, self)
        return handle

    def _write(self, inner, data):
        self.writes += 1
        if self.torn_write_at is not None and self.writes == self.torn_write_at:
            torn = data[: len(data) // 2]
            inner.write(torn)
            inner.flush()
            self.bytes_written += len(torn)
            raise OSError(errno.EIO, "injected torn write")
        if self.enospc_after is not None:
            room = self.enospc_after - self.bytes_written
            if len(data) > room:
                if room > 0:
                    inner.write(data[:room])
                    inner.flush()
                    self.bytes_written += room
                raise OSError(errno.ENOSPC, "injected disk full")
        inner.write(data)
        self.bytes_written += len(data)
        return len(data)

    def replace(self, src, dst) -> None:
        self.replaces += 1
        if (
            self.fail_replace_at is not None
            and self.replaces == self.fail_replace_at
        ):
            raise OSError(errno.EIO, "injected rename failure")
        os.replace(src, dst)

    def fsync(self, fileno: int) -> None:
        self.fsyncs += 1
        if not self.drop_fsync:
            os.fsync(fileno)

    def unlink(self, path) -> None:
        # Cleanup must always succeed even when writes are failing —
        # tmp-hygiene handlers run *because* a fault fired.
        self.unlinks += 1
        os.unlink(path)


class KillFS:
    """A shim that SIGKILLs the calling process mid-write after a budget.

    The write that crosses ``kill_after_bytes`` persists (and flushes)
    only the bytes that fit, then the process dies instantly — no
    ``finally`` blocks, no buffers draining — leaving a torn frame on
    disk exactly where a real crash would.  Used inside forked harness
    children, never in the test runner process itself.
    """

    def __init__(self, kill_after_bytes: int) -> None:
        self.kill_after_bytes = kill_after_bytes
        self.bytes_written = 0

    def open(self, path, mode="rb", **kwargs):
        handle = open(path, mode, **kwargs)
        if "w" in mode or "a" in mode or "+" in mode:
            return _ShimFile(handle, self)
        return handle

    def _write(self, inner, data):
        room = self.kill_after_bytes - self.bytes_written
        if len(data) > room:
            if room > 0:
                inner.write(data[:room])
            inner.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        inner.write(data)
        self.bytes_written += len(data)
        return len(data)

    def replace(self, src, dst) -> None:
        os.replace(src, dst)

    def fsync(self, fileno: int) -> None:
        os.fsync(fileno)

    def unlink(self, path) -> None:
        os.unlink(path)


# -- kill-9 ingest harness ---------------------------------------------------


def _harness_engine(base, *, epsilon, devices, journal, fsync=False):
    """The harness's engine configuration — shared verbatim between the
    reference run, the crash child, and the recovery, since replay
    fidelity requires identical configuration."""
    from ..engine import SanitizePolicy, StreamEngine, bqs_fleet_factory
    from ..storage.store import StoreSink, TrajectoryStore

    store = TrajectoryStore(Path(base) / "store")
    engine = StreamEngine(
        functools.partial(bqs_fleet_factory, epsilon),
        # Tighter than the fleet so LRU evictions (and their seal
        # checkpoints) are part of what recovery must reproduce.
        max_devices=max(2, devices - 2),
        idle_timeout=300.0,
        policy=SanitizePolicy(),
        collect=False,
        sink=StoreSink(store),
        journal=journal,
        journal_fsync=fsync,
    )
    return store, engine


def _harness_batches(devices, fixes_per_device, seed, batch_size):
    from ..engine.simulate import fleet_fixes, iter_fix_batches

    ids, cols = fleet_fixes(devices, fixes_per_device, seed=seed)
    return list(iter_fix_batches(ids, cols, batch_size))


def _crash_child(
    conn, base, seed, devices, fixes_per_device, batch_size, epsilon,
    kill_bytes, fsync, lockstep,
) -> None:
    if kill_bytes is not None:
        fsio.install(KillFS(kill_bytes))
    batches = _harness_batches(devices, fixes_per_device, seed, batch_size)
    store, engine = _harness_engine(
        base,
        epsilon=epsilon,
        devices=devices,
        journal=Path(base) / "journal",
        fsync=fsync,
    )
    for i, batch in enumerate(batches):
        engine.push_columns(*batch)
        conn.send(i + 1)  # batches 1..i+1 acknowledged durable
        if lockstep:
            conn.recv()
    engine.finish_all()
    store.flush()
    store.close()
    conn.send("done")


def run_crash_ingest(
    base: str | os.PathLike,
    *,
    seed: int = 0,
    devices: int = 8,
    fixes_per_device: int = 120,
    batch_size: int = 64,
    epsilon: float = 5.0,
    kill_batch: int | None = None,
    kill_bytes: int | None = None,
    fsync: bool = False,
) -> dict:
    """Fork a journaled ingest, kill it, recover, and assert the invariant.

    Exactly one of ``kill_batch`` (SIGKILL from the parent once that many
    batches are acknowledged, at a batch boundary) and ``kill_bytes``
    (the child SIGKILLs *itself* mid-write once its journal/store writes
    cross the byte budget — torn frames included) should be given; with
    neither, the child runs to completion and recovery must be a no-op.

    Returns a report dict; raises ``AssertionError`` on any invariant
    violation: an acknowledged batch lost, a duplicate or missing sealed
    record (the content digest catches both), or a store that fails to
    reopen.
    """
    if kill_batch is not None and kill_bytes is not None:
        raise ValueError("give kill_batch or kill_bytes, not both")
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    batches = _harness_batches(devices, fixes_per_device, seed, batch_size)

    # The uninterrupted reference: same config, no journal, own store.
    ref_store, ref_engine = _harness_engine(
        base / "ref", epsilon=epsilon, devices=devices, journal=None
    )
    for batch in batches:
        ref_engine.push_columns(*batch)
    ref_engine.finish_all()
    ref_store.flush()
    ref_digest = ref_store.content_digest()
    ref_store.close()

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_crash_child,
        args=(
            child_conn, base, seed, devices, fixes_per_device, batch_size,
            epsilon, kill_bytes, fsync, kill_batch is not None,
        ),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    acked = 0
    finished = False
    try:
        if kill_batch == 0:
            os.kill(proc.pid, signal.SIGKILL)
        else:
            while True:
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    break
                if message == "done":
                    finished = True
                    break
                acked = message
                if kill_batch is not None:
                    if acked >= kill_batch:
                        os.kill(proc.pid, signal.SIGKILL)
                        break
                    parent_conn.send("go")
    finally:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10.0)
        parent_conn.close()

    # Invariant: the store reopens no matter where the child died.
    from ..engine import StreamEngine
    from ..storage.store import StoreSink, TrajectoryStore

    store = TrajectoryStore(base / "store")
    from ..engine import SanitizePolicy, bqs_fleet_factory

    engine = StreamEngine.recover(
        base / "journal",
        functools.partial(bqs_fleet_factory, epsilon),
        max_devices=max(2, devices - 2),
        idle_timeout=300.0,
        policy=SanitizePolicy(),
        collect=False,
        sink=StoreSink(store),
        dedupe_store=store,
        journal_fsync=fsync,
    )
    report = engine.recovery
    assert report.last_seq >= acked, (
        f"acknowledged batch lost: child acked {acked}, journal replayed "
        f"only {report.last_seq}"
    )
    for batch in batches[report.last_seq:]:
        engine.push_columns(*batch)
    engine.finish_all()
    store.flush()
    digest = store.content_digest()
    store.close()
    assert digest == ref_digest, (
        f"recovered store diverged from the uninterrupted run "
        f"(seed={seed}, kill_batch={kill_batch}, kill_bytes={kill_bytes}): "
        f"{digest[:16]} != {ref_digest[:16]}"
    )
    return {
        "seed": seed,
        "killed": not finished,
        "acked_batches": acked,
        "total_batches": len(batches),
        "recovery": report.to_json(),
        "digest": digest,
    }


# -- kill-9 during compact ---------------------------------------------------


def _compact_child(base, kill_bytes) -> None:
    from ..storage.store import TrajectoryStore

    fsio.install(KillFS(kill_bytes))
    store = TrajectoryStore(Path(base) / "cstore")
    store.compact()
    store.close()


def run_compact_kill(
    base: str | os.PathLike,
    *,
    seed: int = 0,
    kill_bytes: int = 512,
    devices: int = 6,
    fixes_per_device: int = 100,
    epsilon: float = 5.0,
) -> dict:
    """Kill ``compact()`` mid-write; the reopened store must serve the old
    or the new generation in full — identical content either way — and
    never be unreadable.
    """
    from ..engine import SanitizePolicy, StreamEngine, bqs_fleet_factory
    from ..storage.store import StoreSink, TrajectoryStore

    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    store_dir = base / "cstore"
    if not store_dir.exists():
        store = TrajectoryStore(store_dir, segment_max_bytes=4096)
        engine = StreamEngine(
            functools.partial(bqs_fleet_factory, epsilon),
            policy=SanitizePolicy(),
            collect=False,
            sink=StoreSink(store),
        )
        batches = _harness_batches(devices, fixes_per_device, seed, 64)
        for batch in batches:
            engine.push_columns(*batch)
        engine.finish_all()
        # Tombstone some devices so compaction genuinely rewrites.
        doomed = store.devices()[::3]
        for device_id in doomed:
            store.delete_device(device_id)
        store.flush()
        store.close()
    with TrajectoryStore(store_dir) as store:
        digest_before = store.content_digest()
        generation_before = store.generation

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_compact_child, args=(base, kill_bytes), daemon=True)
    proc.start()
    proc.join(timeout=30.0)
    exitcode = proc.exitcode

    # Invariant: old or new generation in full, never a mix or a ruin.
    with TrajectoryStore(store_dir) as store:
        digest_after = store.content_digest()
        generation_after = store.generation
        records = store.record_count
    assert digest_after == digest_before, (
        f"compact kill corrupted content (seed={seed}, "
        f"kill_bytes={kill_bytes}): {digest_after[:16]} != "
        f"{digest_before[:16]}"
    )
    assert generation_after in (generation_before, generation_before + 1), (
        f"generation {generation_after} is neither the old "
        f"{generation_before} nor the new {generation_before + 1}"
    )
    return {
        "seed": seed,
        "kill_bytes": kill_bytes,
        "child_exitcode": exitcode,
        "generation_before": generation_before,
        "generation_after": generation_after,
        "records": records,
        "digest": digest_after,
    }


def run_sharded_transport_check(
    base: str | os.PathLike,
    *,
    seed: int = 0,
    devices: int = 8,
    fixes_per_device: int = 80,
    batch_size: int = 64,
    epsilon: float = 5.0,
    workers: int = 2,
    kill: bool = True,
) -> dict:
    """Digest-pin the sharded transports against single-process output.

    Runs the same seeded fleet three ways — single-process
    :class:`~repro.engine.core.StreamEngine`, then a supervised
    :class:`~repro.engine.sharded.ShardedStreamEngine` per transport
    (``pipe`` and ``shm``), each with a worker SIGKILLed mid-stream and
    rebuilt from its shard journal — and asserts every run's
    :func:`~repro.testing.workloads.fleet_digest` is identical.  A digest
    split between the transports, or between either transport and the
    single-process reference, is exactly the drift the CI smoke exists to
    catch.  Returns a report with the digest, per-transport restart
    counts, and per-transport transport stats.
    """
    import time as _time

    from ..engine import ShardedStreamEngine, StreamEngine, bqs_fleet_factory

    base = Path(base)
    factory = functools.partial(bqs_fleet_factory, epsilon)
    batches = _harness_batches(devices, fixes_per_device, seed, batch_size)

    engine = StreamEngine(factory)
    for batch in batches:
        engine.push_columns(*batch)
    reference = fleet_digest(engine.finish_all())

    report = {
        "digest": reference,
        "killed": bool(kill),
        "transports": {},
    }
    half = max(1, len(batches) // 2)
    for transport in ("pipe", "shm"):
        sharded = ShardedStreamEngine(
            factory,
            workers=workers,
            transport=transport,
            journal_dir=base / f"wal-{transport}",
            restart_workers=2,
        )
        try:
            for batch in batches[:half]:
                sharded.push_columns(*batch)
            if kill:
                os.kill(sharded._procs[seed % workers].pid, signal.SIGKILL)
                _time.sleep(0.3)
            for batch in batches[half:]:
                sharded.push_columns(*batch)
            digest = fleet_digest(sharded.finish_all())
        finally:
            sharded.close()
        restarts = sum(sharded._restarts)
        assert not kill or restarts >= 1, (
            f"{transport}: worker was killed but never restarted"
        )
        assert digest == reference, (
            f"{transport}: sharded digest {digest} diverged from "
            f"single-process {reference}"
        )
        report["transports"][transport] = {
            "digest": digest,
            "restarts": restarts,
            "stats": sharded.transport_stats(),
        }
    return report


# -- CLI: the CI crash-injection smoke ---------------------------------------


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.faults",
        description=(
            "Bounded crash-injection smoke: kill-9 ingest (batch-boundary "
            "and mid-write), ENOSPC on the store manifest, a journal "
            "replay digest check, and a sharded pipe/shm transport "
            "kill-restart digest pin per seed."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1],
        help="fleet seeds to run the matrix over (default: 0 1)",
    )
    parser.add_argument(
        "--kill-bytes", type=int, default=3000,
        help="byte budget for the mid-write self-kill leg (default: 3000)",
    )
    args = parser.parse_args(argv)

    failures = 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            legs = [
                ("kill@batch", dict(kill_batch=2 + seed % 5)),
                ("kill@bytes", dict(kill_bytes=args.kill_bytes * (1 + seed))),
                ("no-kill", {}),
            ]
            for name, kwargs in legs:
                try:
                    report = run_crash_ingest(
                        Path(tmp) / name.replace("@", "-"),
                        seed=seed,
                        **kwargs,
                    )
                except AssertionError as exc:
                    failures += 1
                    print(f"FAIL seed={seed} {name}: {exc}")
                    continue
                print(
                    f"ok seed={seed} {name}: killed={report['killed']} "
                    f"acked={report['acked_batches']}/"
                    f"{report['total_batches']} "
                    f"replayed={report['recovery']['batches_replayed']} "
                    f"digest={report['digest'][:12]}"
                )
            try:
                report = run_compact_kill(
                    Path(tmp) / "compact", seed=seed,
                    kill_bytes=256 * (1 + seed),
                )
            except AssertionError as exc:
                failures += 1
                print(f"FAIL seed={seed} compact-kill: {exc}")
            else:
                print(
                    f"ok seed={seed} compact-kill: exit="
                    f"{report['child_exitcode']} generation "
                    f"{report['generation_before']}->"
                    f"{report['generation_after']} "
                    f"digest={report['digest'][:12]}"
                )
            # Sharded transports: pipe and shm, each kill-9'd mid-stream
            # and journal-replayed, digest-pinned to single-process.
            try:
                report = run_sharded_transport_check(
                    Path(tmp) / "sharded", seed=seed
                )
            except AssertionError as exc:
                failures += 1
                print(f"FAIL seed={seed} sharded-transport: {exc}")
            else:
                restarts = {
                    t: r["restarts"] for t, r in report["transports"].items()
                }
                print(
                    f"ok seed={seed} sharded-transport: "
                    f"digest={report['digest'][:12]} restarts={restarts}"
                )
            # ENOSPC on the manifest commit: the tmp file must not leak.
            from ..storage.store import TrajectoryStore

            store_dir = Path(tmp) / "enospc-store"
            store = TrajectoryStore(store_dir)
            shim = FaultyFS(enospc_after=store.total_bytes() + 16)
            try:
                with fsio.injected(shim):
                    try:
                        store._write_manifest()
                    except OSError:
                        pass
            finally:
                store.close()
            if (store_dir / "manifest.json.tmp").exists():
                failures += 1
                print(f"FAIL seed={seed} enospc: manifest.json.tmp leaked")
            else:
                print(f"ok seed={seed} enospc: no tmp leak")
    print(f"crash smoke: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
