"""Test-support machinery that ships with the package.

:mod:`repro.testing.faults` holds the fault-injection toolkit behind the
crash-durability guarantees: a :class:`~repro.testing.faults.FaultyFS`
shim for the :mod:`repro.fsio` seam (ENOSPC budgets, torn writes,
dropped fsyncs, rename failures), a :class:`~repro.testing.faults.
KillFS` that SIGKILLs the calling process mid-write, and the kill-9
crash harnesses the tests and the CI smoke step drive
(``python -m repro.testing.faults``).

:mod:`repro.testing.workloads` holds the four seeded motion generators
(``WORKLOADS`` / ``make_workload``) and the exact-output digests
(``key_point_digest`` / ``fleet_digest``) the behaviour pins in
``tests/test_digest_pins.py`` are stated in.

Imports are lazy so ``python -m repro.testing.faults`` does not import
the module twice (once as a package attribute, once as ``__main__``).
"""

__all__ = [
    "FaultyFS",
    "KillFS",
    "run_compact_kill",
    "run_crash_ingest",
    "run_sharded_transport_check",
]


def __getattr__(name):
    if name in __all__:
        from . import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
