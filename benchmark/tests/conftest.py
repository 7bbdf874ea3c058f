"""Self-tests of the benchmark: ``python -m pytest benchmark/tests`` from the
root of a checkout.  Not collected by the repository's own test run."""

import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent
for path in (BENCHMARK.parent / "src", BENCHMARK):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
