#!/usr/bin/env python3
"""The reference benchmark of this repository.

Driver form (one workload, one JSON object as the last line of stdout)::

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Everything at once (each workload untraced and traced, one line per metric)::

    python3 benchmark/run.py [--seed N] [--runs K] [--out FILE] [--smoke]
    python3 benchmark/run.py --agree A.json B.json

Run it from the root of a checkout.  It generates its inputs from the seed,
measures each workload in a fresh subprocess, checks every output, and
reads and writes only under ``bench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Set-up is repeated in subprocesses of its own: at least twice more, and up
#: to six times more while that takes under two seconds in all.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 2.0
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import metrics  # noqa: E402
from harness import OUT  # noqa: E402

MODULES = {
    "device_stream": "device_stream",
    "fleet_ingest": "ingest",
    "sharded_ingest": "ingest",
    "store_query": "store_query",
}


# -- the measuring subprocess -------------------------------------------------


def child_main(args):
    sys.path.insert(0, str(SRC))
    import harness

    ctx = harness.Context(args.child, args.inputs, args.work, args.seconds,
                          args.trace, args.setup_only, args.spawned_at)
    importlib.import_module(MODULES[args.child]).run(ctx)
    print(json.dumps(ctx.result()))


def _spawn(workload, inputs, work, seconds, trace, setup_only):
    command = [
        sys.executable, str(HERE / "run.py"), "--child", workload,
        "--inputs", str(inputs), "--work", str(work), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    # A fixed hash seed keeps set and dict orders, and so the work, the same
    # from one subprocess to the next.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"benchmark: {workload} subprocess exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, sizes):
    """Generate inputs, measure in a fresh subprocess, return its result."""
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.write_inputs(workload, seed, work / "inputs", sizes)
        result = _spawn(workload, work / "inputs", work / "main", seconds, trace, False)
        if not trace:
            setups = [result["setup_s"]]
            started = time.monotonic()
            while len(setups) < MIN_SETUPS or (
                    len(setups) < MAX_SETUPS
                    and time.monotonic() - started < SETUP_BUDGET_S):
                setups.append(_spawn(workload, work / "inputs", work / f"setup{len(setups)}",
                                     seconds, 0, True)["setup_s"])
            result["metrics"]["setup_s"] = {"unit": "s", **metrics.summary(setups)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    names = [name for name, *_ in wanted]
    missing = [n for n in names if n not in result["metrics"]]
    if missing and not trace:
        raise SystemExit(f"benchmark: {workload} did not report {missing}")
    # A layer that does no work on this workload reports 0.
    result["metrics"] = {
        n: result["metrics"].get(n) or {"unit": metrics.UNITS[n], **metrics.exact(0, 0)}
        for n in names
    }
    return result


def contract_line(result):
    """The one JSON object the driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in result["metrics"].items()},
    })


TIMING_UNITS = {"s", "ms", "us", "1/s"}


def print_rows(workload, result, advisory=False, stream=sys.stdout):
    for name, m in result["metrics"].items():
        note = "  (advisory)" if advisory and m["unit"] in TIMING_UNITS else ""
        print(f"{workload:15s} {name:44s} {m['value']:>14.6g} {m['unit']:7s} "
              f"n={m['n']:<8d} {m['q1']:.6g}..{m['q3']:.6g}{note}", file=stream)
    for failure in result["failures"]:
        print(f"{workload}: FAILED {failure}", file=stream)


# -- every workload, every metric ----------------------------------------------


def host_facts():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "scratch": str(OUT.resolve()),
            "flush_policy": "journal_fsync=False, store fsync=False"}


def run_all(args):
    sizes = gen.SMOKE_SIZES if args.smoke else gen.SIZES
    seconds = args.seconds or (1 if args.smoke else json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    traces = (0, 1) if args.trace is None else (args.trace,)
    document = {"seed": args.seed, "runs": args.runs, "seconds": seconds,
                "smoke": args.smoke, "host": host_facts(), "results": {}}
    failed = 0
    for workload in metrics.WORKLOADS:
        merged = {"metrics": {}, "failures": [], "attempted": 0, "failed": 0}
        for trace in traces:
            runs = [run_workload(workload, args.seed + i, seconds, trace, sizes)
                    for i in range(args.runs)]
            merged["attempted"] += sum(r["attempted"] for r in runs)
            merged["failed"] += sum(r["failed"] for r in runs)
            merged["failures"] += [f for r in runs for f in r["failures"]]
            for name in runs[0]["metrics"]:
                if len(runs) == 1:
                    merged["metrics"][name] = runs[0]["metrics"][name]
                else:
                    # Several runs: the driver's statistic, quartiles across runs.
                    values = [r["metrics"][name]["value"] for r in runs]
                    merged["metrics"][name] = {
                        "unit": runs[0]["metrics"][name]["unit"],
                        **metrics.summary(values), "values": values}
        print_rows(workload, merged, advisory=args.smoke)
        document["results"][workload] = merged
        failed += merged["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    if failed:
        raise SystemExit(f"benchmark: {failed} check(s) failed")


# -- do two sets of runs agree? -------------------------------------------------


def agree(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["results"]
    b = json.loads(Path(path_b).read_text())["results"]
    bad = 0
    print(f"{'workload':15s} {'metric':22s} {'A median':>12s} {'A q1..q3':>24s} "
          f"{'B median':>12s} {'B q1..q3':>24s} {'B/A':>8s} {'bound':>6s}  status")
    for workload in metrics.WORKLOADS:
        for name, _, better, bound in metrics.END_TO_END:
            ma, mb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            va, vb = ma["value"], mb["value"]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            widest = max((m["q3"] - m["q1"]) / abs(m["value"]) for m in (ma, mb))
            if name != "setup_s" and widest > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
            else:
                status = "ok"
            bad += status != "ok"
            print(f"{workload:15s} {name:22s} {va:12.6g} "
                  f"{ma['q1']:11.6g}..{ma['q3']:<11.6g} {vb:12.6g} "
                  f"{mb['q1']:11.6g}..{mb['q3']:<11.6g} {vb / va:8.4f} {bound:6.2f}  "
                  f"{status}")
    print(f"ratios are B/A with A ({path_a}) as the base")
    if bad:
        raise SystemExit(f"benchmark: {bad} metric(s) not ok")


# -- command line ---------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each with the next seed")
    parser.add_argument("--out", help="write every metric as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, gates and traces at ~1/50 scale")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=list(metrics.WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.agree:
        return agree(*args.agree)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program to measure at {SRC}")
    if args.child:
        return child_main(args)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None or args.trace is None:
        parser.error("--workload needs --seconds and --trace")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          gen.SMOKE_SIZES if args.smoke else gen.SIZES)
    print_rows(args.workload, result, stream=sys.stderr)
    print(contract_line(result))
    if result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
