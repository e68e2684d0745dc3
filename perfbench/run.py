"""Solver benchmark: time to tolerance and uniform-mesh sweeps, traced per module.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cone_to_tol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

The benchmark treats ``dwr_diffusion`` as a batch solver and drives it
closed-loop from this process: repetition after repetition of one workload,
each in a fresh worker process (``worker.py``) with BLAS/OpenMP threads
pinned to 1, until ``--seconds`` have passed.  Every repetition's
convergence table is compared with ``reference.json``; a mismatch, a missing
output file or an exception counts the repetition as failed.

With ``--trace 0`` the last stdout line reports the medians of ``wall_s``
(``dwr_loop`` plus output writing), ``setup_s`` (process start until
``dwr_loop`` is called) and ``peak_rss_mb``.  The two times are in
reference-host seconds: the host's effective speed switches by up to 1.8x
within seconds, so the worker samples it every 0.1 s with a fixed probe
(``hostspeed.py``) and scales each slice of its times by the probe's speed.
The scaled times measure the code and not the host's state; the raw times
are printed beside them and kept in the ``BENCH_*.json`` record.  With
``--trace 1`` traced and untraced repetitions alternate; it reports the
per-layer metrics of the traced ones plus the tracing overhead, and writes
the first traced repetition's span records to its ``BENCH_*.json`` file.
The solver inputs do not depend on ``--seed`` (each workload is a fixed,
deterministic solve with a recorded reference table); the seed feeds the
host-speed probe's data and is recorded with the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from hostspeed import scale_setup

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 160.0  # hard cap on one invocation, whatever --seconds asks for


def run_rep(workload, trace, timeout, seed=0):
    """One repetition in a fresh worker process: set-up time, report, or an error."""
    spec = json.dumps(dataclasses.asdict(workload))
    argv = [
        sys.executable, str(HERE / "worker.py"), spec, str(int(trace)), str(workloads.OUT_DIR),
        str(seed),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    report = json.loads(rest.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    report["scaled"] = {
        "wall_s": report.pop("wall_ref_s"),
        "setup_s": scale_setup(setup_s, report.pop("setup_probes_s")),
    }
    return report


def rep_problems(workload, report, reference, counts0):
    if "error" in report:
        return [report["error"]]
    problems = list(report["problems"])
    problems += workloads.table_problems(report["table"], reference)
    problems += workloads.end_state_problems(workload, report)
    if counts0 is not None:
        for name, (value, unit) in report["layers"].items():
            if unit == "count" and value != counts0[name]:
                problems.append(f"{name} = {value}, first traced repetition had {counts0[name]}")
    return problems


def measure(workload, seconds, trace, seed, reference=None):
    """Repeat one workload for ``seconds``; return the result summary."""
    if reference is None:
        reference = workloads.load_reference(workload.name)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    reps, rep_s = [], []
    counts0 = None
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_start = time.perf_counter()
        report = run_rep(workload, traced, RUN_BUDGET_S - (rep_start - start), seed)
        rep_s.append(time.perf_counter() - rep_start)
        if traced and counts0 is None and "layers" in report:
            counts0 = {k: v for k, (v, unit) in report["layers"].items() if unit == "count"}
        report["traced"] = traced
        report["failures"] = rep_problems(
            workload, report, reference, counts0 if traced else None
        )
        reps.append(report)
        # Stop before a further repetition would overrun the measuring time.
        elapsed = time.perf_counter() - start
        if elapsed > RUN_BUDGET_S:
            break
        if trace and len(reps) % 2 == 1:
            continue
        if elapsed + statistics.median(rep_s) * (2 if trace else 1) > seconds:
            break

    probes = [k for r in reps for k in r.get("probe_s", ())]
    ok = [r for r in reps if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if trace and traced and plain:
        for name, (value, unit) in traced[0]["layers"].items():
            if unit != "count":  # counts are equal in every passing repetition
                value = statistics.median(r["layers"][name][0] for r in traced)
            metrics[name] = (value, unit)
        wall = statistics.median(r["scaled"]["wall_s"] for r in traced)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (
            wall - statistics.median(r["scaled"]["wall_s"] for r in plain), "s"
        )
        metrics["host.calibration_ms"] = (1e3 * statistics.median(probes), "ms")
    elif not trace and plain:
        metrics["wall_s"] = (statistics.median(r["scaled"]["wall_s"] for r in plain), "s")
        metrics["setup_s"] = (statistics.median(r["scaled"]["setup_s"] for r in plain), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": metrics,
        "raw": {
            name: statistics.median(r[name] for r in plain) if plain else None
            for name in ("wall_s", "setup_s")
        },
        "probe_s": probes,
        "repetitions": [
            {
                k: r.get(k)
                for k in ("traced", "wall_s", "setup_s", "scaled", "peak_rss_mb", "failures")
            }
            for r in reps
        ],
        "table": ok[0]["table"] if ok else None,
        "spans": traced[0]["spans"] if trace and traced else None,
    }


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
    }


def describe(summary):
    """Human-readable lines for one workload's summary."""
    n_ok = sum(not r["failures"] and not r["traced"] for r in summary["repetitions"])
    lines = [f"{summary['workload']}: failed {summary['failed']}/{summary['attempted']}"]
    if not summary["trace"]:
        for name, (value, unit) in summary["metrics"].items():
            scaled = ", reference-host seconds" if name in summary["raw"] else ""
            lines.append(f"  {name} {value:.4f} {unit} (median of {n_ok}{scaled})")
    else:
        shares = sorted(
            ((v, k) for k, (v, u) in summary["metrics"].items() if k.endswith(".share")),
            reverse=True,
        )
        for value, name in shares[:8]:
            lines.append(f"  {name} {100 * value:.1f}% of raw traced wall time")
    for name, value in summary["raw"].items():
        if value is not None:
            lines.append(f"  raw {name} {value:.4f} s (unscaled median)")
    probes = summary["probe_s"]
    if probes:
        lines.append(
            f"  host-speed probe {1e3 * statistics.median(probes):.2f} ms median, "
            f"max/min {max(probes) / min(probes):.2f}x over {len(probes)} probes"
        )
    for r in summary["repetitions"]:
        for failure in r["failures"]:
            lines.append(f"  FAILED: {failure}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)  # before numpy loads, so this process starts no BLAS threads

    missing = [
        p for p in (workloads.SRC / "dwr_diffusion" / "__init__.py", workloads.PARAMETER_FILE)
        if not p.is_file()
    ]
    if missing:
        print(f"error: not a dwr_diffusion checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = measure(workloads.WORKLOADS[name], args.seconds, bool(args.trace), args.seed)
        summary["environment"] = env
        summaries.append(summary)
        print("\n".join(describe(summary)), flush=True)
        out = workloads.OUT_DIR / f"BENCH_{name}_trace{args.trace}_seed{args.seed}.json"
        out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for s in summaries
        for name, (value, unit) in s["metrics"].items()
    }
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
