"""One benchmark repetition, run by ``run.py`` in a fresh process.

Usage: ``python3 perfbench/worker.py <workload-json> <trace 0|1> <out-dir> <seed>``.

The worker starts the host-speed sampler, imports the package, parses the
parameter file and builds the input mesh, then prints ``ready`` so the parent
can time set-up from process start.  It then solves once, checks the files
the writer left and prints one JSON report line, with the solve's wall time
both as measured and in reference-host seconds.  With tracing on, the solve
runs under a :class:`Tracer` and the report carries the per-layer metrics
and every span record.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import tempfile
import time

import workloads
from hostspeed import HostSpeed
from spans import Tracer, layer_metrics


def main(argv):
    spec, trace, out_root = json.loads(argv[0]), argv[1] == "1", argv[2]
    with HostSpeed(int(argv[3])) as host:
        workload = workloads.Workload(**spec)
        config, mesh = workloads.prepare(workload)
        ready = time.perf_counter()
        print("ready", flush=True)

        tracer = Tracer() if trace else contextlib.nullcontext()
        with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
            with tracer:
                start = time.perf_counter()
                result, wall_s = workloads.solve(config, mesh, out_dir)
                end = time.perf_counter()
            problems = workloads.output_problems(result, out_dir)
    report = {
        "wall_s": wall_s,
        "wall_ref_s": host.reference_s(start, end),
        "setup_probes_s": host.probes_until(ready),
        "probe_s": [k for _, k in host.samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged": bool(result.converged),
        "table": workloads.table_rows(result.records),
        "problems": problems,
    }
    if trace:
        report["layers"] = layer_metrics(tracer, result, wall_s)
        report["spans"] = tracer.records()
    print(json.dumps(report), flush=True)

if __name__ == "__main__":
    main(sys.argv[1:])
