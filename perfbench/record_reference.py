"""Record each workload's convergence table into ``reference.json``.

Usage (from the repository root): ``python3 perfbench/record_reference.py``.
Run it only on code whose numbers are known to be right: the benchmark
fails every repetition whose table differs from this file.
"""

from __future__ import annotations

import json
import tempfile

import workloads


def main():
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tables = {}
    for name, workload in workloads.WORKLOADS.items():
        config, mesh = workloads.prepare(workload)
        with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as out_dir:
            result, wall_s = workloads.solve(config, mesh, out_dir)
        tables[name] = workloads.table_rows(result.records)
        print(f"{name}: {len(result.records)} loops in {wall_s:.2f} s")
    workloads.REFERENCE_FILE.write_text(json.dumps(tables, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
