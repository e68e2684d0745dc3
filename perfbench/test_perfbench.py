"""The benchmark's own tests, on tiny workloads (seconds, not minutes).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import hostspeed
import run
import workloads
from spans import Tracer, layer_metrics

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_CONE = workloads.Workload("tiny_cone", adapt={"max_loops": 2}, expect="finite_estimate")
TINY_UNIFORM = workloads.Workload(
    "tiny_uniform", levels=1, n_slabs=3, adapt={"tol_mode": "absolute", "tol": 1.0},
    expect="goal_at_loop_1",
)


def traced_solve(workload):
    config, mesh = workloads.prepare(workload)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as out_dir, Tracer() as tracer:
        result, wall_s = workloads.solve(config, mesh, out_dir)
    return tracer, result, wall_s


@pytest.fixture(scope="module")
def cone_table():
    _, result, _ = traced_solve(TINY_CONE)
    return workloads.table_rows(result.records)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(cone_table, trace, section):
    summary = run.measure(TINY_CONE, 0.0, trace, seed=0, reference=cone_table)
    assert summary["failed"] == 0
    emitted = {name: unit for name, (_, unit) in summary["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_traced_run_keeps_its_span_records(cone_table):
    summary = run.measure(TINY_CONE, 0.0, True, seed=0, reference=cone_table)
    spans = summary["spans"]
    assert spans[0][0] == "driver.dwr_loop" and spans[0][3] == -1
    for k, (_, start, end, parent) in enumerate(spans):
        assert 0.0 <= start <= end and -1 <= parent < k
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_perturbed_reference_fails_the_run(cone_table):
    perturbed = [row[:] for row in cone_table]
    perturbed[-1][3] *= 1.0 + 1e-9
    summary = run.measure(TINY_CONE, 0.0, False, seed=0, reference=perturbed)
    assert summary["attempted"] == summary["failed"] == 1
    assert summary["metrics"] == {}
    assert "goal_error" in summary["repetitions"][0]["failures"][0]


def test_worker_past_its_time_is_killed_and_fails():
    report = run.run_rep(workloads.WORKLOADS["cone_to_tol"], False, timeout=1.0)
    assert report["error"].startswith("worker exit -9")


def test_end_state_is_checked():
    report = {"converged": False, "table": [[1, 3, 12, 0.1, float("nan"), float("nan")]]}
    assert workloads.end_state_problems(TINY_UNIFORM, report)
    assert workloads.end_state_problems(TINY_CONE, report)
    report["converged"] = True
    assert not workloads.end_state_problems(TINY_UNIFORM, report)


@pytest.mark.parametrize("workload", [TINY_CONE, TINY_UNIFORM], ids=lambda w: w.name)
def test_self_times_are_nonnegative_and_fit_in_wall_time(workload):
    tracer, _, wall_s = traced_solve(workload)
    spans = tracer.self_times()
    assert "driver.dwr_loop" in spans and "output.finish" in spans
    assert all(own >= -1e-9 for _, _, own in spans.values())
    assert sum(own for _, _, own in spans.values()) <= wall_s


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer, result, wall_s = traced_solve(TINY_CONE)
        metrics = layer_metrics(tracer, result, wall_s)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["mesh.locate_point.calls"] > 0


def test_uniform_sweep_skips_dual_estimator_and_point_location():
    tracer, result, wall_s = traced_solve(TINY_UNIFORM)
    metrics = layer_metrics(tracer, result, wall_s)
    assert metrics["mesh.locate_point.calls"][0] == 0
    assert metrics["fem.transfer.fastpath_share"][0] == 1.0
    assert metrics["work.identical_mesh_share"][0] == 1.0
    assert metrics["estimator.cells"][0] == 0
    assert "dual.march_backward" not in tracer.self_times()


def test_tracer_restores_the_package():
    from dwr_diffusion import driver, fem, mesh

    before = (driver.dwr_loop, fem.transfer, mesh.QuadMesh.__dict__["locate_point"])
    traced_solve(TINY_UNIFORM)
    assert (driver.dwr_loop, fem.transfer, mesh.QuadMesh.__dict__["locate_point"]) == before


def test_fails_without_a_solver_checkout():
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as bare:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cone_to_tol", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scales_each_slice_by_the_probe_that_ends_it():
    host = hostspeed.HostSpeed(seed=0)
    ref = hostspeed.PROBE_REF_S
    # Probes of 1x and 2x the reference time end at t = 1.0 and t = 2.0.
    host.samples = [(1.0, ref), (2.0, 2 * ref)]
    # [0, 1 - ref] at full speed, [1, 2 - 2 ref] at half speed, the tail at half speed.
    expected = (1.0 - ref) + (1.0 - 2 * ref) / 2 + 0.5 / 2
    assert host.reference_s(0.0, 2.5) == pytest.approx(expected)
    assert host.reference_s(2.1, 2.2) == pytest.approx(0.1 / 2)
    assert host.probes_until(1.5) == [ref]
    assert hostspeed.scale_setup(0.5 + 2 * ref, [2 * ref]) == pytest.approx(0.25)


def test_host_speed_sampler_probes_and_then_stops():
    import signal
    import time

    with hostspeed.HostSpeed(seed=0) as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            sum(i * i for i in range(1000))
    assert len(host.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert 0.0 < host.reference_s(start, start + 0.35) < 1.0
