"""Self-tests of the benchmark: hooks, answer checks, and idle-layer predictions.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run
import speed
import workloads
from repro.optim import Model, SolveStatus
from repro.optim import branch_and_bound, scipy_backend
from repro.optim.solution import Degradation, Solution

BENCH = Path(__file__).resolve().parent.parent


def traced_op(op: workloads.Op) -> layers.Tracer:
    """Run one op the way the benchmark loop does, with spans recorded."""
    capture, tracer = layers.Capture(), layers.Tracer()
    undo = [capture.install(), tracer.install()]
    try:
        capture.masked = tracer.active = True
        op.run()
    finally:
        for step in reversed(undo):
            step()
    assert capture.highs_calls == 0
    return tracer


def test_hooks_reach_names_imported_by_callers_and_are_undone():
    original = branch_and_bound.separate_cover_cuts
    tracer = layers.Tracer()
    restore = tracer.install()
    try:
        assert branch_and_bound.separate_cover_cuts is not original
    finally:
        restore()
    assert branch_and_bound.separate_cover_cuts is original


def test_self_time_excludes_child_spans():
    tracer = layers.Tracer()
    tracer.active = True
    inner = tracer._span("presolve")(lambda: sum(range(200_000)))
    outer = tracer._span("backend")(lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.spans["presolve"] == 3
    assert tracer.spans["backend"] == 1
    assert 0.0 <= tracer.self_s["backend"] < tracer.self_s["presolve"]


def test_masking_keeps_auto_in_house_and_counts_highs_calls():
    model = Model("knapsack", sense="max")
    x, y, z = (model.add_var(name, lb=0, ub=3, vartype="integer") for name in "xyz")
    model.add_constr(2 * x + 3 * y + z <= 5)
    model.add_constr(4 * x + y + 2 * z <= 11)
    model.add_constr(3 * x + 4 * y + 2 * z <= 8)
    model.set_objective(5 * x + 4 * y + 3 * z)
    capture = layers.Capture()
    restore = capture.install()
    try:
        capture.masked = True
        solution = model.solve()
        assert solution.backend == "branch-and-bound"
        assert capture.highs_calls == 0
        scipy_backend.solve_mip(model.to_standard_form())
        assert capture.highs_calls == 1
        assert capture.take() == [solution]
        capture.masked = False
        assert model.solve().backend == "scipy-milp"
    finally:
        restore()
    assert solution.objective == pytest.approx(13.0)


def test_speed_meter_samples_inside_timed_work_and_subtracts_it():
    meter = speed.SpeedMeter(period=0.02)
    meter.install()
    try:
        with meter.timing() as took:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0  # paused outside timed work
    finally:
        meter.uninstall()
    inside = meter.samples[1:]  # the first sample is taken on install
    assert len(inside) >= 3
    assert 0.0 < took[0] < 0.3 - 0.5 * sum(inside)
    assert meter.factor() == pytest.approx(speed.REFERENCE_S / (sum(meter.samples) / len(meter.samples)))


def test_check_op_verdicts():
    good = Solution(status=SolveStatus.OPTIMAL, objective=4.0)
    assert run.check_op([good], False, [("optimal", 4.0 + 1e-9)], None) is None
    assert "objective" in run.check_op([good], False, [("optimal", 4.1)], None)
    assert "against" in run.check_op([good], False, [], None)
    degraded = Solution(
        status=SolveStatus.OPTIMAL, objective=4.0, degradation=Degradation(rungs=("simplex->scipy",))
    )
    assert run.check_op([degraded], False, [("optimal", 4.0)], None) == "degraded"
    assert run.check_op([], True, [("infeasible", None)], None) is None
    assert "verdict" in run.check_op([], True, [("optimal", 1.0)], None)
    assert "expected" in run.check_op([good], False, [("optimal", 4.0)], 5.0)


def test_workload_names_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert run.tail_percentile(8) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(600) == 95.0
    assert run.tail_percentile(5000) == 95.0


def test_pop_sweep_spans_match_predictions():
    matrix, pop80 = workloads.generate_pop_sweep(0)
    full_cover = workloads._fig7_point(workloads.PPMProblem(matrix, coverage=1.0))
    spans = traced_op(workloads.Op("fig7-k1.00", lambda: full_cover("branch-and-bound"), lambda: None)).spans
    for layer in ("simplex", "bnb", "cuts", "presolve", "model.lower", "passive.build", "backend"):
        assert spans[layer] > 0, layer
    assert spans["colgen"] == 0
    assert spans["sparse.rmatvec_range"] == 0  # below the devex threshold

    def run_beacons():
        workloads.sweep_candidate_sizes(pop80, sizes=workloads.FIG11_SIZES, seed=0, backend="branch-and-bound")

    beacons = traced_op(workloads.Op("fig11", run_beacons, lambda: None)).spans
    assert beacons["active.probes"] > 0
    assert beacons["colgen"] == 0


def test_drift_resolve_spans_match_predictions():
    source = workloads.prepare_drift_resolve(workloads.generate_drift_resolve(0))
    tracer = layers.Tracer()
    for _ in range(5):
        spans = traced_op(source.next_op()).spans
        tracer.spans.update(spans)
    for layer in ("simplex", "session.patch", "backend"):
        assert tracer.spans[layer] > 0, layer
    for layer in ("colgen", "bnb", "cuts", "presolve", "model.lower", "passive.build"):
        assert tracer.spans[layer] == 0, layer


def test_isp_lp2_spans_match_predictions_and_seed0_objective():
    raw, failures = run.run_workload("isp_lp2", 0, 0.1, trace=True)
    assert failures == []
    assert raw["highs_calls"] == 0
    spans = raw["tracer"].spans
    for layer in ("colgen", "sparse.rmatvec_range", "simplex", "model.lower", "passive.build"):
        assert spans[layer] > 0, layer
    assert spans["bnb"] == 0
    assert spans["cuts"] == 0
    assert raw["counters"]["colgen_rounds"] > 0


def _bench(*args: str, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_refuses_solver_toggles():
    env = dict(os.environ, REPRO_PRICING="devex")
    done = _bench("--workload", "drift_resolve", "--seed", "0", "--seconds", "1", cwd=BENCH.parent, env=env)
    assert done.returncode != 0
    assert "REPRO_PRICING" in done.stderr
    assert done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = _bench("--workload", "pop_sweep", "--seed", "0", "--seconds", "1", cwd=tmp_path, env=env)
    assert done.returncode != 0
    assert done.stdout == ""


def test_short_drift_run_prints_every_end_to_end_metric():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = _bench(
        "--workload", "drift_resolve", "--seed", "3", "--seconds", "0.5", "--trace", "0",
        cwd=BENCH.parent, env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
