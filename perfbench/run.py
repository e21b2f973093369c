"""Benchmark of the in-house placement stack, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload pop_sweep --seed 0 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for what each runs and why):
``pop_sweep``, ``drift_resolve``, ``isp_lp2``.  One process runs one
workload, because the solver's counters are process-global.

The loop is closed: one caller, the next op issued when the previous one
returned.  It stops once the ops' own time (at reference host speed, see
below, in untraced runs) adds up to ``--seconds`` and the current pass of
the workload is complete.  Every op is checked after its
timing against HiGHS on the same instance: same feasibility verdict,
objectives equal to 1e-6 relative, status OPTIMAL (or infeasible, when
HiGHS agrees), no degradation tag.  Inside ops SciPy is reported as
unavailable, so every solve stays on the in-house stack; a HiGHS call made
there fails the run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
set-ups in the run), ``ops_per_s`` (ops / summed op time), ``latency_p50_ms``,
``latency_tail_ms`` (the highest of p95/p90/p75 that has at least ten ops
beyond it, else p50), ``peak_rss_mb``.  Its times are given at the speed of
a reference host: a fixed kernel sampled throughout the timed set-ups and
ops (``speed.py``) measures how fast the host ran, and wall times are scaled
by the kernel's reference time over its mean time among the set-ups (for
``setup_s``) or among the ops (for the rest).  The host's
speed wanders by a fifth over tens of seconds; the scaling takes that out.
The line before the result gives the scale and the wall-clock figures.

``--trace 1`` opens a span at every layer boundary (``layers.py``) on every
other op, and runs at least two ops.  It prints the per-layer metrics of the
traced ops, each a mean per op unless named a share, and
``trace.overhead``: the traced ops' mean time over the untraced ops' mean
time, minus 1.  Alternating ops in one run keeps both sides on the same
host state.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give provenance (source digest, git commit if any, CPU, library versions,
seed, tracing) and how the tail percentile was chosen.  The benchmark
refuses to run when a ``REPRO_*`` variable is set, and runs with
``PYTHONHASHSEED=0`` and BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pop_sweep", "drift_resolve", "isp_lp2")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Relative tolerance between an op's objective and HiGHS's.
OBJECTIVE_RTOL = 1e-6

#: Tail percentiles tried, highest first.  None above p95: ``drift_resolve``
#: makes around a thousand ops a run, and a percentile that changed with the
#: op count would make runs of a faster program incomparable.
TAIL_PERCENTILES = (95.0, 90.0, 75.0)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int) -> float:
    """Highest tried percentile with at least ten of ``n`` ops beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """Where and on what this result was measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())

    def git(*cmd: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only this checkout's own repository counts; git would otherwise find
    # an enclosing one.  A checkout without .git has just the source digest.
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "source_sha256": digest.hexdigest(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def verdicts(solutions: List[Any], infeasible: bool) -> List[Tuple[str, Optional[float]]]:
    """(status, objective) of each solve; a raised InfeasibleError counts."""
    out = [(s.status.value, s.objective) for s in solutions]
    if infeasible:
        out.append(("infeasible", None))
    return out


def check_op(
    solutions: List[Any],
    infeasible: bool,
    reference: List[Tuple[str, Optional[float]]],
    expected_objective: Optional[float],
) -> Optional[str]:
    """Why an op's answer is wrong, or ``None`` when it is right."""
    from repro.optim import SolveStatus

    for solution in solutions:
        if solution.degradation is not None:
            return "degraded"
        if solution.status is not SolveStatus.OPTIMAL:
            return f"status {solution.status.value}"
    got = verdicts(solutions, infeasible)
    if not got or len(got) != len(reference):
        return f"{len(got)} solves against {len(reference)} on HiGHS"
    for (status, objective), (ref_status, ref_objective) in zip(got, reference):
        if status != ref_status:
            return f"verdict {status} against {ref_status} on HiGHS"
        if objective is not None and ref_objective is not None:
            if abs(objective - ref_objective) > OBJECTIVE_RTOL * max(1.0, abs(ref_objective)):
                return f"objective {objective!r} against {ref_objective!r} on HiGHS"
    if expected_objective is not None:
        objective = got[-1][1]
        if objective is None or abs(objective - expected_objective) > 1e-9 * expected_objective:
            return f"objective {objective!r} against the expected {expected_objective!r}"
    return None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Tuple[Dict[str, Any], List[str]]:
    """Set up and run one workload; returns the raw measurements and failures."""
    from repro.optim import instrumentation as instr
    from repro.optim.errors import InfeasibleError
    from repro.optim.solution import Solution

    import layers
    import speed
    import workloads

    capture = layers.Capture()
    undo = [capture.install()]
    tracer = layers.Tracer() if trace else None
    meter = None if trace else speed.SpeedMeter()
    if tracer is not None:
        undo.append(tracer.install())
    if meter is not None:
        meter.install()
        undo.append(meter.uninstall)
    clock = speed.stopwatch if meter is None else meter.timing
    try:
        generate, prepare = workloads.WORKLOADS[name]
        setups: List[float] = []
        generations: List[float] = []
        for _ in range(workloads.SETUP_REPEATS[name]):
            with clock() as took:
                start = time.perf_counter()
                inputs = generate(seed)
                generated = time.perf_counter()
                source = prepare(inputs)
            setups.append(took[0])
            generations.append(generated - start)
        capture.take()
        # Set-ups and ops are each scaled by the kernel samples taken among
        # them: the host's speed during the set-ups can differ from its
        # speed over the run.
        setup_samples = 0
        if meter is not None:
            setup_samples = len(meter.samples)
            meter.sample()  # the ops' first

        latencies: List[float] = []
        traced: List[bool] = []
        kinds: List[str] = []
        counters: Counter[str] = Counter()
        failures: List[str] = []
        stalls = 0
        while True:
            op = source.next_op()
            capture.take()  # solves that prepared the op (a new drift episode) are not its own
            instr.reset()
            stalls_before = capture.rules["resilience-warm-stall"]
            infeasible = False
            error: Optional[str] = None
            on = tracer is None or len(latencies) % 2 == 0
            capture.masked = True
            if tracer is not None:
                tracer.active = on
            with clock() as took:
                try:
                    op.run()
                except InfeasibleError:
                    infeasible = True
                except Exception:  # an op that raises is a failed op; keep measuring
                    error = traceback.format_exc(limit=3)
            elapsed = took[0]
            if tracer is not None:
                tracer.active = False
            capture.masked = False
            latencies.append(elapsed)
            traced.append(on)
            kinds.append(op.kind)
            if on:
                counters.update(instr.snapshot())
                stalls += capture.rules["resilience-warm-stall"] - stalls_before
            solutions = capture.take()

            if error is None:
                try:
                    returned = op.reference()
                except InfeasibleError:
                    reference = [("infeasible", None)]
                else:
                    ref_solutions = [returned] if isinstance(returned, Solution) else capture.take()
                    reference = verdicts(ref_solutions, False)
                capture.take()
                error = check_op(solutions, infeasible, reference, op.expected_objective)
            if error is not None:
                failures.append(f"op {len(latencies)} ({op.kind}): {error}")
            # Untraced runs count op time at reference host speed, so a run
            # does the same work however fast the host happens to be.
            timed = sum(latencies) * (1.0 if meter is None else meter.factor(setup_samples))
            enough = timed >= seconds and (tracer is None or len(latencies) >= 2)
            if enough and len(latencies) % source.pass_length == 0:
                break
    finally:
        for step in reversed(undo):
            step()
    raw = {
        "setups": setups,
        "generations": generations,
        "latencies": latencies,
        "traced": traced,
        "kinds": kinds,
        "counters": counters,
        "warm_stalls": stalls,
        "highs_calls": capture.highs_calls,
        "tracer": tracer,
        "speed": meter,
        "setup_samples": setup_samples,
    }
    return raw, failures


def end_to_end(raw: Dict[str, Any]) -> Tuple[Dict[str, Dict[str, Any]], str]:
    meter = raw["speed"]
    split = raw["setup_samples"]
    scale = meter.factor(split)
    setup_scale = meter.factor(0, split)
    wall = raw["latencies"]
    latencies = [t * scale for t in wall]
    n = len(latencies)
    pct = tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(raw["setups"]) * setup_scale, "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(raw["kinds"], latencies):
        by_kind.setdefault(kind, []).append(latency)
    note = (
        f"latency_tail_ms is p{pct:g} of {n} ops; times are at reference host speed, "
        f"op wall times x {scale:.4f} ({len(meter.samples) - split} kernel samples, "
        f"wall p50 {percentile(wall, 50.0) * 1e3:.1f} ms), set-up wall times x "
        f"{setup_scale:.4f} ({split} samples, wall setup "
        f"{statistics.median(raw['setups']):.3f} s); median ms by op: "
        + ", ".join(
            f"{kind} {statistics.median(v) * 1e3:.1f} (x{len(v)})" for kind, v in by_kind.items()
        )
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def per_layer(raw: Dict[str, Any], failed: int) -> Dict[str, Dict[str, Any]]:
    on = [t for t, traced in zip(raw["latencies"], raw["traced"]) if traced]
    off = [t for t, traced in zip(raw["latencies"], raw["traced"]) if not traced]
    n = len(on)
    c: Counter[str] = raw["counters"]
    from repro.optim.resilience import _RUNG_COUNTERS

    # Warm-start stalls are a rung too, but are reported as simplex.warm_stalls.
    rungs = [counter for rung, counter in _RUNG_COUNTERS.items() if rung != "warm-stall"]
    tracer = raw["tracer"]
    self_s = tracer.self_s
    spans = tracer.spans

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    per_op = {
        "simplex.s": (self_s["simplex"], "s"),
        "simplex.calls": (spans["simplex"], "count"),
        "simplex.pivots": (c["pivots"], "count"),
        "simplex.dual_pivots": (c["dual_pivots"], "count"),
        "simplex.factorizations": (c["factorizations"], "count"),
        "simplex.ft_updates": (c["ft_updates"], "count"),
        "simplex.warm_stalls": (raw["warm_stalls"], "count"),
        "bnb.s": (self_s["bnb"], "s"),
        "bnb.nodes": (c["bb_nodes"], "count"),
        "bnb.probes": (c["strong_branch_probes"], "count"),
        "cuts.s": (self_s["cuts"], "s"),
        "cuts.added": (c["cuts_added"], "count"),
        "cuts.rc_fixings": (c["rc_fixings"], "count"),
        "presolve.s": (self_s["presolve"], "s"),
        "presolve.calls": (spans["presolve"], "count"),
        "model.lower_s": (self_s["model.lower"], "s"),
        "passive.build_s": (self_s["passive.build"], "s"),
        "backend.s": (self_s["backend"], "s"),
        "colgen.s": (self_s["colgen"], "s"),
        "colgen.rounds": (c["colgen_rounds"], "count"),
        "colgen.master_resolves": (c["master_resolves"], "count"),
        "sparse.rmatvec_range_s": (self_s["sparse.rmatvec_range"], "s"),
        "session.patch_s": (self_s["session.patch"], "s"),
        "session.patches": (spans["session.patch"], "count"),
        "resilience.rungs": (sum(c[k] for k in rungs), "count"),
        "resilience.failovers": (c["backend_failovers"] + c["greedy_degradations"], "count"),
        "active.probes_s": (self_s["active.probes"], "s"),
        "highs.calls": (raw["highs_calls"], "count"),
    }
    metrics = {k: {"value": v / n, "unit": u} for k, (v, u) in per_op.items()}
    metrics["simplex.degenerate_share"] = {
        "value": share(c["degenerate_pivots"], c["pivots"]),
        "unit": "share",
    }
    metrics["colgen.admit_ratio"] = {
        "value": share(c["columns_added"], c["columns_priced"]),
        "unit": "share",
    }
    metrics["inputs.gen_s"] = {"value": statistics.median(raw["generations"]), "unit": "s"}
    metrics["fail_share"] = {"value": failed / len(raw["latencies"]), "unit": "share"}
    metrics["trace.overhead"] = {
        "value": (sum(on) / n) / (sum(off) / len(off)) - 1.0,
        "unit": "share",
    }
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        print(f"refusing to run with solver toggles set: {', '.join(toggles)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    settings = {"PYTHONHASHSEED": "0", **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    if any(os.environ.get(name) != value for name, value in settings.items()):
        # String hashes order sets and dicts, and with them pivot and branch
        # choices: fix them, and pin BLAS threads before numpy loads, by
        # replacing this process with one started under those settings.
        os.environ.update(settings)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.path.insert(0, str(ROOT / "src"))

    raw, failures = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = len(raw["latencies"])
    if args.trace:
        metrics = per_layer(raw, len(failures))
        note = f"{sum(raw['traced'])} of {attempted} ops traced; trace.overhead compares them with the rest"
    else:
        metrics, note = end_to_end(raw)
    for failure in failures:
        print(failure, file=sys.stderr)
    if raw["highs_calls"]:
        print(f"{raw['highs_calls']} HiGHS calls inside timed ops", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True))
    print(note)
    result = {
        "correct": not failures and raw["highs_calls"] == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
