"""Shared configuration for the benchmark harness.

Every benchmark regenerates the data series behind one figure of the paper
and prints it.
The timed quantity is the full experiment (workload generation + every
algorithm), run once per benchmark round.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SEEDS`` to change the number of random seeds averaged over
(default 3; the paper uses 20).

Every benchmark run also appends its per-figure wall-times to
``BENCH_optim.json`` at the repository root (see ``_bench_records``), so the
performance trajectory of the optimization stack is recorded across PRs.
Since the sparse revised simplex landed, each run entry also carries a
``solver_counters`` block -- per-benchmark pivot counts, basis
(re)factorizations, canonicalizations and peak stored nonzeros from
:mod:`repro.optim.instrumentation` -- so a wall-time movement can be
attributed to solver behaviour (fewer pivots? cheaper factors?) rather than
guessed at.  Set ``REPRO_BENCH_NO_PERSIST=1`` to skip the write (e.g.
exploratory runs).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.optim import instrumentation as instr

#: Where the per-figure wall-time trajectory is persisted.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_optim.json"


def _seed_count() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_SEEDS", "3")))
    except ValueError:
        return 3


@pytest.fixture(scope="session")
def _bench_records():
    """Session-scoped sink for per-benchmark wall-times.

    At session teardown the collected timings are appended as one run entry
    to ``BENCH_optim.json`` so the perf trajectory accumulates across PRs.
    """
    records = {"wall": {}, "counters": {}}
    yield records
    if not records["wall"] or os.environ.get("REPRO_BENCH_NO_PERSIST"):
        return
    payload = {"runs": []}
    if BENCH_RESULTS_PATH.exists():
        try:
            loaded = json.loads(BENCH_RESULTS_PATH.read_text())
        except (OSError, ValueError):
            loaded = None
        # Tolerate hand-edited or foreign content: anything that is not a
        # {"runs": [...]} document is replaced rather than crashing teardown.
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
            payload = loaded
    payload["runs"].append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seeds": _seed_count(),
            "wall_times_s": dict(sorted(records["wall"].items())),
            "solver_counters": dict(sorted(records["counters"].items())),
        }
    )
    try:
        # Best-effort append; concurrent benchmark sessions may race the
        # read-modify-write and one entry can win, but timings must never
        # fail the pytest session.
        BENCH_RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


@pytest.fixture(autouse=True)
def _record_wall_time(request, _bench_records):
    """Record each benchmark's wall-time and solver counters by test name.

    The instrumentation counters are global, so they are reset at the start
    of each benchmark; the snapshot taken at the end is what this
    benchmark's solves actually did (pivots, factorizations,
    canonicalizations, peak stored nonzeros).
    """
    instr.reset()
    start = time.perf_counter()
    yield
    _bench_records["wall"][request.node.name] = round(time.perf_counter() - start, 3)
    _bench_records["counters"][request.node.name] = instr.snapshot()


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment configuration shared by all benchmarks."""
    return ExperimentConfig(seeds=tuple(range(_seed_count())))


@pytest.fixture(scope="session")
def fast_config() -> ExperimentConfig:
    """Single-seed configuration for the heaviest benchmarks (pop80)."""
    return ExperimentConfig(seeds=(0,))
