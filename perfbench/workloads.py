"""The benchmark's workloads: seeded inputs, timed operations, HiGHS references.

Every workload is a closed loop with one caller: the next operation ("op")
starts only after the previous one returned.  A workload is a pair of
functions: ``generate(seed)`` makes the inputs (topologies, traffic), and
``prepare(inputs)`` does the rest of the set-up and returns a :class:`Source`
that hands out ops.  Each :class:`Op`
has a ``run`` callable (timed, on the in-house solver) and a ``reference``
callable (untimed, the same instance on HiGHS) whose verdicts are compared.

The seed perturbs every traffic volume of a fixed paper instance by a factor
in ``[1 - VOLUME_NOISE, 1 + VOLUME_NOISE]`` (seed 0 is the unperturbed
instance; ``drift_resolve`` draws one perturbation per episode from the
seed) and drives each workload's own random choices.  It does not draw a
new topology: the branch-and-bound effort of one Figure-7 op on a freshly
drawn pop10 ranges from 0.6 s to 16 s, so timings across seeds would measure
the instance rather than the program.

Workloads, and why each was chosen:

* ``pop_sweep`` -- the paper's own instances, cold, on the in-house stack:
  one op runs the Figure-7 PPM(k) sweep (k = 75..100%), the PPME MILP
  (Linear program 3, the 80-traffic pop10 instance) and the Figure-11
  beacon sweep on pop80 (probe sets, Thiran, greedy and ILP for 8
  candidate-set sizes).  Bases of ~180 columns: the time is
  per-pivot Python overhead, branch and bound and cuts.  Column generation
  and devex stay below their thresholds and must read zero.
* ``drift_resolve`` -- Section 5.4: devices frozen, traffic drifting
  (:class:`TrafficDriftModel`), PPME* re-solved every step through
  :class:`PPMESession`, which patches the lowered matrices and warm-starts
  the dual simplex.  Hundreds of short warm re-solves per run; lowering,
  presolve, cuts, branch and bound and colgen are idle inside ops.  Drift
  runs in episodes of :data:`DRIFT_EPISODE` steps, each on a freshly
  perturbed pop10 instance with its own devices, so volumes stay stationary
  however many ops a run makes.
* ``isp_lp2`` -- the LP2 root relaxation of the 10,310-pair synthetic
  Rocketfuel instance with 180 access-link candidates, built and solved cold
  each op with default options (decomposition auto -> colgen), each op on
  its own perturbation of the instance.  The only
  workload above the colgen and devex thresholds; branch and bound and cuts
  must read zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.active.beacons import sweep_candidate_sizes
from repro.experiments.figures import PAPER_COVERAGES
from repro.optim import scipy_backend
from repro.passive.costs import uniform_costs
from repro.passive.dynamic import TrafficDriftModel
from repro.passive.greedy import solve_greedy
from repro.passive.ilp import PPMSession
from repro.passive.problem import PPMProblem
from repro.passive.sampling import PPMESession, SamplingProblem, solve_ppme
from repro.topology import paper_pop, synthetic_rocketfuel
from repro.traffic import generate_traffic_matrix
from repro.traffic.demands import Route, Traffic, TrafficMatrix
from repro.traffic.generation import DemandConfig, generate_demands
from repro.traffic.routing import RoutingConfig, route_demands

#: Largest relative change the seed applies to one traffic volume.
VOLUME_NOISE = 0.02

#: Drift steps on one instance before the next episode starts.
DRIFT_EPISODE = 30

#: Candidate-set sizes of the Figure-11 sweep on pop80.
FIG11_SIZES = (10, 20, 30, 40, 50, 60, 70, 80)

#: LP2 root objective of the unperturbed ``isp_lp2`` instance (seed 0).
ISP_SEED0_OBJECTIVE = 18.785300362303

#: Fraction of ordered endpoint pairs with demand: 10,310 traffics.
ISP_PAIR_FRACTION = 0.32


@dataclass
class Op:
    """One timed operation and the untimed HiGHS solve it is checked against."""

    kind: str
    run: Callable[[], Any]
    reference: Callable[[], Any]
    #: Objective the op's last solve must also give, when known exactly.
    expected_objective: Optional[float] = None


@dataclass
class Source:
    """Ops of one workload.

    ``next_op()`` returns the next op; any input it generates (drifted
    traffic, a new instance) is made there, outside the op's timing.  A run
    stops only at the end of a pass of ``pass_length`` ops (a drift
    episode), so every run times the same mix of ops.
    """

    next_op: Callable[[], Op]
    pass_length: int = 1


def _perturbed(matrix: TrafficMatrix, rng: random.Random) -> TrafficMatrix:
    """``matrix`` with every route volume scaled by a seeded factor near 1."""
    return TrafficMatrix(
        [
            Traffic(
                t.traffic_id,
                [
                    Route(r.nodes, r.volume * (1.0 + rng.uniform(-VOLUME_NOISE, VOLUME_NOISE)))
                    for r in t.routes
                ],
            )
            for t in matrix
        ]
    )


def _pop10_traffic(seed: int) -> TrafficMatrix:
    base = generate_traffic_matrix(paper_pop("pop10", seed=0), seed=0)
    return base if seed == 0 else _perturbed(base, random.Random(seed))


# ---------------------------------------------------------------------------
# pop_sweep
# ---------------------------------------------------------------------------


def _steps(solve: Callable[[str], Any]) -> Tuple[Callable[[], Any], Callable[[], Any]]:
    """A sweep step on the in-house stack, and the same step on HiGHS."""
    return lambda: solve("branch-and-bound"), lambda: solve("scipy")


def _fig7_point(problem: PPMProblem) -> Callable[[str], Any]:
    def solve(backend: str) -> None:
        solve_greedy(problem)
        PPMSession(problem, backend=backend).solve()

    return solve


def generate_pop_sweep(seed: int) -> Tuple[TrafficMatrix, Any]:
    """Seeded pop10 traffic and the pop80 topology."""
    return _pop10_traffic(seed), paper_pop("pop80", seed=0)


def prepare_pop_sweep(inputs: Tuple[TrafficMatrix, Any]) -> Source:
    """One op: Figure-7 sweep + PPME MILP on pop10, Figure-11 sweep on pop80.

    The sweep is a single op because its steps differ 10-fold in cost: the
    median of eight such steps falls between two kinds of step and moved by
    28% between seeds, while the time of the whole sweep moved by 6%.
    """
    matrix, pop80 = inputs
    subset = TrafficMatrix(list(matrix)[:80])
    ppme = SamplingProblem(
        traffic=subset,
        coverage=0.9,
        traffic_min_ratio=0.05,
        costs=uniform_costs(subset.links, setup=5.0, exploitation=1.0),
    )
    steps = [_steps(_fig7_point(PPMProblem(matrix, coverage=k))) for k in PAPER_COVERAGES]
    steps.append(_steps(lambda backend: solve_ppme(ppme, backend=backend)))
    # Candidate sets are drawn with seed 0 whatever the run's seed: the
    # beacon instance carries no traffic, and probe-set cost moves by 2x
    # between draws.
    steps.append(
        _steps(lambda backend: sweep_candidate_sizes(pop80, sizes=FIG11_SIZES, seed=0, backend=backend))
    )
    op = Op(
        "paper-sweep",
        lambda: [run() for run, _ in steps],
        lambda: [reference() for _, reference in steps],
    )
    return Source(lambda: op)


# ---------------------------------------------------------------------------
# drift_resolve
# ---------------------------------------------------------------------------


def generate_drift_resolve(seed: int) -> Tuple[TrafficMatrix, random.Random]:
    """The seed-0 pop10 traffic, and the random stream of the drift process."""
    return _pop10_traffic(0), random.Random(seed)


def _drift_session(base: TrafficMatrix) -> PPMESession:
    """Greedy PPM(0.95) devices frozen for ``base``, in a solved PPME* session."""
    installed = solve_greedy(PPMProblem(base, coverage=0.95)).monitored_links
    session = PPMESession(
        SamplingProblem(traffic=base, coverage=0.9, candidate_links=installed),
        installed,
        backend="simplex",
    )
    session.reoptimize()
    return session


def prepare_drift_resolve(inputs: Tuple[TrafficMatrix, random.Random]) -> Source:
    """Episodes of drifting traffic, each on its own frozen devices and warm session.

    Every episode starts from the pop10 traffic with its volumes perturbed
    afresh, so a run averages over some thirty instances: re-solve times on
    one instance depend on which devices greedy froze for it.
    """
    pop10, rng = inputs
    # The drift model's own defaults.  Re-solve times are bimodal (warm
    # re-solves near 4 ms, repairs near 50 ms); with the steeper drift of the
    # controller experiment (0.15, 0.05) half the ops are repairs and the
    # median falls in the gap between the two modes.
    drift = TrafficDriftModel()
    state: Dict[str, Any] = {}

    def start_episode() -> None:
        base = _perturbed(pop10, rng)
        state.update(traffic=base, session=_drift_session(base), step=0)

    start_episode()

    def next_op() -> Op:
        if state["step"] == DRIFT_EPISODE:
            start_episode()
        state["step"] += 1
        state["traffic"] = traffic = drift.evolve(state["traffic"], rng)
        session = state["session"]
        return Op(
            "ppme*",
            lambda: session.reoptimize(traffic),
            # The session's lowered form holds exactly the LP the op solved.
            lambda: scipy_backend.solve_lp(session._session.form),
        )

    return Source(next_op, pass_length=DRIFT_EPISODE)


# ---------------------------------------------------------------------------
# isp_lp2
# ---------------------------------------------------------------------------


def generate_isp_lp2(seed: int) -> Tuple[PPMProblem, int]:
    """The 10,310-pair LP2 instance; seed 0 is the colgen gate's instance."""
    return isp_problem(random.Random(seed) if seed else None), seed


def isp_problem(noise: Optional[random.Random]) -> PPMProblem:
    """LP2 instance over the synthetic Rocketfuel topology, volumes perturbed by ``noise``."""
    pop = synthetic_rocketfuel(seed=0)
    demands = generate_demands(pop, config=DemandConfig(pair_fraction=ISP_PAIR_FRACTION), seed=0)
    rng = random.Random(1)
    endpoints = sorted({u for u, _ in demands} | {v for _, v in demands}, key=str)
    hot = set(rng.sample(endpoints, 40))
    hot_pairs = [p for p in demands if p[0] in hot and p[1] in hot]
    for pair in rng.sample(hot_pairs, min(400, len(hot_pairs))):
        demands[pair] = rng.uniform(1000.0, 2000.0)
    if noise is not None:
        for pair in demands:
            demands[pair] *= 1.0 + noise.uniform(-VOLUME_NOISE, VOLUME_NOISE)
    matrix = route_demands(pop, demands, config=RoutingConfig(tie_break_seed=0))
    virtuals = set(pop.virtual_nodes)
    access = [l for l in matrix.links if l[0] in virtuals or l[1] in virtuals]
    return PPMProblem(matrix, coverage=0.9, candidate_links=access)


def prepare_isp_lp2(inputs: Tuple[PPMProblem, int]) -> Source:
    """Internet-scale LP2 root relaxation, cold, default options, a new instance each op.

    The first op solves the seed's instance; op ``i`` after it solves one
    perturbed by the stream ``"<seed>:<i>"``.  Solve times move by a fifth
    between instances and a run makes only two or three ops, so a run
    averages over instances rather than repeating one.
    """
    first, seed = inputs
    made = [0]

    def next_op() -> Op:
        index = made[0]
        made[0] += 1
        problem = first if index == 0 else isp_problem(random.Random(f"{seed}:{index}"))
        return Op(
            "lp2-root",
            lambda: PPMSession(problem, backend="simplex").solve(),
            lambda: scipy_backend.solve_lp(PPMSession(problem, backend="scipy").model.to_standard_form()),
            ISP_SEED0_OBJECTIVE if seed == 0 and index == 0 else None,
        )

    return Source(next_op)


#: Workload name -> (generate, prepare).
WORKLOADS: Dict[str, Tuple[Callable[[int], Any], Callable[[Any], Source]]] = {
    "pop_sweep": (generate_pop_sweep, prepare_pop_sweep),
    "drift_resolve": (generate_drift_resolve, prepare_drift_resolve),
    "isp_lp2": (generate_isp_lp2, prepare_isp_lp2),
}

#: Setups per run; ``setup_s`` is their median.  Enough that the set-ups
#: span seconds, for the speed samples that scale them.
SETUP_REPEATS: Dict[str, int] = {"pop_sweep": 301, "drift_resolve": 81, "isp_lp2": 3}
