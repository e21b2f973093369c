"""Backend selection, option plumbing and incremental re-solve sessions.

The rest of the library never imports a solver directly; it calls
:func:`solve_model` (usually through :meth:`repro.optim.Model.solve`) and the
dispatcher picks an appropriate backend:

* ``"scipy"`` -- HiGHS via SciPy, fastest, used by default when available.
* ``"simplex"`` -- the in-house sparse revised simplex; ignores integrality
  unless wrapped by branch and bound.
* ``"branch-and-bound"`` -- the in-house MILP solver (revised simplex at
  each node, warm-started from the parent's factorized basis).
* ``"auto"`` -- ``scipy`` when importable, otherwise the in-house solvers.

Backend / option matrix
-----------------------

Option names are unified across backends; passing an option a backend does
not recognize raises :class:`~repro.optim.errors.SolverError` instead of
being silently dropped:

==================  ========  =========  ==================
Option              scipy     simplex    branch-and-bound
==================  ========  =========  ==================
``time_limit``      yes       yes        yes
``mip_gap``         yes(MIP)  --         yes
``max_iter``        yes(LP)   yes        yes (node LPs)
``max_nodes``       --        --         yes
``check``           yes       yes        yes
``presolve``        yes       yes        yes
``cuts``            --        --         yes
``max_cut_rounds``  --        --         yes
``fallback``        yes       yes        yes
==================  ========  =========  ==================

``mip_gap`` is a *relative* optimality gap everywhere (HiGHS
``mip_rel_gap`` semantics); the in-house branch and bound also fathoms
nodes within the absolute
:data:`repro.optim.branch_and_bound.ABS_GAP_TOL` of the incumbent.
``max_iter`` bounds simplex iterations, and on the branch-and-bound backend
it is forwarded to every node LP solve.

The in-house numeric path depends on the instance only, never on an
option: the simplex prices with devex at or above
:data:`repro.optim.simplex._DEVEX_MIN_COLS` canonical columns (Dantzig
below), and both in-house backends solve a lowered form by the
restricted-master column generation of :mod:`repro.optim.colgen` once it
has :data:`repro.optim.colgen._COLGEN_MIN_COLS` columns.

Every solve parses its options once, in :func:`_parse_options`: names are
checked against :data:`BACKEND_OPTIONS`, values are validated, and
``time_limit`` (seconds, positive and finite -- anything else raises
``ValueError``) becomes the solve's single
:class:`repro.optim.resilience.Deadline`, threaded through presolve, cut
separation and the backend's own iteration loops, so every layer agrees on
when the budget expires.  A solve that runs out of budget returns the best
incumbent found so far with the honest status ``TIME_LIMIT`` (never
conflated with ``NODE_LIMIT``).  :func:`solve_model` and
:meth:`SolverSession.solve` share that parse and one failover driver.

``fallback`` (``"off"`` by default, ``"auto"`` to enable) arms backend
failover.  :func:`_failover_chain` lists the hops: the primary (``colgen``
when an in-house backend decomposes the form), then the same in-house
backend run monolithically (only after a ``colgen`` primary), then the
other solver family (``scipy`` <-> in-house), and last
:func:`repro.optim.resilience.greedy_form_solve`.  A hop is left when it
raises :class:`SolverError` or returns an ``ERROR`` status; every hop gets
the same solver options.  A failed-over solution carries a
:class:`repro.optim.solution.Degradation` record naming each hop
(``"colgen->simplex"``, ``"simplex->scipy"``, ...), the weakened guarantee,
and the error messages that forced it.  With ``fallback="off"`` the first
failure propagates.

``presolve`` (``"on"`` by default, ``"off"`` to disable) runs
:func:`repro.optim.presolve.presolve` over the lowered form before any
backend sees it and maps the solution back afterwards; integer-only
reductions are applied exactly when the resolved backend will enforce
integrality (i.e. not on the ``simplex`` backend, which solves the LP
relaxation).  ``cuts`` (``"auto"``/``"off"``) and ``max_cut_rounds`` steer
the branch-and-bound root cutting-plane loop (:mod:`repro.optim.cuts`).

``check`` runs the pre-solve static analyzer
(:mod:`repro.optim.analysis`) over the lowered :class:`StandardForm` before
it reaches any backend: ``"off"`` (the default) skips it, ``"warn"`` reports
findings through :mod:`repro.optim.diagnostics`, and ``"strict"`` raises
:class:`~repro.optim.errors.ModelAnalysisError` on error-severity findings.
On a :class:`SolverSession` the analysis re-runs against the *patched*
matrices before every solve, which is exactly when programmatic updates can
silently break a model.

Warm starts and re-solves
-------------------------

:class:`SolverSession` lowers a model to its :class:`StandardForm` once and
then supports in-place parameter updates (constraint coefficients,
right-hand sides, objective coefficients, variable bounds) followed by
re-solves.  Two session paths keep warm state and skip presolve, which
would reindex columns and drop the explicit zeros that in-place patches
address: an LP on the ``simplex`` backend threads the previous optimal
basis into the next solve (see :class:`repro.optim.simplex.SimplexSolver`),
so a re-solve after a small data change typically skips simplex phase 1,
and a form wide enough for column generation keeps one
:class:`repro.optim.colgen.ColumnGeneration` driver (active columns, warm
master basis, :class:`repro.optim.colgen.ColGenHints` indices).  Either
state is the first hop of the shared failover chain; the later hops run on
the session's patched form.  Branch-and-bound and SciPy sessions presolve
on every solve; they avoid only the model re-lowering cost.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.optim import analysis
from repro.optim import faultinject
from repro.optim._types import FloatArray
from repro.optim.errors import InfeasibleError, ModelError, SolverError, UnboundedError
from repro.optim.model import Model, StandardForm, Variable
from repro.optim.resilience import Deadline, greedy_form_solve, record_rung
from repro.optim.solution import Degradation, Solution, SolveStatus
from repro.optim.sparse import SparseMatrix, is_sparse

if TYPE_CHECKING:  # pragma: no cover - types only (solvers are imported lazily)
    from repro.optim.colgen import ColGenHints, ColumnGeneration
    from repro.optim.simplex import SimplexSolver, _Basis

#: Canonical backend names accepted by :func:`solve_model`.
BACKENDS = ("auto", "scipy", "simplex", "branch-and-bound")

#: Options each concrete backend honors; anything else raises SolverError.
#: ``check`` is handled by the dispatcher itself and is therefore valid for
#: every backend.
BACKEND_OPTIONS: Dict[str, FrozenSet[str]] = {
    "scipy": frozenset(
        {
            "time_limit",
            "mip_gap",
            "max_iter",
            "check",
            "presolve",
            "fallback",
        }
    ),
    "simplex": frozenset({"max_iter", "time_limit", "check", "presolve", "fallback"}),
    "branch-and-bound": frozenset(
        {
            "max_nodes",
            "mip_gap",
            "max_iter",
            "time_limit",
            "check",
            "presolve",
            "cuts",
            "max_cut_rounds",
            "fallback",
        }
    ),
}


def available_backends() -> List[str]:
    """Return the list of backends usable in this environment."""
    from repro.optim import scipy_backend

    backends = ["simplex", "branch-and-bound"]
    if scipy_backend.is_available():
        backends.insert(0, "scipy")
    return backends


def _resolve_backend(backend: str, is_mip: bool) -> str:
    """Map ``"auto"`` to a concrete backend for this problem class."""
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    from repro.optim import scipy_backend

    if scipy_backend.is_available():
        return "scipy"
    return "branch-and-bound" if is_mip else "simplex"


#: Options the dispatcher consumes itself; the rest are solver options,
#: handed unchanged to every hop of the failover chain.
_DISPATCH_OPTIONS = frozenset({"check", "presolve", "fallback", "time_limit"})


class _Run(NamedTuple):
    """One solve's parsed options (built by :func:`_parse_options`)."""

    check: str
    presolve: bool
    fallback: bool
    deadline: Optional[Deadline]
    #: ``max_iter``, ``mip_gap``, ``max_nodes``, ``cuts``, ``max_cut_rounds``
    #: as given; absent ones take :func:`repro.optim.branch_and_bound.solve_milp`'s
    #: and the simplex's defaults.
    solver: Dict[str, Any]


def _choice(name: str, value: Any, allowed: Tuple[str, ...]) -> str:
    """Validate the mode option ``name``."""
    if value not in allowed:
        raise SolverError(f"{name} option must be one of {allowed}, got {value!r}")
    return str(value)


def _parse_options(backend: str, options: Dict[str, Any]) -> _Run:
    """Validate ``options`` for ``backend`` once and start the solve's clock.

    Unknown names and bad mode values raise :class:`SolverError`; a zero,
    negative or non-finite ``time_limit`` raises ``ValueError`` -- always a
    caller bug, and catching it before any solver starts beats a deadline
    that is born expired (or never expires).  Every check happens here, so
    a bad option can never be mistaken for a solver failure and trigger
    ``fallback="auto"``.
    """
    unknown = options.keys() - BACKEND_OPTIONS[backend]
    if unknown:
        raise SolverError(
            f"backend {backend!r} does not recognize option(s) {sorted(unknown)}; "
            f"it honors {sorted(BACKEND_OPTIONS[backend])}"
        )
    deadline: Optional[Deadline] = None
    time_limit = options.get("time_limit")
    if time_limit is not None:
        try:
            limit = float(time_limit)
        except (TypeError, ValueError):
            limit = math.nan
        if not math.isfinite(limit) or limit <= 0.0:
            raise ValueError(
                f"time_limit must be a positive finite number of seconds, "
                f"got {time_limit!r}"
            )
        deadline = Deadline(limit)
    if "cuts" in options:
        _choice("cuts", options["cuts"], ("auto", "off"))
    rounds = options.get("max_cut_rounds")
    if "max_cut_rounds" in options and (not isinstance(rounds, int) or rounds < 0):
        raise SolverError(f"max_cut_rounds must be a non-negative integer, got {rounds!r}")
    check = _choice("check", options.get("check", "off"), analysis.CHECK_MODES)
    presolve = _choice("presolve", options.get("presolve", "on"), ("on", "off"))
    fallback = _choice("fallback", options.get("fallback", "off"), ("off", "auto"))
    return _Run(
        check=check,
        presolve=presolve == "on",
        fallback=fallback == "auto",
        deadline=deadline,
        solver={k: v for k, v in options.items() if k not in _DISPATCH_OPTIONS},
    )


def _solve_form(form: StandardForm, is_mip: bool, backend: str, run: _Run) -> Solution:
    """Presolve an already-lowered ``StandardForm``, run the chain, postsolve.

    Presolve is applied here -- below :func:`solve_model` and the
    :class:`SolverSession` paths without warm state, above every backend --
    so the reduced form is what every hop actually solves and the caller
    transparently receives original-space values.
    """
    integral = is_mip and backend != "simplex"
    if not run.presolve or len(form.names) != form.num_vars:
        # Forms without a full name vector cannot round-trip through the
        # value dict; solve them directly.
        return _run_chain(form, integral, backend, run)

    from repro.optim.presolve import presolve as run_presolve

    reduced, post = run_presolve(form, integer_aware=integral, deadline=run.deadline)
    if reduced.proven_infeasible:
        return Solution(status=SolveStatus.INFEASIBLE, backend="presolve")
    if reduced.num_vars == 0:
        # Fully solved by presolve (every remaining row was verified
        # feasible against the fixed values before being dropped).
        x = post.restore_point(np.zeros(0))
        values = {name: float(x[i]) for i, name in enumerate(form.names)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=form.objective_value(x),
            values=values,
            backend="presolve",
        )
    return post.restore(_run_chain(reduced, integral, backend, run))


def _dispatch_form(form: StandardForm, is_mip: bool, hop: str, run: _Run) -> Solution:
    """Solve ``form`` on one hop of the chain (see :func:`_failover_chain`).

    ``is_mip`` says whether integrality is enforced; ``hop`` is a concrete
    backend or ``"colgen"``, the in-house decomposition.
    """
    if hop == "scipy":
        from repro.optim import scipy_backend

        if not scipy_backend.is_available():
            raise SolverError("scipy backend requested but scipy is not importable")
        remaining = run.deadline.remaining_or_none() if run.deadline is not None else None
        if is_mip:
            return scipy_backend.solve_mip(
                form, time_limit=remaining, mip_gap=run.solver.get("mip_gap")
            )
        return scipy_backend.solve_lp(
            form, max_iter=run.solver.get("max_iter"), time_limit=remaining
        )
    if hop == "colgen":
        from repro.optim.colgen import solve_form_colgen

        return solve_form_colgen(form, is_mip, run.solver, deadline=run.deadline)
    if hop == "simplex":
        from repro.optim.simplex import SimplexSolver

        solution, _ = SimplexSolver(form).solve(
            max_iter=run.solver.get("max_iter"), deadline=run.deadline
        )
        return solution
    from repro.optim.branch_and_bound import solve_milp

    return solve_milp(form, deadline=run.deadline, **run.solver)


def _failover_chain(
    backend: str, is_mip: bool, width: int, have_scipy: bool
) -> List[Tuple[str, str]]:
    """The ``(hop, backend)`` pairs a solve tries in order, before greedy.

    The primary hop is ``colgen`` when an in-house backend decomposes a form
    ``width`` columns wide; the same in-house backend then runs
    monolithically, which without SciPy is the only hop left that still
    returns a proven answer.  The other solver family comes last.  The
    backend half of each pair is the name the fault hook checks.
    """
    from repro.optim.colgen import use_colgen

    inhouse = backend
    if backend == "scipy":
        inhouse = "branch-and-bound" if is_mip else "simplex"
    if use_colgen(width):
        local = [("colgen", inhouse), (inhouse, inhouse)]
    else:
        local = [(inhouse, inhouse)]
    if backend == "scipy":
        return [("scipy", "scipy"), local[0]]
    return local + [("scipy", "scipy")] if have_scipy else local


def _guarantee_for(status: SolveStatus) -> str:
    """What a failed-over solution with this status still promises."""
    if status in (
        SolveStatus.OPTIMAL,
        SolveStatus.INFEASIBLE,
        SolveStatus.UNBOUNDED,
    ):
        return "optimal"  # a conclusive answer, just from a different solver
    if status in (
        SolveStatus.TIME_LIMIT,
        SolveStatus.NODE_LIMIT,
        SolveStatus.ITERATION_LIMIT,
    ):
        return "bounded-gap"
    return "feasible-only"


def _run_chain(
    form: StandardForm,
    is_mip: bool,
    backend: str,
    run: _Run,
    first: Optional[Callable[[_Run], Solution]] = None,
) -> Solution:
    """Run the failover chain of :func:`_failover_chain` over ``form``.

    ``first`` replaces the primary hop's solve (a session's warm state).
    A hop that raises :class:`SolverError` or returns an ``ERROR`` status
    hands over to the next one -- anything else, ``TIME_LIMIT`` and
    ``INFEASIBLE`` included, is a real answer and ends the chain -- unless
    ``fallback="off"``, where the first failure is the result.
    """
    from repro.optim import scipy_backend

    hops = _failover_chain(backend, is_mip, form.num_vars, scipy_backend.is_available())
    rungs: List[str] = []
    errors: List[str] = []
    for pos, (hop, family) in enumerate(hops):
        succ = hops[pos + 1][0] if pos + 1 < len(hops) else "greedy"
        try:
            if faultinject.ACTIVE:
                faultinject.maybe_fail_backend(family, SolverError)
            if pos == 0 and first is not None:
                solution = first(run)
            else:
                solution = _dispatch_form(form, is_mip, hop, run)
        except SolverError as exc:
            if not run.fallback:
                raise
            errors.append(f"{hop}: {exc}")
        else:
            if solution.status is not SolveStatus.ERROR or not run.fallback:
                if rungs:
                    solution.degradation = Degradation(
                        rungs=tuple(rungs),
                        guarantee=_guarantee_for(solution.status),
                        errors=tuple(errors),
                    )
                return solution
            errors.append(f"{hop}: returned status 'error'")
        rungs.append(f"{hop}->{succ}")
        record_rung("failover", f"{errors[-1]}; failing over to {succ!r}")
    record_rung(
        "greedy",
        "every real backend failed; degrading to the greedy feasibility heuristic",
    )
    solution = greedy_form_solve(form, deadline=run.deadline)
    solution.degradation = Degradation(
        rungs=tuple(rungs), guarantee="feasible-only", errors=tuple(errors)
    )
    return solution


def _raise_for_status(solution: Solution, label: str) -> None:
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"model {label!r} is infeasible")
    if solution.status is SolveStatus.UNBOUNDED:
        raise UnboundedError(f"model {label!r} is unbounded")


def solve_model(
    model: Model,
    backend: str = "auto",
    raise_on_infeasible: bool = False,
    **options: Any,
) -> Solution:
    """Solve ``model`` with the requested backend.

    Parameters
    ----------
    model:
        The model to solve.
    backend:
        One of :data:`BACKENDS`.
    raise_on_infeasible:
        When True, infeasible / unbounded statuses raise
        :class:`~repro.optim.errors.InfeasibleError` /
        :class:`~repro.optim.errors.UnboundedError` instead of being returned.
    options:
        Backend-specific options; see :data:`BACKEND_OPTIONS` for the matrix.
        Unrecognized option names raise :class:`SolverError`.  The
        dispatcher-level ``check`` option (``"off"``/``"warn"``/``"strict"``)
        runs the pre-solve static analyzer over the lowered form.
    """
    resolved = _resolve_backend(backend, model.is_mip)
    run = _parse_options(resolved, options)
    form = model.to_standard_form()
    analysis.enforce(form, run.check, label=model.name)
    solution = _solve_form(form, model.is_mip, resolved, run)
    if raise_on_infeasible:
        _raise_for_status(solution, model.name)
    return solution


class SolverSession:
    """Incremental re-solve session over a model lowered exactly once.

    The session snapshots the model's :class:`StandardForm` at construction
    and exposes O(1) in-place mutators for the data that parameterized
    experiments change between solves -- constraint coefficients and
    right-hand sides (``PPME*(x, h, k)``'s drifting traffic volumes),
    objective coefficients and variable bounds.  Calling :meth:`solve` then
    re-solves against the patched matrices, warm-starting from the previous
    optimal basis on the in-house simplex backend.

    Notes
    -----
    * Structural edits (new variables or constraints) are not supported;
      rebuild the session (the model is only read at construction).
    * Updates are expressed in the *model's* orientation: for a ``>=``
      constraint lowered into negated ``<=`` form, the session applies the
      sign flip internally via :attr:`StandardForm.row_map`.
    * Each successful solve is attached back to the model, so
      :meth:`Model.value` keeps working after session re-solves.
    * A session-level ``check`` option re-runs the static analyzer against
      the patched matrices before *every* solve.
    """

    def __init__(self, model: Model, backend: str = "auto", **options: Any) -> None:
        self.model = model
        self._is_mip = model.is_mip
        self.backend = _resolve_backend(backend, self._is_mip)
        self.check = _parse_options(self.backend, options).check
        self.options: Dict[str, Any] = dict(options)
        self.form = model.to_standard_form()
        self._sign = -1.0 if self.form.maximize else 1.0
        self._simplex: Optional["SimplexSolver"] = None  # lazy, for warm starts
        self._basis: Optional["_Basis"] = None
        self._colgen: Optional["ColumnGeneration"] = None  # lazy decomposition driver
        self._colgen_hints: Optional["ColGenHints"] = None
        self._coeffs_dirty = False  # matrix coefficients patched since last solve
        self.solves = 0

    def set_colgen_hints(self, hints: Optional["ColGenHints"]) -> None:
        """Install model-specific column-generation hints for this session.

        The hints (initial columns, expansion order, dual completion -- see
        :class:`repro.optim.colgen.ColGenHints`) are consumed when the form
        is wide enough for column generation and are indexed
        against this session's *unpresolved* lowered form, which is why the
        session column-generation path never runs presolve.  Installing new
        hints discards the current decomposition state (active columns and
        warm basis); passing ``None`` clears them.
        """
        self._colgen_hints = hints
        self._colgen = None

    # -- update surface ----------------------------------------------------
    def _row(self, name: str) -> Tuple[Union[FloatArray, SparseMatrix], FloatArray, int, float]:
        try:
            kind, row, sign = self.form.row_map[name]
        except KeyError:
            raise ModelError(
                f"no constraint named {name!r} in session over model {self.model.name!r}"
            ) from None
        if kind == "dup":
            raise ModelError(
                f"constraint name {name!r} is shared by several constraints in model "
                f"{self.model.name!r}; rename them to address one for updates"
            )
        if kind == "ub":
            return self.form.A_ub, self.form.b_ub, row, sign
        return self.form.A_eq, self.form.b_eq, row, sign

    def _var_index(self, var: Union[Variable, str]) -> int:
        if isinstance(var, Variable):
            return var.index
        return self.model.get_var(var).index

    def update_constraint_rhs(self, name: str, rhs: float) -> None:
        """Set the right-hand side of constraint ``name`` (model orientation)."""
        _, b, row, sign = self._row(name)
        b[row] = sign * float(rhs)

    def update_constraint_coeff(
        self, name: str, var: Union[Variable, str], coeff: float
    ) -> None:
        """Set one coefficient of constraint ``name`` (model orientation).

        The patch lands directly in the lowered (sparse) matrix; touching a
        coefficient that is part of the sparsity pattern -- explicit zeros
        included -- is an in-place O(log nnz) update, while introducing a
        brand-new nonzero grows the pattern.
        """
        A, _, row, sign = self._row(name)
        col = self._var_index(var)
        if is_sparse(A) and isinstance(A, SparseMatrix):
            A.set(row, col, sign * float(coeff))
        else:
            A[row, col] = sign * float(coeff)
        self._coeffs_dirty = True

    def update_objective_coeff(self, var: Union[Variable, str], coeff: float) -> None:
        """Set the objective coefficient of ``var`` (model sense)."""
        self.form.c[self._var_index(var)] = self._sign * float(coeff)

    def update_var_bounds(
        self,
        var: Union[Variable, str],
        lb: Optional[float] = None,
        ub: Optional[float] = None,
    ) -> None:
        """Tighten or relax the bounds of ``var`` for subsequent solves."""
        index = self._var_index(var)
        if lb is not None:
            self.form.lb[index] = float(lb)
        if ub is not None:
            self.form.ub[index] = float(ub)

    # -- static analysis ----------------------------------------------------
    def analyze(self, mode: Optional[str] = None) -> List["analysis.Diagnostic"]:
        """Run the static analyzer against the current (patched) matrices.

        ``mode`` defaults to the session's ``check`` option; ``"strict"``
        raises :class:`~repro.optim.errors.ModelAnalysisError` on
        error-severity findings.  With ``mode="off"`` this is a no-op
        returning an empty list.
        """
        effective = self.check if mode is None else _choice("check", mode, analysis.CHECK_MODES)
        return analysis.enforce(self.form, effective, label=self.model.name)

    # -- solving -----------------------------------------------------------
    def _solve_colgen(self, run: _Run) -> Solution:
        """First hop for forms of ``_COLGEN_MIN_COLS``+ columns on in-house backends.

        Keeps one :class:`repro.optim.colgen.ColumnGeneration` driver alive
        so the active column set and the master's warm basis survive
        re-solves.
        """
        from repro.optim.colgen import ColumnGeneration

        integral = self._is_mip and self.backend != "simplex"
        max_iter = run.solver.get("max_iter")
        if self._colgen is None:
            self._colgen = ColumnGeneration(
                self.form, hints=self._colgen_hints, is_mip=integral, max_iter=max_iter
            )
        else:
            self._colgen.max_iter = max_iter
        if self._coeffs_dirty:
            self._colgen.refresh_data()
        self._coeffs_dirty = False
        if integral:
            return self._colgen.solve_mip(deadline=run.deadline, mip_options=run.solver)
        return self._colgen.solve_lp(deadline=run.deadline)

    def _solve_warm(self, run: _Run) -> Solution:
        """First hop for LPs on the ``simplex`` backend: a warm-started solve.

        A failed solve leaves the warm state (patched matrices, stored basis)
        exactly as it was -- later hops run on the session's form and never
        touch the simplex solver -- so a later solve can still warm-start.
        """
        from repro.optim.simplex import SimplexSolver

        if self._simplex is None:
            self._simplex = SimplexSolver(self.form)
        if self._coeffs_dirty:
            # Bounds, right-hand sides and objective coefficients are
            # re-read by every solve; only matrix-coefficient patches
            # require re-lowering the canonical arrays.
            self._simplex.refresh()
        self._coeffs_dirty = False
        solution, token = self._simplex.solve(
            warm_basis=self._basis,
            max_iter=run.solver.get("max_iter"),
            deadline=run.deadline,
        )
        if token is not None:
            # Solves that end without a factorized optimal basis
            # (infeasible, unbounded, deadline) keep the previous
            # warm-start token instead of clobbering it with None.
            self._basis = token
        return solution

    def solve(self, raise_on_infeasible: bool = False, **options: Any) -> Solution:
        """Re-solve against the current (patched) matrices.

        ``options`` override the session-level defaults for this call only
        (the ``check`` mode included).
        """
        run = _parse_options(self.backend, {**self.options, **options})
        analysis.enforce(self.form, run.check, label=self.model.name)

        from repro.optim.colgen import use_colgen

        integral = self._is_mip and self.backend != "simplex"
        if self.backend != "scipy" and use_colgen(self.form.num_vars):
            solution = _run_chain(self.form, integral, self.backend, run, self._solve_colgen)
        elif self.backend == "simplex" and not self._is_mip:
            solution = _run_chain(self.form, False, self.backend, run, self._solve_warm)
        else:
            solution = _solve_form(self.form, self._is_mip, self.backend, run)

        self.solves += 1
        self.model.attach_solution(solution)
        if raise_on_infeasible:
            _raise_for_status(solution, self.model.name)
        return solution
