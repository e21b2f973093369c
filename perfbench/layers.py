"""Layer spans, solution capture and HiGHS masking, all installed from outside.

Nothing under ``src/`` knows about the benchmark.  Every hook here replaces a
public layer function or method with a wrapper, under every name its callers
look it up by: a module that did ``from repro.optim.cuts import
separate_cover_cuts`` holds its own reference, so the wrapper is written into
that module's namespace too.  :func:`install` returns a callable that puts
every original back.

Two kinds of hook exist:

* :class:`Capture` is always on.  It records the :class:`Solution` returned
  by each top-level solve (``solve_model`` and ``SolverSession.solve``) so the
  benchmark can check status and degradation tags, counts calls into the
  SciPy/HiGHS backend, and can mask SciPy's availability so branch and bound
  and the ``auto`` paths stay on the in-house solver.  It costs one Python
  call per top-level solve.
* :class:`Tracer` is installed only for ``--trace 1``.  While ``active``
  (inside the timed ops chosen for tracing) it opens a span at each layer
  boundary listed in :data:`LAYERS` and keeps, per layer, the span count and
  the self time: the span's duration minus the time its child spans cover.
  Spans nest strictly (the program is single-threaded), so a stack of
  child-time accumulators computes self time online; spans are not kept
  individually.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

# Modules are fetched by their full name: ``repro.optim`` re-exports some
# functions under the same names as their modules (``presolve``).
_backend = importlib.import_module("repro.optim.backend")
_bnb = importlib.import_module("repro.optim.branch_and_bound")
_colgen = importlib.import_module("repro.optim.colgen")
_cuts = importlib.import_module("repro.optim.cuts")
_diagnostics = importlib.import_module("repro.optim.diagnostics")
_model = importlib.import_module("repro.optim.model")
_presolve = importlib.import_module("repro.optim.presolve")
_scipy_backend = importlib.import_module("repro.optim.scipy_backend")
_simplex = importlib.import_module("repro.optim.simplex")
_sparse = importlib.import_module("repro.optim.sparse")
_probes = importlib.import_module("repro.active.probes")
_ilp = importlib.import_module("repro.passive.ilp")
_sampling = importlib.import_module("repro.passive.sampling")
# Callers that hold layer functions under their own names must be loaded
# before the hooks scan for them.
importlib.import_module("repro.active.beacons")
importlib.import_module("repro.passive.dynamic")

#: Layer name -> (owner, attribute) pairs whose calls open a span of that
#: layer.  Owners that are classes are patched once (methods are looked up
#: on the class); owners that are modules are patched in every ``repro``
#: module that holds the same function object.
LAYERS: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "simplex": ((_simplex.SimplexSolver, "solve"),),
    "bnb": ((_bnb, "solve_milp"),),
    "cuts": (
        (_cuts, "separate_cover_cuts"),
        (_cuts, "separate_implied_cardinality_cuts"),
        (_cuts, "separate_gomory_cuts"),
        (_cuts, "append_cut_rows"),
        (_cuts, "reduced_cost_fixing"),
    ),
    "presolve": ((_presolve, "presolve"), (_presolve.Postsolve, "restore")),
    "model.lower": ((_model.Model, "to_standard_form"),),
    "passive.build": ((_sampling, "_build_ppme_model"), (_ilp.PPMSession, "__init__")),
    "backend": (
        (_backend, "solve_model"),
        (_backend, "_solve_form"),
        (_backend, "_dispatch_form"),
        (_backend.SolverSession, "__init__"),
        (_backend.SolverSession, "solve"),
    ),
    "colgen": (
        (_colgen.ColumnGeneration, "__init__"),
        (_colgen.ColumnGeneration, "solve_lp"),
        (_colgen.ColumnGeneration, "solve_mip"),
    ),
    "sparse.rmatvec_range": ((_sparse.SparseMatrix, "rmatvec_range"),),
    "session.patch": tuple(
        (_backend.SolverSession, name)
        for name in (
            "update_constraint_rhs",
            "update_constraint_coeff",
            "update_objective_coeff",
            "update_var_bounds",
        )
    ),
    "active.probes": ((_probes, "compute_probe_set"),),
}

Restore = Callable[[], None]


def _patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Restore:
    """Replace ``owner.attr`` by ``make(original)`` wherever callers find it."""
    original = getattr(owner, attr)
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)
    holders: List[Tuple[Any, str]] = []
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                holders.append((module, key))
                setattr(module, key, wrapper)

    def restore() -> None:
        for module, key in holders:
            setattr(module, key, original)

    return restore


def install(hooks: List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]]) -> Restore:
    """Apply ``(owner, attr, make)`` patches; the result undoes all of them."""
    undo = [_patch(owner, attr, make) for owner, attr, make in hooks]

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


class Capture:
    """Top-level solutions, HiGHS call counts and diagnostics of one run.

    ``solutions`` collects what the outermost ``solve_model`` /
    ``SolverSession.solve`` calls returned since the last :meth:`take`.
    ``highs_calls`` counts SciPy backend solves made while :attr:`masked` is
    true, which is the state inside timed operations.  ``rules`` counts the
    diagnostics the solver stack reported (warm-stall and recovery-rung
    warnings among them), which would otherwise be printed to stderr.
    """

    def __init__(self) -> None:
        self.solutions: List[Any] = []
        self.highs_calls = 0
        self.masked = False
        self.rules: Counter[str] = Counter()
        self._depth = 0

    def take(self) -> List[Any]:
        """Return and clear the solutions captured so far."""
        taken, self.solutions = self.solutions, []
        return taken

    def _solve_hook(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def captured(*args: Any, **kwargs: Any) -> Any:
            self._depth += 1
            try:
                solution = original(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.solutions.append(solution)
            return solution

        return captured

    def _highs_hook(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            if self.masked:
                self.highs_calls += 1
            return original(*args, **kwargs)

        return counted

    def _available_hook(self, original: Callable[[], bool]) -> Callable[[], bool]:
        return lambda: False if self.masked else original()

    def _handler(self, label: str, diagnostics: Any) -> None:
        for diagnostic in diagnostics:
            self.rules[diagnostic.rule] += 1

    def install(self) -> Restore:
        """Hook the solve entry points, the SciPy backend and diagnostics."""
        restore = install(
            [
                (_backend, "solve_model", self._solve_hook),
                (_backend.SolverSession, "solve", self._solve_hook),
                (_scipy_backend, "solve_lp", self._highs_hook),
                (_scipy_backend, "solve_mip", self._highs_hook),
                (_scipy_backend, "is_available", self._available_hook),
            ]
        )
        previous = _diagnostics.set_handler(self._handler)

        def undo() -> None:
            _diagnostics.set_handler(previous)
            restore()

        return undo


class Tracer:
    """Per-layer span counts and self times, aggregated online."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.spans: Counter[str] = Counter({name: 0 for name in LAYERS})
        #: Spans are recorded only while this is true (inside timed ops).
        self.active = False
        # Open spans, innermost last: [layer, time covered by child spans].
        self._stack: List[List[Any]] = []

    def _span(self, layer: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def spanned(*args: Any, **kwargs: Any) -> Any:
                # A wrapped call made directly from inside the same layer
                # (solve_model -> _solve_form) belongs to the open span.
                if not self.active or (self._stack and self._stack[-1][0] == layer):
                    return original(*args, **kwargs)
                frame: List[Any] = [layer, 0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self.self_s[layer] += elapsed - frame[1]
                    self.spans[layer] += 1
                    if self._stack:
                        self._stack[-1][1] += elapsed

            return spanned

        return make

    def install(self) -> Restore:
        """Open spans at every boundary in :data:`LAYERS`."""
        return install(
            [
                (owner, attr, self._span(layer))
                for layer, targets in LAYERS.items()
                for owner, attr in targets
            ]
        )
