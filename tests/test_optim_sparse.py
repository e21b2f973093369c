"""Tests for the sparse lowering, CSC kernels and factorized-basis machinery.

Three layers are covered:

* :class:`repro.optim.sparse.SparseMatrix` kernel correctness against dense
  numpy references;
* property-style equivalence of the sparse and dense lowerings of randomized
  models (``to_standard_form(sparse=True)`` vs ``sparse=False`` must produce
  the same ``A`` / ``b`` / ``c`` / bounds / integrality / row map);
* the revised simplex's factorized basis: solves of both factor kinds (LU +
  spike file, dense inverse updated in place) against explicit dense
  references, copy-on-write clones, refactorization after long update
  chains, and the one-canonicalization-per-MILP-solve contract of branch
  and bound;
* the pivot loops' bookkeeping: the eligibility signs and basic bounds they
  keep in step with the statuses, their ratio-order shortcut and their
  feasibility test on non-finite basic values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.optim import FaultPlan, Model, SolveStatus, faultinject, lin_sum, simplex
from repro.optim import instrumentation as instr
from repro.optim.simplex import (
    _DENSE_REFACTOR,
    _FT_MAX_UPDATES,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    SimplexSolver,
    _ascending_ratios,
    _BasisFactor,
    _canonicalize,
    _NumericalTrouble,
    _SingularBasis,
    _State,
    solve_standard_form,
)
from repro.optim.sparse import SparseMatrix, as_dense


class TestSparseMatrix:
    def test_from_coo_sorts_and_sums_duplicates(self):
        A = SparseMatrix.from_coo([1, 0, 1], [0, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        assert A.nnz == 2
        assert A.get(1, 0) == pytest.approx(6.0)
        assert A.get(0, 1) == pytest.approx(3.0)
        np.testing.assert_allclose(A.to_dense(), [[0.0, 3.0], [6.0, 0.0]])

    def test_explicit_zeros_are_kept_in_the_pattern(self):
        A = SparseMatrix.from_coo([0], [0], [0.0], (1, 2))
        assert A.nnz == 1
        assert not A.set(0, 0, 5.0)  # value update, no structural growth
        assert A.get(0, 0) == pytest.approx(5.0)

    def test_set_reports_fill_in(self):
        A = SparseMatrix.from_coo([0], [0], [1.0], (2, 2))
        assert A.set(1, 1, 2.0)  # brand-new entry grows the pattern
        assert A.nnz == 2
        np.testing.assert_allclose(A.to_dense(), [[1.0, 0.0], [0.0, 2.0]])

    def test_hstack_columns_matches_dense_concat(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            nl, nr = rng.integers(0, 6, size=2)
            dl = rng.random((m, nl)) * (rng.random((m, nl)) < 0.5)
            dr = rng.random((m, nr)) * (rng.random((m, nr)) < 0.5)
            stacked = SparseMatrix.hstack_columns(
                SparseMatrix.from_dense(dl), SparseMatrix.from_dense(dr)
            )
            np.testing.assert_allclose(stacked.to_dense(), np.hstack((dl, dr)))

    def test_hstack_columns_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            SparseMatrix.hstack_columns(
                SparseMatrix.zeros((2, 1)), SparseMatrix.zeros((3, 1))
            )

    def test_append_columns_widens_in_place(self):
        rng = np.random.default_rng(31)
        base = rng.random((5, 3)) * (rng.random((5, 3)) < 0.5)
        block = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
        A = SparseMatrix.from_dense(base)
        A.append_columns(SparseMatrix.from_dense(block))
        assert A.shape == (5, 7)
        np.testing.assert_allclose(A.to_dense(), np.hstack((base, block)))
        # The widened matrix must feed every kernel correctly (caches were
        # invalidated, not left pointing at the narrower pattern).
        x = rng.standard_normal(7)
        np.testing.assert_allclose(A.matvec(x), np.hstack((base, block)) @ x)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(
            A.rmatvec_range(2, 6, y), np.hstack((base, block))[:, 2:6].T @ y
        )

    def test_append_columns_rejects_row_mismatch(self):
        A = SparseMatrix.zeros((2, 2))
        with pytest.raises(ValueError, match="row mismatch"):
            A.append_columns(SparseMatrix.zeros((3, 1)))

    def test_take_columns_gathers_in_order(self):
        rng = np.random.default_rng(37)
        dense = rng.random((4, 6)) * (rng.random((4, 6)) < 0.5)
        A = SparseMatrix.from_dense(dense)
        picked = A.take_columns([5, 0, 3, 3])
        np.testing.assert_allclose(picked.to_dense(), dense[:, [5, 0, 3, 3]])
        empty = A.take_columns([])
        assert empty.shape == (4, 0)
        assert empty.nnz == 0

    def test_matvec_and_rmatvec_match_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.random((m, n)) * (rng.random((m, n)) < 0.4)
            A = SparseMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            np.testing.assert_allclose(A.matvec(x), dense @ x, atol=1e-12)
            np.testing.assert_allclose(A.rmatvec(y), dense.T @ y, atol=1e-12)

    def test_rmatvec_cache_survives_value_updates_not_fill_in(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        A = SparseMatrix.from_dense(dense)
        y = np.array([3.0, 4.0])
        np.testing.assert_allclose(A.rmatvec(y), dense.T @ y)
        A.set(0, 0, 7.0)  # in-place value update
        np.testing.assert_allclose(A.rmatvec(y), [21.0, 8.0])
        A.set(1, 0, 5.0)  # fill-in invalidates the cached segment structure
        np.testing.assert_allclose(A.rmatvec(y), [41.0, 8.0])

    def test_rmatvec_range_matches_dense_blocks(self):
        """The partial-pricing kernel: every [lo, hi) slice agrees with the
        dense reference, the full range agrees with rmatvec, empty is empty."""
        rng = np.random.default_rng(23)
        for _ in range(15):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.random((m, n)) * (rng.random((m, n)) < 0.4)
            A = SparseMatrix.from_dense(dense)
            y = rng.standard_normal(m)
            for lo in range(int(n)):
                hi = int(rng.integers(lo, n)) + 1
                np.testing.assert_allclose(
                    A.rmatvec_range(lo, hi, y), dense[:, lo:hi].T @ y, atol=1e-12
                )
            np.testing.assert_allclose(A.rmatvec_range(0, int(n), y), A.rmatvec(y))
            assert A.rmatvec_range(0, 0, y).size == 0

    def test_gather_col_and_getitem(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        A = SparseMatrix.from_dense(dense)
        out = A.gather_col(2, np.zeros(2))
        np.testing.assert_allclose(out, [2.0, 0.0])
        assert A[1, 1] == pytest.approx(3.0)
        assert A[0, 1] == 0.0
        with pytest.raises(IndexError):
            A.set(5, 0, 1.0)

    def test_scipy_round_trip(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        dense = np.array([[0.0, 1.5], [2.5, 0.0]])
        A = SparseMatrix.from_dense(dense)
        np.testing.assert_allclose(A.to_scipy().toarray(), dense)


def _random_model(rng: np.random.Generator) -> Model:
    """A random LP/MILP exercising every variable class and constraint sense."""
    n = int(rng.integers(2, 8))
    n_rows = int(rng.integers(1, 7))
    model = Model("prop", sense="max" if rng.random() < 0.5 else "min")
    xs = []
    for i in range(n):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            xs.append(model.add_var(f"x{i}", lb=-np.inf))
        elif kind == 1:
            xs.append(model.add_var(f"x{i}", lb=float(rng.uniform(-4, 1))))
        elif kind == 2:
            lo = float(rng.uniform(-3, 1))
            xs.append(model.add_var(f"x{i}", lb=lo, ub=lo + float(rng.uniform(0.5, 5))))
        elif kind == 3:
            xs.append(model.add_var(f"x{i}", vartype="binary"))
        else:
            xs.append(model.add_var(f"x{i}", lb=0.0, ub=float(rng.uniform(1, 6))))
    for row in range(n_rows):
        coeffs = rng.uniform(-2, 2, size=n)
        coeffs[rng.random(n) < 0.4] = 0.0
        expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs))
        rhs = float(rng.uniform(-4, 4))
        sense = int(rng.integers(0, 3))
        if sense == 0:
            model.add_constr(expr <= rhs, name=f"c{row}")
        elif sense == 1:
            model.add_constr(expr >= rhs, name=f"c{row}")
        else:
            model.add_constr(expr == rhs, name=f"c{row}")
    model.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(-2, 2, size=n), xs)))
    return model


class TestLoweringEquivalence:
    """Property: sparse lowering == dense lowering on randomized models."""

    def test_sparse_and_dense_lowerings_agree(self):
        rng = np.random.default_rng(20260729)
        for _ in range(60):
            model = _random_model(rng)
            sp = model.to_standard_form(sparse=True)
            dn = model.to_standard_form(sparse=False)
            assert isinstance(sp.A_ub, SparseMatrix)
            assert isinstance(dn.A_ub, np.ndarray)
            assert sp.A_ub.shape == dn.A_ub.shape
            assert sp.A_eq.shape == dn.A_eq.shape
            np.testing.assert_allclose(as_dense(sp.A_ub), dn.A_ub, atol=0)
            np.testing.assert_allclose(as_dense(sp.A_eq), dn.A_eq, atol=0)
            np.testing.assert_array_equal(sp.b_ub, dn.b_ub)
            np.testing.assert_array_equal(sp.b_eq, dn.b_eq)
            np.testing.assert_array_equal(sp.c, dn.c)
            np.testing.assert_array_equal(sp.lb, dn.lb)
            np.testing.assert_array_equal(sp.ub, dn.ub)
            np.testing.assert_array_equal(sp.integrality, dn.integrality)
            assert sp.names == dn.names
            assert sp.row_map == dn.row_map
            assert sp.objective_offset == dn.objective_offset
            assert sp.maximize == dn.maximize

    def test_both_lowerings_solve_identically(self):
        rng = np.random.default_rng(7)
        from repro.optim.simplex import solve_standard_form

        agreements = 0
        for _ in range(25):
            model = _random_model(rng)
            sp_sol = solve_standard_form(model.to_standard_form(sparse=True))
            dn_sol = solve_standard_form(model.to_standard_form(sparse=False))
            assert sp_sol.status is dn_sol.status
            if sp_sol.objective is not None:
                assert sp_sol.objective == pytest.approx(dn_sol.objective, abs=1e-6)
                agreements += 1
        assert agreements >= 5  # the generator must produce solvable LPs

    def test_zero_coefficient_terms_stay_in_the_pattern(self):
        model = Model("zeros", sense="min")
        x, y = model.add_var("x"), model.add_var("y")
        model.add_constr(1.0 * x + 0.0 * y <= 3, name="row")
        model.set_objective(x + y)
        form = model.to_standard_form()
        assert form.A_ub.nnz == 2  # the zero coefficient is stored explicitly
        assert form.A_ub.get(0, y.index) == 0.0


class TestBasisFactor:
    """Both factor kinds against explicit dense references.

    The fixture basis has 12 rows, below ``_SPLU_MIN_DIM``, so a factor of
    it is a dense inverse; the spike-kind tests move that threshold to get
    SuperLU plus a spike file instead (which needs SciPy).
    """

    @pytest.fixture
    def spike_kind(self, monkeypatch):
        if not simplex._HAVE_SPLU:
            pytest.skip("the LU + spike-file factor needs SciPy's splu")
        monkeypatch.setattr(simplex, "_SPLU_MIN_DIM", 1)

    def _canonical_fixture(self, rng, m=12):
        """A canonical LP whose first ``m`` columns form a well-conditioned
        basis, with ``m`` further dense-ish columns available to enter."""
        model = Model("factor", sense="min")
        xs = [model.add_var(f"x{i}", lb=0.0, ub=10.0) for i in range(2 * m)]
        for i in range(m):
            coeffs = rng.uniform(-1, 1, size=2 * m) * (rng.random(2 * m) < 0.4)
            coeffs[i] = float(rng.uniform(4, 6))  # strongly diagonal basis block
            expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs))
            model.add_constr(expr == float(rng.uniform(1, 5)), name=f"r{i}")
        model.set_objective(lin_sum(xs))
        return _canonicalize(model.to_standard_form())

    def _track_replacements(self, seed, updates, atol):
        """Apply ``updates`` random basis replacements to a fresh factor,
        checking FTRAN/BTRAN against ``np.linalg.solve`` after each one."""
        rng = np.random.default_rng(seed)
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        art_sign = np.ones(m)
        factor = _BasisFactor(lp, basis, art_sign)
        B = np.stack([lp.A.gather_col(j, np.zeros(m)) for j in basis], axis=1)

        done = 0
        attempts = 0
        while done < updates and attempts < 10 * updates:
            attempts += 1
            q = int(rng.integers(0, lp.n))
            if q in basis:
                continue
            col = lp.A.gather_col(q, np.zeros(m))
            w = factor.ftran(col)
            r = int(np.argmax(np.abs(w)))
            if abs(w[r]) < 1e-6:
                continue
            factor.update(r, w)
            basis[r] = q
            B[:, r] = col
            done += 1

            rhs = rng.standard_normal(m)
            np.testing.assert_allclose(factor.ftran(rhs.copy()), np.linalg.solve(B, rhs), atol=atol)
            np.testing.assert_allclose(
                factor.btran(rhs.copy()), np.linalg.solve(B.T, rhs), atol=atol
            )
        assert done == updates
        assert factor.n_etas == updates
        fresh = _BasisFactor(lp, basis, art_sign)
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(fresh.ftran(rhs.copy()), factor.ftran(rhs.copy()), atol=atol)
        return lp, basis, art_sign, factor

    def test_spike_updates_track_explicit_basis_replacements(self, spike_kind):
        instr.reset()
        _, _, _, factor = self._track_replacements(3, _FT_MAX_UPDATES, 1e-7)
        assert factor.needs_refactor()  # a full spike file demands refactorization
        assert instr.get("ft_updates") == _FT_MAX_UPDATES
        assert instr.get("inverse_updates") == 0

    def test_dense_inverse_updates_track_explicit_basis_replacements(self):
        instr.reset()
        lp, basis, _, factor = self._track_replacements(3, _DENSE_REFACTOR - 1, 1e-9)
        assert not factor.needs_refactor()
        assert instr.get("inverse_updates") == _DENSE_REFACTOR - 1
        assert instr.get("ft_updates") == 0
        q = next(j for j in range(lp.n) if j not in basis)
        w = factor.ftran(lp.A.gather_col(q, np.zeros(lp.m)))
        factor.update(int(np.argmax(np.abs(w))), w)
        assert factor.needs_refactor()  # the update budget is spent

    def _mixed_basis(self, rng):
        """The fixture LP with an artificial unit column (random sign) on
        every third row and structural columns elsewhere."""
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        basis[::3] = lp.n + np.arange(m)[::3]
        art_sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        return lp, basis, art_sign

    @pytest.mark.parametrize("max_dim", [simplex._DENSE_MAX_DIM, 4], ids=["pivoted-in", "lapack"])
    def test_dense_inverse_matches_explicit_solves(self, monkeypatch, max_dim):
        """A dense factor solves like ``np.linalg.solve`` whether it was
        built by pivoting the columns into the unit diagonal or, above
        ``_DENSE_MAX_DIM`` (reachable only without SciPy), by LAPACK."""
        monkeypatch.setattr(simplex, "_DENSE_MAX_DIM", max_dim)
        rng = np.random.default_rng(7)
        lp, basis, art_sign = self._mixed_basis(rng)
        m = lp.m
        factor = _BasisFactor(lp, basis, art_sign)
        assert factor._inv is not None and factor._inv.flags.f_contiguous
        B = np.zeros((m, m))
        for i, j in enumerate(basis):
            if j < lp.n:
                B[:, i] = lp.A.gather_col(int(j), np.zeros(m))
            else:
                B[j - lp.n, i] = art_sign[j - lp.n]
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(factor.ftran(rhs.copy()), np.linalg.solve(B, rhs), atol=1e-10)
        np.testing.assert_allclose(factor.btran(rhs.copy()), np.linalg.solve(B.T, rhs), atol=1e-10)

    def test_dependent_basis_columns_raise_singular_basis(self):
        """A repeated structural column, or two unit columns on one row,
        leave no free row to pivot into: the dense build must say so."""
        rng = np.random.default_rng(7)
        lp, basis, art_sign = self._mixed_basis(rng)
        for first, second in ((1, 2), (0, 3)):
            dup = basis.copy()
            dup[second] = dup[first]
            with pytest.raises(_SingularBasis):
                _BasisFactor(lp, dup, art_sign)

    def _assert_clone_is_copy_on_write(self):
        """A child's updates must never leak into the parent, nor the
        parent's into the child: the untouched side keeps an empty update
        count and bitwise-identical solves."""
        rng = np.random.default_rng(5)
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        factor = _BasisFactor(lp, basis, np.ones(m))
        rhs = rng.standard_normal(m)
        before_ftran = factor.ftran(rhs.copy())
        before_btran = factor.btran(rhs.copy())
        entering = [lp.A.gather_col(j, np.zeros(m)) for j in (m, m + 1)]
        for pivoting, watched in ((0, 1), (1, 0)):
            pair = [factor, factor.clone()]
            child = pair[pivoting]
            for col in entering:
                w = child.ftran(col.copy())
                child.update(int(np.argmax(np.abs(w))), w)
            assert child.n_etas == 2
            assert pair[watched].n_etas == 0  # the other side's updates are untouched
            np.testing.assert_array_equal(pair[watched].ftran(rhs.copy()), before_ftran)
            np.testing.assert_array_equal(pair[watched].btran(rhs.copy()), before_btran)
            factor = pair[watched]

    def _assert_btran_unit_is_unit_btran(self):
        lp, basis, _, factor = self._track_replacements(5, 6, 1e-8)
        for r in range(lp.m):
            e_r = np.zeros(lp.m)
            e_r[r] = 1.0
            np.testing.assert_array_equal(factor.btran_unit(r), factor.btran(e_r))

    def test_btran_unit_is_unit_btran(self, spike_kind):
        self._assert_btran_unit_is_unit_btran()

    def test_dense_btran_unit_is_unit_btran(self):
        self._assert_btran_unit_is_unit_btran()

    def test_clone_is_copy_on_write(self, spike_kind):
        self._assert_clone_is_copy_on_write()

    def test_dense_inverse_clone_is_copy_on_write(self):
        self._assert_clone_is_copy_on_write()

    def test_corrupt_dense_update_recovers_to_clean_optimum(self):
        """A poisoned in-place update NaNs the inverse; the solve must see
        the non-finite solves and climb the ladder to the clean optimum."""
        rng = np.random.default_rng(11)
        model = Model("poisoned", sense="min")
        xs = [model.add_var(f"x{j}") for j in range(8)]
        for i in range(6):
            coeffs = rng.uniform(0.1, 1.0, size=8)
            model.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 1.0)
        model.set_objective(lin_sum(float(c) * x for c, x in zip(rng.uniform(1, 2, size=8), xs)))
        form = model.to_standard_form()
        clean = solve_standard_form(form)
        assert clean.status is SolveStatus.OPTIMAL
        instr.reset()
        with faultinject.inject(FaultPlan(corrupt_spikes=(1,))) as armed:
            faulted = solve_standard_form(form)
        assert armed.fired[faultinject.SPIKE] == 1
        assert instr.get("inverse_updates") >= 1
        assert instr.get("ft_updates") == 0
        assert faulted.status is SolveStatus.OPTIMAL
        assert faulted.objective == pytest.approx(clean.objective, abs=1e-9)

    def test_warm_chain_triggers_refactorization_and_stays_exact(self, monkeypatch):
        """A long warm-started re-solve chain must refactorize and keep
        matching a cold solve of the same data (update-drift regression).

        The chain makes about one basis update per two re-solves, so the
        dense inverse's rebuild budget is lowered to reach it in 50 steps.
        """
        from repro.optim import SolverSession

        monkeypatch.setattr(simplex, "_DENSE_REFACTOR", 8)

        rng = np.random.default_rng(17)
        model = Model("chain", sense="min")
        xs = [model.add_var(f"x{i}", ub=10.0) for i in range(6)]
        model.add_constr(lin_sum(xs) >= 6.0, name="cover")
        model.add_constr(xs[0] + 2 * xs[1] + 3 * xs[2] >= 3.0, name="mix")
        model.add_constr(xs[3] + xs[4] >= 1.0, name="pair")
        model.set_objective(lin_sum(float(c) * x for c, x in zip([2, 1, 3, 1.5, 2.5, 1.2], xs)))
        session = SolverSession(model, backend="simplex")
        instr.reset()
        for step in range(50):
            for name, hi in (("cover", 12.0), ("mix", 6.0), ("pair", 4.0)):
                rhs = float(rng.uniform(0.5, hi))
                session.update_constraint_rhs(name, rhs)
                model.update_constraint_rhs(name, rhs)  # mirrored ground truth
            warm = session.solve()
            cold = solve_standard_form(model.to_standard_form())
            assert warm.status is cold.status, f"step {step}"
            if cold.objective is not None:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-6), f"step {step}"
        # Three rows: a dense inverse, rebuilt after every 8 updates.
        assert instr.get("inverse_updates") > 8
        assert instr.get("ft_updates") == 0
        assert instr.get("refactorizations") >= 1


def _bounded_knapsack(seed: int, n: int = 25, rows: int = 6) -> Model:
    """A bounded general-integer knapsack whose tree makes primal and dual
    bound flips (the moves that change a non-basic status without a pivot)."""
    rng = np.random.default_rng(seed)
    model = Model("knapsack", sense="max")
    xs = [
        model.add_var(f"x{i}", lb=0, ub=float(rng.integers(1, 4)), vartype="integer")
        for i in range(n)
    ]
    for _ in range(rows):
        weights = rng.integers(1, 20, n)
        model.add_constr(
            lin_sum(float(a) * x for a, x in zip(weights, xs)) <= 0.3 * float(weights.sum())
        )
    model.set_objective(lin_sum(float(v) * x for v, x in zip(rng.integers(5, 30, n), xs)))
    return model


def _assert_tracked(state: _State) -> None:
    """``sign`` / ``lB`` / ``uB`` agree with a rebuild from the statuses."""
    n_cols = state.lp.n
    st = state.vstat[:n_cols]
    movable = state.lower_ext[:n_cols] < state.upper_ext[:n_cols]
    expected = np.where(movable & (st == AT_LOWER), 1.0, 0.0) - np.where(
        movable & (st == AT_UPPER), 1.0, 0.0
    )
    np.testing.assert_array_equal(state.sign, expected)
    assert not (state.sign != 0.0)[st == BASIC].any()
    np.testing.assert_array_equal(state.lB, state.lower_ext[state.basis])
    np.testing.assert_array_equal(state.uB, state.upper_ext[state.basis])


class TestPivotLoopBookkeeping:
    """The pivot loops keep ``_State.sign`` / ``lB`` / ``uB`` up to date
    incrementally; these tests rebuild them from scratch and compare."""

    def test_tracked_vectors_match_statuses_after_every_loop(self, monkeypatch):
        checked = {"_dual_iterations": 0, "_primal_iterations": 0}

        def checking(name):
            loop = getattr(simplex, name)

            def run(state, *args, **kwargs):
                try:
                    return loop(state, *args, **kwargs)
                finally:
                    _assert_tracked(state)
                    checked[name] += 1

            return run

        for name in checked:
            monkeypatch.setattr(simplex, name, checking(name))
        instr.reset()
        for seed in (0, 1, 2):
            solution = _bounded_knapsack(seed).solve(backend="branch-and-bound")
            assert solution.status is SolveStatus.OPTIMAL
        assert checked["_dual_iterations"] > 100 and checked["_primal_iterations"] > 10
        # Every kind of status change ran: pivots, and flips in both loops.
        assert instr.get("dual_pivots") > 0 and instr.get("pivots") > 0
        assert instr.get("dual_bound_flips") > 0 and instr.get("bound_flips") > 0

    def _slack_basis_state(self) -> _State:
        """A factorized state on the all-slack basis of a small LP whose
        basic values violate their bounds (the dual loop has work to do)."""
        model = Model("repair", sense="min")
        xs = [model.add_var(f"x{i}", ub=4.0) for i in range(4)]
        model.add_constr(xs[0] + xs[1] >= 2.0)
        model.add_constr(xs[1] + 2 * xs[2] + xs[3] >= 3.0)
        model.add_constr(xs[0] + xs[3] >= 1.0)
        model.set_objective(lin_sum(xs))
        lp = _canonicalize(model.to_standard_form())
        m, n_cols = lp.m, lp.n
        basis = np.arange(n_cols - m, n_cols, dtype=np.int64)
        vstat = np.full(n_cols + m, AT_LOWER, dtype=np.int8)
        vstat[basis] = BASIC
        state = _State(
            lp,
            basis,
            vstat,
            np.ones(m),
            np.concatenate((lp.lower, np.zeros(m))),
            np.concatenate((lp.upper, np.zeros(m))),
        )
        state.factorize()
        state.compute_xB()
        return state

    def test_dual_loop_repairs_the_slack_basis(self):
        state = self._slack_basis_state()
        costs = np.concatenate((state.lp.c, np.zeros(state.lp.m)))
        assert simplex._dual_iterations(state, costs, 50)[0] == "feasible"
        _assert_tracked(state)

    def test_nan_basic_value_is_never_feasible(self):
        state = self._slack_basis_state()
        costs = np.concatenate((state.lp.c, np.zeros(state.lp.m)))
        state.xB[1] = np.nan
        try:
            status, _ = simplex._dual_iterations(state, costs, 5)
        except _NumericalTrouble:
            return
        assert status != "feasible"

    def test_ascending_ratios_is_the_stable_sort_order(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            k = int(rng.integers(1, 12))
            ratios = rng.integers(0, 4, k).astype(float)  # plenty of ties
            if trial % 3 == 0:
                ratios[rng.random(k) < 0.3] = np.nan
            idx = np.sort(rng.choice(100, size=k, replace=False))
            assert list(_ascending_ratios(idx, ratios)) == list(
                idx[np.argsort(ratios, kind="stable")]
            )


class TestCanonicalizationContract:
    def test_branch_and_bound_canonicalizes_once(self):
        """The whole B&B tree shares one canonicalization; per-node work is
        bound patches and basis updates."""
        from repro.optim.branch_and_bound import solve_milp

        rng = np.random.default_rng(3)
        model = Model("cover", sense="min")
        xs = [model.add_var(f"z{i}", vartype="binary") for i in range(12)]
        for row in range(8):
            coeffs = rng.uniform(0.1, 1.0, size=12)
            model.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 2.0)
        model.set_objective(lin_sum(float(w) * x for w, x in zip(rng.uniform(1, 3, size=12), xs)))
        form = model.to_standard_form()
        instr.reset()
        # cuts="off": each root cut round re-lowers the (extended) form by
        # design, so the one-canonicalization contract applies to the tree.
        solution = solve_milp(form, cuts="off")
        assert solution.is_optimal
        assert solution.iterations >= 2  # a real tree was explored...
        # One LP per node plus the strong-branching probes that initialize
        # the pseudocosts -- all warm solves against the same lowering.
        assert instr.get("lp_solves") == solution.iterations + instr.get("strong_branch_probes")
        assert instr.get("canonicalizations") == 1  # ...over one lowering

    def test_simplex_solver_reuses_canonical_structure(self):
        model = Model("reuse", sense="min")
        x = model.add_var("x", lb=0.0, ub=4.0)
        y = model.add_var("y", lb=0.0, ub=4.0)
        model.add_constr(x + y >= 2, name="cover")
        model.set_objective(x + 2 * y)
        solver = SimplexSolver(model.to_standard_form())
        instr.reset()
        sol1, basis = solver.solve()
        lb = np.array([1.0, 0.0])
        ub = np.array([4.0, 4.0])
        sol2, _ = solver.solve(lb=lb, ub=ub, warm_basis=basis)
        assert sol1.objective == pytest.approx(2.0)
        assert sol2.objective == pytest.approx(2.0)
        assert instr.get("canonicalizations") == 1

    def test_tokens_drop_dense_factors_past_the_live_budget(self, monkeypatch):
        """A basis token keeps its dense inverse only while the live inverses
        fit ``_DENSE_LIVE_BUDGET``; past it the token carries no factor and
        the warm start from it refactorizes to the same optimum."""
        model = Model("parked", sense="min")
        x = model.add_var("x", lb=0.0, ub=4.0)
        y = model.add_var("y", lb=0.0, ub=4.0)
        model.add_constr(x + y >= 2, name="cover")
        model.add_constr(x - y <= 1, name="skew")
        model.set_objective(x + 2 * y)
        solver = SimplexSolver(model.to_standard_form())
        _, kept = solver.solve()
        assert kept.factor is not None and kept.factor._inv is not None
        monkeypatch.setattr(simplex, "_DENSE_LIVE_BUDGET", 0)
        _, parked = solver.solve(warm_basis=kept)
        assert parked.factor is None
        instr.reset()
        lb, ub = np.array([1.0, 0.0]), np.array([4.0, 4.0])
        resumed, _ = solver.solve(lb=lb, ub=ub, warm_basis=parked)
        assert instr.get("factorizations") >= 1
        assert resumed.objective == pytest.approx(solver.solve(lb=lb, ub=ub)[0].objective)

    def test_bound_class_change_recanonicalizes(self):
        model = Model("reclass", sense="min")
        x = model.add_var("x", lb=-np.inf)  # free at the root: split column
        model.add_constr(x >= -5, name="floor")
        model.set_objective(x)
        solver = SimplexSolver(model.to_standard_form())
        instr.reset()
        sol1, _ = solver.solve()
        assert sol1.objective == pytest.approx(-5.0)
        # A finite bound changes the free classification: new structure.
        sol2, _ = solver.solve(lb=np.array([-2.0]), ub=np.array([np.inf]))
        assert sol2.objective == pytest.approx(-2.0)
        assert instr.get("canonicalizations") == 2
