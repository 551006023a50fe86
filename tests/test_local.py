import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradcut.local import (
    PgmParams,
    is_critical,
    pgm_solve,
    sufficient_decrease,
)
from gradcut.milp import BruteForceBackend
from gradcut.model import (
    FeasibleDomain,
    QuadraticObjective,
    eval_gradient,
    eval_objective,
    is_feasible,
)

from conftest import (
    Q_DIAG,
    Q_FULL,
    e,
    feasible_points,
    random_psd_objective,
    random_symmetric_objective,
    rows_of,
)


class RecordingBackend(BruteForceBackend):
    """Collects every point returned by a linear solve, for iterate inspection."""

    def __init__(self):
        super().__init__()
        self.returned = []

    def solve_linear(self, cost, dom, rows, budget):
        res = super().solve_linear(cost, dom, rows, budget)
        if res.ok:
            self.returned.append(res.x)
        return res


class TestSufficientDecrease:
    def test_directional_form_accepts(self):
        # f drops from 2 to 1 against a directional reduction of 3e-3
        grad = np.array([3.0, 0.0])
        ok = sufficient_decrease(
            2.0, 1.0, np.array([1.0, 0.0]), np.array([0.0, 0.0]), grad, 1.0,
            PgmParams(decrease_test="eq6"),
        )
        assert ok is True

    def test_quadratic_form_boundary_is_non_strict(self):
        params = PgmParams(decrease_test="eq5")
        x_j = np.array([1.0, 0.0])
        x_j1 = np.array([0.0, 1.0])  # squared step length 2
        rhs = 2.0 - params.alpha * 2.0 / 2.0
        assert sufficient_decrease(2.0, rhs, x_j, x_j1, np.zeros(2), 1.0, params) is True

    def test_no_decrease_rejected_by_all_tests(self):
        x_j = np.array([1.0, 0.0])
        x_j1 = np.array([0.0, 1.0])
        grad = np.array([1.0, 0.0])  # directional reduction positive
        for test in ("eq5", "eq6", "either"):
            params = PgmParams(decrease_test=test)
            assert sufficient_decrease(2.0, 2.0, x_j, x_j1, grad, 1.0, params) is False

    def test_either_is_disjunction(self):
        x_j = np.array([1.0, 0.0])
        x_j1 = np.array([0.0, 1.0])
        # directional reduction 0.2 exceeds the drop of 0.1, so eq6 fails;
        # at gamma=100 the quadratic reduction is 1e-5 and eq5 passes
        grad = np.array([200.0, 0.0])
        params = PgmParams(decrease_test="either")
        assert sufficient_decrease(2.0, 1.9, x_j, x_j1, grad, 100.0, params) is True
        assert sufficient_decrease(2.0, 1.9, x_j, x_j1, grad, 100.0,
                                   PgmParams(decrease_test="eq6")) is False

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            sufficient_decrease(1.0, 0.5, np.zeros(2), np.ones(2), np.zeros(2), 0.0, PgmParams())


class TestIsCritical:
    def setup_method(self):
        self.obj = QuadraticObjective(Q_FULL)
        self.dom = FeasibleDomain(n=3, m=1)
        self.backend = BruteForceBackend()

    def test_minimizer_is_critical_at_half_step(self):
        assert is_critical(self.obj, self.dom, rows_of(), e(0), 0.5, self.backend) is True

    def test_non_minimizer_fails_at_unit_step(self):
        assert is_critical(self.obj, self.dom, rows_of(), e(1), 1.0, self.backend) is False

    def test_zero_gradient_always_critical(self):
        obj = QuadraticObjective(np.zeros((3, 3)))
        for eta in (0.1, 1.0, 50.0):
            assert is_critical(obj, self.dom, rows_of(), e(1), eta, self.backend) is True

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            is_critical(self.obj, self.dom, rows_of(), e(0), 0.0, self.backend)


class TestPgmSolve:
    def test_two_phase_walkthrough(self):
        # from e2: one accepted step to e1, then criticality fires after one
        # gamma halving (scores tie at gamma = 1/2)
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(obj, dom, rows_of(), e(1), PgmParams(), BruteForceBackend())
        assert res.critical is True
        np.testing.assert_array_equal(res.x_final, e(0))
        assert res.f_final == 1.0
        assert res.iters == 1
        assert res.eta == 0.5

    def test_fixed_point_returns_immediately(self):
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(obj, dom, rows_of(), e(0), PgmParams(gamma0=0.5), BruteForceBackend())
        assert res.critical is True
        assert res.iters == 0
        np.testing.assert_array_equal(res.x_final, e(0))

    def test_respects_cut_rows(self):
        # exclude the unconstrained minimizer e1; best remaining point is e3
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        rows = rows_of([np.array([1.0, 0.0, 0.0])], [0.0])
        res = pgm_solve(obj, dom, rows, e(1), PgmParams(), BruteForceBackend())
        assert res.x_final[0] == 0.0
        assert res.f_final <= eval_objective(obj, e(1))

    def test_budget_exhaustion_returns_start(self):
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(obj, dom, rows_of(), e(1), PgmParams(), BruteForceBackend(), budget=0.0)
        assert res.critical is False
        np.testing.assert_array_equal(res.x_final, e(1))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_terminates_critical_feasible_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        obj = random_psd_objective(rng, n)
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        x0 = pts[int(rng.integers(len(pts)))]
        backend = RecordingBackend()
        res = pgm_solve(obj, dom, rows_of(), x0, PgmParams(), backend)
        assert res.critical is True
        assert is_feasible(dom, res.x_final)
        assert res.f_final <= eval_objective(obj, x0) + 1e-12
        # every projected iterate stayed inside the domain
        for x in backend.returned:
            assert is_feasible(dom, x)
        # the certificate survives independent re-verification
        assert is_critical(obj, dom, rows_of(), res.x_final, res.eta, BruteForceBackend())

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_projection_step_minimizes_quadratic_model(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        obj = random_psd_objective(rng, n)
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        x = pts[int(rng.integers(len(pts)))]
        gamma = float(rng.uniform(0.1, 2.0))
        grad = eval_gradient(obj, x)
        from gradcut.milp import project

        res = project(x - gamma * grad, dom, rows_of(), 30.0, BruteForceBackend())

        def model(y):
            return (
                eval_objective(obj, x)
                + float(grad @ (y - x))
                + float((y - x) @ (y - x)) / (2.0 * gamma)
            )

        best = min(model(y) for y in pts)
        assert model(res.x) <= best + 1e-9


def spread(obj, x):
    """The largest gradient entry on the support of x less the smallest off it."""
    g = eval_gradient(obj, x)
    return float(np.max(g[x == 1.0]) - np.min(g[x == 0.0]))


class TestBreakpointStep:
    """Each step starts past the first breakpoint of the slice, 1/spread."""

    @given(seed=st.integers(0, 100_000), k=st.integers(-6, 6), convex=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_scale_invariant_where_the_floor_never_binds(self, seed, k, convex):
        # scaling Q by 2^k scales the gradient, the spread and the objective
        # exactly and the step by 2^-k, so every projection sees the same point
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        obj = (random_psd_objective if convex else random_symmetric_objective)(rng, n)
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        x0 = pts[int(rng.integers(len(pts)))]
        params = PgmParams(gamma0=1e-30)
        results = []
        for q in (obj.q, obj.q * 2.0**k):
            backend = RecordingBackend()
            res = pgm_solve(QuadraticObjective(q), dom, rows_of(), x0, params, backend)
            results.append((res.x_final.tolist(), res.iters, res.critical, len(backend.returned)))
        assert results[0] == results[1]

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_first_projection_moves_when_the_spread_is_positive(self, seed):
        # at norm 1/10 the spread stays below 1, so gamma0 = 1 alone would sit
        # at or below the breakpoint, where the projection returns x itself
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        obj = QuadraticObjective(random_psd_objective(rng, n).q / 10.0)
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        x0 = pts[int(rng.integers(len(pts)))]
        assume(spread(obj, x0) > 0)
        backend = RecordingBackend()
        pgm_solve(obj, dom, rows_of(), x0, PgmParams(), backend)
        assert not np.array_equal(backend.returned[0], x0)

    def test_step_left_alone_where_x_minimizes_the_linearization(self):
        # at e2 the gradient of -Q_DIAG is (0, 0, -6), a spread of -6
        obj = QuadraticObjective(-Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(obj, dom, rows_of(), e(2), PgmParams(gamma0=0.25), BruteForceBackend())
        assert (res.critical, res.iters, res.eta) == (True, 0, 0.25)
