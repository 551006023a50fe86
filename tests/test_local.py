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
from gradcut.milp import BruteForceBackend, HighsBackend, MilpResult, MilpStatus, StatusKind
from gradcut.model import (
    FEAS_TOL,
    FeasibleDomain,
    QuadraticObjective,
    eval_gradient,
    eval_objective,
    is_feasible,
    make_cut,
)

from conftest import (
    Q_DIAG,
    Q_FULL,
    e,
    feasible_points,
    random_cut_rows,
    random_psd_objective,
    random_symmetric_objective,
    rows_of,
)


class RecordingBackend(BruteForceBackend):
    """Collects every point returned by a linear solve, for iterate inspection."""

    def __init__(self):
        super().__init__()
        self.returned = []

    def solve_linear(self, cost, dom, rows, budget, x=None):
        res = super().solve_linear(cost, dom, rows, budget, x)
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
        res = pgm_solve(obj, dom, rows_of(), make_cut(obj, e(1)), PgmParams(), BruteForceBackend())
        assert res.critical is True
        np.testing.assert_array_equal(res.x_final, e(0))
        assert res.f_final == 1.0
        assert res.iters == 1
        assert res.eta == 0.5

    def test_fixed_point_returns_immediately(self):
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(
            obj, dom, rows_of(), make_cut(obj, e(0)), PgmParams(gamma0=0.5), BruteForceBackend()
        )
        assert res.critical is True
        assert res.iters == 0
        np.testing.assert_array_equal(res.x_final, e(0))

    def test_respects_cut_rows(self):
        # exclude the unconstrained minimizer e1; best remaining point is e3
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        rows = rows_of([np.array([1.0, 0.0, 0.0])], [0.0])
        res = pgm_solve(obj, dom, rows, make_cut(obj, e(1)), PgmParams(), BruteForceBackend())
        assert res.x_final[0] == 0.0
        assert res.f_final <= eval_objective(obj, e(1))

    def test_budget_exhaustion_returns_start(self):
        obj = QuadraticObjective(Q_FULL)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(
            obj, dom, rows_of(), make_cut(obj, e(1)), PgmParams(), BruteForceBackend(), budget=0.0
        )
        assert res.critical is False
        np.testing.assert_array_equal(res.x_final, e(1))

    # draws where the projection's optimum is x's own point yet x's cost
    # rounds more than FEAS_TOL above the enumerator's value of that point
    @pytest.mark.parametrize("seed, scale", [(121, 2.0**22), (9, 1e9)])
    def test_a_step_to_its_own_point_is_critical_at_any_scale(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, n))
        a = rng.standard_normal((n, n))
        obj = QuadraticObjective((a + a.T) / 2.0 * scale)
        dom = FeasibleDomain(n=n, m=m)
        rows, x0 = random_cut_rows(rng, obj, dom)
        backend = BruteForceBackend()
        res = pgm_solve(obj, dom, rows, make_cut(obj, x0), PgmParams(), backend)
        assert res.critical
        assert res.iters < 10
        assert is_critical(obj, dom, rows, res.x_final, res.eta, backend)

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
        res = pgm_solve(obj, dom, rows_of(), make_cut(obj, x0), PgmParams(), backend)
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


class QueryThenTest:
    """A backend that answers a linear solve handed a point as solve_linear
    did before it took one, with no exchange bound: the query first, then
    pgm_solve's stopping test on its answer, that the point scores within
    FEAS_TOL of the optimum or is the optimum found."""

    def solve_linear(self, cost, dom, rows, budget, x=None):
        res = super().solve_linear(cost, dom, rows, budget)
        if (
            x is not None
            and res.ok
            and (float(cost @ x) <= res.objective + FEAS_TOL or np.array_equal(res.x, x))
        ):
            return MilpResult(res.status, x, float(cost @ x))
        return res


class BruteForceQueryThenTest(QueryThenTest, BruteForceBackend):
    pass


class HighsQueryThenTest(QueryThenTest, HighsBackend):
    pass


def assert_same_local_solve(seed, n_most, scale, backend, reference):
    """pgm_solve from a random point on random cut rows ends as it does on the
    reference backend, which has no exchange bound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_most + 1))
    m = int(rng.integers(1, n))
    base = (random_psd_objective if seed % 2 else random_symmetric_objective)(rng, n)
    obj = QuadraticObjective(base.q * scale)
    dom = FeasibleDomain(n=n, m=m)
    rows, x0 = random_cut_rows(rng, obj, dom)
    got, want = (
        pgm_solve(obj, dom, rows, make_cut(obj, x0), PgmParams(), b) for b in (backend, reference)
    )
    assert got.cut.anchor.tobytes() == want.cut.anchor.tobytes()
    assert (got.iters, got.critical, got.eta) == (want.iters, want.critical, want.eta)


@given(seed=st.integers(0, 100_000), scale=st.sampled_from([2.0**-20, 1.0, 2.0**22, 1e6]))
@settings(max_examples=150, deadline=None)
def test_handing_the_point_to_the_projection_keeps_every_local_solve(seed, scale):
    assert_same_local_solve(seed, 10, scale, BruteForceBackend(), BruteForceQueryThenTest())


@pytest.mark.parametrize("seed", range(6))
def test_handing_the_point_to_highs_keeps_every_local_solve(seed):
    assert_same_local_solve(seed, 8, 1.0, HighsBackend(), HighsQueryThenTest())


class FailingAfter(BruteForceBackend):
    """Answers the first `answers` linear solves, then times out every one."""

    def __init__(self, answers):
        super().__init__()
        self.answers = answers

    def solve_linear(self, cost, dom, rows, budget, x=None):
        if self.answers == 0:
            return MilpResult(status=MilpStatus(StatusKind.TIME_LIMIT, "scripted failure"))
        self.answers -= 1
        return super().solve_linear(cost, dom, rows, budget, x)


@pytest.mark.parametrize(
    "params, backend, budget, way",
    [
        (PgmParams(), BruteForceBackend, float("inf"), (4, True)),
        (PgmParams(max_iters=1), BruteForceBackend, float("inf"), (1, False)),
        (PgmParams(max_backtracks=0), BruteForceBackend, float("inf"), (4, False)),
        (PgmParams(), BruteForceBackend, 0.0, (0, False)),
        (PgmParams(), lambda: FailingAfter(2), float("inf"), (2, False)),
    ],
    ids=["critical", "iteration-cap", "backtrack-cap", "no-budget", "failed-projection"],
)
def test_the_returned_cut_is_the_final_points_bit_for_bit(params, backend, budget, way):
    # the solve builds its final cut from the f and gradient it evaluated
    rng = np.random.default_rng(0)
    obj = random_symmetric_objective(rng, 9)
    dom = FeasibleDomain(n=9, m=3)
    pts = feasible_points(dom)
    x0 = pts[int(rng.integers(len(pts)))]
    res = pgm_solve(obj, dom, rows_of(), make_cut(obj, x0), params, backend(), budget)
    assert (res.iters, res.critical) == way
    ref = make_cut(obj, res.x_final)
    assert res.cut.anchor.tobytes() == ref.anchor.tobytes()
    assert res.cut.grad.tobytes() == ref.grad.tobytes()
    assert np.float64(res.cut.value).tobytes() == np.float64(ref.value).tobytes()
    assert res.f_final == ref.value


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
            obj_q = QuadraticObjective(q)
            res = pgm_solve(obj_q, dom, rows_of(), make_cut(obj_q, x0), params, backend)
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
        pgm_solve(obj, dom, rows_of(), make_cut(obj, x0), PgmParams(), backend)
        assert not np.array_equal(backend.returned[0], x0)

    def test_step_left_alone_where_x_minimizes_the_linearization(self):
        # at e2 the gradient of -Q_DIAG is (0, 0, -6), a spread of -6
        obj = QuadraticObjective(-Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        res = pgm_solve(
            obj, dom, rows_of(), make_cut(obj, e(2)), PgmParams(gamma0=0.25), BruteForceBackend()
        )
        assert (res.critical, res.iters, res.eta) == (True, 0, 0.25)
