import itertools
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradcut import milp
from gradcut.bench import default_x0, synth_instance
from gradcut.cli import make_backend
from gradcut.engine import CONFIG_NAMES, SolverConfig, build_cut_constraints, run
from gradcut.local import PAST_BREAKPOINT
from gradcut.milp import (
    HIGHS_TIGHT_FEAS_TOL,
    AutoBackend,
    BruteForceBackend,
    HighsBackend,
    MilpSolveError,
    StatusKind,
    check_nonempty,
    project,
    solve_cp_model,
)
from gradcut.model import (
    FEAS_TOL,
    Cut,
    CutOracle,
    CutRows,
    FeasibleDomain,
    QuadraticObjective,
    eval_gradient,
    make_cut,
)

from conftest import (
    Q_DIAG,
    Q_FULL,
    e,
    enumerate_min,
    feasible_points,
    meets,
    random_cut_model,
    random_psd_objective,
    random_symmetric_objective,
    rows_of,
)


def oracle_at(q, anchors):
    obj = QuadraticObjective(q)
    oracle = CutOracle()
    for a in anchors:
        oracle.add(make_cut(obj, a))
    return oracle


class TestSolveCpModel:
    def test_single_cut_lower_bound(self, backend, diag_instance):
        _, dom = diag_instance
        res = solve_cp_model(oracle_at(Q_DIAG, [e(2)]), dom, 30.0, backend)
        assert res.ok
        assert res.objective == pytest.approx(-3.0, abs=1e-9)

    def test_three_cuts_close_the_model(self, backend, diag_instance):
        # brute force: theta(e1)=max(1,-2,-3)=1, theta(e2)=2, theta(e3)=3
        _, dom = diag_instance
        res = solve_cp_model(oracle_at(Q_DIAG, [e(0), e(1), e(2)]), dom, 30.0, backend)
        assert res.ok
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.x, e(0), atol=1e-9)

    def test_zero_objective(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        res = solve_cp_model(oracle_at(np.zeros((3, 3)), [e(1)]), dom, 30.0, backend)
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_empty_oracle_rejected(self, backend):
        with pytest.raises(ValueError):
            solve_cp_model(CutOracle(), FeasibleDomain(n=3, m=1), 30.0, backend)

    def test_nonpositive_budget_short_circuits(self, backend):
        res = solve_cp_model(oracle_at(Q_DIAG, [e(0)]), FeasibleDomain(n=3, m=1), 0.0, backend)
        assert res.status.kind is StatusKind.TIME_LIMIT

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_theta_is_valid_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, n))
        obj = random_psd_objective(rng, n)
        dom = FeasibleDomain(n=n, m=m)
        anchors = rng.permutation(feasible_points(dom))[: int(rng.integers(1, 5))]
        oracle = CutOracle()
        for a in anchors:
            oracle.add(make_cut(obj, a))
        res = solve_cp_model(oracle, dom, 30.0, BruteForceBackend())
        f_star, _ = enumerate_min(obj.q, dom)
        assert res.objective <= f_star + 1e-9


class TestProject:
    def test_projection_picks_closest_vertex(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        res = project(np.array([0.9, 0.3, -0.1]), dom, rows_of(), 30.0, backend)
        np.testing.assert_allclose(res.x, e(0), atol=1e-9)

    def test_member_point_attains_optimum(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        res = project(e(1), dom, rows_of(), 30.0, backend)
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_cut_row_excludes_nearest(self, backend):
        # row 4 x2 <= 3.9 knocks out e2; remaining vertices tie at score 1
        dom = FeasibleDomain(n=3, m=1)
        rows = rows_of([[0.0, 4.0, 0.0]], [3.9])
        res = project(np.array([0.0, 0.9, 0.0]), dom, rows, 30.0, backend)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[1] == 0.0

    def test_infeasible_rows_reported(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        res = project(np.zeros(3), dom, rows_of([np.ones(3)], [-1.0]), 30.0, backend)
        assert res.status.kind is StatusKind.INFEASIBLE

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_true_euclidean_projection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        dom = FeasibleDomain(n=n, m=m)
        z = rng.uniform(-2.0, 2.0, size=n)
        res = project(z, dom, rows_of(), 30.0, BruteForceBackend())
        best = min(float(np.sum((x - z) ** 2)) for x in feasible_points(dom))
        assert float(np.sum((res.x - z) ** 2)) <= best + 1e-9


class TestCheckNonempty:
    def test_offset_row_leaves_survivors(self, backend, diag_instance):
        _, dom = diag_instance
        rows = build_cut_constraints(oracle_at(Q_DIAG, [e(1)]), ub=2.0, tau=0.1)
        assert check_nonempty(dom, rows, 30.0, backend) is True

    def test_each_vertex_cut_off(self, backend, diag_instance):
        _, dom = diag_instance
        rows = build_cut_constraints(oracle_at(Q_DIAG, [e(0), e(1), e(2)]), ub=1.0, tau=0.5)
        assert check_nonempty(dom, rows, 30.0, backend) is False

    def test_no_rows_trivially_nonempty(self, backend):
        assert check_nonempty(FeasibleDomain(n=3, m=1), rows_of(), 30.0, backend) is True

    def test_exhausted_budget_is_conservative(self, backend):
        assert check_nonempty(FeasibleDomain(n=3, m=1), rows_of(), 0.0, backend) is False


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_linear_models(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, n))
    dom = FeasibleDomain(n=n, m=m)
    cost = rng.uniform(-1.0, 1.0, size=n)
    # the solvers themselves: solve_linear would settle a rowless model by sorting
    res_bf = BruteForceBackend()._solve_linear(cost, dom, rows_of(), 30.0)
    res_hs = HighsBackend()._solve_linear(cost, dom, rows_of(), 30.0)
    assert res_bf.ok and res_hs.ok
    assert res_bf.objective == pytest.approx(res_hs.objective, abs=1e-7)


class CountingBackend(BruteForceBackend):
    def __init__(self):
        super().__init__()
        self.solves = 0

    def _solve_linear(self, cost, dom, rows, budget):
        self.solves += 1
        return super()._solve_linear(cost, dom, rows, budget)


class TestCardinalityOptimumFirst:
    def test_no_solve_when_the_cheapest_coordinates_fit(self):
        backend = CountingBackend()
        dom = FeasibleDomain(n=3, m=1)
        res = project(np.array([0.9, 0.3, -0.1]), dom, rows_of(), 30.0, backend)
        assert res.ok
        np.testing.assert_allclose(res.x, e(0))
        assert res.objective == pytest.approx(-0.8, abs=1e-12)
        assert backend.solves == 0

    def test_solver_runs_when_a_row_cuts_them_off(self):
        backend = CountingBackend()
        rows = rows_of([e(0)], [0.0])
        res = project(np.array([0.9, 0.3, -0.1]), FeasibleDomain(n=3, m=1), rows, 30.0, backend)
        np.testing.assert_allclose(res.x, e(1))
        assert backend.solves == 1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_enumeration_under_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        dom = FeasibleDomain(n=n, m=m)
        cost = rng.uniform(-1.0, 1.0, size=n)
        terms = [
            (rng.uniform(-1.0, 1.0, size=n), float(rng.uniform(-0.5, 1.0)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        rows = rows_of([g for g, _ in terms], [b for _, b in terms])
        got = BruteForceBackend().solve_linear(cost, dom, rows, 30.0)
        want = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
        assert got.status.kind is want.status.kind
        if want.ok:
            assert got.objective == pytest.approx(want.objective, abs=1e-12)
            assert meets(rows, got.x)


class TestExchangeBound:
    """solve_linear handed a point x of dom on the rows answers with x itself
    when x costs at most the optimum plus FEAS_TOL or is the optimum found.
    Where the m cheapest
    coordinates miss a row, the slice's two least costs settle that with no
    solve when x costs at most c2 + FEAS_TOL less the rounding slack, c2 the
    least cost of every other point."""

    @given(
        seed=st.integers(0, 100_000),
        shape=st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        convex=st.booleans(),
        scale=st.sampled_from([2.0**-20, 1.0, 2.0**22, 1e6]),
        past_breakpoint=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_point_is_the_answer_exactly_where_it_attains_the_optimum(
        self, seed, shape, convex, scale, past_breakpoint
    ):
        # a projected-gradient trial at x: the step just past the first
        # breakpoint, where the bound settles most, or gamma0 = 1; the level
        # lies between the cut model at x and at the m cheapest coordinates
        rng = np.random.default_rng(seed)
        n, m = shape
        base = (random_psd_objective if convex else random_symmetric_objective)(rng, n)
        obj = QuadraticObjective(base.q * scale)
        dom = FeasibleDomain(n=n, m=m)
        oracle, pts, theta = random_cut_model(rng, obj, dom)
        grads, intercepts = oracle.stacked()
        for i in rng.permutation(len(pts)):
            x = pts[i]
            grad = eval_gradient(obj, x)
            spread = grad[x > 0.5].max() - grad[x < 0.5].min()
            gamma = PAST_BREAKPOINT / spread if past_breakpoint and spread > 0 else 1.0
            cost = 1.0 - 2.0 * (x - gamma * grad)
            cheapest = np.zeros(n)
            cheapest[cost.argsort(kind="stable")[:m]] = 1.0
            above = float((grads @ cheapest + intercepts).max())
            if above > theta[i]:
                break
        assume(above > theta[i])
        rows = CutRows(oracle, float(rng.uniform(theta[i], above)))
        assume(rows.satisfied_by(x) and not rows.satisfied_by(cheapest))
        backend = CountingBackend()
        got = backend.solve_linear(cost, dom, rows, 30.0, x)
        at = float(cost @ x)
        assert got.ok
        if backend.solves == 0:
            # settled: the full enumeration's optimum over the rows
            optimum = min(float(cost @ p) for p in feasible_points(dom) if rows.satisfied_by(p))
            assert optimum >= at - FEAS_TOL
            assert got.x is x
        else:
            # the query as it runs without a point, and the stopping test on it
            want = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
            stops = at <= want.objective + FEAS_TOL or np.array_equal(want.x, x)
            assert (got.x is x) == stops
            if got.x is not x:
                np.testing.assert_array_equal(got.x, want.x)
                assert got.objective == want.objective
        if got.x is x:
            assert got.objective == at

    # one row, (coefficients, right-hand side), cuts off the m cheapest; where
    # the bound does not settle, the query's answer is the optimum, not x
    @pytest.mark.parametrize(
        "cost, m, row, x, settled, answer",
        [
            # m = 1: c2 = 0.5, met by e1; e2 costs more, and the query finds e1
            ([0.0, 0.5, 2.0], 1, ([1, 0, 0], 0.0), [0, 1, 0], True, None),
            ([0.0, 0.5, 2.0], 1, ([1, 0, 0], 0.0), [0, 0, 1], False, [0, 1, 0]),
            # m = n - 1: c2 = 0.5 + 2.0 - 0.5, met by {0, 2}
            ([0.0, 0.5, 2.0], 2, ([1, 1, 0], 1.0), [1, 0, 1], True, None),
            ([0.0, 0.5, 2.0], 2, ([1, 1, 0], 1.0), [0, 1, 1], False, [1, 0, 1]),
            # a tie s[m] = s[m-1]: c2 = c1 = 1, met by {0, 2}
            ([0.0, 1.0, 1.0, 3.0], 2, ([0, 1, 0, 0], 0.0), [1, 0, 1, 0], True, None),
            ([0.0, 1.0, 1.0, 3.0], 2, ([0, 1, 0, 0], 0.0), [1, 0, 0, 1], False, [1, 0, 1, 0]),
        ],
        ids=["m1", "m1-query", "n-1", "n-1-query", "tie", "tie-query"],
    )
    def test_edges(self, cost, m, row, x, settled, answer):
        cost, x = np.array(cost), np.array(x, dtype=float)
        backend = CountingBackend()
        rows = rows_of([row[0]], [row[1]])
        got = backend.solve_linear(cost, FeasibleDomain(n=len(cost), m=m), rows, 30.0, x)
        assert backend.solves == (0 if settled else 1)
        if answer is None:
            assert got.x is x
            assert got.objective == float(cost @ x)
        else:
            np.testing.assert_array_equal(got.x, answer)

    @pytest.mark.parametrize("inside", [True, False])
    def test_a_cost_inside_the_slack_falls_back_to_the_query(self, inside):
        # c2 = 1, met by e1; e2 costs within FEAS_TOL of it, inside the slack
        # or past it
        slack = milp.SUM_RTOL * (1.0 + (1.0 + FEAS_TOL))
        cost = np.array([0.0, 1.0, 1.0 + FEAS_TOL - (0.5 if inside else 2.0) * slack])
        backend = CountingBackend()
        rows = rows_of([e(0)], [0.0])
        got = backend.solve_linear(cost, FeasibleDomain(n=3, m=1), rows, 30.0, e(2))
        assert backend.solves == (1 if inside else 0)
        np.testing.assert_array_equal(got.x, e(2))

    def test_without_a_point_the_answer_is_the_first_minimizer(self):
        # e1 and e2 both cost c2 = 1 under a row that cuts off e0: handed e2,
        # the answer is e2, settled; with no point, the query's first, e1
        cost = np.array([0.0, 1.0, 1.0])
        dom, rows = FeasibleDomain(n=3, m=1), rows_of([e(0)], [0.0])
        backend = CountingBackend()
        np.testing.assert_array_equal(backend.solve_linear(cost, dom, rows, 30.0).x, e(1))
        x = e(2)
        assert backend.solve_linear(cost, dom, rows, 30.0, x).x is x
        assert backend.solves == 1


class ScriptedMilp:
    """Stands in for scipy.optimize.milp: replays scripted answers in order and
    records the options and the constraints of every call; before, when
    given, is called inside every call, as a solver's own output would be
    printed."""

    def __init__(self, *answers, delay=0.0, before=None):
        self.answers = list(answers)
        self.options = []
        self.constraints = []
        self.delay = delay
        self.before = before

    def __call__(self, c, constraints, integrality, bounds, options):
        self.options.append(dict(options))
        self.constraints.append(constraints)
        if self.before is not None:
            self.before()
        time.sleep(self.delay)
        return self.answers.pop(0)


SOLVE_ERROR = "(HiGHS Status 4: Solve error)"


def cp_answer(status, theta, dual=None, message="scripted"):
    """A milp result for the three-cut model on Q_DIAG, at e(0)."""
    return SimpleNamespace(
        status=status,
        message=message,
        x=np.array([1.0, 0.0, 0.0, theta]),
        fun=theta,
        mip_dual_bound=theta if dual is None else dual,
    )


def scripted_highs(monkeypatch, *answers, delay=0.0, before=None):
    backend = HighsBackend()
    stub = ScriptedMilp(*answers, delay=delay, before=before)
    monkeypatch.setattr(backend, "_milp", stub)
    return backend, stub


def rungs(stub):
    """(presolve, mip_feasibility_tolerance) of each solve the stub answered,
    None where the tolerance was left at HiGHS's default."""
    return [(o["presolve"], o.get("mip_feasibility_tolerance")) for o in stub.options]


# a first solve, and then every rung of the retry ladder
LADDER = [
    (True, None),
    (False, None),
    (False, HIGHS_TIGHT_FEAS_TOL),
    (False, FEAS_TOL),
    (True, HIGHS_TIGHT_FEAS_TOL),
]
LAST_RUNG = "also with presolve on at mip_feasibility_tolerance 1e-10"


class TestHighsRetryLadder:
    # three cuts on Q_DIAG: the model optimum is theta = 1 at e(0), and the cut
    # model at the incumbent e(0) is its value f(e(0)) = 1, the run's ub
    oracle = oracle_at(Q_DIAG, [e(0), e(1), e(2)])
    dom = FeasibleDomain(n=3, m=1)

    def test_solve_error_retried_once_without_presolve(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(4, 0.999999, message=SOLVE_ERROR), cp_answer(0, 1.0)
        )
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend)
        assert res.ok
        assert res.bound == 1.0
        assert [o["presolve"] for o in stub.options] == [True, False]

    def test_repeated_solve_error_names_kind_and_size(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch, *(cp_answer(4, 0.999999, message=SOLVE_ERROR) for _ in LADDER)
        )
        # 1 cardinality row + 3 cut rows; 3 binaries + theta
        with pytest.raises(MilpSolveError, match=r"cp solve failed \(4 rows x 4 cols\)") as info:
            solve_cp_model(self.oracle, self.dom, 30.0, backend)
        assert SOLVE_ERROR in str(info.value)
        assert str(info.value).endswith(LAST_RUNG)
        assert (info.value.kind, info.value.n_rows, info.value.n_cols) == ("cp", 4, 4)
        assert rungs(stub) == LADDER

    def test_linear_solve_error_named_linear(self, monkeypatch):
        err = SimpleNamespace(status=4, message=SOLVE_ERROR, x=None, fun=None, mip_dual_bound=None)
        backend, stub = scripted_highs(monkeypatch, *(err for _ in LADDER))
        # the row cuts off the cardinality-only optimum e0, so HiGHS must run
        rows = rows_of([e(0)], [0.0])
        failed = r"linear solve failed \(2 rows x 3 cols\)"
        with pytest.raises(MilpSolveError, match=failed) as info:
            project(np.zeros(3), self.dom, rows, 30.0, backend)
        assert str(info.value).endswith(LAST_RUNG)
        assert rungs(stub) == LADDER

    def test_bound_above_limit_retried_once_without_presolve(self, monkeypatch):
        backend, stub = scripted_highs(monkeypatch, cp_answer(0, 1.5), cp_answer(0, 1.0))
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, ub=1.0)
        assert res.ok
        assert res.bound == 1.0
        assert [o["presolve"] for o in stub.options] == [True, False]

    def test_repeated_impossible_bound_raises(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(0, 1.5), *(cp_answer(0, 1.25) for _ in LADDER[1:])
        )
        with pytest.raises(MilpSolveError, match="exceeds the upper limit") as info:
            solve_cp_model(self.oracle, self.dom, 30.0, backend, ub=1.0)
        assert str(info.value).endswith(LAST_RUNG)
        assert rungs(stub) == LADDER

    def test_dual_bound_checked_not_only_theta(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(0, 1.0, dual=1.5), cp_answer(0, 1.0)
        )
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, ub=1.0)
        assert res.bound == 1.0
        assert len(stub.options) == 2

    def test_rounding_above_limit_accepted_without_retry(self, monkeypatch):
        backend, stub = scripted_highs(monkeypatch, cp_answer(0, 1.0 + 1e-13))
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, ub=1.0)
        assert res.ok
        assert len(stub.options) == 1

    def test_spent_budget_gives_bound_free_timeout(self, monkeypatch, caplog):
        # the failed first attempt uses up the whole budget: no re-solve, none
        # logged, and no bound from the unusable answer leaks out; the reason
        # for the re-solve stays in the message
        caplog.set_level(logging.WARNING, logger="gradcut")
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(4, 0.999999, message=SOLVE_ERROR), delay=0.05
        )
        res = solve_cp_model(self.oracle, self.dom, 0.01, backend)
        assert res.status.kind is StatusKind.TIME_LIMIT
        assert res.bound is None
        assert len(stub.options) == 1
        assert res.status.message == f"budget exhausted before re-solving; unusable: {SOLVE_ERROR}"
        assert not [r for r in caplog.records if "re-solving" in r.getMessage()]

    def test_infeasible_lower_bound_retried_once_without_presolve(self, monkeypatch):
        # the theta model of a nonempty slice always has a solution, so an
        # infeasible answer is unusable, not an answer to hand the engine
        infeasible = SimpleNamespace(
            status=2, message="scripted infeasible", x=None, fun=None, mip_dual_bound=None
        )
        backend, stub = scripted_highs(monkeypatch, infeasible, cp_answer(0, 1.0))
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, ub=1.0)
        assert res.ok
        assert res.bound == 1.0
        assert rungs(stub) == LADDER[:2]

    def test_tight_solve_falls_back_to_feas_tol(self, monkeypatch):
        # the least tolerance HiGHS accepts can end in a solve error at large
        # values; the tight solve then takes the tightest one left
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(4, 0.999999, message=SOLVE_ERROR), cp_answer(0, 1.0)
        )
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, tight=True)
        assert res.ok
        assert res.bound == 1.0
        assert [o["presolve"] for o in stub.options] == [False, False]
        assert [o["mip_feasibility_tolerance"] for o in stub.options] == [
            HIGHS_TIGHT_FEAS_TOL, FEAS_TOL
        ]

    def test_tight_solve_falls_back_to_presolve_at_the_least_tolerance(self, monkeypatch):
        # with presolve off, HiGHS can end in a solve error at both tight
        # tolerances where presolve on certifies at the least one
        backend, stub = scripted_highs(
            monkeypatch,
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
            cp_answer(0, 1.0),
        )
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, tight=True)
        assert res.ok
        assert res.bound == 1.0
        assert [o["presolve"] for o in stub.options] == [False, False, True]
        assert [o["mip_feasibility_tolerance"] for o in stub.options] == [
            HIGHS_TIGHT_FEAS_TOL, FEAS_TOL, HIGHS_TIGHT_FEAS_TOL
        ]

    def test_repeated_tight_solve_error_raises(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch,
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
        )
        with pytest.raises(
            MilpSolveError, match="also with presolve on at mip_feasibility_tolerance 1e-10$"
        ):
            solve_cp_model(self.oracle, self.dom, 30.0, backend, tight=True)
        assert rungs(stub) == LADDER[2:]  # a tight solve starts at the second rung


def rows_one_by_one(dom, rows, n_cols):
    """The (A, lo, hi) of the cardinality row and of rows, (coeffs, rhs) pairs
    each asking <coeffs, x> <= rhs, one row at a time: the rows a HiGHS
    model is built from."""
    a, lo, hi = [np.r_[np.ones(dom.n), np.zeros(n_cols - dom.n)]], [dom.m], [dom.m]
    for coeffs, rhs in rows:
        a.append(np.r_[coeffs, np.zeros(n_cols - dom.n)])
        lo.append(-np.inf)
        hi.append(rhs)
    return np.array(a), np.array(lo), np.array(hi)


def cuts_on_six():
    obj = random_psd_objective(np.random.default_rng(4), 6)
    return [make_cut(obj, x) for x in feasible_points(FeasibleDomain(n=6, m=2))[3:9]]


class TestHighsInputFromTheStack:
    """The model HiGHS is handed, built from the oracle's stack, equals the one
    written out cut by cut."""

    dom = FeasibleDomain(n=6, m=2)
    cuts = cuts_on_six()

    @staticmethod
    def handed(stub):
        (constraint,) = stub.constraints[-1]
        return constraint.A, constraint.lb, constraint.ub

    def want_cp(self, cuts):
        a, lo, hi = rows_one_by_one(self.dom, [], 7)
        for cut in cuts:
            a = np.vstack([a, np.r_[cut.grad, -1.0]])
            lo = np.r_[lo, -np.inf]
            hi = np.r_[hi, -(cut.value - float(cut.grad @ cut.anchor))]
        return a, lo, hi

    @pytest.mark.parametrize("as_oracle", [True, False])
    def test_cp_model(self, monkeypatch, as_oracle):
        backend, stub = scripted_highs(monkeypatch, cp_answer_at(6, 2, 0.0))
        cuts = CutOracle(self.cuts) if as_oracle else list(self.cuts)
        backend.solve_cp(cuts, self.dom, 30.0)
        for got, want in zip(self.handed(stub), self.want_cp(self.cuts), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_projection_on_cut_rows(self, monkeypatch):
        oracle = CutOracle(self.cuts)
        z = np.array([0.9, 0.8, 0.1, 0.2, 0.3, 0.0])
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])  # the cardinality-only optimum
        level = max(c.grad @ x + c.intercept for c in self.cuts) - 0.5  # cuts x off
        rows = CutRows(oracle, level)
        answer = cp_answer_at(6, 2, 0.0)
        answer.x = answer.x[:6]
        backend, stub = scripted_highs(monkeypatch, answer)
        project(z, self.dom, rows, 30.0, backend)
        terms = [(c.grad, level - c.intercept) for c in self.cuts]
        for got, want in zip(self.handed(stub), rows_one_by_one(self.dom, terms, 6), strict=True):
            np.testing.assert_array_equal(got, want)


def test_highs_points_carry_no_negative_zero(monkeypatch):
    # rounding a slightly negative solver value gives -0.0, which tolist()
    # would carry into manifests
    answer = cp_answer(0, 1.0)
    answer.x = np.array([1.0 + 1e-10, -1e-10, -3e-12, 1.0])
    backend, _ = scripted_highs(monkeypatch, answer)
    res = backend.solve_cp(list(oracle_at(Q_DIAG, [e(0)])), FeasibleDomain(n=3, m=1), 30.0)
    np.testing.assert_array_equal(res.x, e(0))
    assert not np.signbit(res.x).any()


class ErroringBackend(BruteForceBackend):
    def solve_linear(self, cost, dom, rows, budget, x=None):
        raise MilpSolveError("linear", 1 + len(rows), dom.n, "scripted failure")


def test_highs_output_lands_on_stderr(monkeypatch, capfd):
    # what the solver writes to fd 1 goes to stderr; fd 1 is restored after
    dom = FeasibleDomain(n=3, m=1)
    backend, _ = scripted_highs(
        monkeypatch, cp_answer(0, 1.0), before=lambda: os.write(1, b"stray solver line\n")
    )
    print("before")
    assert backend.solve_cp(TestHighsRetryLadder.oracle, dom, 30.0).ok
    print("after")
    out, err = capfd.readouterr()
    assert out == "before\nafter\n"
    assert err == "stray solver line\n"


def run_script(script):
    """Run script in a fresh Python process that imports this gradcut, with
    stdout a pipe and not unbuffered, as when a run's output is captured;
    returns the finished process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(milp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, timeout=120, check=True,
    )


@pytest.mark.skipif(os.name != "posix", reason="prints through the C library's stdout")
def test_buffered_c_output_of_a_solve_lands_on_stderr():
    # C stdio holds what it prints to a pipe in a buffer (unless Python runs
    # unbuffered, so a fresh process runs the check): that buffer is flushed
    # onto stderr before fd 1 is restored, not later onto stdout
    done = run_script(
        """
        import ctypes
        from gradcut import milp
        libc = ctypes.CDLL(None)
        libc.puts.argtypes = [ctypes.c_char_p]
        with milp._stdout_to_stderr():
            libc.puts(b"stray buffered line")
        print("after")
        """
    )
    assert done.stdout == b"after\n"
    assert done.stderr == b"stray buffered line\n"


@pytest.mark.skipif(os.name != "posix", reason="HiGHS prints through the C library's stdout")
def test_no_stray_highs_output_reaches_stdout():
    # HiGHS prints a line of its own during one of this cell's lower bounds,
    # whatever its output options say (scipy 1.17.1, HiGHS 1.12.0): it must
    # land on stderr, and stdout hold only what the program prints
    done = run_script(
        """
        from gradcut.bench import default_x0, synth_instance
        from gradcut.engine import SolverConfig, run
        from gradcut.milp import HighsBackend
        inst = synth_instance(9, 4, "psd_random", 2)
        cfg = SolverConfig.from_name("cpm")
        out = run(inst.obj, inst.dom, default_x0(inst.dom), cfg, HighsBackend())
        print(out.status.value)
        """
    )
    assert done.stdout == b"eps_optimal\n"
    assert b"HighsMipSolverData::transformNewIntegerFeasibleSolution" in done.stderr


def test_overlapping_highs_solves_restore_stdout(monkeypatch, capfd):
    # two solves on two threads are both inside the solver when either
    # writes: the first one out must not restore fd 1 under the other, and
    # the last one out must restore it
    dom = FeasibleDomain(n=3, m=1)
    inside = threading.Barrier(2, timeout=30.0)
    first_out = threading.Event()

    def chatter(name, wait_for=None):
        def before():
            inside.wait()
            if wait_for is not None:
                assert wait_for.wait(30.0)
            os.write(1, f"stray line from {name}\n".encode())

        return before

    a, _ = scripted_highs(monkeypatch, cp_answer(0, 1.0), before=chatter("a"))
    b, _ = scripted_highs(monkeypatch, cp_answer(0, 1.0), before=chatter("b", first_out))
    results = {}

    def solve(name, backend, done=None):
        results[name] = backend.solve_cp(TestHighsRetryLadder.oracle, dom, 30.0)
        if done is not None:
            done.set()

    threads = [
        threading.Thread(target=solve, args=("a", a, first_out)),
        threading.Thread(target=solve, args=("b", b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
        assert not t.is_alive()
    assert results["a"].ok and results["b"].ok
    print("after")
    out, err = capfd.readouterr()
    assert out == "after\n"
    assert sorted(err.splitlines()) == ["stray line from a", "stray line from b"]


def test_many_threads_of_highs_solves_restore_stdout(monkeypatch, capfd):
    # more threads than cores, switching often: every solve's line lands on
    # stderr, and fd 1 is stdout again once all are done
    dom = FeasibleDomain(n=3, m=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        backends = [
            scripted_highs(
                monkeypatch,
                *[cp_answer(0, 1.0)] * 50,
                before=lambda k=k: os.write(1, f"stray line from {k}\n".encode()),
            )[0]
            for k in range(6)
        ]
        solved = []

        def solve(backend):
            for _ in range(50):
                solved.append(backend.solve_cp(TestHighsRetryLadder.oracle, dom, 30.0).ok)

        threads = [threading.Thread(target=solve, args=(b,)) for b in backends]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert solved == [True] * 300
    print("after")
    out, err = capfd.readouterr()
    assert out == "after\n"
    lines = [f"stray line from {k}" for k in range(6) for _ in range(50)]
    assert sorted(err.splitlines()) == lines


def test_check_nonempty_raises_on_any_backend_error():
    dom = FeasibleDomain(n=3, m=1)
    rows = build_cut_constraints(oracle_at(Q_DIAG, [e(1)]), ub=2.0, tau=0.1)
    with pytest.raises(MilpSolveError, match=r"linear solve failed \(2 rows x 3 cols\): scripted"):
        check_nonempty(dom, rows, 30.0, ErroringBackend())


def test_bruteforce_ignores_the_upper_limit():
    # a ub below the model optimum, which no run hands it: the enumerator
    # rejects no bound, and its answer is the optimum all the same
    oracle = oracle_at(Q_DIAG, [e(0), e(1), e(2)])
    res = BruteForceBackend().solve_cp(list(oracle), FeasibleDomain(n=3, m=1), 30.0, ub=-10.0)
    assert res.ok
    assert res.bound == pytest.approx(1.0, abs=1e-12)


def decoded(table, n):
    """The points of an enumerator table, one packed bit row per column, as
    rows of 0/1."""
    return np.unpackbits(table.T, axis=1, count=n).astype(float)


def assert_whole_or_one_table(sets, size):
    """The two forms of an enumerator's state: the whole slice of size points,
    dead ones and all, or a table of at most _BLOCK points."""
    if sets.table is None:
        assert len(sets.theta) == size
    else:
        assert sets.table.shape[1] == len(sets.theta) <= milp._BLOCK


POINT_TABLE_GRID = [(3, 1), (5, 2), (6, 3), (8, 4), (9, 1), (9, 8), (17, 3)]


def slice_points(n, m):
    return np.array(feasible_points(FeasibleDomain(n=n, m=m)))


class TestPointTable:
    @pytest.mark.parametrize("n, m", POINT_TABLE_GRID)
    def test_matches_itertools_in_lexicographic_order(self, n, m):
        want = slice_points(n, m)
        for table in (milp._unrank(np.arange(len(want)), n, m), milp._subsets(n, m, m)):
            assert table.dtype == np.uint8
            assert table.shape == ((n + 7) // 8, len(want))
            np.testing.assert_array_equal(decoded(table, n), want)

    @pytest.mark.parametrize("n, m", POINT_TABLE_GRID)
    def test_unranking_every_rank_gives_the_table(self, n, m):
        want = slice_points(n, m)
        # any subset, in rank order, column for column
        ranks = np.random.default_rng(n * m).permutation(comb(n, m))[: comb(n, m) // 2 + 1]
        ranks.sort()
        np.testing.assert_array_equal(decoded(milp._unrank(ranks, n, m), n), want[ranks])
        # and one rank at a time
        points = np.array([milp._point(r, n, m) for r in range(comb(n, m))])
        np.testing.assert_array_equal(points, want)


class TestCutValueCache:
    def test_one_domain_held_and_answers_unchanged(self):
        # two runs, each with its own oracle, take turns on one backend: each
        # call starts its run's state afresh, and answers as a new backend does
        backend = BruteForceBackend()
        dom_a, dom_b = FeasibleDomain(n=3, m=1), FeasibleDomain(n=4, m=2)
        obj_b = random_psd_objective(np.random.default_rng(0), 4)
        cuts_a = list(oracle_at(Q_DIAG, [e(0), e(1), e(2)]))
        cuts_b = [make_cut(obj_b, x) for x in feasible_points(dom_b)[:3]]
        oracle_a, oracle_b = CutOracle(), CutOracle()
        for k in range(3):
            for oracle, cuts, dom in ((oracle_a, cuts_a, dom_a), (oracle_b, cuts_b, dom_b)):
                oracle.add(cuts[k])
                got = backend.solve_cp(oracle, dom, 30.0)
                want = BruteForceBackend().solve_cp(cuts[: k + 1], dom, 30.0)
                assert got.objective == want.objective
                np.testing.assert_array_equal(got.x, want.x)
                assert backend._sets.holds(oracle, dom)
                assert backend._sets.n_cuts == k + 1
        # an equal domain that is another object is another run's
        held = backend._sets
        backend.solve_cp(oracle_b, FeasibleDomain(n=4, m=2), 30.0)
        assert backend._sets is not held

    def test_grown_cut_list_extends_the_held_values(self):
        backend = BruteForceBackend()
        dom = FeasibleDomain(n=3, m=1)
        oracle = CutOracle()
        held = None
        for anchor in (e(2), e(1), e(0)):
            oracle.add(make_cut(QuadraticObjective(Q_DIAG), anchor))
            res = backend.solve_cp(oracle, dom, 30.0)
            assert held is None or backend._sets is held
            held = backend._sets
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(held.theta, [1.0, 2.0, 3.0])
        assert held.n_cuts == 3

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_a_point_with_theta_at_most_ub_is_never_dropped(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        obj = random_psd_objective(rng, n)
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        backend = BruteForceBackend()
        oracle = CutOracle()
        ub = np.inf
        for x in rng.permutation(pts)[:6]:
            oracle.add(make_cut(obj, x))
            ub = min(ub, 0.5 * float(x @ obj.q @ x))
            backend.solve_cp(oracle, dom, 30.0, ub=ub)
            theta = {tuple(p): max(c.grad @ p + c.intercept for c in oracle) for p in pts}
            held = backend._sets
            kept = {tuple(milp._at(held.table, i, n, m)): t for i, t in enumerate(held.theta)}
            alive = {p for p, t in theta.items() if t <= ub + FEAS_TOL}
            # every live point is held; the dead ones go once they are an eighth
            assert alive <= set(kept)
            assert 8 * (len(kept) - len(alive)) < len(kept)
            for p, t in kept.items():
                assert t == pytest.approx(theta[p], abs=1e-12)


def plain_scan(cost, dom, rows):
    """The lexicographically first minimizer of <cost, x> over the points of
    dom that satisfy every row, with its objective; None when there is none."""
    best = None
    for idx in itertools.combinations(range(dom.n), dom.m):
        x = np.zeros(dom.n)
        x[list(idx)] = 1.0
        if meets(rows, x):
            value = float(cost @ x)
            if best is None or value < best[1]:
                best = (x, value)
    return best


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_level_sets_replay_an_engine_run_like_a_plain_scan(seed):
    """Lower bounds, projections and nonemptiness checks at levels ub - tau, as
    a run asks for them while cuts grow and ub falls, answered as a plain
    itertools scan answers them, with the points above ub dropped. Each level
    takes projections with several costs, and is asked again after the next
    fold and compaction, latest first. Half the runs read blocks of a few
    points, so that the slice is held whole until its survivors fit one
    block; the other half hold the slice in one block, as its table from the
    start."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    m = int(rng.integers(1, n))
    obj = random_psd_objective(rng, n)
    size = comb(n, m)
    one_block = rng.random() < 0.5
    block = int(rng.integers(size, 2 * size + 1) if one_block else rng.integers(1, 5))
    with mock.patch.object(milp, "_BLOCK", block):
        dom = FeasibleDomain(n=n, m=m)
        pts = feasible_points(dom)
        backend = BruteForceBackend()
        oracle = CutOracle()
        x = pts[int(rng.integers(len(pts)))]
        ub = np.inf
        last = []
        for _ in range(8):
            oracle.add(make_cut(obj, x))
            ub = min(ub, 0.5 * float(x @ obj.q @ x))
            res = backend.solve_cp(oracle, dom, 30.0, ub=ub)
            want = min(
                (max(c.grad @ p + c.intercept for c in oracle), i) for i, p in enumerate(pts)
            )
            assert res.objective == pytest.approx(want[0], abs=1e-12)
            np.testing.assert_array_equal(res.x, pts[want[1]])
            gap = max(0.0, ub - res.objective)
            # tau past the gap, 0 and half the gap; the last is asked again first
            fresh = [ub - gap - 0.1, ub, ub - 0.5 * gap]
            for level in [lv for lv in reversed(last) if lv <= ub] + fresh:
                cut_rows = CutRows(oracle, level)
                # the whole-number cost ties points across blocks
                for cost in (
                    1.0 - 2.0 * rng.uniform(-1.0, 2.0, size=n),
                    1.0 - 2.0 * rng.uniform(-1.0, 2.0, size=n),
                    rng.integers(-1, 2, size=n).astype(float),
                ):
                    got = backend._solve_linear(cost, dom, cut_rows, 30.0)
                    want = plain_scan(cost, dom, cut_rows)
                    assert got.ok == (want is not None)
                    if want is not None:
                        np.testing.assert_array_equal(got.x, want[0])
                        assert got.objective == pytest.approx(want[1], abs=1e-12)
                assert check_nonempty(dom, cut_rows, 30.0, backend) == (want is not None)
            last = fresh
            x = res.x if rng.random() < 0.5 else pts[int(rng.integers(len(pts)))]
            assert_whole_or_one_table(backend._sets, size)
        theta = [max(c.grad @ p + c.intercept for c in oracle) for p in pts]
        alive = sum(t <= backend._sets.ub + FEAS_TOL for t in theta)
        held = len(backend._sets.theta)
        assert alive <= held
        if backend._sets.table is not None:
            assert 8 * (held - alive) < held


class TestCutRowsCheck:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_each_row_at_random_points(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        obj = random_psd_objective(rng, n)
        points = rng.integers(0, 2, size=(8, n)).astype(float)
        oracle = CutOracle(make_cut(obj, p) for p in points[:4])
        for level in rng.uniform(-1.0, 2.0, size=4):
            rows = CutRows(oracle, float(level))
            for x in points:
                assert rows.satisfied_by(x) == meets(rows, x)

    @pytest.mark.parametrize("slack, satisfied", [(-2.0, False), (-1.0, True), (0.0, True)])
    def test_agrees_with_each_row_at_the_tolerance(self, slack, satisfied):
        # integer data: theta is exact, and the binding cut sits slack *
        # FEAS_TOL beyond the level, at the edge of the tolerance for -1
        obj = QuadraticObjective(Q_FULL)
        oracle = CutOracle(make_cut(obj, a) for a in (e(0), e(1), e(2)))
        x = np.array([1.0, 1.0, 0.0])
        theta = max(c.grad @ x + c.intercept for c in oracle)
        rows = CutRows(oracle, theta + slack * FEAS_TOL)
        assert rows.satisfied_by(x) is satisfied
        assert meets(rows, x) is satisfied

    def test_no_cuts_no_rows(self):
        assert CutRows(CutOracle(), 0.0).satisfied_by(np.zeros(3)) is True


@pytest.mark.parametrize("n, m", [(10, 4), (9, 1), (9, 8), (17, 3)])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_whole_slice_fold_by_tails_matches_the_byte_lookup(n, m, seed):
    """With blocks of 7 points the whole slice spans several blocks; the
    lower bound's sweep folds every cut by tail sums, to the values the byte
    lookup of the packed table gives, and its argmin is the first minimizer
    of a plain scan. The walk is forced to give up, so that the lower bound
    sweeps where its level set at the minimum would answer it."""
    rng = np.random.default_rng(seed)
    obj = random_psd_objective(rng, n)
    dom = FeasibleDomain(n=n, m=m)
    pts = feasible_points(dom)
    oracle = CutOracle(make_cut(obj, pts[i]) for i in rng.permutation(len(pts))[:5])
    table = milp._unrank(np.arange(len(pts)), n, m)
    lookup = np.max(
        [milp._scores(table, milp._lut(c.grad, len(table))) + c.intercept for c in oracle], axis=0
    )
    tails = BruteForceBackend()
    with mock.patch.object(milp, "_BLOCK", 7), mock.patch.object(milp, "_walk", return_value=None):
        got = tails.solve_cp(oracle, dom, 30.0)
    assert tails._sets.table is None
    assert tails._sets.n_cuts == len(oracle)
    np.testing.assert_allclose(tails._sets.theta, lookup, rtol=0.0, atol=1e-12)
    want = min((max(c.grad @ p + c.intercept for c in oracle), i) for i, p in enumerate(pts))
    np.testing.assert_array_equal(got.x, pts[want[1]])
    assert got.objective == pytest.approx(want[0], abs=1e-12)


def recording(fn, results):
    """fn, with each of its results appended to results."""
    def call(*args):
        results.append(fn(*args))
        return results[-1]
    return call


def counting_sweeps(sweeps):
    """A patch of the block source, milp._values, that appends to sweeps the
    number of cuts of each lower bound that folds over the whole slice:
    each call with no table and the cuts' intercepts as base."""
    values = milp._values

    def counted(table, v, n, m, base=None):
        if table is None and base is not None:
            sweeps.append(len(v))
        return values(table, v, n, m, base)
    return mock.patch.object(milp, "_values", counted)


def counting_queries(queries):
    """A patch of BruteForceBackend._solve_linear, the enumerator's linear
    query, that appends to queries the number of rows of each call."""
    solve = BruteForceBackend._solve_linear

    def counted(self, cost, dom, rows, budget):
        queries.append(len(rows))
        return solve(self, cost, dom, rows, budget)
    return mock.patch.object(BruteForceBackend, "_solve_linear", counted)


@pytest.mark.parametrize(
    "cell, most",
    [(("psd_random", 14, 4, 1), 10), (("nonconvex_random", 12, 4, 0), 80)],
    ids=["psd14", "nonconvex12"],
)
def test_the_exchange_bound_spares_the_enumerators_queries(cell, most):
    """Over the five configurations, the local solver's stopping tests that
    the slice's two least costs settle reach no enumerator query: 8 and 76 of
    them are left, where handing no point to the projection leaves 89 and
    106. Each run keeps its results (test_benchmark_cells_keep_their_results)."""
    kind, n, m, seed = cell
    inst = synth_instance(n, m, kind, seed)
    queries = []
    with counting_queries(queries):
        for config in CONFIG_NAMES:
            backend = AutoBackend()
            cfg = SolverConfig.from_name(config)
            run(inst.obj, inst.dom, default_x0(inst.dom, backend), cfg, backend)
    assert 0 < len(queries) <= most


def test_the_exchange_bound_spares_highs_linear_solves(monkeypatch):
    """On a forced HighsBackend, pgm on psd_random 14/4 seed 1 poses 2 linear
    MILPs, where handing no point to the projection poses 22; the run keeps
    its status, iterations and optimum."""
    inst = synth_instance(14, 4, "psd_random", 1)
    backend = HighsBackend()
    milp_solve, sizes = backend._milp, []

    def counted(c, *args, **kwargs):
        sizes.append(len(c))
        return milp_solve(c, *args, **kwargs)
    monkeypatch.setattr(backend, "_milp", counted)
    out = run(inst.obj, inst.dom, default_x0(inst.dom), SolverConfig.from_name("pgm"), backend)
    assert (out.status.value, out.iterations, out.local_steps) == ("eps_optimal", 32, 8)
    assert out.f_best == pytest.approx(0.06697391784352494, rel=1e-9)
    assert 0 < sizes.count(inst.dom.n) <= 4


def test_whole_slice_builds_no_packed_table():
    """Every configuration on an n=30 m=6 diversity slice runs with no table of
    the whole slice. On this slice no cut's level set under the second ub
    fits one block, so that walk gives up; the walk of the level set at the
    lower bound's own minimum answers it and writes no theta, and the third
    lower bound walks its level set under ub into the table that serves the
    rest of the run: nothing is swept or unranked. With the walk at the
    minimum forced to give up, the second lower bound sweeps; the lower
    bounds and level sets then read theta and tail sums until the survivors
    fit one block, and unrank those survivors only, once, into the table."""
    inst = synth_instance(30, 6, "mdp_like", 0)
    for config in CONFIG_NAMES:
        for forced in (False, True):
            backend = BruteForceBackend()
            walked = []
            descend = (lambda *args: np.inf) if forced else milp._descend
            with (
                mock.patch.object(milp, "_unrank", wraps=milp._unrank) as unrank,
                mock.patch.object(milp, "_walk", recording(milp._walk, walked)),
                mock.patch.object(milp, "_descend", descend),
            ):
                out = run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                          SolverConfig.from_name(config), backend)
            assert out.status.value == "eps_optimal"
            assert backend._sets.table is not None  # the run compacted
            assert_whole_or_one_table(backend._sets, comb(30, 6))
            if forced:
                assert walked == [None, None]
                assert unrank.call_count == 1
                kept = len(unrank.call_args.args[0])
                assert backend._sets.table.shape[1] <= kept <= milp._BLOCK
            else:
                assert len(walked) == 3 and walked[0] is None
                assert all(0 < w.shape[1] <= milp._BLOCK for w in walked[1:])
                assert unrank.call_count == 0


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_a_tight_cut_walks_its_level_set_into_the_table(config):
    """On the benchmark's n=30 m=6 diversity slice, the second lower bound
    of each pgm configuration walks the level set of the local point's cut
    into its table: no lower bound sweeps the slice, and nothing is
    unranked. cpm's walks under ub give up at its second, third and fourth
    lower bounds, and the walks at their own minimum answer them; the fifth
    walks under ub into its table, and cpm sweeps nothing either. Each run
    answers as one whose walks are forced to give up, which walks under ub
    and at the minimum of its second lower bound in vain and sweeps: the
    same status, iterations, incumbents and upper bounds, and lower bounds
    within rounding."""
    inst = synth_instance(30, 6, "mdp_like", 2)
    outs, walks, sweeps, unranks = [], [], [], []
    for forced in (False, True):
        backend = BruteForceBackend()
        walked, swept = [], []
        walk = (lambda *args: None) if forced else milp._walk
        with (
            mock.patch.object(milp, "_walk", recording(walk, walked)),
            mock.patch.object(milp, "_unrank", wraps=milp._unrank) as unrank,
            counting_sweeps(swept),
        ):
            outs.append(run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                            SolverConfig.from_name(config), backend))
        walks.append(walked)
        sweeps.append(len(swept))
        unranks.append(unrank.call_count)
        assert outs[-1].status.value == "eps_optimal"
    walked = walks[0]
    if config == "cpm":
        assert [w is None for w in walked] == [True, False] * 3 + [False]
    else:
        assert len(walked) == 1
    assert all(0 < w.shape[1] <= milp._BLOCK for w in walked if w is not None)
    assert sweeps[0] == 0 and unranks[0] == 0
    assert walks[1] == [None, None]
    assert sweeps[1] > 0
    walk, forced = outs
    assert walk.status == forced.status
    assert walk.iterations == forced.iterations
    np.testing.assert_array_equal(walk.x_best, forced.x_best)
    assert walk.f_best == forced.f_best
    assert [r.ub for r in walk.trace.records] == [r.ub for r in forced.trace.records]
    np.testing.assert_allclose([r.lb for r in walk.trace.records],
                               [r.lb for r in forced.trace.records], rtol=0.0, atol=1e-12)


WALK_GRID = [(10, 4), (9, 1), (9, 8), (17, 3), (12, 6), (20, 2), (64, 2), (66, 2)]


@pytest.mark.parametrize("n, m", WALK_GRID)
@pytest.mark.parametrize("whole_number", [True, False])
def test_level_set_walk_matches_a_plain_scan(n, m, whole_number):
    """_level_set against a plain scan of the slice, at limits from below
    the least value (the empty set) to above the largest: every point
    within the limit, in rank order, and no other point but within the
    walk's slack; with whole-number data, exactly the scan's level set.
    With a cap one short of the level set it gives up; at the level set's
    size it does not."""
    rng = np.random.default_rng(n * m + whole_number)
    pts = slice_points(n, m)
    if whole_number:
        cut = whole_number_cut(rng, n)
        g, c = cut.grad, cut.intercept
    else:
        g, c = rng.standard_normal(n), float(rng.standard_normal())
    values = pts @ g + c
    slack = FEAS_TOL * (1.0 + abs(c) + m * np.abs(g).max())
    limits = [values.min() - 1.0, *np.quantile(values, [0.0, 0.01, 0.1, 0.5]), values.max() + 1]
    for limit in limits:
        inside = np.flatnonzero(values <= limit)
        with mock.patch.object(milp, "_BLOCK", len(pts)):
            table = milp._level_set(g, c, float(limit), n, m)
        got = decoded(table, n)
        ranks = np.array([np.flatnonzero((pts == x).all(axis=1))[0] for x in got], dtype=int)
        assert np.all(np.diff(ranks) > 0)  # in rank order
        assert set(inside) <= set(ranks)
        assert np.all(values[ranks] <= limit + slack)
        if whole_number:
            np.testing.assert_array_equal(ranks, inside)
        if len(inside) == 0:
            assert table.shape == ((n + 7) // 8, 0)
        else:
            with mock.patch.object(milp, "_BLOCK", len(ranks) - 1):
                assert milp._level_set(g, c, float(limit), n, m) is None
            with mock.patch.object(milp, "_BLOCK", len(ranks)):
                np.testing.assert_array_equal(milp._level_set(g, c, float(limit), n, m), table)


def reference_level_set(g, c, limit, n, m):
    """The level-set walk as it was before each prefix became one key: the
    prefixes are columns of packed bytes, each depth sets a coordinate's bit
    through a flat index, and a lexsort of the bytes gives rank order. The
    oracle of _level_set, which must give the same table or None."""
    order = g.argsort(kind="stable")
    h = g[order]
    tails = np.concatenate([[0.0], np.cumsum(h)])
    room = limit - c + FEAS_TOL * (1.0 + abs(c) + m * np.abs(g).max())
    ends = np.arange(n) + np.arange(m, 0, -1)[:, None]
    least = np.where(ends <= n, tails.take(np.minimum(ends, n)) - tails[:n], np.inf)
    np.maximum.accumulate(least, axis=1, out=least)
    within = [np.arange(n + 1, dtype=float)]
    for _ in range(m - 1):
        within.append(np.cumsum(within[-1]))
    prefixes = np.zeros(((n + 7) // 8, 1), dtype=np.uint8)
    sums = np.zeros(1)
    last = np.array([-1])
    for k in range(1, m + 1):
        counts = np.searchsorted(least[k - 1], room - sums, side="right") - last - 1
        np.maximum(counts, 0, out=counts)
        if within[m - k].take(counts).sum() > milp._BLOCK:
            return None
        size = int(counts.sum())
        parent = np.repeat(np.arange(len(counts)), counts)
        last = np.arange(size) + np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
        sums = sums[parent] + h[last]
        coord = order.take(last)
        prefixes = prefixes.take(parent, axis=1)
        prefixes.reshape(-1)[(coord >> 3) * size + np.arange(size)] |= milp._BIT[coord & 7]
    return prefixes[:, np.lexsort(prefixes[::-1])[::-1]]


@pytest.mark.parametrize("n", [63, 64, 65, 70])
@pytest.mark.parametrize("whole_number", [True, False])
def test_level_set_walk_matches_the_byte_walk(n, whole_number):
    """_level_set gives the reference walk's table, bytes, shape, dtype and
    C order alike, or None on exactly the same draws: on either side of 64
    coordinates, at m = 1, 2, 3 and n - 1, at limits from below the least
    value to above the largest, with blocks of the default size and of 500
    points, so that both give up on some draws and not on others."""
    rng = np.random.default_rng(n + 1000 * whole_number)
    outcomes = set()
    for m in (1, 2, 3, n - 1):
        for _ in range(3):
            if whole_number:
                cut = whole_number_cut(rng, n)
                g, c = cut.grad, cut.intercept
            else:
                g, c = rng.standard_normal(n), float(rng.standard_normal())
            h = np.sort(g)
            low, high = h[:m].sum() + c, h[n - m :].sum() + c
            for limit in np.linspace(low - 1.0, high + 1.0, 9):
                for block in (milp._BLOCK, 500):
                    with mock.patch.object(milp, "_BLOCK", block):
                        want = reference_level_set(g, c, float(limit), n, m)
                        got = milp._level_set(g, c, float(limit), n, m)
                    outcomes.add(got is None)
                    if want is None:
                        assert got is None
                        continue
                    assert got.dtype == want.dtype == np.uint8
                    assert got.shape == want.shape
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()
    assert outcomes == {True, False}


def test_walk_takes_the_first_cut_whose_level_set_fits():
    """_walk walks the cut likely to have the least level set and returns
    that level set where it fits a block; None where it gives up, and then
    no other cut is walked."""
    n, m = 12, 4
    pts = slice_points(n, m)
    rng = np.random.default_rng(11)
    grads = rng.standard_normal((3, n))
    intercepts = rng.standard_normal(3)
    values = pts @ grads.T + intercepts
    limit = float(np.quantile(values[:, 1], 0.01))
    sizes = (values <= limit).sum(axis=0)
    assert sizes[1] < min(sizes[0], sizes[2])
    # the least level set is walked first, also where all of them fit
    for block in (int(sizes[1]), len(pts)):
        with mock.patch.object(milp, "_BLOCK", block):
            table = milp._walk(grads, intercepts, limit, n, m)
        np.testing.assert_array_equal(decoded(table, n), pts[values[:, 1] <= limit])
    level_sets = []
    with (
        mock.patch.object(milp, "_BLOCK", int(sizes.min()) - 1),
        mock.patch.object(milp, "_level_set", recording(milp._level_set, level_sets)),
    ):
        assert milp._walk(grads, intercepts, limit, n, m) is None
    assert level_sets == [None]
    assert milp._walk(grads, intercepts, np.inf, n, m) is None


def random_cuts(rng, n, count, whole_number):
    """count cuts on n coordinates: whole-number ones, whose theta ties
    often, or float ones."""
    if whole_number:
        return [whole_number_cut(rng, n) for _ in range(count)]
    return [Cut(anchor=rng.integers(0, 2, size=n).astype(float), grad=rng.standard_normal(n),
                value=float(rng.standard_normal())) for _ in range(count)]


# slices whose blocks, patched to a twelfth of the slice or less, still hold
# more points than the ties of a minimum as a rule
MINIMUM_GRID = [(10, 4), (17, 3), (12, 6), (20, 2), (14, 7), (13, 10)]


def test_a_level_set_under_ub_above_the_minimum_proves_nothing():
    """Where the walked level set under ub fits a block but theta exceeds ub
    at all of its points, so that the model minimum is above ub, its
    minimum is not the answer: the lower bound goes on, and answers as a
    plain scan does. The cuts are a and c - a, with blocks of seven: the
    level set under ub of either cut holds four points or fewer, and theta
    is least at the one point where a is c / 2, above ub, where the level
    set of a cut holds half the slice, so the walk there gives up too, and
    the lower bound sweeps."""
    n, m = 10, 4
    pts = slice_points(n, m)
    dom = FeasibleDomain(n=n, m=m)
    g = np.random.default_rng(5).standard_normal(n)
    a = pts @ g
    ub = float(np.sort(a)[2])
    c = 2.0 * float(np.sort(a)[len(a) // 2])
    oracle = CutOracle([Cut(anchor=np.zeros(n), grad=g, value=0.0),
                        Cut(anchor=np.ones(n), grad=-g, value=c - g.sum())])
    theta = np.maximum(a, c - a)
    assert theta.min() > ub
    walked = []
    backend = BruteForceBackend()
    with (
        mock.patch.object(milp, "_BLOCK", 7),
        mock.patch.object(milp, "_walk", recording(milp._walk, walked)),
    ):
        got = backend.solve_cp(oracle, dom, 30.0, ub=ub)
    assert 0 < walked[0].shape[1] <= 4 and walked[1:] == [None]
    np.testing.assert_array_equal(got.x, pts[theta.argmin()])
    assert got.objective == pytest.approx(theta.min(), abs=1e-12)
    assert backend._sets.n_cuts == 2


@pytest.mark.parametrize("n, m", MINIMUM_GRID)
@pytest.mark.parametrize("whole_number", [True, False])
def test_a_lower_bound_at_its_own_minimum_matches_a_plain_scan(n, m, whole_number):
    """A fresh lower bound of two to five cuts on a whole slice of more
    than twice as many blocks as cuts and one more, with no ub or one under
    which no cut's level set fits, is the plain scan's first minimizer and
    its theta, exactly with whole-number cuts. Where the walk of the level
    set at theta of a swap descent fits, as it does in at least half the
    trials, it answers without a sweep, and the state is left as it was: no
    cut folded in, and so no theta written."""
    rng = np.random.default_rng(11 * n + m + whole_number)
    pts = slice_points(n, m)
    dom = FeasibleDomain(n=n, m=m)
    answered = 0
    for trial in range(12):
        oracle = CutOracle(random_cuts(rng, n, int(rng.integers(2, 6)), whole_number))
        theta = np.max([pts @ c.grad + c.intercept for c in oracle], axis=0)
        ub = None if trial % 2 else float(np.median(theta))
        backend = BruteForceBackend()
        sweep = []
        with (
            mock.patch.object(milp, "_BLOCK", (len(pts) - 1) // (2 * len(oracle) + 2)),
            counting_sweeps(sweep),
        ):
            got = backend.solve_cp(oracle, dom, 30.0, ub=ub)
        i = int(theta.argmin())
        np.testing.assert_array_equal(got.x, pts[i])
        assert got.objective == pytest.approx(theta[i], abs=1e-12)
        if whole_number:
            assert got.objective == theta[i]
        if not sweep:
            answered += 1
            assert backend._sets.n_cuts == 0 and backend._sets.table is None
    assert answered >= 6


@pytest.mark.parametrize("n, m", WALK_GRID)
@pytest.mark.parametrize("whole_number", [True, False])
def test_descent_ends_at_a_point_between_the_minimum_and_its_start(n, m, whole_number):
    """_descend returns theta at a point of the slice, no lower than the
    plain scan's minimum and no higher than the best of the cuts' m
    cheapest coordinates, where it starts."""
    rng = np.random.default_rng(13 * n + m + whole_number)
    pts = slice_points(n, m)
    for _ in range(12):
        cuts = random_cuts(rng, n, int(rng.integers(1, 6)), whole_number)
        grads = np.array([c.grad for c in cuts])
        intercepts = np.array([c.intercept for c in cuts])
        theta = np.max(pts @ grads.T + intercepts, axis=1)
        starts = [milp._cheapest(g, m) for g in grads]
        start = min(float(np.max(grads @ x + intercepts)) for x in starts)
        level = milp._descend(grads, intercepts, m)
        assert np.abs(theta - level).min() <= 1e-12
        assert theta.min() - 1e-12 <= level <= start + 1e-12


@pytest.mark.parametrize("count", [2, 3, 5])
def test_a_slice_of_at_most_twice_one_more_block_than_cuts_sweeps(count):
    """On a whole slice of n=10 m=4 (210 points), a fresh lower bound of
    count cuts sweeps where the slice holds at most 2 (count + 1) blocks,
    and no descent runs; with blocks one point smaller, the walk at its own
    minimum answers it, and nothing sweeps."""
    n, m = 10, 4
    pts = slice_points(n, m)
    dom = FeasibleDomain(n=n, m=m)
    oracle = CutOracle(random_cuts(np.random.default_rng(count), n, count, False))
    theta = np.max([pts @ c.grad + c.intercept for c in oracle], axis=0)
    most = -(-len(pts) // (2 * count + 2))  # the least block of which the slice holds 2 (count + 1)
    for block, sweeps in ((most, 1), (most - 1, 0)):
        backend = BruteForceBackend()
        sweep = []
        with (
            mock.patch.object(milp, "_BLOCK", block),
            mock.patch.object(milp, "_descend", wraps=milp._descend) as descend,
            counting_sweeps(sweep),
        ):
            got = backend.solve_cp(oracle, dom, 30.0)
        assert len(sweep) == sweeps
        assert descend.call_count == 1 - sweeps
        assert backend._sets.n_cuts == (count if sweeps else 0)
        np.testing.assert_array_equal(got.x, pts[theta.argmin()])
        assert got.objective == pytest.approx(theta.min(), abs=1e-12)


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_whole_slices_answer_at_their_minimum_as_by_a_sweep(config):
    """On four diversity slices of several blocks (n=30 m=6 seeds 0 and 2,
    n=22 m=8 seed 3, n=28 m=6 seed 4), a run whose fresh lower bounds may
    be answered by the walk at their own minimum answers as one where that
    walk is forced to give up, so that they sweep: the same status,
    iterations, incumbents and upper bounds, and lower bounds within
    rounding."""
    for n, m, seed in ((30, 6, 0), (30, 6, 2), (22, 8, 3), (28, 6, 4)):
        inst = synth_instance(n, m, "mdp_like", seed)
        outs = []
        for descend in (milp._descend, lambda *args: np.inf):
            backend = BruteForceBackend()
            with mock.patch.object(milp, "_descend", descend):
                outs.append(run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                                SolverConfig.from_name(config), backend))
        walk, swept = outs
        assert walk.status == swept.status
        assert walk.iterations == swept.iterations
        np.testing.assert_array_equal(walk.x_best, swept.x_best)
        assert walk.f_best == swept.f_best
        assert [r.ub for r in walk.trace.records] == [r.ub for r in swept.trace.records]
        np.testing.assert_allclose([r.lb for r in walk.trace.records],
                                   [r.lb for r in swept.trace.records], rtol=0.0, atol=1e-12)


def random_row(rng, pts, whole_number):
    """A <=, >= or == constraint over the slice's points pts, with its
    right-hand side among or within the range of their left-hand sides, as
    the (coeffs, rhs) pairs of the <= rows that pose it: one for <= and >=,
    two for ==."""
    n = pts.shape[1]
    coeffs = rng.integers(-3, 4, size=n).astype(float) if whole_number else rng.standard_normal(n)
    lhs = pts @ coeffs
    sense = ("<=", ">=", "==")[int(rng.integers(3))]
    if sense == "==":
        rhs = float(lhs[rng.integers(len(lhs))])
        return [(coeffs, rhs), (-coeffs, -rhs)]
    share = rng.uniform(0.02, 0.5) if sense == "<=" else rng.uniform(0.5, 0.98)
    rhs = float(np.quantile(lhs, share))
    if whole_number:
        rhs = float(np.round(rhs))
    return [(coeffs, rhs)] if sense == "<=" else [(-coeffs, -rhs)]


@pytest.mark.parametrize("n, m", [(10, 4), (9, 8), (12, 6), (11, 2), (13, 10)])
@pytest.mark.parametrize("whole_number", [True, False])
def test_lagrangian_walk_matches_a_plain_scan(n, m, whole_number):
    """A query on cut rows that no state reads, on a slice of more than a
    block, answers from the level set of a Lagrangian relaxation where that
    can tell, and else scans; either way as a plain scan of the slice: with
    whole-number data the same first minimizer and value, with float data a
    value within 1e-12, and INFEASIBLE where no point meets the rows. The
    rows pose one to three random <=, >= and == constraints, or are the
    cut rows of an oracle of two cuts at a level of its cut model."""
    rng = np.random.default_rng(7 * n + m + whole_number)
    pts = slice_points(n, m)
    walked = 0
    for trial in range(24):
        cost = rng.integers(-5, 6, size=n).astype(float) if whole_number else rng.standard_normal(n)
        terms = random_row(rng, pts, whole_number) if trial % 3 == 1 else []
        if trial % 3 == 2:
            oracle = CutOracle(whole_number_cut(rng, n) for _ in range(2))
            theta = np.max([pts @ c.grad + c.intercept for c in oracle], axis=0)
            rows = CutRows(oracle, float(np.quantile(theta, rng.uniform(0.05, 0.5))))
        else:
            for _ in range(int(rng.integers(1, 3))):
                terms += random_row(rng, pts, whole_number)
            rows = rows_of([g for g, _ in terms], [b for _, b in terms])
        dom = FeasibleDomain(n=n, m=m)
        want = plain_scan(cost, dom, rows)
        found = []
        with (
            mock.patch.object(milp, "_BLOCK", len(pts) - 1),
            mock.patch.object(milp, "_lagrangian", recording(milp._lagrangian, found)),
        ):
            got = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
        assert len(found) == 1
        if want is None:
            assert found == [None]
            assert got.status.kind is StatusKind.INFEASIBLE
            continue
        assert got.ok
        if found[0] is not None:
            walked += 1
            # the answer folded over the relaxation's table
            folded = milp._first_minimum(found[0], np.vstack([cost, rows.coeffs]), rows.limit, n, m)
            assert folded[1] == got.objective
            np.testing.assert_array_equal(folded[0], got.x)
        assert got.objective == pytest.approx(want[1], abs=1e-12)
        assert got.x @ cost == pytest.approx(want[1], abs=1e-12)
        assert meets(rows, got.x)
        if whole_number:
            np.testing.assert_array_equal(got.x, want[0])
            assert got.objective == want[1]
    assert walked >= 5


def test_lagrangian_walk_falls_back_to_the_scan():
    """The relaxation cannot tell, and the query scans, where no point it
    probes meets every row, though some point does, and where the level set
    it walks holds more than a block; the answer is the plain scan's."""
    n, m = 10, 4
    pts = slice_points(n, m)
    cost = np.arange(n, dtype=float)
    # weighting the first row into the cost trades 3 and 2 for 4 and 5, then
    # 1 for 6, then 0 for 7: every point on that path that meets the first
    # row has both 4 and 5
    coeffs = [np.r_[np.ones(4), np.zeros(6)], np.r_[np.zeros(4), np.ones(2), np.zeros(4)]]
    rows = rows_of(coeffs, [2.0, 1.0])
    dom = FeasibleDomain(n=n, m=m)
    want = plain_scan(cost, dom, rows)
    np.testing.assert_array_equal(want[0].nonzero()[0], [0, 1, 4, 6])
    level_sets = []
    with (
        mock.patch.object(milp, "_BLOCK", len(pts) - 1),
        mock.patch.object(milp, "_level_set", recording(milp._level_set, level_sets)),
    ):
        assert milp._lagrangian(cost, rows, n, m) is None
        got = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
    assert level_sets == []  # no walk: no probed point meets both rows
    np.testing.assert_array_equal(got.x, want[0])
    assert got.objective == want[1]
    # one row, under a cost with ties: the probes meet it, and the walk of
    # its level set, which holds every tie, gives up at a cap one short
    cost = np.repeat([0.0, 1.0, 5.0], [4, 4, 2])
    rows = rows_of(coeffs[:1], [2.0])
    want = plain_scan(cost, dom, rows)
    level_sets = []
    with mock.patch.object(milp, "_level_set", recording(milp._level_set, level_sets)):
        with mock.patch.object(milp, "_BLOCK", len(pts) - 1):
            assert milp._lagrangian(cost, rows, n, m) is not None
        size = level_sets[0].shape[1]
        assert 1 < size < len(pts)
        level_sets.clear()
        with mock.patch.object(milp, "_BLOCK", size - 1):
            got = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
    assert level_sets == [None]
    np.testing.assert_array_equal(got.x, want[0])
    assert got.objective == want[1]


@pytest.mark.parametrize("config", ["pgm-tau", "pgm-tau-lb"])
def test_a_projection_onto_an_unwritten_theta_walks_a_lagrangian_level_set(config):
    """On the benchmark's n=30 m=6 diversity slice, the projections between
    a run's closed-form first lower bound and its second, onto the one cut's
    rows at ub - tau that theta cannot answer yet, walk the level set of a
    Lagrangian relaxation: no query or lower bound of the run scans or
    sweeps the slice. The run answers as one whose relaxation is forced to
    give up, which scans: the same status, iterations, incumbents and upper
    bounds, and lower bounds within rounding."""
    inst = synth_instance(30, 6, "mdp_like", 2)
    outs, tails = [], []
    for forced in (False, True):
        backend = BruteForceBackend()
        found = []
        relax = (lambda *args: None) if forced else milp._lagrangian
        with (
            mock.patch.object(milp, "_lagrangian", recording(relax, found)),
            mock.patch.object(milp, "_tail_sums", wraps=milp._tail_sums) as sums,
        ):
            outs.append(run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                            SolverConfig.from_name(config), backend))
        assert outs[-1].status.value == "eps_optimal"
        assert len(found) >= 1
        if not forced:
            assert all(f is not None for f in found)
        tails.append(sums.call_count)
    assert tails[0] == 0 and tails[1] > 0
    walk, forced = outs
    assert walk.status == forced.status
    assert walk.iterations == forced.iterations
    np.testing.assert_array_equal(walk.x_best, forced.x_best)
    assert walk.f_best == forced.f_best
    assert [r.ub for r in walk.trace.records] == [r.ub for r in forced.trace.records]
    np.testing.assert_allclose([r.lb for r in walk.trace.records],
                               [r.lb for r in forced.trace.records], rtol=0.0, atol=1e-12)


def test_a_slice_held_whole_answers_as_its_table():
    """Every configuration on the psd14 slice (n=14 m=4, 1,001 points), with
    blocks of 64 points, holds the slice whole and keeps most points for
    many lower bounds, and runs as it does on the one-block table: the same
    status, iterations, incumbents and upper bounds, and lower bounds within
    rounding. The walk at a lower bound's own minimum is forced to give up,
    so that those lower bounds sweep; a run where it may answer, which
    writes no theta, answers the same."""
    inst = synth_instance(14, 4, "psd_random", 1)
    for config in CONFIG_NAMES:
        outs = []
        for block, forced in ((milp._BLOCK, False), (64, True), (64, False)):
            backend = BruteForceBackend()
            descend = (lambda *args: np.inf) if forced else milp._descend
            sweep = []
            with (
                mock.patch.object(milp, "_BLOCK", block),
                mock.patch.object(milp, "_descend", descend),
                counting_sweeps(sweep),
            ):
                outs.append(run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                                SolverConfig.from_name(config), backend))
            if forced:
                assert len(sweep) >= 8  # lower bounds on the whole state
        table = outs[0]
        for whole in outs[1:]:
            assert whole.status == table.status
            assert whole.iterations == table.iterations
            np.testing.assert_array_equal(whole.x_best, table.x_best)
            assert whole.f_best == table.f_best
            assert [r.ub for r in whole.trace.records] == [r.ub for r in table.trace.records]
            np.testing.assert_allclose([r.lb for r in whole.trace.records],
                                       [r.lb for r in table.trace.records], rtol=0.0, atol=1e-12)


def test_one_table_per_slice_shape():
    """The five configurations on one n=12 m=4 slice, each with a new
    backend, build its table once: the table is built once per slice shape,
    read-only, and shared by the runs, which answer as before."""
    inst = synth_instance(12, 4, "nonconvex_random", 0)
    f_star, _ = enumerate_min(inst.obj.q, inst.dom)
    milp._slice_table.cache_clear()
    for config in CONFIG_NAMES:
        backend = AutoBackend()
        out = run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                  SolverConfig.from_name(config), backend)
        assert out.status.value == "eps_optimal"
        assert out.f_best == pytest.approx(f_star, abs=1e-9)
    assert milp._slice_table.cache_info().misses == 1
    table = milp._LevelSets(inst.dom, []).table
    with pytest.raises(ValueError):
        table[0, 0] = 0
    np.testing.assert_array_equal(decoded(table, 12), slice_points(12, 4))


def test_one_table_per_slice_shape_on_several_threads():
    """States built on several threads at once, from a cold cache, all hold
    the slice's table."""
    dom = FeasibleDomain(n=11, m=3)
    milp._slice_table.cache_clear()
    start = threading.Barrier(4, timeout=30.0)
    tables = []

    def build():
        start.wait()
        tables.append(milp._LevelSets(dom, []).table)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tables) == 4
    for table in tables:
        assert not table.flags.writeable
        np.testing.assert_array_equal(decoded(table, 11), slice_points(11, 3))


def test_one_set_of_walk_constants_per_slice_shape_on_several_threads():
    """Walks on several threads at once, from a cold cache, all read the same
    constants of their slice shape, read-only, and make the same table. On
    n=70, keys take two words, and coordinate c is bit 63 - c % 64 of word
    c // 64."""
    n, m = 70, 3
    g = np.random.default_rng(3).standard_normal(n)
    limit = float(np.sort(g)[:m].sum() + 1.0)
    milp._shape.cache_clear()
    start = threading.Barrier(4, timeout=30.0)
    shapes, tables = [], []

    def walk():
        start.wait()
        tables.append(milp._level_set(g, 0.0, limit, n, m))
        shapes.append(milp._shape(n, m))

    threads = [threading.Thread(target=walk) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(shapes) == len(tables) == 4
    coord = np.arange(n)
    i, j = np.triu_indices(n, 1)
    ends = np.arange(n) + np.arange(m, 0, -1)[:, None]
    for shape, table in zip(shapes, tables):
        arrays = (shape.within, shape.ends, shape.inside, shape.bits, *shape.pairs)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        within = [[comb(j + r, r + 1) for j in range(n + 1)] for r in range(m)]
        np.testing.assert_array_equal(shape.within, within)
        np.testing.assert_array_equal(shape.ends, np.minimum(ends, n))
        np.testing.assert_array_equal(shape.inside, ends <= n)
        assert shape.bits.dtype == np.uint64 and shape.bits.shape == (n, 2)
        bit = np.uint64(1) << (63 - coord % 64).astype(np.uint64)
        assert np.all(shape.bits[coord, coord // 64] == bit)
        assert np.count_nonzero(shape.bits) == n
        np.testing.assert_array_equal(shape.pairs[0], i)
        np.testing.assert_array_equal(shape.pairs[1], j)
        assert table.tobytes() == tables[0].tobytes() and table.shape[1] > 0
    for field in range(len(shapes[0])):
        for shape in shapes[1:]:
            np.testing.assert_array_equal(shape[field], shapes[0][field])


def test_one_dispatch_per_run():
    """A run asks the default backend for the backend of its domain once, and
    sends every lower bound, projection and feasibility check there."""
    inst = synth_instance(12, 4, "nonconvex_random", 0)
    backend = AutoBackend()
    x0 = default_x0(inst.dom, backend)
    with mock.patch.object(
        AutoBackend, "for_domain", autospec=True, side_effect=AutoBackend.for_domain
    ) as dispatch:
        out = run(inst.obj, inst.dom, x0, SolverConfig.from_name("pgm-tau-lb"), backend)
    assert out.status.value == "eps_optimal"
    assert out.iterations > 1 and out.local_steps > 0
    assert dispatch.call_count == 1


def test_a_slice_of_one_block_starts_as_its_table():
    """A slice of at most _BLOCK points is held as its packed table from the
    start: every configuration on an n=12 m=4 slice (495 points) runs with
    no tail sum, and drops its dead points by a mask. A slice of several
    blocks, n=30 m=6, starts whole: its first lower bound of one cut is the
    cut's m cheapest coordinates, which read no tail sum and write no
    theta; a lower bound of two cuts and no ub is then answered by the walk
    of the level set at its own minimum, which reads no tail sum and writes
    no theta either. With that walk forced to give up, the lower bound
    sweeps, and sums each of the two cuts by tails."""
    inst = synth_instance(12, 4, "nonconvex_random", 0)
    for config in CONFIG_NAMES:
        backend = BruteForceBackend()
        with mock.patch.object(milp, "_tail_sums", wraps=milp._tail_sums) as tails:
            out = run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                      SolverConfig.from_name(config), backend)
        assert out.status.value == "eps_optimal"
        assert tails.call_count == 0
        assert backend._sets.table is not None
        assert_whole_or_one_table(backend._sets, comb(12, 4))
        assert len(backend._sets.theta) < comb(12, 4)  # the run dropped points
    inst = synth_instance(30, 6, "mdp_like", 0)
    backend = BruteForceBackend()
    cut = make_cut(inst.obj, default_x0(inst.dom, backend))
    oracle = CutOracle([cut])
    with mock.patch.object(milp, "_tail_sums", wraps=milp._tail_sums) as tails:
        first = backend.solve_cp(oracle, inst.dom, 30.0)
        assert tails.call_count == 0
        assert backend._sets.table is None and backend._sets.n_cuts == 0
        oracle.add(make_cut(inst.obj, first.x))
        second = backend.solve_cp(oracle, inst.dom, 30.0)
        assert second.ok
        assert tails.call_count == 0
        assert backend._sets.table is None and backend._sets.n_cuts == 0
        with mock.patch.object(milp, "_descend", return_value=np.inf):
            swept = backend.solve_cp(oracle, inst.dom, 30.0)
    assert tails.call_count == 2
    assert backend._sets.table is None and len(backend._sets.theta) == comb(30, 6)
    np.testing.assert_array_equal(swept.x, second.x)
    assert swept.objective == pytest.approx(second.objective, abs=1e-12)
    np.testing.assert_array_equal(first.x.nonzero()[0], np.sort(cut.grad.argsort()[:6]))
    assert first.objective == pytest.approx(cut.grad @ first.x + cut.intercept, abs=1e-12)


def test_first_compaction_stays_within_the_state_budget():
    """A lower bound, a level-set query, a lower bound under ub and a
    level-set query after it peak within the (ceil(n/8) + 8) bytes per point
    that enumerable() admits: theta and a table of at most one block of
    survivors, never a table of the whole slice or a copy of a level set
    beside them. The first lower bound has two cuts, so that it sweeps.
    Under a ub that keeps about 86 % of a multi-block slice, the state stays
    whole, its dead points held; under one that keeps 0.2 %, fewer than a
    block, it becomes the table of the survivors, unranked from their
    ranks. A run whose first lower bound has one
    cut, and whose second one, under a ub that keeps 0.2 % of the slice,
    walks the first cut's level set into its table instead, sweeps nothing
    and stays within the same bytes; its second cut is the first one less
    1, so that the survivors are that level set."""
    n, m = 28, 5
    dom = FeasibleDomain(n=n, m=m)
    size = comb(n, m)
    obj = random_psd_objective(np.random.default_rng(3), n)
    cut = make_cut(obj, default_x0(dom))
    other = make_cut(obj, np.r_[np.zeros(n - m), np.ones(m)])
    below = Cut(anchor=other.anchor, grad=cut.grad,
                value=cut.intercept - 1.0 + cut.grad @ other.anchor)
    whole = BruteForceBackend()
    whole.solve_cp([cut, other], dom, 30.0)  # theta of two cuts, by a sweep
    for share in (0.86, 0.002, "walk"):
        second = below if share == "walk" else other
        if share == "walk":
            whole.solve_cp([cut, below], dom, 30.0)
        theta = whole._sets.theta
        ub = float(np.quantile(theta, 0.002 if share == "walk" else share))
        backend = BruteForceBackend()
        oracle = CutOracle([cut] if share == "walk" else [cut, second])
        sweep = []
        with mock.patch.object(milp, "_BLOCK", 256), counting_sweeps(sweep):
            tracemalloc.start()
            try:
                backend.solve_cp(oracle, dom, 30.0)
                level = CutRows(oracle, ub)
                assert backend._solve_linear(np.linspace(-1.0, 1.0, n), dom, level, 30.0).ok
                if share == "walk":
                    oracle.add(second)
                    level = CutRows(oracle, ub)
                backend.solve_cp(oracle, dom, 30.0, ub=ub)
                assert backend._solve_linear(np.linspace(1.0, -1.0, n), dom, level, 30.0).ok
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert_whole_or_one_table(backend._sets, size)
        kept = np.count_nonzero(theta <= ub + FEAS_TOL)
        if share == 0.86:
            assert backend._sets.table is None
        else:
            assert backend._sets.table.shape[1] == kept <= 256
        assert len(sweep) == (0 if share == "walk" else 2)
        assert peak <= ((n + 7) // 8 + 8) * size + 64_000


def test_a_query_the_state_cannot_read_stays_within_the_state_budget():
    """A projection under rows that are no level set of the held state, here
    a plain row, beside a held n=28 m=5 state, peaks within the bytes that
    enumerable() admits, and makes no theta of the slice: it walks the level
    set of the row's Lagrangian relaxation, at most a block, or, with that
    walk made to give up, checks the row block by block, by tail sums taken
    in step with the cost's. It is asked after the first lower bound, of two
    cuts, so that it sweeps, and again after a lower bound under a ub that
    keeps about 86 % of the slice, where the state stays whole, at 8 bytes a
    point."""
    n, m = 28, 5
    dom = FeasibleDomain(n=n, m=m)
    size = comb(n, m)
    rng = np.random.default_rng(4)
    obj = random_psd_objective(rng, n)
    cut = make_cut(obj, default_x0(dom))
    other = make_cut(obj, np.r_[np.zeros(n - m), np.ones(m)])
    coeffs = rng.uniform(-1.0, 1.0, size=n)
    rows = rows_of([coeffs], [-0.5])
    cost = rng.uniform(-1.0, 1.0, size=n)
    # the answer of a plain scan, over the points that satisfy the row
    pts = slice_points(n, m)
    feasible = pts @ coeffs <= -0.5 + FEAS_TOL
    want = np.where(feasible, pts @ cost, np.inf).min()
    backend = BruteForceBackend()
    oracle = CutOracle([cut, other])
    with mock.patch.object(milp, "_BLOCK", 256):
        for share in (None, 0.86):
            if share is None:
                backend.solve_cp(oracle, dom, 30.0)
            else:
                ub = float(np.quantile(backend._sets.theta, share))
                backend.solve_cp(oracle, dom, 30.0, ub=ub)
                assert backend._sets.ub == ub
            for walk in (True, False):
                walked = []
                level_set = milp._level_set if walk else (lambda *args: None)
                with mock.patch.object(milp, "_level_set", recording(level_set, walked)):
                    tracemalloc.start()
                    try:
                        got = backend._solve_linear(cost, dom, rows, 30.0)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                assert len(walked) == 1 and (walked[0] is not None) == walk
                assert backend._sets.table is None and len(backend._sets.theta) == size
                assert peak + backend._sets.theta.nbytes <= ((n + 7) // 8 + 8) * size + 64_000
                assert got.ok
                assert got.objective == pytest.approx(want, abs=1e-12)
                assert meets(rows, got.x)
                assert got.x @ cost == pytest.approx(want, abs=1e-12)


def test_tables_of_slices_with_m_close_to_n_stay_within_the_state_budget():
    """Where m is close to n, the middle levels of a table of all subsets
    would be far larger than the slice; the tables are built from the slice's
    tails, no larger than it. An n=40 m=39 slice, 40 points, starts as its
    table, and an n=40 m=36 slice, 91,390 points, becomes the table of the
    survivors of a lower bound under a ub that keeps 0.2 % of it, unranked
    beside theta; each peaks within the (ceil(n/8) + 8) bytes per point
    that enumerable() admits, and each table holds, column for column, the
    points _point decodes from its ranks."""
    n = 40
    milp._slice_table.cache_clear()
    tracemalloc.start()
    try:
        table = milp._LevelSets(FeasibleDomain(n=n, m=39), []).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ((n + 7) // 8 + 8) * n + 64_000
    np.testing.assert_array_equal(decoded(table, n), [milp._point(r, n, 39) for r in range(n)])

    m = 36
    dom = FeasibleDomain(n=n, m=m)
    size = comb(n, m)
    assert size > milp._BLOCK and milp.enumerable(n, m)
    obj = random_psd_objective(np.random.default_rng(5), n)
    oracle = CutOracle([make_cut(obj, default_x0(dom)),
                        make_cut(obj, np.r_[np.zeros(n - m), np.ones(m)])])
    backend = BruteForceBackend()
    backend.solve_cp(oracle, dom, 30.0)  # theta of two cuts, by a sweep
    theta = backend._sets.theta
    ub = float(np.quantile(theta, 0.002))
    tracemalloc.start()
    try:
        backend.solve_cp(oracle, dom, 30.0, ub=ub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak + theta.nbytes <= ((n + 7) // 8 + 8) * size + 64_000
    kept = np.flatnonzero(theta <= ub + FEAS_TOL)
    assert backend._sets.table.shape[1] == len(kept) > 0
    np.testing.assert_array_equal(decoded(backend._sets.table, n),
                                  [milp._point(int(r), n, m) for r in kept])


@pytest.mark.parametrize("n, m", [(40, 36), (30, 25)])
def test_tail_sums_of_slices_with_m_close_to_n_hold_one_level(n, m):
    """Where m is close to n, a feed of tail sums holds one level of sums,
    C(n - 1, m - 1) values built in place, beside its block buffer: under
    tracemalloc it peaks within those bytes, and the sums, given in blocks
    in rank order, are <v, x> + base at the points _point decodes from their
    ranks."""
    size = comb(n, m)
    assert size > milp._BLOCK and milp.enumerable(n, m)
    rng = np.random.default_rng(n + m)
    v = rng.standard_normal(n)
    ranks = np.sort(np.r_[0, rng.choice(size, 200, replace=False), size - 1])
    starts, got = [], []
    tracemalloc.start()
    try:
        for start, sums in milp._tail_sums(v, n, m, 0.5):
            starts.append(start)
            inside = ranks[(ranks >= start) & (ranks < start + len(sums))]
            got.append(sums[inside - start])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts == list(range(0, size, milp._BLOCK))
    assert peak <= 8 * (comb(n - 1, m - 1) + milp._BLOCK) + 64_000
    want = [v @ milp._point(int(r), n, m) + 0.5 for r in ranks]
    np.testing.assert_allclose(np.concatenate(got), want, rtol=0.0, atol=1e-12)


def whole_number_cut(rng, n):
    """A cut with whole-number data: theta is exact at every point, and equal
    values, so ties across blocks, are common."""
    return Cut(
        anchor=rng.integers(0, 2, size=n).astype(float),
        grad=rng.integers(-3, 4, size=n).astype(float),
        value=float(rng.integers(-3, 4)),
    )


def level_keeping(values, share):
    """The largest of values whose level set holds at most share of them;
    None when even the least one is too many."""
    ordered = np.sort(values)
    distinct = np.unique(ordered[np.isfinite(ordered)])
    held = np.searchsorted(ordered, distinct, side="right")
    fit = distinct[held <= share * len(values)]
    return float(fit[-1]) if len(fit) else None


@pytest.mark.parametrize("keep", ["few", "many", "above"])
@pytest.mark.parametrize("two_first_cuts", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_lower_bound_sweep_matches_a_plain_scan(keep, two_first_cuts, seed):
    """After every lower bound, theta, the first minimizer, whether the state
    is whole and its table are those of a plain scan over the slice, with
    blocks of 7 points and whole-number cuts, whose theta ties across
    blocks. keep picks ub: a level keeping fewer than 1/32 of the points, at
    most a block, from the first ub on (the whole state becomes their table
    at once); half of them first (the state stays whole, its dead points
    held) and fewer than 1/32 after that; or one below the least theta,
    where nothing is dropped though every point is above ub. A table drops
    its dead points by a mask once they are an eighth of it. A first lower
    bound of one cut is that cut's cheapest point, and writes no theta; with
    two_first_cuts the first lower bound has two, and sweeps. No walk of a
    level set fits, so that the next lower bound sweeps."""
    rng = np.random.default_rng(seed)
    n, m = 10, 4
    pts = slice_points(n, m)
    dom = FeasibleDomain(n=n, m=m)
    backend = BruteForceBackend()
    oracle = CutOracle()
    held = np.arange(len(pts))  # the plain scan's held points, as ranks
    compacted = None  # the step whose lower bound made the whole state a table
    ub = None
    with mock.patch.object(milp, "_BLOCK", 7), mock.patch.object(milp, "_walk", return_value=None):
        for step in range(6):
            for _ in range(2 if step == 0 and two_first_cuts else int(rng.integers(1, 3))):
                oracle.add(whole_number_cut(rng, n))
            theta = np.max([pts @ c.grad + c.intercept for c in oracle], axis=0)
            live = theta[held]
            if step > 0:
                if keep == "above":
                    level = float(live.min()) - 1.0
                else:
                    level = level_keeping(live, 0.5 if keep == "many" and step == 1 else 1 / 32)
                ub = min(x for x in (ub, level) if x is not None)
            res = backend.solve_cp(oracle, dom, 30.0, ub=ub)
            i = int(np.argmin(live))
            assert res.objective == live[i]
            np.testing.assert_array_equal(res.x, pts[held[i]])
            if ub is not None and live[i] <= ub + FEAS_TOL:
                alive = live <= ub + FEAS_TOL
                if compacted is None:
                    if np.count_nonzero(alive) <= 7:
                        compacted = step
                        held = held[alive]
                elif 8 * np.count_nonzero(~alive) >= len(live):
                    held = held[alive]
            sets = backend._sets
            assert_whole_or_one_table(sets, len(pts))
            closed = step == 0 and len(oracle) == 1
            assert (sets.n_cuts == 0) == closed
            if not closed:
                np.testing.assert_array_equal(sets.theta, theta[held])
            if compacted is None:
                assert sets.table is None
            else:
                np.testing.assert_array_equal(decoded(sets.table, n), pts[held])
            if keep == "many" and step == 1:
                # half the slice is dead, and held
                assert sets.table is None and 2 * np.count_nonzero(live > ub) >= len(live)
    if keep == "above":
        assert compacted is None
        assert len(sets.theta) == len(pts) and ub < sets.theta.min()
    else:
        assert compacted == (2 if keep == "many" else 1)


@pytest.mark.parametrize("form, block", [("table", 256), ("whole", 64), ("whole", 200)])
@pytest.mark.parametrize("seed", range(3))
def test_one_compaction_rule_on_both_forms(form, block, seed):
    """A lower bound under ub whose survivors, the points with theta <= ub +
    FEAS_TOL, number at most _BLOCK and at most 7/8 of the held points makes
    the state the table of exactly those points; under any other ub the
    state stays as it was, dead points and all. The n=10 m=4 slice (210
    points) is one table with blocks of 256, and whole with blocks of 64 or
    of 200, the latter fewer than 8/7 of the slice, so that survivors that
    fit one block may still be more than 7/8 of it. Each ub keeps one more
    point than 7/8 of those held ("stay"), one more than a block where that
    is fewer ("over"), as many as the rule takes ("compact"), or none, below
    the minimum ("below"). Every lower bound and every query at levels up to
    ub matches a plain scan. No walk of a level set fits, so that every
    lower bound folds over the state."""
    rng = np.random.default_rng(seed)
    n, m = 10, 4
    pts = slice_points(n, m)
    dom = FeasibleDomain(n=n, m=m)
    obj = random_psd_objective(rng, n)
    backend = BruteForceBackend()
    oracle = CutOracle()
    held = np.arange(len(pts))  # the plain scan's held points, as ranks
    ub = None
    outcomes = set()  # (form, compacted, fits a block, at most 7/8 of those held)
    with (
        mock.patch.object(milp, "_BLOCK", block),
        mock.patch.object(milp, "_walk", return_value=None),
    ):
        for target in [None, "stay", "over", "compact", "stay", "compact", "stay", "compact",
                       "below"]:
            # a new cut before a compaction only: with none before a stay,
            # every held point is still within the last ub, so the next ub
            # can keep one more than 7/8 of them
            wanted = 2 if target is None else len(oracle) + (target == "compact")
            while len(oracle) < wanted:
                oracle.add(make_cut(obj, pts[int(rng.integers(len(pts)))]))
            theta = np.max([pts @ c.grad + c.intercept for c in oracle], axis=0)
            live = theta[held]
            most = 7 * len(live) // 8
            if target == "below":
                ub = float(live.min()) - 1.0
            elif target is not None:
                keep = {"stay": most + 1, "over": min(most, block + 1)}.get(target, min(most, block))
                ub = min(x for x in (ub, float(np.sort(live)[keep - 1])) if x is not None)
            before = backend._sets.table if backend._sets else None
            res = backend.solve_cp(oracle, dom, 30.0, ub=ub)
            i = int(np.argmin(live))
            np.testing.assert_array_equal(res.x, pts[held[i]])
            assert res.objective == pytest.approx(live[i], abs=1e-12)
            if target is not None:
                alive = live <= ub + FEAS_TOL
                count = np.count_nonzero(alive)
                fits, few = bool(count <= block), bool(count <= most)
                compacts = bool(alive[i]) and fits and few
                whole = form == "whole" and len(live) == len(pts)
                outcomes.add(("whole" if whole else "table", compacts, fits, few))
                if compacts:
                    held = held[alive]
                else:
                    assert backend._sets.table is before
            sets = backend._sets
            assert_whole_or_one_table(sets, len(pts))
            np.testing.assert_allclose(sets.theta, theta[held], rtol=0.0, atol=1e-12)
            if sets.table is None:
                assert form == "whole" and len(held) == len(pts)
            else:
                np.testing.assert_array_equal(decoded(sets.table, n), pts[held])
            for level in [] if ub is None else [ub, 0.5 * (ub + res.objective)]:
                rows = CutRows(oracle, level)
                for cost in (1.0 - 2.0 * rng.uniform(-1.0, 2.0, size=n),
                             rng.integers(-1, 2, size=n).astype(float)):
                    got = backend._solve_linear(cost, dom, rows, 30.0)
                    want = plain_scan(cost, dom, rows)
                    assert got.ok == (want is not None)
                    if want is not None:
                        np.testing.assert_array_equal(got.x, want[0])
                        assert got.objective == pytest.approx(want[1], abs=1e-12)
    # each arm of the rule is taken on the form the state starts in, and
    # on the table it makes
    start = "whole" if form == "whole" else "table"
    assert (start, True, True, True) in outcomes
    if block == 64:
        assert ("whole", False, False, True) in outcomes  # past a block alone
    else:
        assert (start, False, True, False) in outcomes  # past 7/8 alone
    assert ("table", True, True, True) in outcomes
    assert ("table", False, True, False) in outcomes
    assert ("table", False, True, True) in outcomes  # the minimum above ub


def cp_answer_at(n, m, theta):
    """A milp result for a cp model on n binaries: the first m chosen, and theta."""
    x = np.zeros(n + 1)
    x[:m] = 1.0
    x[n] = theta
    return SimpleNamespace(status=0, message="scripted", x=x, fun=theta, mip_dual_bound=theta)


def scipy_milp(monkeypatch, *answers):
    """A ScriptedMilp in place of scipy.optimize.milp, which a HighsBackend
    binds when it is constructed, and the default backend choice restored."""
    import scipy.optimize

    stub = ScriptedMilp(*answers)
    monkeypatch.setattr(scipy.optimize, "milp", stub)
    monkeypatch.delenv("GRADCUT_BACKEND", raising=False)
    return stub


class TestAutoBackend:
    @pytest.mark.parametrize(
        "n, m, chosen",
        [
            # points x (packed row + float64 cut value) bytes
            (12, 4, BruteForceBackend),  # nonconvex12: 495 x (2 + 8)
            (14, 4, BruteForceBackend),  # psd14: 1001 x (2 + 8)
            (30, 6, BruteForceBackend),  # mdp30: 593,775 x (4 + 8) = 7.1 MB
            (30, 7, HighsBackend),  # 2,035,800 x (4 + 8) = 24.4 MB
            (447, 2, BruteForceBackend),  # 99,681 x (56 + 8) = 6.4 MB
            (700, 2, HighsBackend),  # 244,650 x (88 + 8) = 23.5 MB
        ],
    )
    def test_choice_counts_table_entries(self, n, m, chosen):
        assert type(AutoBackend().for_domain(FeasibleDomain(n=n, m=m))) is chosen

    def test_cutoff_is_inclusive(self, monkeypatch):
        dom = FeasibleDomain(n=8, m=3)  # 56 points x (1 + 8) bytes = 504
        monkeypatch.setattr(milp, "ENUM_STATE_BYTES", 504)
        assert isinstance(AutoBackend().for_domain(dom), BruteForceBackend)
        monkeypatch.setattr(milp, "ENUM_STATE_BYTES", 503)
        assert isinstance(AutoBackend().for_domain(dom), HighsBackend)

    def test_highs_built_once_and_only_when_needed(self):
        backend = AutoBackend()
        backend.for_domain(FeasibleDomain(n=5, m=2))
        assert backend._highs is None
        big = FeasibleDomain(n=30, m=7)
        assert backend.for_domain(big) is backend.for_domain(big)

    def test_small_slice_never_reaches_highs(self, monkeypatch):
        stub = scipy_milp(monkeypatch)  # no answers: a call would fail
        inst = synth_instance(8, 3, "nonconvex_random", 0)
        f_star, _ = enumerate_min(inst.obj.q, inst.dom)
        for config in CONFIG_NAMES:
            backend = make_backend("auto")
            out = run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                      SolverConfig.from_name(config), backend)
            assert out.status.value == "eps_optimal"
            assert out.f_best == pytest.approx(f_star, abs=1e-9)
        # a row that cuts off the cardinality-only optimum puts a projection
        # past that shortcut
        rows = rows_of([np.array([1.0, 1.0] + [0.0] * 6)], [1.0])
        z = np.array([1.0, 0.9, 0.8] + [0.0] * 5)
        res = project(z, inst.dom, rows, 30.0, make_backend("auto"))
        np.testing.assert_array_equal(res.x, [1.0, 0.0, 1.0, 1.0] + [0.0] * 4)
        assert stub.options == []

    def test_large_slice_reaches_highs(self, monkeypatch):
        stub = scipy_milp(monkeypatch, cp_answer_at(30, 7, -2.5))
        dom = FeasibleDomain(n=30, m=7)
        obj = QuadraticObjective(np.eye(30))
        oracle = CutOracle()
        oracle.add(make_cut(obj, default_x0(dom)))
        res = solve_cp_model(oracle, dom, 30.0, make_backend("auto"))
        assert res.objective == -2.5
        assert len(stub.options) == 1
