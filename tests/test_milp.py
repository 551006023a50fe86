import itertools
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcut import milp
from gradcut.bench import default_x0, synth_instance
from gradcut.cli import make_backend
from gradcut.engine import CONFIG_NAMES, SolverConfig, build_cut_constraints, run
from gradcut.milp import (
    AutoBackend,
    BruteForceBackend,
    HighsBackend,
    MilpResult,
    MilpSolveError,
    MilpStatus,
    StatusKind,
    check_nonempty,
    project,
    solve_cp_model,
)
from gradcut.model import (
    FEAS_TOL,
    CutOracle,
    CutRows,
    FeasibleDomain,
    LinearRow,
    QuadraticObjective,
    make_cut,
)

from conftest import Q_DIAG, Q_FULL, e, enumerate_min, feasible_points, random_psd_objective


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
        res = project(np.array([0.9, 0.3, -0.1]), dom, [], 30.0, backend)
        np.testing.assert_allclose(res.x, e(0), atol=1e-9)

    def test_member_point_attains_optimum(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        res = project(e(1), dom, [], 30.0, backend)
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_cut_row_excludes_nearest(self, backend):
        # row 4 x2 <= 3.9 knocks out e2; remaining vertices tie at score 1
        dom = FeasibleDomain(n=3, m=1)
        row = LinearRow(np.array([0.0, 4.0, 0.0]), "<=", 3.9)
        res = project(np.array([0.0, 0.9, 0.0]), dom, [row], 30.0, backend)
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[1] == 0.0

    def test_infeasible_rows_reported(self, backend):
        dom = FeasibleDomain(n=3, m=1)
        row = LinearRow(np.ones(3), "<=", -1.0)
        res = project(np.zeros(3), dom, [row], 30.0, backend)
        assert res.status.kind is StatusKind.INFEASIBLE

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_true_euclidean_projection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        dom = FeasibleDomain(n=n, m=m)
        z = rng.uniform(-2.0, 2.0, size=n)
        res = project(z, dom, [], 30.0, BruteForceBackend())
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
        assert check_nonempty(FeasibleDomain(n=3, m=1), [], 30.0, backend) is True

    def test_exhausted_budget_is_conservative(self, backend):
        assert check_nonempty(FeasibleDomain(n=3, m=1), [], 0.0, backend) is False


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_linear_models(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, n))
    dom = FeasibleDomain(n=n, m=m)
    cost = rng.uniform(-1.0, 1.0, size=n)
    # the solvers themselves: solve_linear would settle a rowless model by sorting
    res_bf = BruteForceBackend()._solve_linear(cost, dom, [], 30.0)
    res_hs = HighsBackend()._solve_linear(cost, dom, [], 30.0)
    assert res_bf.ok and res_hs.ok
    assert res_bf.objective == pytest.approx(res_hs.objective, abs=1e-7)


def test_extra_domain_rows_respected(backend):
    # forbid the first coordinate entirely
    row = LinearRow(np.array([1.0, 0.0, 0.0]), "<=", 0.0)
    dom = FeasibleDomain(n=3, m=1, extra_rows=(row,))
    res = project(np.array([0.9, 0.3, -0.1]), dom, [], 30.0, backend)
    np.testing.assert_allclose(res.x, e(1), atol=1e-9)


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
        res = project(np.array([0.9, 0.3, -0.1]), FeasibleDomain(n=3, m=1), [], 30.0, backend)
        assert res.ok
        np.testing.assert_allclose(res.x, e(0))
        assert res.objective == pytest.approx(-0.8, abs=1e-12)
        assert backend.solves == 0

    def test_solver_runs_when_a_row_cuts_them_off(self):
        backend = CountingBackend()
        row = LinearRow(e(0), "<=", 0.0)
        res = project(np.array([0.9, 0.3, -0.1]), FeasibleDomain(n=3, m=1), [row], 30.0, backend)
        np.testing.assert_allclose(res.x, e(1))
        assert backend.solves == 1

    def test_domain_rows_count_too(self):
        backend = CountingBackend()
        dom = FeasibleDomain(n=3, m=1, extra_rows=(LinearRow(e(0), "<=", 0.0),))
        res = project(np.array([0.9, 0.3, -0.1]), dom, [], 30.0, backend)
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
        rows = [
            LinearRow(rng.uniform(-1.0, 1.0, size=n), "<=", float(rng.uniform(-0.5, 1.0)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        got = BruteForceBackend().solve_linear(cost, dom, rows, 30.0)
        want = BruteForceBackend()._solve_linear(cost, dom, rows, 30.0)
        assert got.status.kind is want.status.kind
        if want.ok:
            assert got.objective == pytest.approx(want.objective, abs=1e-12)
            assert all(row.satisfied_by(got.x) for row in rows)


class ScriptedMilp:
    """Stands in for scipy.optimize.milp: replays scripted answers in order and
    records the options and the constraints of every call."""

    def __init__(self, *answers, delay=0.0):
        self.answers = list(answers)
        self.options = []
        self.constraints = []
        self.delay = delay

    def __call__(self, c, constraints, integrality, bounds, options):
        self.options.append(dict(options))
        self.constraints.append(constraints)
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


def scripted_highs(monkeypatch, *answers, delay=0.0):
    backend = HighsBackend()
    stub = ScriptedMilp(*answers, delay=delay)
    monkeypatch.setattr(backend, "_milp", stub)
    return backend, stub


class TestHighsRetryLadder:
    # three cuts on Q_DIAG: the model optimum is theta = 1 at e(0), and the cut
    # model at the incumbent e(0) is f(e(0)) = 1, the upper limit
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
            monkeypatch,
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
            cp_answer(4, 0.999999, message=SOLVE_ERROR),
        )
        # 1 cardinality row + 3 cut rows; 3 binaries + theta
        with pytest.raises(MilpSolveError, match=r"cp solve failed \(4 rows x 4 cols\)") as info:
            solve_cp_model(self.oracle, self.dom, 30.0, backend)
        assert SOLVE_ERROR in str(info.value)
        assert (info.value.kind, info.value.n_rows, info.value.n_cols) == ("cp", 4, 4)
        assert len(stub.options) == 2

    def test_linear_solve_error_named_linear(self, monkeypatch):
        err = SimpleNamespace(status=4, message=SOLVE_ERROR, x=None, fun=None, mip_dual_bound=None)
        backend, stub = scripted_highs(monkeypatch, err, err)
        # the row cuts off the cardinality-only optimum e0, so HiGHS must run
        row = LinearRow(e(0), "<=", 0.0)
        with pytest.raises(MilpSolveError, match=r"linear solve failed \(2 rows x 3 cols\)"):
            project(np.zeros(3), self.dom, [row], 30.0, backend)
        assert [o["presolve"] for o in stub.options] == [True, False]

    def test_bound_above_limit_retried_once_without_presolve(self, monkeypatch):
        backend, stub = scripted_highs(monkeypatch, cp_answer(0, 1.5), cp_answer(0, 1.0))
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, incumbent=e(0))
        assert res.ok
        assert res.bound == 1.0
        assert [o["presolve"] for o in stub.options] == [True, False]

    def test_repeated_impossible_bound_raises(self, monkeypatch):
        backend, stub = scripted_highs(monkeypatch, cp_answer(0, 1.5), cp_answer(0, 1.25))
        with pytest.raises(MilpSolveError, match="exceeds the upper limit"):
            solve_cp_model(self.oracle, self.dom, 30.0, backend, incumbent=e(0))
        assert len(stub.options) == 2

    def test_dual_bound_checked_not_only_theta(self, monkeypatch):
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(0, 1.0, dual=1.5), cp_answer(0, 1.0)
        )
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, incumbent=e(0))
        assert res.bound == 1.0
        assert len(stub.options) == 2

    def test_rounding_above_limit_accepted_without_retry(self, monkeypatch):
        backend, stub = scripted_highs(monkeypatch, cp_answer(0, 1.0 + 1e-13))
        res = solve_cp_model(self.oracle, self.dom, 30.0, backend, incumbent=e(0))
        assert res.ok
        assert len(stub.options) == 1

    def test_spent_budget_gives_bound_free_timeout(self, monkeypatch):
        # the failed first attempt uses up the whole budget: no re-solve, and
        # no bound from the unusable answer leaks out
        backend, stub = scripted_highs(
            monkeypatch, cp_answer(4, 0.999999, message=SOLVE_ERROR), delay=0.05
        )
        res = solve_cp_model(self.oracle, self.dom, 0.01, backend)
        assert res.status.kind is StatusKind.TIME_LIMIT
        assert res.bound is None
        assert len(stub.options) == 1


def rows_one_by_one(dom, rows, n_cols):
    """The (A, lo, hi) of the cardinality row, the domain's rows and rows, one
    row at a time: the block a HiGHS model is built from."""
    a, lo, hi = [np.r_[np.ones(dom.n), np.zeros(n_cols - dom.n)]], [dom.m], [dom.m]
    for coeffs, sense, rhs in rows:
        a.append(np.r_[coeffs, np.zeros(n_cols - dom.n)])
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    return np.array(a), np.array(lo), np.array(hi)


def cuts_on_six():
    obj = random_psd_objective(np.random.default_rng(4), 6)
    return [make_cut(obj, x) for x in feasible_points(FeasibleDomain(n=6, m=2))[3:9]]


class TestHighsInputFromTheStack:
    """The model HiGHS is handed, built from the oracle's stack, equals the one
    written out cut by cut."""

    dom = FeasibleDomain(
        n=6,
        m=2,
        extra_rows=(
            LinearRow(np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), "<=", 1.0),
            LinearRow(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]), ">=", 0.0),
        ),
    )
    cuts = cuts_on_six()
    domain_terms = [(r.coeffs, r.sense, r.rhs) for r in dom.extra_rows]

    @staticmethod
    def handed(stub):
        (constraint,) = stub.constraints[-1]
        return constraint.A, constraint.lb, constraint.ub

    def want_cp(self, cuts):
        a, lo, hi = rows_one_by_one(self.dom, self.domain_terms, 7)
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
        terms = self.domain_terms + [
            (c.grad, "<=", level - c.value + float(c.grad @ c.anchor)) for c in self.cuts
        ]
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
    def solve_linear(self, cost, dom, rows, budget):
        return MilpResult(status=MilpStatus(StatusKind.ERROR, "scripted failure"))


def test_check_nonempty_raises_on_any_backend_error():
    dom = FeasibleDomain(n=3, m=1)
    rows = build_cut_constraints(oracle_at(Q_DIAG, [e(1)]), ub=2.0, tau=0.1)
    with pytest.raises(MilpSolveError, match=r"linear solve failed \(2 rows x 3 cols\): scripted"):
        check_nonempty(dom, rows, 30.0, ErroringBackend())


def test_check_nonempty_witness_settles_without_a_solve():
    dom = FeasibleDomain(n=3, m=1)
    # the single row 4 x1 <= 3.9 admits e0 and cuts off e1
    rows = build_cut_constraints(oracle_at(Q_DIAG, [e(1)]), ub=2.0, tau=0.1)
    assert check_nonempty(dom, rows, 30.0, ErroringBackend(), witness=e(0)) is True
    with pytest.raises(MilpSolveError):
        check_nonempty(dom, rows, 30.0, ErroringBackend(), witness=e(1))


def test_bruteforce_ignores_the_upper_limit():
    oracle = oracle_at(Q_DIAG, [e(0), e(1), e(2)])
    res = BruteForceBackend().solve_cp(list(oracle), FeasibleDomain(n=3, m=1), 30.0, -10.0)
    assert res.ok
    assert res.bound == pytest.approx(1.0, abs=1e-12)


def decoded(table, n):
    """The points of an enumerator table, one packed bit row per column, as
    rows of 0/1."""
    return np.unpackbits(table.T, axis=1, count=n).astype(float)


class TestPointTable:
    @pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (6, 3), (8, 4), (9, 8), (17, 3)])
    def test_matches_itertools_in_lexicographic_order(self, n, m):
        want = np.zeros((len(list(itertools.combinations(range(n), m))), n))
        for i, idx in enumerate(itertools.combinations(range(n), m)):
            want[i, list(idx)] = 1.0
        table = milp._packed_table(FeasibleDomain(n=n, m=m))
        assert table.dtype == np.uint8
        assert table.shape == ((n + 7) // 8, len(want))
        np.testing.assert_array_equal(decoded(table, n), want)

    def test_extra_rows_filter_in_order(self):
        row = LinearRow(np.array([1.0, 1.0, 0.0, 0.0, 0.0]), "<=", 1.0)
        dom = FeasibleDomain(n=5, m=2, extra_rows=(row,))
        np.testing.assert_array_equal(
            decoded(milp._packed_table(dom), 5), np.array(feasible_points(dom))
        )


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
            kept = {tuple(p): t for p, t in zip(decoded(held.table, n), held.theta)}
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
        if all(row.satisfied_by(x) for row in itertools.chain(dom.extra_rows, rows)):
            value = float(cost @ x)
            if best is None or value < best[1]:
                best = (x, value)
    return best


@pytest.mark.parametrize("with_domain_row", [False, True])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_level_sets_replay_an_engine_run_like_a_plain_scan(with_domain_row, seed):
    """Lower bounds, projections and nonemptiness checks at levels ub - tau, as
    a run asks for them while cuts grow and ub falls, answered as a plain
    itertools scan answers them, with the points above ub dropped. Each level
    takes projections with several costs, and is asked again after the next
    fold and compaction, latest first; its set is extracted once for all of
    them. The scans read blocks of a few points, so their multi-block paths run."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    m = int(rng.integers(1, n))
    obj = random_psd_objective(rng, n)
    rows = ()
    if with_domain_row:
        coeffs = rng.uniform(-1.0, 1.0, size=n)
        lhs = [float(coeffs @ x) for x in feasible_points(FeasibleDomain(n=n, m=m))]
        rows = (LinearRow(coeffs, "<=", float(np.median(lhs))),)
    with mock.patch.object(milp, "_BLOCK", int(rng.integers(1, 5))):
        dom = FeasibleDomain(n=n, m=m, extra_rows=rows)
        pts = feasible_points(dom)
        np.testing.assert_array_equal(decoded(milp._packed_table(dom), n), np.array(pts))
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
                held = None
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
                    assert held is None or backend._sets._held is held
                    held = backend._sets._held
                assert check_nonempty(dom, cut_rows, 30.0, backend) == (want is not None)
            last = fresh
            x = res.x if rng.random() < 0.5 else pts[int(rng.integers(len(pts)))]
        theta = [max(c.grad @ p + c.intercept for c in oracle) for p in pts]
        alive = sum(t <= backend._sets.ub + FEAS_TOL for t in theta)
        held = len(backend._sets.theta)
        assert alive <= held and 8 * (held - alive) < held


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
                assert rows.satisfied_by(x) == all(row.satisfied_by(x) for row in rows)

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
        assert all(row.satisfied_by(x) for row in rows) is satisfied

    def test_no_cuts_no_rows(self):
        assert CutRows(CutOracle(), 0.0).satisfied_by(np.zeros(3)) is True


def test_runs_on_the_enumerator_build_no_linear_row(monkeypatch):
    # every reader of the cut rows takes them from the oracle's stack
    built = []
    post_init = LinearRow.__post_init__

    def counted(row):
        built.append(row)
        post_init(row)

    monkeypatch.setattr(LinearRow, "__post_init__", counted)
    inst = synth_instance(14, 4, "psd_random", 1)
    for config in CONFIG_NAMES:
        backend = AutoBackend()
        out = run(inst.obj, inst.dom, default_x0(inst.dom, backend),
                  SolverConfig.from_name(config), backend)
        assert out.status.value == "eps_optimal"
    assert built == []


@pytest.mark.parametrize("n, m", [(10, 4), (9, 1), (9, 8), (17, 3)])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_whole_slice_fold_by_tails_matches_the_byte_lookup(n, m, seed):
    """With blocks of 7 points the whole slice spans several blocks, and cuts
    fold by tail sums; with one block they fold by byte lookup."""
    rng = np.random.default_rng(seed)
    obj = random_psd_objective(rng, n)
    dom = FeasibleDomain(n=n, m=m)
    pts = feasible_points(dom)
    oracle = CutOracle(make_cut(obj, pts[i]) for i in rng.permutation(len(pts))[:5])
    lookup = BruteForceBackend()
    want = lookup.solve_cp(oracle, dom, 30.0)
    tails = BruteForceBackend()
    with (
        mock.patch.object(milp, "_BLOCK", 7),
        mock.patch.object(milp, "_fold_by_tails", wraps=milp._fold_by_tails) as fold,
    ):
        got = tails.solve_cp(oracle, dom, 30.0)
    assert fold.call_count == len(oracle)
    np.testing.assert_allclose(tails._sets.theta, lookup._sets.theta, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(got.x, want.x)
    assert got.objective == pytest.approx(want.objective, abs=1e-12)


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
        # a domain row puts the linear solves past the cardinality shortcut
        row = LinearRow(np.array([1.0, 1.0] + [0.0] * 6), "<=", 1.0)
        for dom in (inst.dom, FeasibleDomain(n=8, m=3, extra_rows=(row,))):
            f_star, _ = enumerate_min(inst.obj.q, dom)
            for config in CONFIG_NAMES:
                backend = make_backend("auto")
                out = run(inst.obj, dom, default_x0(dom, backend),
                          SolverConfig.from_name(config), backend)
                assert out.status.value == "eps_optimal"
                assert out.f_best == pytest.approx(f_star, abs=1e-9)
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
