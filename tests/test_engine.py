import dataclasses
import functools
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcut import milp, model
from gradcut.bench import RunTrace, default_x0, synth_instance, validate_trace
from gradcut.engine import (
    CONFIG_FLAGS,
    CONFIG_NAMES,
    SolveState,
    SolveStatus,
    SolverConfig,
    build_cut_constraints,
    effective_objective,
    lb_cut_condition,
    run,
    select_offset,
)
from gradcut.milp import AutoBackend, BruteForceBackend, HighsBackend, solve_cp_model
from gradcut.model import (
    _PSD_TOL,
    CutOracle,
    FeasibleDomain,
    QuadraticObjective,
    eval_objective,
    make_cut,
    slice_shift,
)

from conftest import (
    Q_DIAG,
    e,
    enumerate_min,
    feasible_points,
    meets,
    random_psd_objective,
    random_symmetric_objective,
)


def oracle_at(q, anchors):
    obj = QuadraticObjective(q)
    oracle = CutOracle()
    for a in anchors:
        oracle.add(make_cut(obj, a))
    return oracle


def offset_state(oracle, ub, lb, tau, increase=True):
    return SolveState(
        k=0,
        ub=ub,
        lb=lb,
        x_ub=oracle.cuts[0].anchor,
        tau=tau,
        increase_offset=increase,
        oracle=oracle,
        trace=RunTrace(records=[], config_name="pgm-tau", instance_name="", f0=ub),
    )


class TestBuildCutConstraints:
    def test_single_row_coefficients(self):
        rows = build_cut_constraints(oracle_at(Q_DIAG, [e(1)]), ub=2.0, tau=0.1)
        assert len(rows) == 1
        np.testing.assert_array_equal(rows.coeffs, [[0.0, 4.0, 0.0]])
        assert rows.rhs[0] == pytest.approx(3.9)

    def test_zero_offset_binds_at_anchor_iff_value_equals_ub(self):
        oracle = oracle_at(Q_DIAG, [e(1)])
        cut = oracle.cuts[0]
        binding = build_cut_constraints(oracle, ub=cut.value, tau=0.0)
        assert float(binding.coeffs[0] @ cut.anchor) == pytest.approx(binding.rhs[0])
        slack = build_cut_constraints(oracle, ub=cut.value + 1.0, tau=0.0)
        assert float(slack.coeffs[0] @ cut.anchor) < slack.rhs[0]

    def test_empty_oracle_empty_rows(self):
        assert len(build_cut_constraints(CutOracle(), ub=1.0, tau=0.0)) == 0

    def test_rejects_bad_arguments(self):
        oracle = oracle_at(Q_DIAG, [e(1)])
        with pytest.raises(ValueError):
            build_cut_constraints(oracle, ub=1.0, tau=-0.1)
        with pytest.raises(ValueError):
            build_cut_constraints(oracle, ub=math.inf, tau=0.0)


class TestSelectOffset:
    def test_gap_factor_caps_infinite_tau(self, brute_backend):
        state = offset_state(oracle_at(Q_DIAG, [e(1)]), ub=2.0, lb=-3.0, tau=math.inf)
        cfg = SolverConfig.from_name("pgm-tau")
        tau, rows, increase, backtracks, _ = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), brute_backend
        )
        assert tau == pytest.approx(0.5)
        assert backtracks == 0
        assert increase is True

    def test_optimal_incumbent_backtracks_to_zero(self, brute_backend):
        # every vertex violates its own row for any tau > 0: loop must floor out
        state = offset_state(
            oracle_at(Q_DIAG, [e(0), e(1), e(2)]), ub=1.0, lb=-4.0, tau=0.5
        )
        cfg = SolverConfig.from_name("pgm-tau")
        tau, rows, increase, backtracks, _ = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), brute_backend
        )
        assert tau == 0.0
        assert increase is False
        bound = math.ceil(math.log(0.5 / cfg.epsilon) / math.log(1.0 / cfg.kappa_tau)) + 1
        assert backtracks <= bound
        # the incumbent e1 satisfies every zero-offset row
        x_inc = e(0)
        assert meets(rows, x_inc)

    def test_feasible_offset_accepted_first_try(self, brute_backend):
        state = offset_state(oracle_at(Q_DIAG, [e(1)]), ub=2.0, lb=-8.0, tau=0.5)
        cfg = SolverConfig.from_name("pgm-tau")
        tau, rows, increase, backtracks, _ = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), brute_backend
        )
        assert tau == pytest.approx(0.5)
        assert backtracks == 0
        assert increase is True


    def test_witness_settles_the_check_without_a_solve(self):
        # one cut at e0 with ub = 1, tau = 0.5 leaves the row 2 x0 <= 1.5: the
        # sorted zero-cost point e0 violates it, the witness e1 does not
        state = offset_state(oracle_at(Q_DIAG, [e(0)]), ub=1.0, lb=-8.0, tau=0.5)
        cfg = SolverConfig.from_name("pgm-tau")
        tau, rows, increase, backtracks, witnessed = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), NoLinearSolves(), witness=e(1)
        )
        assert tau == pytest.approx(0.5)
        assert backtracks == 0
        assert meets(rows, e(1))
        assert witnessed is True

    @pytest.mark.parametrize("tau, solves", [(0.5, 1), (0.0, 0)])
    def test_a_witness_off_the_rows_is_reported(self, tau, solves):
        # the row of a cut at e1 with ub = 2 is 4 x1 <= 4 - tau: at tau = 0.5
        # it cuts off the witness e1, and a solve finds e0 in the set; at
        # tau = 0 e1 meets it, and no check runs
        state = offset_state(oracle_at(Q_DIAG, [e(1)]), ub=2.0, lb=-8.0, tau=tau)
        cfg = SolverConfig.from_name("pgm-tau")
        backend = CountingLinearSolves()
        tau_out, rows, _, backtracks, witnessed = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), backend, witness=e(1)
        )
        assert (tau_out, backtracks) == (tau, 0)
        assert witnessed == meets(rows, e(1)) == (tau == 0.0)
        assert backend.solves == solves


class CountingLinearSolves(BruteForceBackend):
    def __init__(self):
        super().__init__()
        self.solves = 0

    def solve_linear(self, cost, dom, rows, budget, x=None):
        self.solves += 1
        return super().solve_linear(cost, dom, rows, budget, x)


class NoLinearSolves(BruteForceBackend):
    def _solve_linear(self, cost, dom, rows, budget):
        raise AssertionError("linear solve reached the solver")


class TestLbCutCondition:
    def test_negative_inner_product(self):
        ip = float(np.array([2.0, 0.0, 0.0]) @ (e(1) - e(0)))
        assert ip == -2.0
        assert lb_cut_condition(ip, anchors_equal=False) is True

    def test_positive_inner_product(self):
        ip = float(np.array([2.0, 0.0]) @ (np.array([1.0, 0.0]) - np.array([0.0, 1.0])))
        assert ip == 2.0
        assert lb_cut_condition(ip, anchors_equal=False) is False

    def test_equal_points_always_skipped(self):
        assert lb_cut_condition(0.0, anchors_equal=True) is False
        assert lb_cut_condition(-5.0, anchors_equal=True) is False


class TestConfigTable:
    def test_flag_rows(self):
        assert CONFIG_FLAGS["cpm"] == (False, False, False)
        assert CONFIG_FLAGS["pgm"] == (True, False, False)
        assert CONFIG_FLAGS["pgm-tau"] == (True, True, False)
        assert CONFIG_FLAGS["pgm-lb"] == (True, False, True)
        assert CONFIG_FLAGS["pgm-tau-lb"] == (True, True, True)

    def test_from_name_round_trips(self):
        for name in CONFIG_NAMES:
            assert SolverConfig.from_name(name).name == name

    def test_tightenings_require_local_solver(self):
        with pytest.raises(ValueError):
            SolverConfig(use_offset=True)
        with pytest.raises(ValueError):
            SolverConfig(use_lb_cuts=True)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            SolverConfig(kappa_tau=1.0)
        with pytest.raises(ValueError):
            SolverConfig(kappa_g=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)


class TestRun:
    def test_cpm_solves_diagonal_instance(self, backend):
        obj = QuadraticObjective(Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        out = run(obj, dom, e(2), SolverConfig.from_name("cpm"), backend)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out.x_best, e(0), atol=1e-9)

    def test_loose_epsilon_returns_start_immediately(self, brute_backend):
        obj = QuadraticObjective(Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        out = run(obj, dom, e(2), SolverConfig.from_name("cpm", epsilon=10.0), brute_backend)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(3.0)
        np.testing.assert_array_equal(out.x_best, e(2))
        assert out.iterations == 1
        # Q_DIAG is separable, so u is about -diag(Q) and Q' about linear on
        # the slice. The one cut, at e3, falls short of f at e_j by half of
        # (e_j - e3)'(Q + diag u)(e_j - e3) = (q_jj + u_j) + (q_33 + u_3)
        d = np.diag(Q_DIAG) + slice_shift(Q_DIAG)
        lb = min(0.5 * Q_DIAG[j, j] - 0.5 * (d[j] + d[2]) for j in (0, 1))
        assert out.trace.records[0].ub == pytest.approx(3.0)
        assert out.trace.records[0].lb == pytest.approx(lb, abs=1e-12)
        assert out.trace.records[0].lb == pytest.approx(1.0, abs=1e-3)

    def test_local_steps_counted(self):
        # cpm runs no local solver; pgm on psd14's instance takes real steps
        inst = synth_instance(14, 4, "psd_random", 1)
        steps = {}
        for config in ("cpm", "pgm"):
            backend = AutoBackend()
            out = run(
                inst.obj, inst.dom, default_x0(inst.dom, backend),
                SolverConfig.from_name(config), backend,
            )
            assert out.status is SolveStatus.EPS_OPTIMAL
            steps[config] = out.local_steps
        assert steps["cpm"] == 0
        assert steps["pgm"] > 0

    def test_infeasible_start_rejected(self, brute_backend):
        obj = QuadraticObjective(Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        with pytest.raises(ValueError):
            run(obj, dom, np.ones(3), SolverConfig.from_name("cpm"), brute_backend)

    def test_nan_start_rejected(self, brute_backend):
        inst = synth_instance(8, 3, "psd_random", 0)
        with pytest.raises(ValueError, match="x0 is not feasible"):
            run(inst.obj, inst.dom, np.full(8, np.nan), SolverConfig.from_name("cpm"), brute_backend)

    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_all_configs_reach_brute_force_optimum(self, config, brute_backend):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(5, 13))
            m = int(rng.integers(1, n))
            obj = random_psd_objective(rng, n)
            dom = FeasibleDomain(n=n, m=m)
            pts = feasible_points(dom)
            x0 = pts[int(rng.integers(len(pts)))]
            out = run(obj, dom, x0, SolverConfig.from_name(config), brute_backend)
            f_star, _ = enumerate_min(obj.q, dom)
            assert out.status is SolveStatus.EPS_OPTIMAL
            assert out.f_best == pytest.approx(f_star, abs=1e-9)

    def test_nonconvex_instance_convexified_on_the_slice(self, brute_backend):
        rng = np.random.default_rng(21)
        obj = random_symmetric_objective(rng, 8)
        dom = FeasibleDomain(n=8, m=3)
        x0 = feasible_points(dom)[0]
        out = run(obj, dom, x0, SolverConfig.from_name("pgm-tau-lb"), brute_backend)
        f_star, _ = enumerate_min(obj.q, dom)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(f_star, abs=1e-9)
        assert out.trace.f0 == pytest.approx(eval_objective(obj, x0))
        # Q' has f's values on the slice, so every bound sandwiches f's optimum
        for rec in out.trace.records:
            assert rec.lb <= f_star + 1e-9
            assert rec.ub >= f_star - 1e-9

    def test_trace_invariants_and_monotone_bounds(self, brute_backend):
        rng = np.random.default_rng(3)
        obj = random_psd_objective(rng, 10)
        dom = FeasibleDomain(n=10, m=4)
        out = run(
            obj, dom, feasible_points(dom)[0], SolverConfig.from_name("pgm-tau"), brute_backend
        )
        validate_trace(out.trace)
        lbs = [rec.lb for rec in out.trace.records]
        assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:]))

    @pytest.mark.parametrize("convex", [True, False])
    def test_cuts_never_exclude_the_optimum(self, brute_backend, convex):
        # cuts are tangent to Q', which has f's values on the slice
        rng = np.random.default_rng(11)
        make = random_psd_objective if convex else random_symmetric_objective
        obj = make(rng, 9)
        dom = FeasibleDomain(n=9, m=3)
        out = run(
            obj, dom, feasible_points(dom)[0], SolverConfig.from_name("pgm-lb"), brute_backend
        )
        f_star, x_star = enumerate_min(obj.q, dom)
        for cut in out.oracle:
            assert cut.value + float(cut.grad @ (x_star - cut.anchor)) <= f_star + 1e-9

    def test_time_limit_returns_incumbent(self, brute_backend):
        obj = QuadraticObjective(Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        out = run(
            obj, dom, e(2), SolverConfig.from_name("cpm", time_limit=0.0), brute_backend
        )
        assert out.status is SolveStatus.TIME_LIMIT
        assert out.f_best == pytest.approx(3.0)

    def test_lb_cut_events_only_when_enabled(self, brute_backend):
        rng = np.random.default_rng(5)
        obj = random_psd_objective(rng, 8)
        dom = FeasibleDomain(n=8, m=3)
        x0 = feasible_points(dom)[0]
        for name in ("cpm", "pgm", "pgm-tau"):
            out = run(obj, dom, x0, SolverConfig.from_name(name), brute_backend)
            assert out.lb_cut_events == ()
        out = run(obj, dom, x0, SolverConfig.from_name("pgm-lb"), brute_backend)
        assert out.lb_cut_events
        for event in out.lb_cut_events:
            assert event.predicate == (event.inner_product <= 0.0 and not event.anchors_equal)
            assert event.added == (event.predicate and not event.already_present)

def assert_shift_contract(obj, dom):
    """effective_objective's promises on the domain: 0.5 x'Q'x equals
    0.5 x'Qx at every point of the slice, with no constant offset; every
    tangent cut of Q' is valid at every point of it; lambda_min(V'Q'V) is the
    margin _PSD_TOL, with V an orthonormal basis of 1-perp; and Q' is Q +
    diag(u) - (u1' + 1u')/(2m) with u = slice_shift(Q), whose sum is at most
    that of the uniform shift rho*1, rho = -lambda_min(V'QV). Returns u."""
    work = effective_objective(obj, dom)
    u = slice_shift(obj.q)
    n, m = obj.n, dom.m
    ones = np.ones(n)
    np.testing.assert_array_equal(
        work.q, obj.q + np.diag(u) - (np.outer(u, ones) + np.outer(ones, u)) / (2.0 * m)
    )
    scale = max(1.0, float(np.max(np.abs(obj.q))))
    pts = np.array(feasible_points(dom))
    f = 0.5 * np.einsum("ij,jk,ik->i", pts, obj.q, pts)
    f_work = 0.5 * np.einsum("ij,jk,ik->i", pts, work.q, pts)
    np.testing.assert_allclose(f_work, f, rtol=0, atol=1e-9 * scale)
    grads = pts @ work.q
    # cuts[a, x]: the tangent plane at anchor a evaluated at x
    cuts = (f_work - np.einsum("ij,ij->i", grads, pts))[:, None] + grads @ pts.T
    assert np.all(cuts <= f_work[None, :] + 1e-9 * scale)
    basis = scipy.linalg.null_space(np.ones((1, n)))
    lam = np.linalg.eigvalsh(basis.T @ work.q @ basis)[0]
    assert lam >= 0.0
    assert lam == pytest.approx(_PSD_TOL * scale, rel=0, abs=1e-10 * scale)
    rho = -np.linalg.eigvalsh(basis.T @ obj.q @ basis)[0]
    assert float(np.sum(u)) <= n * rho + n * 1e-10 * scale
    return u


class TestEffectiveObjective:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        kind=st.sampled_from(["symmetric", "psd"]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    # small-norm draws on which the barrier, with its floor of mu = 1, ends
    # above the uniform shift's sum; slice_shift must fall back to it
    @example(seed=128, n=9, kind="psd", scale=1e-3)
    @example(seed=416, n=10, kind="psd", scale=1e-3)
    @example(seed=2740, n=10, kind="psd", scale=1e-3)
    def test_constant_shift_and_valid_cuts_on_the_slice(self, seed, n, kind, scale):
        # the constant shift is zero: Q' and Q agree on every slice point
        rng = np.random.default_rng(seed)
        make = random_symmetric_objective if kind == "symmetric" else random_psd_objective
        obj = QuadraticObjective(scale * make(rng, n).q)
        assert_shift_contract(obj, FeasibleDomain(n=n, m=int(rng.integers(1, n))))

    def test_negated_distances_need_no_shift(self):
        # Euclidean distance matrices are conditionally negative definite, so
        # -D is PSD on 1-perp although indefinite: it needs no positive shift,
        # and the negative one it gets tightens every cut
        inst = synth_instance(12, 4, "mdp_like", seed=0)
        assert np.linalg.eigvalsh(inst.obj.q)[0] < -1.0
        assert np.sum(assert_shift_contract(inst.obj, inst.dom)) < 0.0

    def test_convex_objective_unchanged(self):
        # convex Q keeps its argmin on the slice; the shift is still negative
        obj = random_psd_objective(np.random.default_rng(4), 6)
        assert np.sum(assert_shift_contract(obj, FeasibleDomain(n=6, m=2))) < 0.0

    def test_one_direction_zero_mid_spectrum(self):
        # Q has the eigenvalues -3, -1, 2, 5, 7, 9 on 1-perp, so the uniform
        # shift is 3, and P Q P has those and the zero of the 1-direction,
        # between -1 and 2: a shift that skipped the first eigenvalue of P Q P
        # would lose validity, which the contract checks on every slice point
        rng = np.random.default_rng(8)
        basis = scipy.linalg.null_space(np.ones((1, 7)))
        rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        half = basis @ rot
        q = half @ np.diag([-3.0, -1.0, 2.0, 5.0, 7.0, 9.0]) @ half.T + 0.25
        obj = QuadraticObjective((q + q.T) / 2.0)
        pqp = np.linalg.eigvalsh(basis @ basis.T @ obj.q @ basis @ basis.T)
        assert pqp[0] < pqp[1] < -0.5 and 0.5 < pqp[3]
        u = assert_shift_contract(obj, FeasibleDomain(n=7, m=3))
        assert np.sum(u) < 7 * 3.0

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_separable_objective_certified_by_its_first_lower_bound(self, seed, n):
        # diagonal Q gets u = -diag(Q), up to the solve's accuracy, so Q' is
        # linear on the slice: the first lower bound lands on the optimum and
        # the run certifies at the latest when it is the anchor
        rng = np.random.default_rng(seed)
        obj = QuadraticObjective(np.diag(rng.standard_normal(n)))
        dom = FeasibleDomain(n=n, m=int(rng.integers(1, n)))
        u = assert_shift_contract(obj, dom)
        np.testing.assert_allclose(u, -np.diag(obj.q), rtol=0, atol=1e-3)
        pts = feasible_points(dom)
        out = run(
            obj, dom, pts[int(rng.integers(len(pts)))], SolverConfig.from_name("cpm"),
            BruteForceBackend(),
        )
        f_star, _ = enumerate_min(obj.q, dom)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(f_star, abs=1e-9)
        assert out.iterations <= 2


def test_shift_solved_once_per_objective(monkeypatch):
    # u depends on Q alone: two runs of one objective, on two domains, pay
    # for one barrier solve, and the cached u is slice_shift's bit for bit
    calls = []

    def counted(q):
        calls.append(q)
        return slice_shift(q)

    monkeypatch.setattr(model, "slice_shift", counted)
    inst = synth_instance(10, 3, "nonconvex_random", 4)
    obj = QuadraticObjective(inst.obj.q)
    before = repr(obj)
    for dom in (inst.dom, FeasibleDomain(n=10, m=4)):
        out = run(obj, dom, default_x0(dom), SolverConfig.from_name("cpm"), BruteForceBackend())
        assert out.status is SolveStatus.EPS_OPTIMAL
    assert len(calls) == 1
    assert obj.diag_shift.tobytes() == slice_shift(obj.q).tobytes()
    assert not obj.diag_shift.flags.writeable
    assert repr(obj) == before
    assert obj == obj
    assert [f.name for f in dataclasses.fields(obj)] == ["q"]


@pytest.mark.parametrize(
    "name, config",
    [
        # HiGHS 1.12 ends the 13th lower-bound solve in "Solve error"
        ("nonconvex-17", "cpm"),
        # HiGHS 1.12 reports as optimal a bound above the cut model at the incumbent
        ("nonconvex-28", "pgm"),
    ],
)
def test_highs_run_survives_unusable_lower_bound_solves(name, config):
    from test_acceptance import make_suite

    obj, dom = {f"{kind}-{i}": (o, d) for kind, i, o, d in make_suite()}[name]
    f_star, _ = enumerate_min(obj.q, dom)
    out = run(obj, dom, default_x0(dom), SolverConfig.from_name(config), HighsBackend())
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.f_best == pytest.approx(f_star, abs=1e-9)
    for rec in out.trace.records:
        assert rec.lb <= f_star + 1e-9
        assert rec.lb <= rec.ub


class OvershootingBackend(BruteForceBackend):
    """Exact, but reports every lower bound too high: by a rounding error,
    unless told otherwise."""

    def __init__(self, excess=1e-12):
        super().__init__()
        self.excess = excess

    def solve_cp(self, cuts, dom, budget, *args):
        res = super().solve_cp(cuts, dom, budget, *args)
        return dataclasses.replace(res, dual_bound=res.dual_bound + self.excess)


def test_rounding_above_incumbent_reports_zero_gap():
    out = run(
        QuadraticObjective(Q_DIAG),
        FeasibleDomain(n=3, m=1),
        e(2),
        SolverConfig.from_name("cpm"),
        OvershootingBackend(),
    )
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.trace.records[-1].lb <= out.trace.records[-1].ub
    assert out.gap == 0.0


def classical_cutting_planes(obj, dom, x0, eps, backend, max_iters=500):
    """Straight-line reference implementation of the plain method."""
    oracle = CutOracle()
    oracle.add(make_cut(obj, x0))
    anchors = [tuple(x0)]
    ub = eval_objective(obj, x0)
    bounds = []
    for _ in range(max_iters):
        res = solve_cp_model(oracle, dom, math.inf, backend)
        lb = res.objective
        if ub - lb <= eps:
            bounds.append((ub, lb))
            return anchors, bounds, ub
        x = res.x
        if oracle.add(make_cut(obj, x)):
            anchors.append(tuple(x))
        ub = min(ub, eval_objective(obj, x))
        bounds.append((ub, lb))
    raise AssertionError("reference implementation did not converge")


@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_cpm_config_equals_reference_implementation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    m = int(rng.integers(1, n))
    dom = FeasibleDomain(n=n, m=m)
    obj = random_psd_objective(rng, n)
    pts = feasible_points(dom)
    x0 = pts[int(rng.integers(len(pts)))]
    out = run(obj, dom, x0, SolverConfig.from_name("cpm"), BruteForceBackend())
    # the reference cuts on the objective the engine works with, whose values
    # are f's on the slice: the bounds match as they are
    anchors_ref, bounds_ref, ub_ref = classical_cutting_planes(
        effective_objective(obj, dom), dom, x0, 1e-9, BruteForceBackend()
    )
    anchors_run = [tuple(cut.anchor) for cut in out.oracle]
    assert anchors_run == anchors_ref
    assert out.f_best == pytest.approx(ub_ref, abs=1e-12)
    bounds_run = [(rec.ub, rec.lb) for rec in out.trace.records]
    assert len(bounds_run) == len(bounds_ref)
    for (ub_a, lb_a), (ub_b, lb_b) in zip(bounds_run, bounds_ref):
        assert ub_a == pytest.approx(ub_b, abs=1e-12)
        assert lb_a == pytest.approx(lb_b, abs=1e-12)


class UndershootingBackend(BruteForceBackend):
    """Exact, but reports every lower bound 1e-6 too low, as a MIP solver
    working at a feasibility tolerance of 1e-6 may."""

    def solve_cp(self, cuts, dom, budget, *args):
        res = super().solve_cp(cuts, dom, budget, *args)
        return dataclasses.replace(res, dual_bound=res.dual_bound - 1e-6)


def test_fixed_point_reported_as_stalled():
    out = run(
        QuadraticObjective(Q_DIAG),
        FeasibleDomain(n=3, m=1),
        e(2),
        SolverConfig.from_name("cpm"),
        UndershootingBackend(),
    )
    assert out.status is SolveStatus.STALLED
    assert out.status.value == "stalled"
    assert out.f_best == 1.0
    assert out.gap == pytest.approx(1e-6, rel=1e-9)
    assert out.iterations < SolverConfig().max_outer_iters


class ToleranceBackend(BruteForceBackend):
    """Exact, but reports every lower bound 1e-6 too low unless asked for a
    tight solve, as HiGHS at its default and at a tight feasibility tolerance."""

    def __init__(self):
        super().__init__()
        self.tight_solves = 0

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        res = super().solve_cp(cuts, dom, budget, upper_limit, ub, tight)
        if tight:
            self.tight_solves += 1
            return res
        return dataclasses.replace(res, dual_bound=res.dual_bound - 1e-6)


def test_stall_within_the_solver_tolerance_resolved_once_tightly():
    backend = ToleranceBackend()
    out = run(
        QuadraticObjective(Q_DIAG),
        FeasibleDomain(n=3, m=1),
        e(2),
        SolverConfig.from_name("cpm"),
        backend,
    )
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.gap == 0.0
    assert backend.tight_solves == 1


def test_highs_stall_at_its_feasibility_tolerance_mended(caplog):
    # at HiGHS's default mip_feasibility_tolerance of 1e-6 this cell's lower
    # bound settles 1e-6 below its optimal incumbent from iteration 10 on,
    # short of the 1e-9 certificate; the fixed point at iteration 11 takes one
    # tight re-solve, which certifies at iteration 12
    caplog.set_level(logging.WARNING, logger="gradcut")
    inst = synth_instance(30, 6, "mdp_like", 9)
    out = run(
        inst.obj,
        inst.dom,
        default_x0(inst.dom),
        SolverConfig.from_name("pgm-tau-lb"),
        HighsBackend(),
        instance_name=inst.name,
    )
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.f_best == pytest.approx(synth_minimum(30, 6, "mdp_like", 9), abs=1e-9)
    retries = [r for r in caplog.records if "mip_feasibility_tolerance" in r.getMessage()]
    assert len(retries) == 1
    assert retries[0].cell == f"{inst.name}/pgm-tau-lb"


class NearMinimumBackend(BruteForceBackend):
    """Exact when asked for a tight solve. Otherwise it returns, as HiGHS may
    at its default feasibility tolerance, the point of largest cut model
    value within HIGHS_FEAS_TOL of the model optimum, and reports the bound
    HIGHS_FEAS_TOL low."""

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        res = super().solve_cp(cuts, dom, budget, upper_limit, ub, tight)
        if tight:
            return res
        pts = np.array(feasible_points(dom))
        grads, intercepts = model.stack_cuts(cuts)
        theta = (pts @ grads.T + intercepts).max(axis=1)
        near = np.where(theta <= res.objective + milp.HIGHS_FEAS_TOL, theta, -np.inf)
        return dataclasses.replace(
            res, x=pts[int(near.argmax())], dual_bound=res.dual_bound - milp.HIGHS_FEAS_TOL
        )


# f(e0) = 1 and f(e1) = 1 + 1e-7: started at e1, a NearMinimumBackend run
# returns e1 as its lower-bound point once e0 is the incumbent, 1e-7 above
# every row at the incumbent's value
Q_NEAR_TIE = np.diag([2.0, 2.0 + 2e-7, 6.0])


def run_near_tie(config):
    return run(
        QuadraticObjective(Q_NEAR_TIE),
        FeasibleDomain(n=3, m=1),
        e(1),
        SolverConfig.from_name(config),
        NearMinimumBackend(),
    )


@pytest.mark.parametrize("config", ["pgm", "pgm-tau", "pgm-lb", "pgm-tau-lb"])
def test_a_lower_bound_point_off_the_rows_is_projected(config, monkeypatch):
    from gradcut import engine

    starts = []  # (point, its largest row excess) of each projection by the engine
    project = engine.project

    def counted(z, dom, rows, budget, backend):
        starts.append((z.tolist(), float(np.max(rows.coeffs @ z - rows.rhs))))
        return project(z, dom, rows, budget, backend)

    monkeypatch.setattr(engine, "project", counted)
    out = run_near_tie(config)
    assert out.status is SolveStatus.EPS_OPTIMAL
    np.testing.assert_array_equal(out.x_best, e(0))
    assert out.f_best == 1.0
    assert starts
    for z, excess in starts:
        assert z == e(1).tolist()
        assert excess == pytest.approx(1e-7, rel=1e-3)


def test_a_lower_bound_point_on_the_rows_starts_the_local_solver(monkeypatch):
    # an exact backend's lower-bound point meets every row it is tested
    # against, so the engine projects nothing itself: each local solve starts
    # at x_lb, with x_lb's cut
    from gradcut import engine

    inst = synth_instance(12, 4, "nonconvex_random", seed=0)
    starts, lower_bounds = [], []
    pgm_solve, solve_cp = engine.pgm_solve, engine.solve_cp_model

    def counted_solve(*args, **kwargs):
        res = solve_cp(*args, **kwargs)
        lower_bounds.append(res.x)
        return res

    def counted_pgm(obj, dom, rows, start, *args):
        starts.append(start)
        return pgm_solve(obj, dom, rows, start, *args)

    monkeypatch.setattr(engine, "solve_cp_model", counted_solve)
    monkeypatch.setattr(engine, "pgm_solve", counted_pgm)
    monkeypatch.setattr(engine, "project", None)
    for config in ("pgm", "pgm-tau-lb"):
        starts.clear()
        lower_bounds.clear()
        out = run(
            inst.obj, inst.dom, default_x0(inst.dom), SolverConfig.from_name(config),
            BruteForceBackend(),
        )
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert len(starts) == len(lower_bounds) - 1  # none after the last
        for start, x_lb in zip(starts, lower_bounds):
            assert start.anchor is x_lb


@pytest.mark.parametrize("excess, warned", [(1e-12, False), (1e-3, True)])
def test_bound_above_the_incumbent_is_clipped_and_warned_of(excess, warned, caplog):
    caplog.set_level(logging.WARNING, logger="gradcut")
    out = run(
        QuadraticObjective(Q_DIAG),
        FeasibleDomain(n=3, m=1),
        e(0),  # optimal: every lower bound overshoots it
        SolverConfig.from_name("cpm"),
        OvershootingBackend(excess),
        instance_name="diag3",
    )
    assert all(rec.lb <= rec.ub for rec in out.trace.records)
    assert out.gap == 0.0
    clipped = [r for r in caplog.records if "exceeds the incumbent" in r.getMessage()]
    assert bool(clipped) is warned
    assert all(r.cell == "diag3/cpm" for r in clipped)


@functools.lru_cache(maxsize=None)
def synth_minimum(n, m, kind, seed):
    """Exhaustive minimum of a synthetic instance over its slice, summed from
    the entries of Q at every m-subset of itertools.combinations."""
    q = synth_instance(n, m, kind, seed).obj.q
    count = math.comb(n, m)
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), m)),
        dtype=np.intp,
        count=count * m,
    ).reshape(count, m)
    values = sum(q[idx[:, a], idx[:, b]] for a in range(m) for b in range(m))
    return 0.5 * float(values.min())


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize(
    "kind, n, m, seed",
    [("nonconvex_random", 12, 4, 0), ("psd_random", 14, 4, 1), ("mdp_like", 30, 6, 2)],
    ids=["nonconvex12", "psd14", "mdp30"],
)
def test_auto_backend_matches_enumeration(kind, n, m, seed, config):
    inst = synth_instance(n, m, kind, seed)
    f_star = synth_minimum(n, m, kind, seed)
    cfg = SolverConfig.from_name(config)
    out = run(inst.obj, inst.dom, default_x0(inst.dom), cfg, AutoBackend())
    ref = run(inst.obj, inst.dom, default_x0(inst.dom), cfg, BruteForceBackend())
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.f_best == ref.f_best
    assert out.f_best == pytest.approx(f_star, abs=1e-9)


@pytest.mark.slow
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(4, 12),
    convex=st.booleans(),
)
@example(seed=65535, n=4, convex=False)
@example(seed=12, n=12, convex=False)
@example(seed=5437, n=11, convex=True)
@example(seed=50, n=12, convex=False)
@settings(max_examples=25, deadline=None)
def test_highs_certifies_what_enumeration_certifies(seed, n, convex):
    # Q at norm 1e3: under every configuration HiGHS and the enumerator
    # certify the same optimum. In the first example a tight re-solve at
    # mip_feasibility_tolerance 1e-9 left the lower bound 1.04e-9 below the
    # optimum, and every run stalled just short of its 1e-9 gap; it still
    # reaches the tight rungs. The second and third reach no rung on the
    # plain slice; they reached the 1e-9 and the presolve-on rungs under the
    # extra <= row they were drawn with, and only TestHighsRetryLadder covers
    # those rungs now. In the fourth (m = 9) the lower-bound solves of pgm,
    # pgm-lb and pgm-tau-lb end in a solve error with presolve on and off at
    # the default tolerance, and the next rung, presolve off at 1e-10, solves
    # it; every run certifies f* = -2885.2785697716
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    obj = (random_psd_objective if convex else random_symmetric_objective)(rng, n)
    obj = QuadraticObjective(obj.q * (1e3 / np.linalg.norm(obj.q, 2)))
    x0 = np.zeros(n)
    x0[rng.permutation(n)[:m]] = 1.0
    dom = FeasibleDomain(n=n, m=m)
    f_star, _ = enumerate_min(obj.q, dom)
    tol = 1e-9 * max(1.0, abs(f_star))
    for config in CONFIG_NAMES:
        cfg = SolverConfig.from_name(config)
        highs, brute = (run(obj, dom, x0, cfg, b) for b in (HighsBackend(), BruteForceBackend()))
        assert highs.status is SolveStatus.EPS_OPTIMAL, config
        assert brute.status is SolveStatus.EPS_OPTIMAL, config
        assert abs(highs.f_best - brute.f_best) <= tol, config
        assert abs(brute.f_best - f_star) <= tol, config


# outer iterations summed over the five configurations on the benchmark's
# three workloads (perfbench/suite.py), as the diagonal shift of slice_shift
# and the local solver's breakpoint-relative step give them: 40, 99 and 165
# with a fixed first step gamma0, and 60, 160 and 207 under the uniform shift
@pytest.mark.parametrize(
    "kind, n, m, seed, most",
    [
        ("mdp_like", 30, 6, 2, 33),
        ("nonconvex_random", 12, 4, 0, 99),
        ("psd_random", 14, 4, 1, 155),
    ],
    ids=["mdp30", "nonconvex12", "psd14"],
)
def test_outer_iterations_on_the_benchmark_workloads(kind, n, m, seed, most):
    inst = synth_instance(n, m, kind, seed)
    total = 0
    for config in CONFIG_NAMES:
        backend = AutoBackend()
        out = run(
            inst.obj, inst.dom, default_x0(inst.dom, backend), SolverConfig.from_name(config),
            backend,
        )
        assert out.status is SolveStatus.EPS_OPTIMAL
        total += out.iterations
    assert total <= most


# (iterations, local steps, f_best) of each of the benchmark's fifteen cells,
# the three workloads of perfbench/suite.py under the five configurations, on
# AutoBackend from default_x0: a change meant to leave results as they are
# shows it here. f_best is pinned to 1e-12 relative, the counts exactly.
BENCHMARK_CELLS = {
    ("mdp_like", 30, 6, 2): (
        -114.63081036322464,
        {"cpm": (8, 0), "pgm": (7, 8), "pgm-tau": (7, 9), "pgm-lb": (5, 5), "pgm-tau-lb": (6, 8)},
    ),
    ("nonconvex_random", 12, 4, 0): (
        -2.2668061581640924,
        {
            "cpm": (23, 0), "pgm": (21, 20), "pgm-tau": (22, 18), "pgm-lb": (17, 13),
            "pgm-tau-lb": (16, 9),
        },
    ),
    ("psd_random", 14, 4, 1): (
        0.06697391784352494,
        {"cpm": (33, 0), "pgm": (32, 8), "pgm-tau": (32, 5), "pgm-lb": (29, 5), "pgm-tau-lb": (29, 4)},
    ),
}


# the same for mdp_like slices held whole, of 65,780 to 593,775 points,
# whose lower bounds and queries the enumerator answers by level-set walks
WHOLE_SLICE_CELLS = {
    ("mdp_like", 24, 6, 0): (
        -126.60246142522712,
        {"cpm": (11, 0), "pgm": (10, 9), "pgm-tau": (8, 4), "pgm-lb": (10, 9), "pgm-tau-lb": (6, 4)},
    ),
    ("mdp_like", 26, 5, 1): (
        -73.72150114712757,
        {"cpm": (13, 0), "pgm": (11, 7), "pgm-tau": (10, 4), "pgm-lb": (8, 5), "pgm-tau-lb": (8, 4)},
    ),
    ("mdp_like", 22, 8, 3): (
        -195.52648949078073,
        {"cpm": (6, 0), "pgm": (5, 6), "pgm-tau": (5, 4), "pgm-lb": (5, 6), "pgm-tau-lb": (4, 4)},
    ),
    ("mdp_like", 30, 6, 0): (
        -130.38597332061863,
        {"cpm": (9, 0), "pgm": (11, 7), "pgm-tau": (8, 3), "pgm-lb": (8, 4), "pgm-tau-lb": (8, 1)},
    ),
    ("mdp_like", 28, 6, 4): (
        -113.99069420525834,
        {"cpm": (12, 0), "pgm": (10, 8), "pgm-tau": (11, 12), "pgm-lb": (9, 7), "pgm-tau-lb": (8, 11)},
    ),
}


def assert_cell_keeps_its_results(cell, config, pinned):
    kind, n, m, seed = cell
    inst = synth_instance(n, m, kind, seed)
    f_best, counts = pinned[cell]
    backend = AutoBackend()
    out = run(
        inst.obj, inst.dom, default_x0(inst.dom, backend), SolverConfig.from_name(config), backend
    )
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert (out.iterations, out.local_steps) == counts[config]
    assert out.f_best == pytest.approx(f_best, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("cell", list(BENCHMARK_CELLS), ids=["mdp30", "nonconvex12", "psd14"])
def test_benchmark_cells_keep_their_results(cell, config):
    assert_cell_keeps_its_results(cell, config, BENCHMARK_CELLS)


@pytest.mark.parametrize("config", CONFIG_NAMES)
@pytest.mark.parametrize("cell", list(WHOLE_SLICE_CELLS), ids=lambda c: f"{c[1]}-{c[2]}-s{c[3]}")
def test_whole_slice_cells_keep_their_results(cell, config):
    assert_cell_keeps_its_results(cell, config, WHOLE_SLICE_CELLS)


class WarningBackend(BruteForceBackend):
    """Logs one warning through the milp logger per lower-bound solve."""

    def solve_cp(self, cuts, dom, budget, *args):
        milp.log.warning("lower bound on n=%d", dom.n)
        return super().solve_cp(cuts, dom, budget, *args)


def test_records_name_their_cell(caplog):
    caplog.set_level(logging.WARNING, logger="gradcut")
    run(
        QuadraticObjective(Q_DIAG),
        FeasibleDomain(n=3, m=1),
        e(2),
        SolverConfig.from_name("pgm-lb"),
        WarningBackend(),
        instance_name="diag3",
    )
    milp.log.warning("after the run")
    assert len(caplog.records) >= 2
    assert {r.cell for r in caplog.records[:-1]} == {"diag3/pgm-lb"}
    assert caplog.records[-1].cell == "-"


# module attributes that solves are routed through, and that the per-layer
# benchmark (perfbench/spans.py) rebinds to time each layer: a call that
# bypasses one, through an alias or a dispatch table, leaves its layer at zero
LAYER_SEAMS = (
    ("engine", "run"),
    ("engine", "pgm_solve"),
    ("engine", "project"),
    ("engine", "check_nonempty"),
    ("engine", "select_offset"),
    ("engine", "solve_cp_model"),
    ("local", "project"),
)


def test_every_layer_seam_is_called_through_its_module_attribute(monkeypatch):
    from gradcut import engine, local

    modules = {"engine": engine, "local": local}
    originals = {seam: getattr(modules[seam[0]], seam[1]) for seam in LAYER_SEAMS}
    calls = {seam: [] for seam in LAYER_SEAMS}

    def counted(seam):
        def wrapper(*args, **kwargs):
            result = originals[seam](*args, **kwargs)
            calls[seam].append((args, result))
            return result

        return wrapper

    for seam in LAYER_SEAMS:
        monkeypatch.setattr(modules[seam[0]], seam[1], counted(seam))
    # a lower-bound point off the tightened rows, which an exact backend never
    # gives, is what reaches the offset search's solve and the start projection
    out = engine.run(
        QuadraticObjective(Q_NEAR_TIE), FeasibleDomain(n=3, m=1), e(1),
        SolverConfig.from_name("pgm-tau-lb"), NearMinimumBackend(),
    )
    monkeypatch.undo()
    assert all(getattr(modules[m], attr) is originals[(m, attr)] for m, attr in LAYER_SEAMS)
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert all(calls.values()), {seam: len(c) for seam, c in calls.items()}
    # what the per-layer table reads: the oracle, first, of each lower bound
    # (its cut count), and the steps and criticality of each local solve
    assert all(args[0] is out.oracle for args, _ in calls[("engine", "solve_cp_model")])
    assert sum(r.iters for _, r in calls[("engine", "pgm_solve")]) == out.local_steps
    assert all(isinstance(r.critical, bool) for _, r in calls[("engine", "pgm_solve")])


def test_each_anchor_evaluated_once(monkeypatch):
    """Under pgm-lb and pgm-tau-lb the engine and its local solver evaluate
    f and its gradient once at each point a cut is added at, x0 included:
    make_cut evaluates both, the local solver reads x_lb's from its cut and
    builds the cut at its final point from what it evaluated there, and the
    incumbent value and the angle test read them from the cuts."""
    from gradcut import engine, local

    inst = synth_instance(12, 4, "nonconvex_random", seed=0)
    events = []  # ("f" | "g" | "add", anchor key) and "lb" at each lower bound

    def counted(kinds, fn):
        def wrapper(obj, x):
            if obj is not inst.obj:  # the objective the engine cuts on
                events.extend((kind, model.anchor_key(x)) for kind in kinds)
            return fn(obj, x)

        return wrapper

    for module in (model, engine, local):
        for name, kinds in (("eval_objective", "f"), ("eval_gradient", "g"), ("make_cut", "fg")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(kinds, getattr(module, name)))
    add, solve = CutOracle.add, engine.solve_cp_model

    def counted_add(oracle, cut, *args):
        added = add(oracle, cut, *args)
        if added:
            events.append(("add", cut.key()))
        return added

    def counted_solve(*args, **kwargs):
        events.append("lb")
        return solve(*args, **kwargs)

    monkeypatch.setattr(CutOracle, "add", counted_add)
    monkeypatch.setattr(engine, "solve_cp_model", counted_solve)
    outs = {}
    for config in ("pgm-lb", "pgm-tau-lb"):
        events.clear()
        outs[config] = out = run(
            inst.obj, inst.dom, default_x0(inst.dom), SolverConfig.from_name(config),
            BruteForceBackend(),
        )
        # the evaluations between two lower bounds, at each anchor added there
        windows, window = [], []
        for event in events:
            if event == "lb":
                windows.append(window)
                window = []
            else:
                window.append(event)
        windows.append(window)
        anchors = 0
        for window in windows:
            for kind, key in window:
                if kind == "add":
                    anchors += 1
                    assert window.count(("f", key)) == 1, config
                    assert window.count(("g", key)) == 1, config
        assert anchors == len(out.oracle), config
    monkeypatch.undo()
    for out in outs.values():
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert any(event.added for event in out.lb_cut_events)
        assert out.local_steps > 0
