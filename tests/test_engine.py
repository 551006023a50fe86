import dataclasses
import functools
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcut import milp
from gradcut.bench import RunTrace, default_x0, synth_instance, validate_trace
from gradcut.engine import (
    _PSD_TOL,
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
    CutOracle,
    FeasibleDomain,
    QuadraticObjective,
    eval_objective,
    make_cut,
)

from conftest import (
    Q_DIAG,
    e,
    enumerate_min,
    feasible_points,
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
        np.testing.assert_array_equal(rows[0].coeffs, [0.0, 4.0, 0.0])
        assert rows[0].rhs == pytest.approx(3.9)
        assert rows[0].sense == "<="

    def test_zero_offset_binds_at_anchor_iff_value_equals_ub(self):
        oracle = oracle_at(Q_DIAG, [e(1)])
        cut = oracle.cuts[0]
        binding = build_cut_constraints(oracle, ub=cut.value, tau=0.0)[0]
        assert float(binding.coeffs @ cut.anchor) == pytest.approx(binding.rhs)
        slack = build_cut_constraints(oracle, ub=cut.value + 1.0, tau=0.0)[0]
        assert float(slack.coeffs @ cut.anchor) < slack.rhs

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
        tau, rows, increase, backtracks = select_offset(
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
        tau, rows, increase, backtracks = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), brute_backend
        )
        assert tau == 0.0
        assert increase is False
        bound = math.ceil(math.log(0.5 / cfg.epsilon) / math.log(1.0 / cfg.kappa_tau)) + 1
        assert backtracks <= bound
        # the incumbent e1 satisfies every zero-offset row
        x_inc = e(0)
        assert all(row.satisfied_by(x_inc) for row in rows)

    def test_feasible_offset_accepted_first_try(self, brute_backend):
        state = offset_state(oracle_at(Q_DIAG, [e(1)]), ub=2.0, lb=-8.0, tau=0.5)
        cfg = SolverConfig.from_name("pgm-tau")
        tau, rows, increase, backtracks = select_offset(
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
        tau, rows, increase, backtracks = select_offset(
            state, cfg, FeasibleDomain(n=3, m=1), NoLinearSolves(), witness=e(1)
        )
        assert tau == pytest.approx(0.5)
        assert backtracks == 0
        assert all(row.satisfied_by(e(1)) for row in rows)


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
        # On 1-perp, diag(2, 4, 6) has the eigenvalues that solve
        # 1/(2-l) + 1/(4-l) + 1/(6-l) = 0, i.e. 3l^2 - 24l + 44 = 0, the
        # smaller being 4 - 2/sqrt(3); so rho = -(4 - 2/sqrt(3)). The one cut,
        # at e3, is theta >= (6+rho)/2 + (6+rho)(x3 - 1), least at e1 and e2:
        # -(6+rho)/2, or -3 - rho = 1 - 2/sqrt(3) after the shift rho*m/2.
        assert out.trace.records[0].ub == pytest.approx(3.0)
        assert out.trace.records[0].lb == pytest.approx(1.0 - 2.0 / math.sqrt(3.0))

    def test_infeasible_start_rejected(self, brute_backend):
        obj = QuadraticObjective(Q_DIAG)
        dom = FeasibleDomain(n=3, m=1)
        with pytest.raises(ValueError):
            run(obj, dom, np.ones(3), SolverConfig.from_name("cpm"), brute_backend)

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

    def test_nonconvex_instance_regularized_and_reported_in_original_scale(
        self, brute_backend
    ):
        rng = np.random.default_rng(21)
        obj = random_symmetric_objective(rng, 8)
        dom = FeasibleDomain(n=8, m=3)
        x0 = feasible_points(dom)[0]
        out = run(obj, dom, x0, SolverConfig.from_name("pgm-tau-lb"), brute_backend)
        f_star, _ = enumerate_min(obj.q, dom)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(f_star, abs=1e-9)
        assert out.trace.f0 == pytest.approx(eval_objective(obj, x0))
        # reported bounds sandwich the original-scale optimum
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
        # cuts live in the engine's working scale, so compare against the
        # correspondingly shifted optimum
        rng = np.random.default_rng(11)
        make = random_psd_objective if convex else random_symmetric_objective
        obj = make(rng, 9)
        dom = FeasibleDomain(n=9, m=3)
        out = run(
            obj, dom, feasible_points(dom)[0], SolverConfig.from_name("pgm-lb"), brute_backend
        )
        f_star, x_star = enumerate_min(obj.q, dom)
        f_star_internal = f_star + effective_objective(obj, dom).shift
        for cut in out.oracle:
            assert cut.value + float(cut.grad @ (x_star - cut.anchor)) <= f_star_internal + 1e-9

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

    def test_trust_region_local_solver_configuration(self, brute_backend):
        rng = np.random.default_rng(13)
        obj = random_psd_objective(rng, 8)
        dom = FeasibleDomain(n=8, m=3)
        cfg = SolverConfig.from_name("pgm-tau", local_solver="trust_region")
        out = run(obj, dom, feasible_points(dom)[0], cfg, brute_backend)
        f_star, _ = enumerate_min(obj.q, dom)
        assert out.status is SolveStatus.EPS_OPTIMAL
        assert out.f_best == pytest.approx(f_star, abs=1e-9)


def assert_shift_contract(obj, dom):
    """effective_objective's three promises on the domain: the shift is a
    constant on the slice, every tangent cut is valid at every point of it,
    and rho is the least such shift: lambda_min(V'(Q + rho I)V) is the
    margin, with V an orthonormal basis of 1-perp. Returns rho."""
    work = effective_objective(obj, dom)
    rho = work.regularization.rho
    pts = np.array(feasible_points(dom))
    f = 0.5 * np.einsum("ij,jk,ik->i", pts, obj.q, pts)
    f_work = 0.5 * np.einsum("ij,jk,ik->i", pts, work.q, pts)
    np.testing.assert_allclose(f_work - f, work.shift, rtol=0, atol=1e-9)
    grads = pts @ work.q
    # cuts[a, x]: the tangent plane at anchor a evaluated at x
    cuts = (f_work - np.einsum("ij,ij->i", grads, pts))[:, None] + grads @ pts.T
    assert np.all(cuts <= f_work[None, :] + 1e-9)
    basis = scipy.linalg.null_space(np.ones((1, obj.n)))
    scale = max(1.0, float(np.max(np.abs(obj.q))))
    assert np.linalg.eigvalsh(basis.T @ work.q @ basis)[0] == pytest.approx(
        _PSD_TOL * scale, rel=0, abs=1e-10 * scale
    )
    return rho


class TestEffectiveObjective:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_constant_shift_and_valid_cuts_on_the_slice(self, seed, n):
        rng = np.random.default_rng(seed)
        obj = random_symmetric_objective(rng, n)
        rho = assert_shift_contract(obj, FeasibleDomain(n=n, m=int(rng.integers(1, n))))
        # never more than the Gershgorin shift, which makes Q PSD everywhere
        q = obj.q
        off_diag = np.sum(np.abs(q), axis=1) - np.abs(np.diag(q))
        assert rho <= max(0.0, float(np.max(off_diag - np.diag(q)))) + 1e-9

    def test_negated_distances_need_no_shift(self):
        # Euclidean distance matrices are conditionally negative definite, so
        # -D is PSD on 1-perp although indefinite: it needs no positive shift,
        # and the negative one it gets tightens every cut
        inst = synth_instance(12, 4, "mdp_like", seed=0)
        assert np.linalg.eigvalsh(inst.obj.q)[0] < -1.0
        assert assert_shift_contract(inst.obj, inst.dom) < 0.0

    def test_convex_objective_unchanged(self):
        # convex Q keeps its argmin on the slice; the shift is still negative
        obj = random_psd_objective(np.random.default_rng(4), 6)
        assert assert_shift_contract(obj, FeasibleDomain(n=6, m=2)) < 0.0

    def test_one_direction_zero_mid_spectrum(self):
        # Q has the eigenvalues -3, -1, 2, 5, 7, 9 on 1-perp, so rho is 3, and
        # P Q P has those and the zero of the 1-direction, between -1 and 2:
        # skipping the first eigenvalue of P Q P would take rho = 1 and lose
        # validity
        rng = np.random.default_rng(8)
        basis = scipy.linalg.null_space(np.ones((1, 7)))
        rot, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        half = basis @ rot
        q = half @ np.diag([-3.0, -1.0, 2.0, 5.0, 7.0, 9.0]) @ half.T + 0.25
        obj = QuadraticObjective((q + q.T) / 2.0)
        pqp = np.linalg.eigvalsh(basis @ basis.T @ obj.q @ basis @ basis.T)
        assert pqp[0] < pqp[1] < -0.5 and 0.5 < pqp[3]
        rho = assert_shift_contract(obj, FeasibleDomain(n=7, m=3))
        assert rho == pytest.approx(3.0, abs=1e-9)


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
        lb = res.theta
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
    # the reference cuts on the objective the engine works with, and so
    # reports in that scale: compare after the shift
    work = effective_objective(obj, dom)
    shift = work.shift
    anchors_ref, bounds_ref, ub_ref = classical_cutting_planes(
        work, dom, x0, 1e-9, BruteForceBackend()
    )
    anchors_run = [tuple(cut.anchor) for cut in out.oracle]
    assert anchors_run == anchors_ref
    assert out.f_best + shift == pytest.approx(ub_ref, abs=1e-12)
    bounds_run = [(rec.ub, rec.lb) for rec in out.trace.records]
    assert len(bounds_run) == len(bounds_ref)
    for (ub_a, lb_a), (ub_b, lb_b) in zip(bounds_run, bounds_ref):
        assert ub_a + shift == pytest.approx(ub_b, abs=1e-12)
        assert lb_a + shift == pytest.approx(lb_b, abs=1e-12)


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
    # bound settles 1e-6 below its optimal incumbent from iteration 11 on,
    # short of the 1e-9 certificate; the fixed point at iteration 12 takes one
    # tight re-solve, which certifies at iteration 13
    caplog.set_level(logging.WARNING, logger="gradcut")
    inst = synth_instance(30, 6, "mdp_like", 5)
    out = run(
        inst.obj,
        inst.dom,
        default_x0(inst.dom),
        SolverConfig.from_name("cpm"),
        HighsBackend(),
        instance_name=inst.name,
    )
    assert out.status is SolveStatus.EPS_OPTIMAL
    assert out.f_best == pytest.approx(synth_minimum(30, 6, "mdp_like", 5), abs=1e-9)
    retries = [r for r in caplog.records if "mip_feasibility_tolerance" in r.getMessage()]
    assert len(retries) == 1
    assert retries[0].cell == f"{inst.name}/cpm"


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
