"""Acceptance suite: one test per shipped guarantee, each at its stated
tolerance, printing a PASS line on success (run with -s to see them).

The heavy fixtures are session-scoped: the (instance x configuration)
equivalence sweep is solved once per backend and reused by the criteria that
inspect cuts, bounds, traces, and LB-cut instrumentation.
"""

import itertools
import math

import numpy as np
import pytest

from gradcut.bench import default_x0, residue, synth_instance
from gradcut.engine import (
    CONFIG_NAMES,
    SolveState,
    SolveStatus,
    SolverConfig,
    run,
    select_offset,
)
from gradcut.bench import RunTrace
from gradcut.local import PgmParams, is_critical, pgm_solve
from gradcut.milp import BruteForceBackend, HighsBackend
from gradcut.model import (
    CutOracle,
    FeasibleDomain,
    QuadraticObjective,
    eval_objective,
    is_feasible,
    make_cut,
)

from conftest import meets, rows_of

GAP_TOL = 1e-9
METRIC_TOL = 1e-12


def report(name):
    print(f"\n[ACCEPTANCE PASS] {name}")


# ---------------------------------------------------------------------------
# independent oracle: vectorized exhaustive minimization


def all_points(n, m):
    pts = np.zeros((math.comb(n, m), n))
    for i, idx in enumerate(itertools.combinations(range(n), m)):
        pts[i, list(idx)] = 1.0
    return pts


def brute_minimum(q, dom):
    pts = all_points(dom.n, dom.m)
    vals = 0.5 * np.einsum("ij,jk,ik->i", pts, q, pts)
    i = int(np.argmin(vals))
    return float(vals[i]), pts[i]


# ---------------------------------------------------------------------------
# the equivalence sweep: 100 convex + 50 nonconvex instances, all five configs


def make_suite():
    rng = np.random.default_rng(20240817)
    instances = []
    for i in range(100):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(1, n))
        a = rng.standard_normal((n, n))
        q = a.T @ a
        q = (q + q.T) / 2.0
        q /= np.linalg.norm(q, 2)
        instances.append(("convex", i, QuadraticObjective(q), FeasibleDomain(n=n, m=m)))
    for i in range(50):
        n = int(rng.integers(6, 11))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        q = (a + a.T) / 2.0
        instances.append(("nonconvex", i, QuadraticObjective(q), FeasibleDomain(n=n, m=m)))
    return instances


@pytest.fixture(scope="session")
def suite_instances():
    return make_suite()


def run_sweep(instances, backend_factory):
    cells = []
    for kind, idx, obj, dom in instances:
        f_star, x_star = brute_minimum(obj.q, dom)
        x0 = default_x0(dom)
        backend = backend_factory()
        for config in CONFIG_NAMES:
            out = run(
                obj,
                dom,
                x0,
                SolverConfig.from_name(config),
                backend,
                instance_name=f"{kind}-{idx}",
                config_name=config,
            )
            cells.append(
                {
                    "kind": kind,
                    "config": config,
                    "obj": obj,
                    "dom": dom,
                    "f_star": f_star,
                    "x_star": x_star,
                    "outcome": out,
                }
            )
    return cells


@pytest.fixture(scope="session")
def sweep_brute(suite_instances):
    return run_sweep(suite_instances, BruteForceBackend)


@pytest.fixture(scope="session")
def sweep_highs(suite_instances):
    return run_sweep(suite_instances, HighsBackend)


def assert_oracle_equivalence(cells):
    for cell in cells:
        out = cell["outcome"]
        assert out.status is SolveStatus.EPS_OPTIMAL, (
            cell["kind"], cell["config"], out.status)
        assert abs(out.f_best - cell["f_star"]) <= GAP_TOL, (
            cell["kind"], cell["config"], out.f_best, cell["f_star"])
        assert is_feasible(cell["dom"], out.x_best)


def test_oracle_equivalence_bruteforce_backend(sweep_brute):
    """100 convex + 50 nonconvex instances, all five
    configurations, against exhaustive enumeration, within 1e-9."""
    assert len(sweep_brute) == 150 * 5
    assert_oracle_equivalence(sweep_brute)
    report("oracle equivalence (brute-force backend, 750 runs)")


@pytest.mark.slow
def test_oracle_equivalence_highs_backend(sweep_highs):
    assert len(sweep_highs) == 150 * 5
    assert_oracle_equivalence(sweep_highs)
    report("oracle equivalence (HiGHS backend, 750 runs)")


@pytest.mark.slow
def test_cut_validity_and_bound_sandwich(sweep_brute, sweep_highs):
    """Every generated cut respects the gradient inequality at the true
    optimum, and LB_k <= f* <= UB_k at every recorded iteration."""
    for cell in itertools.chain(sweep_brute, sweep_highs):
        out = cell["outcome"]
        f_star, x_star = cell["f_star"], cell["x_star"]
        for cut in out.oracle:
            lhs = cut.value + float(cut.grad @ (x_star - cut.anchor))
            assert lhs <= f_star + GAP_TOL
        for rec in out.trace.records:
            assert rec.lb <= f_star + GAP_TOL
            assert rec.ub >= f_star - GAP_TOL
    report("cut validity and bound sandwich (all equivalence runs)")


def test_pgm_termination_suite():
    """1000 projected-gradient runs on random convex instances terminate
    finitely at certified critical points without ascending."""
    rng = np.random.default_rng(77)
    backend = BruteForceBackend()
    for trial in range(1000):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        a = rng.standard_normal((n, n))
        q = a.T @ a
        q = (q + q.T) / 2.0
        obj = QuadraticObjective(q / np.linalg.norm(q, 2))
        dom = FeasibleDomain(n=n, m=m)
        pts = all_points(n, m)
        x0 = pts[int(rng.integers(len(pts)))]
        res = pgm_solve(obj, dom, rows_of(), x0, PgmParams(), backend)
        assert res.critical, trial
        assert res.iters < PgmParams().max_iters
        assert is_feasible(dom, res.x_final)
        assert res.f_final <= eval_objective(obj, x0) + 1e-12
        assert is_critical(obj, dom, rows_of(), res.x_final, res.eta, backend), trial
    report("finite critical termination (1000 PGM runs)")


def test_offset_backtracking_bound():
    """With an optimal incumbent no positive offset is feasible; the search
    must floor out at tau = 0 within the advertised backtrack budget."""
    rng = np.random.default_rng(5150)
    backend = BruteForceBackend()
    checked = 0
    for trial in range(20):
        n = int(rng.integers(5, 10))
        m = int(rng.integers(1, n))
        a = rng.standard_normal((n, n))
        q = a.T @ a
        q = (q + q.T) / 2.0
        obj = QuadraticObjective(q / np.linalg.norm(q, 2))
        dom = FeasibleDomain(n=n, m=m)
        f_star, x_star = brute_minimum(obj.q, dom)
        # cut every feasible point: with ub = f*, each point then violates its
        # own row for any tau > 0, so no positive offset can be accepted
        oracle = CutOracle()
        for p in all_points(n, m):
            oracle.add(make_cut(obj, p))
        tau_init = float(rng.uniform(0.1, 5.0))
        cfg = SolverConfig.from_name("pgm-tau")
        state = SolveState(
            k=0,
            ub=f_star,
            lb=f_star - tau_init / cfg.kappa_g,  # keep the gap cap from binding
            x_ub=x_star,
            tau=tau_init,
            increase_offset=True,
            oracle=oracle,
            trace=RunTrace(records=[], config_name="pgm-tau", instance_name="", f0=f_star),
        )
        tau, rows, increase, backtracks = select_offset(state, cfg, dom, backend)
        bound = math.ceil(math.log(tau_init / cfg.epsilon) / math.log(1 / cfg.kappa_tau)) + 1
        assert backtracks <= bound, (trial, backtracks, bound)
        assert tau == 0.0
        assert increase is False
        assert meets(rows, x_star)
        checked += 1
    assert checked == 20
    report("offset backtracking bound on optimal-incumbent fixtures")


@pytest.mark.slow
def test_directional_performance_on_mdp_instances():
    """On synthetic diversity instances the fully tightened configuration
    reaches residue 1e-6 in no more median iterations than the plain method.

    Desk-scale stand-in for the paper-scale benchmark data: absolute runtimes
    and figure values are hardware- and data-dependent, the direction is not.
    """
    rng = np.random.default_rng(2024)
    counts = {"cpm": [], "pgm-tau-lb": []}
    for i in range(20):
        n = int(rng.integers(30, 61))
        m = max(2, n // 5)
        inst = synth_instance(n, m, "mdp_like", seed=1000 + i)
        x0 = default_x0(inst.dom)
        traces = {}
        for config in counts:
            cfg = SolverConfig.from_name(config, time_limit=8.0, max_outer_iters=40)
            out = run(
                inst.obj,
                inst.dom,
                x0,
                cfg,
                HighsBackend(),
                instance_name=inst.name,
                config_name=config,
            )
            traces[config] = out.trace
        f_star = min(min(r.ub for r in tr.records) for tr in traces.values())
        for config, tr in traces.items():
            series = residue(tr, f_star, "iterations")
            k_hit = math.inf
            for b, r in series.points:
                if r <= 1e-6:
                    k_hit = b
                    break
            counts[config].append(k_hit)
    med_plain = float(np.median(counts["cpm"]))
    med_tight = float(np.median(counts["pgm-tau-lb"]))
    assert med_tight <= med_plain, (counts, med_tight, med_plain)
    report(
        f"directional claim: median iterations to residue 1e-6, "
        f"pgm-tau-lb {med_tight} <= cpm {med_plain}"
    )


def naive_quantile(values, q):
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def naive_step(points, budget):
    value = 1.0
    for b, r in points:
        if b <= budget:
            value = r
    return value


def test_metrics_against_naive_oracle(sweep_brute):
    """median_profile and residue_distribution agree with a sort-based
    reimplementation on 200 random inputs within 1e-12; every produced trace
    yields a residue series satisfying all its invariants."""
    from gradcut.bench import ResidueSeries, median_profile, residue_distribution

    rng = np.random.default_rng(99)
    for _ in range(200):
        n_series = int(rng.integers(1, 12))
        series = []
        for _ in range(n_series):
            budgets = np.sort(rng.uniform(0.0, 10.0, size=int(rng.integers(1, 8))))
            values = np.minimum.accumulate(rng.uniform(0.0, 1.0, size=len(budgets)))
            pts = ((0.0, 1.0),) + tuple(
                (float(b), float(v)) for b, v in zip(budgets, values)
            )
            series.append(ResidueSeries(points=pts, budget_kind="runtime"))
        grid = rng.uniform(0.0, 12.0, size=4)
        band = median_profile(series, grid)
        for i, b in enumerate(grid):
            vals = [naive_step(s.points, b) for s in series]
            assert abs(band.median[i] - naive_quantile(vals, 0.50)) <= METRIC_TOL
            assert abs(band.q1[i] - naive_quantile(vals, 0.25)) <= METRIC_TOL
            assert abs(band.q3[i] - naive_quantile(vals, 0.75)) <= METRIC_TOL
        budget = float(rng.uniform(0.0, 12.0))
        cdf = residue_distribution(series, budget)
        vals = [naive_step(s.points, budget) for s in series]
        for r, frac in cdf:
            expected = sum(1 for v in vals if v <= r) / len(vals)
            assert abs(frac - expected) <= METRIC_TOL
        assert cdf[-1][1] == 1.0

    # invariants on real traces from the sweep
    for cell in sweep_brute:
        trace = cell["outcome"].trace
        if not trace.records:
            continue
        series = residue(trace, cell["f_star"], "iterations")
        vals = [r for _, r in series.points]
        assert series.value_at(0.0) == 1.0 or vals == [0.0]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    report("metrics oracle agreement (200 random inputs) and trace invariants")


@pytest.mark.slow
def test_lb_cut_instrumentation(sweep_brute, sweep_highs):
    """LB cuts appear exactly when the flag is set, the angle condition holds,
    the two points differ, and the anchor is new; never otherwise. On
    nonconvex fixtures the added count must equal the predicate count rather
    than an assumed zero."""
    for cell in itertools.chain(sweep_brute, sweep_highs):
        out = cell["outcome"]
        if cell["config"] in ("cpm", "pgm", "pgm-tau"):
            assert out.lb_cut_events == ()
            continue
        for event in out.lb_cut_events:
            assert event.predicate == (
                event.inner_product <= 0.0 and not event.anchors_equal
            )
            assert event.added == (event.predicate and not event.already_present)

    # nonconvex families shaped like the low/high-cardinality boolean
    # quadratic benchmarks; counts must track the predicate, whatever it is
    backend = BruteForceBackend()
    total_added = 0
    for seed, (n, m) in enumerate([(12, 2), (12, 10), (10, 2), (10, 8)]):
        inst = synth_instance(n, m, "nonconvex_random", seed=300 + seed)
        x0 = default_x0(inst.dom)
        for config in ("pgm-lb", "pgm-tau-lb"):
            out = run(inst.obj, inst.dom, x0, SolverConfig.from_name(config),
                      backend, config_name=config)
            expected = sum(
                1 for e in out.lb_cut_events if e.predicate and not e.already_present
            )
            actual = sum(1 for e in out.lb_cut_events if e.added)
            assert actual == expected
            total_added += actual
    report(f"LB-cut instrumentation (added == predicate; {total_added} cuts on fixtures)")
