"""Outer cutting-plane loop with optional gradient-based local steps.

Each iteration solves the MILP cutting-plane relaxation for a lower bound,
stops when the UB-LB gap closes, and otherwise generates the next cut anchor:
either the relaxation solution x_lb itself, or the output of the
projected-gradient local solver (local.pgm_solve) run on the feasible set
tightened by offset cut rows. An extra cut at x_lb is added when the angle
condition suggests the two points straddle the optimum.

Each point is evaluated, and tested against the tightened rows, once per
iteration. x_lb's cut is made once and serves as the plain step's cut, the
extra cut and the local solver's start. The local phase starts at x_lb
itself when x_lb meets the rows, as a binary point with m ones is its own
projection onto any set it belongs to; only a point off the rows (a lower
bound within a solver's tolerance) is projected first. The local solver
returns its final point's cut, which the engine adds without evaluating the
point again.

Each lower bound hands the backend the oracle's cuts and ub, the incumbent
value; the answer is optimal or a time limit, or the backend raises
MilpSolveError, which ends the run. The first fixed point (no new cut, no
movement) takes one lower bound at the backend's tightest tolerance, and
the next one ends the run as stalled.

With all three feature flags off this reduces exactly to the classical
cutting-plane method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import logs
from .bench import RunTrace, TraceRecord
from .local import PgmParams, pgm_solve
from .milp import MilpBackend, StatusKind, check_nonempty, project, solve_cp_model
from .model import (
    FEAS_TOL,
    CutOracle,
    CutRows,
    FeasibleDomain,
    QuadraticObjective,
    anchor_key,
    eval_objective,
    is_feasible,
    make_cut,
)

log = logs.get_logger(__name__)

# the five canonical configurations: (use_local_solver, use_offset, use_lb_cuts)
CONFIG_FLAGS = {
    "cpm": (False, False, False),
    "pgm": (True, False, False),
    "pgm-tau": (True, True, False),
    "pgm-lb": (True, False, True),
    "pgm-tau-lb": (True, True, True),
}

CONFIG_NAMES = tuple(CONFIG_FLAGS)


@dataclass(frozen=True)
class SolverConfig:
    use_local_solver: bool = False
    use_offset: bool = False
    use_lb_cuts: bool = False
    epsilon: float = FEAS_TOL
    tau0: float = math.inf
    kappa_g: float = 0.1
    kappa_tau: float = 0.5
    time_limit: float = 100.0
    pgm_params: PgmParams = field(default_factory=PgmParams)
    max_outer_iters: int = 10_000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0 < self.kappa_tau < 1):
            raise ValueError("kappa_tau must lie in (0, 1)")
        if not (0 < self.kappa_g <= 1):
            raise ValueError("kappa_g must lie in (0, 1]")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if (self.use_offset or self.use_lb_cuts) and not self.use_local_solver:
            raise ValueError("offset and LB cuts require the local solver")

    @classmethod
    def from_name(cls, name: str, **overrides) -> "SolverConfig":
        try:
            local, offset, lb = CONFIG_FLAGS[name]
        except KeyError:
            raise ValueError(f"unknown configuration {name!r}; choose from {CONFIG_NAMES}")
        return cls(use_local_solver=local, use_offset=offset, use_lb_cuts=lb, **overrides)

    @property
    def name(self) -> str:
        flags = (self.use_local_solver, self.use_offset, self.use_lb_cuts)
        for name, known in CONFIG_FLAGS.items():
            if flags == known:
                return name
        return "custom"


class SolveStatus(Enum):
    EPS_OPTIMAL = "eps_optimal"
    TIME_LIMIT = "time_limit"
    ITER_LIMIT = "iter_limit"
    # a deterministic fixed point: no new cut and no movement, gap still open
    STALLED = "stalled"


def effective_objective(obj: QuadraticObjective, dom: FeasibleDomain) -> QuadraticObjective:
    """The objective the engine cuts on: Q' = Q + diag(u) - (u1' + 1u')/(2m),
    with u = obj.diag_shift, which is slice_shift(Q) solved once per objective.

    On the cardinality slice 0.5 x'Q'x equals 0.5 x'Qx: 0.5 x'diag(u)x is
    0.5 u'x for binary x, and the rank-two term takes it back off once
    sum(x) = m. Two points of the slice differ by a vector d orthogonal to
    the all-ones vector, on which d'Q'd = d'(Q + diag u)d; so every tangent
    cut of Q' is valid on the domain, since slice_shift makes Q + diag(u)
    PSD on that complement. The slack a cut at a leaves at x is 0.5
    (x-a)'Q(x-a) plus half the sum of u over the coordinates where x and a
    differ, so the least sum(u) tightens the cuts most on average.
    """
    if obj.n != dom.n:
        raise ValueError("objective and domain dimensions differ")
    u = obj.diag_shift
    return QuadraticObjective(obj.q + np.diag(u) - (u[:, None] + u[None, :]) / (2.0 * dom.m))


@dataclass
class SolveState:
    k: int
    ub: float
    lb: float
    x_ub: np.ndarray
    tau: float
    increase_offset: bool
    oracle: CutOracle
    trace: RunTrace


@dataclass(frozen=True)
class LbCutEvent:
    k: int
    inner_product: float
    anchors_equal: bool
    predicate: bool
    already_present: bool
    added: bool


@dataclass(frozen=True)
class SolveOutcome:
    x_best: np.ndarray
    f_best: float
    status: SolveStatus
    gap: float
    trace: RunTrace
    oracle: CutOracle
    iterations: int
    runtime: float
    lb_cut_events: tuple = ()
    offset_backtracks: int = 0
    # accepted projected-gradient steps over all local solver calls
    local_steps: int = 0


def build_cut_constraints(oracle: CutOracle, ub: float, tau: float) -> CutRows:
    """Theta-free rows forcing every tangent plane at most ub - tau: the level
    set of the cut model at ub - tau, as a view of the oracle's stacked cuts
    (no row is built per cut)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if not math.isfinite(ub):
        raise ValueError("ub must be finite")
    return CutRows(oracle, ub - tau)


def select_offset(
    state: SolveState,
    cfg: SolverConfig,
    dom: FeasibleDomain,
    backend: MilpBackend,
    budget: float = math.inf,
    witness: Optional[np.ndarray] = None,
):
    """Backtracking search for an offset keeping the tightened set nonempty.

    Caps tau at kappa_g * gap, then halves until the feasibility check passes.
    Reaching the floor epsilon falls back to tau = 0, which is always nonempty
    because the incumbent satisfies every row there; this bounds the number of
    backtracks by ceil(log(tau_init/eps) / log(1/kappa_tau)) + 1. A witness
    point of the domain that satisfies the rows settles a check without a
    solve; the lower-bound solution is one whenever tau stays below the gap.
    The witness is tested once against each set of rows, and the last test
    is returned: whether it meets the rows chosen (False without a witness).

    Returns (tau, rows, increase_offset, n_backtracks, witness_meets).
    """
    deadline = time.perf_counter() + budget
    tau = min(state.tau, cfg.kappa_g * (state.ub - state.lb))
    increase = state.increase_offset
    backtracks = 0
    while True:
        if tau < cfg.epsilon:
            tau = 0.0
        rows = build_cut_constraints(state.oracle, state.ub, tau)
        meets = witness is not None and rows.satisfied_by(witness)
        if (
            tau == 0.0
            or meets
            or check_nonempty(dom, rows, deadline - time.perf_counter(), backend)
        ):
            return tau, rows, increase, backtracks, meets
        tau *= cfg.kappa_tau
        increase = False
        backtracks += 1


def lb_cut_condition(inner_product: float, anchors_equal: bool) -> bool:
    """Angle test for adding a second cut at the relaxation solution.

    True when inner_product = <grad f(x_next), x_lb - x_next> <= 0 and the
    points differ (identical points would only duplicate the cut just added).
    """
    return not anchors_equal and inner_product <= 0.0


def run(
    obj: QuadraticObjective,
    dom: FeasibleDomain,
    x0: np.ndarray,
    cfg: SolverConfig,
    backend: MilpBackend,
    instance_name: str = "",
    config_name: str = "",
) -> SolveOutcome:
    """Solve min 0.5 x'Qx over the binary domain to eps-optimality.

    The engine cuts on effective_objective(obj, dom), a matrix whose quadratic
    form equals f on the cardinality slice, so its values are f's values.
    The domain is fixed for the run, so backend.for_domain(dom) is asked
    once, and every subproblem goes to the backend it returns. Each point
    that gets a cut is evaluated once: its cut carries f and the gradient
    there. Records logged during the run name the cell: instance and
    configuration.
    """
    with logs.cell(instance_name, config_name or cfg.name):
        return _run(obj, dom, x0, cfg, backend, instance_name, config_name)


def _run(
    obj: QuadraticObjective,
    dom: FeasibleDomain,
    x0: np.ndarray,
    cfg: SolverConfig,
    backend: MilpBackend,
    instance_name: str,
    config_name: str,
) -> SolveOutcome:
    x0 = np.asarray(x0, dtype=float)
    if not is_feasible(dom, x0):
        raise ValueError("x0 is not feasible for the domain")
    work = effective_objective(obj, dom)
    backend = backend.for_domain(dom)
    t_start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - t_start

    def remaining() -> float:
        return cfg.time_limit - elapsed()

    oracle = CutOracle()
    cut = make_cut(work, x0)
    oracle.add(cut)
    trace = RunTrace(
        records=[],
        config_name=config_name or cfg.name,
        instance_name=instance_name,
        f0=eval_objective(obj, x0),
    )
    state = SolveState(
        k=0,
        ub=cut.value,
        lb=-math.inf,
        x_ub=x0.copy(),
        tau=cfg.tau0,
        increase_offset=cfg.use_offset,
        oracle=oracle,
        trace=trace,
    )
    status = SolveStatus.ITER_LIMIT
    lb_cut_events: list[LbCutEvent] = []
    offset_backtracks = 0
    local_steps = 0
    tau_used = 0.0
    prev_signature = None
    tight = False  # solve the next lower bound at the backend's tightest tolerance
    tightened = False

    def record():
        trace.records.append(
            TraceRecord(
                k=state.k,
                t=elapsed(),
                ub=state.ub,
                lb=state.lb,
                n_cuts=len(oracle),
                tau=tau_used,
            )
        )

    for _ in range(cfg.max_outer_iters):
        if remaining() <= 0:
            status = SolveStatus.TIME_LIMIT
            break
        res = solve_cp_model(oracle, dom, remaining(), backend, ub=state.ub, tight=tight)
        tight = False
        if res.bound is not None:
            # a backend may reject bounds above ub past its own tolerance;
            # what remains above ub should be rounding
            if res.bound > state.ub + FEAS_TOL * max(1.0, abs(state.ub)):
                log.warning(
                    "lower bound %.12g exceeds the incumbent value %.12g; clipped to it",
                    res.bound, state.ub,
                )
            state.lb = max(state.lb, min(res.bound, state.ub))
        if res.status.kind is StatusKind.TIME_LIMIT:
            status = SolveStatus.TIME_LIMIT
            break
        state.k += 1
        x_lb = res.x
        if state.ub - state.lb <= cfg.epsilon:
            tau_used = 0.0
            record()
            status = SolveStatus.EPS_OPTIMAL
            break
        lb_cut = make_cut(work, x_lb)
        lb_key = anchor_key(x_lb)
        cut, next_key = lb_cut, lb_key  # the plain step, unless a local point replaces it

        if cfg.use_local_solver:
            if cfg.use_offset:
                tau, rows, state.increase_offset, n_bt, meets = select_offset(
                    state, cfg, dom, backend, remaining(), witness=x_lb
                )
                state.tau = tau
                offset_backtracks += n_bt
            else:
                rows = build_cut_constraints(oracle, state.ub, 0.0)
                meets = rows.satisfied_by(x_lb)
            tau_used = state.tau if cfg.use_offset else 0.0
            # x_lb is binary with m ones, so it is its own projection when it
            # meets the rows; a lower bound within a solver's tolerance may not
            start = None
            if remaining() > 0 and meets:
                start = lb_cut
            else:
                projected = project(x_lb, dom, rows, remaining(), backend)
                if projected.ok:
                    start = make_cut(work, projected.x)
            # the plain step stays where the tightened set is unavailable, or
            # where the local point's cut exists and x_lb's does not: the
            # iteration would be a no-op, and the relaxation must tighten
            if start is not None:
                local = pgm_solve(work, dom, rows, start, cfg.pgm_params, backend, remaining())
                local_steps += local.iters
                key = lb_key if local.cut is lb_cut else anchor_key(local.x_final)
                if key not in oracle or lb_key in oracle:
                    cut, next_key = local.cut, key
            if state.increase_offset:
                state.tau = state.tau / cfg.kappa_tau
        else:
            tau_used = 0.0

        x_next = cut.anchor
        if cut.value <= state.ub:
            state.x_ub = x_next
            state.ub = cut.value
        new_cut = oracle.add(cut, next_key)
        added_lb_cut = False
        if cfg.use_lb_cuts:
            ip = float(cut.grad @ (x_lb - x_next))
            # binary points: equal exactly when their keys are
            anchors_equal = lb_key == next_key
            predicate = lb_cut_condition(ip, anchors_equal)
            already_present = lb_key in oracle
            if predicate:
                added_lb_cut = oracle.add(lb_cut, lb_key)
            lb_cut_events.append(
                LbCutEvent(
                    k=state.k,
                    inner_product=ip,
                    anchors_equal=anchors_equal,
                    predicate=predicate,
                    already_present=already_present,
                    added=added_lb_cut,
                )
            )
        record()

        # a deterministic fixed point: no new cuts and no state movement means
        # every later iteration would repeat verbatim, so stop early
        signature = (len(oracle), state.ub, state.lb, state.tau, state.increase_offset)
        if not new_cut and not added_lb_cut and signature == prev_signature:
            # the gap may be a solver's tolerance on the lower bound: solve it
            # once more, tightly, before giving up
            if tightened:
                status = SolveStatus.STALLED
                break
            tight = tightened = True
        prev_signature = signature

    return SolveOutcome(
        x_best=state.x_ub,
        f_best=eval_objective(obj, state.x_ub),
        status=status,
        gap=max(0.0, state.ub - state.lb),
        trace=trace,
        oracle=oracle,
        iterations=state.k,
        runtime=elapsed(),
        lb_cut_events=tuple(lb_cut_events),
        offset_backtracks=offset_backtracks,
        local_steps=local_steps,
    )
