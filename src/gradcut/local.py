"""The discrete local solver: projected gradient descent driven through MILP
projections.

The method iterates x+ in Proj(x - gamma * grad f(x)) with backtracking on
gamma until a sufficient-decrease test holds; it stops at a critical point,
i.e. a fixed point of the projected gradient map for some positive step.
Each projection is a linear MILP over the binary domain (milp.project).

On the cardinality slice no step below 1/spread(x) moves the projection of
x - gamma * grad f(x), where spread(x) is the largest gradient entry on the
support of x less the smallest one off it: every point is a fixed point at
such a step (Beck and Eldar, SIAM J. Optim. 23(3), 2013). So each iteration
starts its step just past that first breakpoint.

The solver starts from a point's cut, whose f and gradient it reads, and
returns the cut at its final point, built from the values it evaluated
there: each point is evaluated once. The engine starts it at the lower
bound's point when that point meets the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .milp import MilpBackend, project
from .model import (
    FEAS_TOL,
    Cut,
    CutRows,
    FeasibleDomain,
    QuadraticObjective,
    eval_gradient,
    eval_objective,
)

# an iteration's step starts at least this multiple of 1/spread(x), the step at
# which the cardinality projection of x - gamma * grad f(x) first moves
PAST_BREAKPOINT = 1.01


@dataclass(frozen=True)
class PgmParams:
    alpha: float = 1e-3
    beta: float = 0.5
    gamma0: float = 1.0
    decrease_test: str = "eq6"  # eq5 | eq6 | either
    max_iters: int = 1000
    max_backtracks: int = 60

    def __post_init__(self):
        if not (0 < self.alpha < 1) or not (0 < self.beta < 1):
            raise ValueError("alpha and beta must lie in (0, 1)")
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.decrease_test not in ("eq5", "eq6", "either"):
            raise ValueError(f"unknown decrease test {self.decrease_test!r}")


@dataclass(frozen=True)
class LocalResult:
    """How a local solve ended: cut is the tangent data at its final point,
    built from the f and gradient the solve evaluated there."""

    cut: Cut
    iters: int
    critical: bool
    eta: float

    @property
    def x_final(self) -> np.ndarray:
        return self.cut.anchor

    @property
    def f_final(self) -> float:
        return self.cut.value


def sufficient_decrease(
    f_j: float,
    f_j1: float,
    x_j: np.ndarray,
    x_j1: np.ndarray,
    grad_j: np.ndarray,
    gamma: float,
    params: PgmParams,
) -> bool:
    """Non-strict sufficient-decrease tests on a candidate step.

    quadratic form: f+ <= f - alpha * ||dx||^2 / (2 gamma)
    directional form: f+ <= f - alpha * <grad, x - x+>
    `either` accepts when one of the two holds. A form is computed only
    where the answer needs it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    dx = np.asarray(x_j1, dtype=float) - np.asarray(x_j, dtype=float)
    test = params.decrease_test
    if test != "eq6":
        ok5 = f_j1 <= f_j - params.alpha * float(dx @ dx) / (2.0 * gamma)
        if ok5 or test == "eq5":
            return ok5
    return f_j1 <= f_j - params.alpha * float(np.asarray(grad_j) @ (-dx))


def is_critical(
    obj: QuadraticObjective,
    dom: FeasibleDomain,
    cut_rows: CutRows,
    x: np.ndarray,
    eta: float,
    backend: MilpBackend,
    budget: float = float("inf"),
) -> bool:
    """Whether x attains the projection optimum of x - eta * grad f(x), within
    FEAS_TOL.

    Membership in the argmin set, checked by comparing objective values rather
    than point identity, so backend tie-breaking cannot flip the answer; an
    optimum found at x itself counts whatever rounding parts the two. The
    full projection is posed, with no point handed in, so this is the oracle
    for pgm_solve's stopping test, which hands its point to the projection.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    z = x - eta * eval_gradient(obj, x)
    res = project(z, dom, cut_rows, budget, backend)
    if not res.ok:
        raise RuntimeError(f"projection failed during criticality check: {res.status}")
    return float((1.0 - 2.0 * z) @ x) <= res.objective + FEAS_TOL or np.array_equal(res.x, x)


def pgm_solve(
    obj: QuadraticObjective,
    dom: FeasibleDomain,
    cut_rows: CutRows,
    start: Cut,
    params: PgmParams,
    backend: MilpBackend,
    budget: float = float("inf"),
) -> LocalResult:
    """Projected gradient descent from a feasible point; monotone, finite.

    start is make_cut(obj, x0) at the start point x0, whose f and gradient
    the solve reads instead of evaluating them. Each iteration's step is the
    one carried over from the last iteration (gamma0 for the first), raised
    to PAST_BREAKPOINT / spread(x) when the spread is positive, and halved on
    failed decrease tests. A spread of zero or less means x already minimizes
    the linearization on the slice, and the step is left as it is.
    Termination fires when the current point itself attains the projection
    optimum (criticality), or on iteration/backtrack/time caps, in which case
    the best iterate so far is returned with critical=False. Each trial
    hands x to project, whose answer is x itself exactly when x scores
    within FEAS_TOL of the optimum or is the optimum found, as is_critical
    tests; the slice's two least costs often settle that before any
    enumerator pass or MILP (MilpBackend.solve_linear).

    Each point is evaluated once: f when it is first a candidate, the
    gradient once it is accepted. A candidate met before, the start or one
    a failed decrease test turned down, reads the f kept for it. The
    result's cut is the final point's, from those values; it is start itself
    when no step was accepted.
    """
    x, fx, grad = start.anchor, start.value, start.grad
    cut = start
    f_at = {x.tobytes(): fx}
    gamma = params.gamma0
    deadline = time.perf_counter() + budget
    iters = 0
    while iters < params.max_iters:
        spread = _spread(x, grad)
        if spread > 0:
            gamma = max(gamma, PAST_BREAKPOINT / spread)
        accepted = False
        for _ in range(params.max_backtracks + 1):
            remaining = deadline - time.perf_counter()
            res = project(x - gamma * grad, dom, cut_rows, remaining, backend, x)
            if not res.ok:
                return LocalResult(cut, iters, critical=False, eta=gamma)
            if res.x is x:
                return LocalResult(cut, iters, critical=True, eta=gamma)
            x_new = res.x
            seen = x_new.tobytes()
            f_new = f_at.get(seen)
            if f_new is None:
                f_new = f_at[seen] = eval_objective(obj, x_new)
            if sufficient_decrease(fx, f_new, x, x_new, grad, gamma, params):
                accepted = True
                break
            gamma *= params.beta
        if not accepted:
            return LocalResult(cut, iters, critical=False, eta=gamma)
        x, fx = x_new, f_new
        grad = eval_gradient(obj, x)
        cut = Cut(anchor=x, grad=grad, value=fx)
        iters += 1
    return LocalResult(cut, iters, critical=False, eta=gamma)


def _spread(x: np.ndarray, grad: np.ndarray) -> float:
    """The largest gradient entry on the support of the binary point x less the
    smallest one off it; the projection of x - gamma * grad first moves at
    gamma = 1 / spread, when a swap of one such pair starts to pay."""
    on = x > 0.5
    return float(grad[on].max(initial=-np.inf) - grad[~on].min(initial=np.inf))
