"""MILP backend contract and the four subproblem builders.

Every subproblem the solver needs boils down to one of two primitives over the
binary domain: minimizing a linear objective, or minimizing the epigraph
variable theta of the cutting-plane model. Backends implement exactly those
two; the module-level functions pose the concrete models (lower bound,
projection, feasibility, trust-region step) so that engine code never touches
solver types.

Three backends ship: a brute-force enumerator (exact, small slices, also the
test oracle), an adapter to the HiGHS solver via scipy.optimize.milp, and the
default, which picks one of the two per call from the size of the slice.
"""

from __future__ import annotations

import abc
import itertools
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Optional, Sequence

import numpy as np

from .logs import get_logger
from .model import Cut, FeasibleDomain, LinearRow

log = get_logger(__name__)

# refuse brute-force enumeration beyond this many points
_ENUM_CAP = 2_000_000

# AutoBackend enumerates a slice whose point table, C(n,m) x n float64
# entries, stays within this many entries (16 MB)
AUTO_ENUM_ENTRIES = 2_000_000

# relative slack by which a reported lower bound may exceed the upper limit on
# the model optimum before it counts as impossible
BOUND_RTOL = 1e-9


class StatusKind(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


@dataclass(frozen=True)
class MilpStatus:
    kind: StatusKind
    message: str = ""


@dataclass(frozen=True)
class MilpResult:
    status: MilpStatus
    x: Optional[np.ndarray] = None
    theta: Optional[float] = None
    objective: Optional[float] = None
    solve_time: float = 0.0
    dual_bound: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status.kind is StatusKind.OPTIMAL

    @property
    def bound(self) -> Optional[float]:
        """Lower bound on the model optimum: the dual bound, else an optimal objective."""
        if self.dual_bound is not None:
            return self.dual_bound
        return self.objective if self.ok else None


class MilpSolveError(RuntimeError):
    """A subproblem that could not be solved, named by kind and model size."""

    def __init__(self, kind: str, n_rows: int, n_cols: int, reason: str):
        super().__init__(f"{kind} solve failed ({n_rows} rows x {n_cols} cols): {reason}")
        self.kind = kind
        self.n_rows = n_rows
        self.n_cols = n_cols


def _timeout_result(message: str = "budget exhausted before solve") -> MilpResult:
    return MilpResult(status=MilpStatus(StatusKind.TIME_LIMIT, message))


class MilpBackend(abc.ABC):
    """One handle per engine run; a handle performs one solve at a time."""

    name: str  # as chosen on the command line

    def for_domain(self, dom: FeasibleDomain) -> "MilpBackend":
        """The backend that answers the subproblems posed on dom."""
        return self

    def solve_linear(
        self, cost: np.ndarray, dom: FeasibleDomain, rows: Sequence[LinearRow], budget: float
    ) -> MilpResult:
        """min <cost, x> over binary x in dom satisfying all rows.

        The cardinality-only optimum -- the m cheapest coordinates, ties to the
        lowest index -- is tried first. When it satisfies every row it is
        optimal for the full problem, and no solver runs.
        """
        t0 = time.perf_counter()
        cost = np.asarray(cost, dtype=float)
        x = np.zeros(dom.n)
        x[np.argsort(cost, kind="stable")[: dom.m]] = 1.0
        if all(row.satisfied_by(x) for row in itertools.chain(dom.extra_rows, rows)):
            obj = float(cost @ x)
            return MilpResult(
                status=MilpStatus(StatusKind.OPTIMAL),
                x=x,
                objective=obj,
                dual_bound=obj,
                solve_time=time.perf_counter() - t0,
            )
        return self._solve_linear(cost, dom, rows, budget)

    @abc.abstractmethod
    def _solve_linear(
        self, cost: np.ndarray, dom: FeasibleDomain, rows: Sequence[LinearRow], budget: float
    ) -> MilpResult:
        """solve_linear when the cardinality-only optimum violates a row."""

    @abc.abstractmethod
    def solve_cp(
        self,
        cuts: Sequence[Cut],
        dom: FeasibleDomain,
        budget: float,
        upper_limit: Optional[float] = None,
    ) -> MilpResult:
        """min theta over x in dom, theta >= <grad, x> + intercept for each cut.

        upper_limit, when given, is a value the model optimum cannot exceed; a
        backend may use it to reject a bound that is provably wrong.
        """


class BruteForceBackend(MilpBackend):
    """Exhaustive enumeration of the cardinality slice; exact and deterministic.

    Feasible points are enumerated in lexicographic order of chosen index
    tuples, so ties always resolve to the first minimizer.
    """

    name = "bruteforce"

    def __init__(self):
        self._combo_cache: dict[tuple[int, int], np.ndarray] = {}
        # running max of cut values over all points for the latest domain and
        # cut list, extended incrementally as the oracle grows (solve_cp is
        # called with an append-only cut list during an engine run)
        self._cp_last: Optional[tuple[FeasibleDomain, list, np.ndarray]] = None

    def _points(self, dom: FeasibleDomain) -> np.ndarray:
        key = (dom.n, dom.m)
        pts = self._combo_cache.get(key)
        if pts is None:
            count = comb(dom.n, dom.m)
            if count > _ENUM_CAP:
                raise ValueError(
                    f"C({dom.n},{dom.m}) exceeds the brute-force enumeration cap"
                )
            idx = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(dom.n), dom.m)),
                dtype=np.intp,
                count=count * dom.m,
            ).reshape(count, dom.m)
            pts = np.zeros((count, dom.n))
            pts[np.arange(count)[:, None], idx] = 1.0
            pts.setflags(write=False)
            self._combo_cache[key] = pts
        return _satisfying(pts, dom.extra_rows)

    def _solve_linear(self, cost, dom, rows, budget):
        t0 = time.perf_counter()
        pts = _satisfying(self._points(dom), rows)
        if len(pts) == 0:
            return MilpResult(
                status=MilpStatus(StatusKind.INFEASIBLE, "no feasible point"),
                solve_time=time.perf_counter() - t0,
            )
        scores = pts @ np.asarray(cost, dtype=float)
        i = int(np.argmin(scores))
        obj = float(scores[i])
        return MilpResult(
            status=MilpStatus(StatusKind.OPTIMAL),
            x=pts[i].copy(),
            objective=obj,
            dual_bound=obj,
            solve_time=time.perf_counter() - t0,
        )

    def solve_cp(self, cuts, dom, budget, upper_limit=None):
        # exact: the limit can never be violated, so it is not consulted
        t0 = time.perf_counter()
        cuts = list(cuts)
        if not cuts:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        pts = self._points(dom)
        if len(pts) == 0:
            return MilpResult(
                status=MilpStatus(StatusKind.INFEASIBLE, "empty domain"),
                solve_time=time.perf_counter() - t0,
            )
        start = 0
        theta = None
        if self._cp_last is not None:
            last_dom, prev_cuts, prev_theta = self._cp_last
            if (
                last_dom is dom
                and len(cuts) >= len(prev_cuts)
                and all(a is b for a, b in zip(prev_cuts, cuts))
            ):
                theta = prev_theta
                start = len(prev_cuts)
        if theta is None:
            theta = np.full(len(pts), -np.inf)
        for cut in cuts[start:]:
            np.maximum(theta, pts @ cut.grad + cut.intercept, out=theta)
        self._cp_last = (dom, cuts, theta)
        i = int(np.argmin(theta))
        obj = float(theta[i])
        return MilpResult(
            status=MilpStatus(StatusKind.OPTIMAL),
            x=pts[i].copy(),
            theta=obj,
            objective=obj,
            dual_bound=obj,
            solve_time=time.perf_counter() - t0,
        )


def _row_mask(pts: np.ndarray, row: LinearRow, tol: float = 1e-9) -> np.ndarray:
    lhs = pts @ row.coeffs
    if row.sense == "<=":
        return lhs <= row.rhs + tol
    if row.sense == ">=":
        return lhs >= row.rhs - tol
    return np.abs(lhs - row.rhs) <= tol


def _satisfying(pts: np.ndarray, rows: Sequence[LinearRow]) -> np.ndarray:
    """The points that satisfy every row; pts itself when there are no rows."""
    if not rows:
        return pts
    mask = np.ones(len(pts), dtype=bool)
    for row in rows:
        mask &= _row_mask(pts, row)
    return pts[mask]


class HighsBackend(MilpBackend):
    """HiGHS via scipy.optimize.milp.

    With exact_gaps (the default) the MIP gap tolerances are pinned to zero so
    the reported dual bound is the exact model optimum whenever HiGHS claims
    optimality; this is what makes 1e-9 outer gaps closable. Passing
    exact_gaps=False keeps the solver's own gap defaults, which is much faster
    on large instances and still yields valid (if looser) dual bounds.

    No answer is trusted blindly. A solve that ends in any status other than
    optimal, infeasible or time limit (HiGHS reports "Solve error" when its
    presolved model's solution violates the original rows), or whose lower
    bound exceeds the caller's upper limit by more than BOUND_RTOL, is solved
    once more with presolve off inside the remaining budget. If that answer is
    also unusable, MilpSolveError names the subproblem kind and model size.
    Other options stay at solver defaults.
    """

    name = "highs"

    def __init__(self, exact_gaps: bool = True):
        from scipy.optimize import milp  # defer so brute-force use never needs scipy

        self._milp = milp
        self.exact_gaps = exact_gaps

    def _solve_once(self, c, constraints, integrality, bounds, budget, n, presolve):
        t0 = time.perf_counter()
        options = {"time_limit": float(budget), "presolve": presolve}
        if self.exact_gaps:
            options["mip_rel_gap"] = 0.0
            options["mip_abs_gap"] = 0.0
        with warnings.catch_warnings():
            # mip_abs_gap is forwarded to HiGHS verbatim; silence scipy's note
            warnings.filterwarnings("ignore", message="Unrecognized options detected")
            res = self._milp(
                c, constraints=constraints, integrality=integrality, bounds=bounds, options=options
            )
        elapsed = time.perf_counter() - t0
        if res.status == 0:
            kind = StatusKind.OPTIMAL
        elif res.status == 2:
            kind = StatusKind.INFEASIBLE
        elif res.status == 1:
            kind = StatusKind.TIME_LIMIT
        else:
            kind = StatusKind.ERROR
        x = theta = obj = None
        if res.x is not None:
            x = np.round(res.x[:n])
            np.clip(x, 0.0, 1.0, out=x)
            if len(res.x) > n:
                theta = float(res.x[n])
            obj = float(res.fun)
        dual = getattr(res, "mip_dual_bound", None)
        return MilpResult(
            status=MilpStatus(kind, str(res.message)),
            x=x,
            theta=theta,
            objective=obj,
            solve_time=elapsed,
            dual_bound=float(dual) if dual is not None else None,
        )

    def _run(self, kind, c, a, lo, hi, n, budget, upper_limit=None) -> MilpResult:
        """Solve with binary x[:n] and free continuous columns after it."""
        from scipy.optimize import Bounds, LinearConstraint

        n_free = len(c) - n
        constraints = [LinearConstraint(a, lo, hi)]
        integrality = np.concatenate([np.ones(n), np.zeros(n_free)])
        bounds = Bounds(
            np.concatenate([np.zeros(n), np.full(n_free, -np.inf)]),
            np.concatenate([np.ones(n), np.full(n_free, np.inf)]),
        )
        deadline = time.perf_counter() + budget
        res = self._solve_once(c, constraints, integrality, bounds, budget, n, presolve=True)
        reason = _unusable(res, upper_limit)
        if reason is None:
            return res
        log.warning(
            "HiGHS %s solve (%d rows x %d cols) unusable, re-solving with presolve off: %s",
            kind, a.shape[0], len(c), reason,
        )
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return _timeout_result(f"budget exhausted before re-solving: {reason}")
        res = self._solve_once(c, constraints, integrality, bounds, remaining, n, presolve=False)
        reason = _unusable(res, upper_limit)
        if reason is None:
            return res
        raise MilpSolveError(kind, a.shape[0], len(c), f"{reason}, also with presolve off")

    @staticmethod
    def _stack_rows(dom: FeasibleDomain, rows: Sequence[LinearRow], n_cols: int):
        """Cardinality equality plus all rows as one (A, lb, ub) block."""
        all_rows = list(dom.extra_rows) + list(rows)
        a = np.zeros((1 + len(all_rows), n_cols))
        lo = np.empty(1 + len(all_rows))
        hi = np.empty(1 + len(all_rows))
        a[0, : dom.n] = 1.0
        lo[0] = hi[0] = dom.m
        for i, row in enumerate(all_rows, start=1):
            a[i, : dom.n] = row.coeffs
            if row.sense == "<=":
                lo[i], hi[i] = -np.inf, row.rhs
            elif row.sense == ">=":
                lo[i], hi[i] = row.rhs, np.inf
            else:
                lo[i] = hi[i] = row.rhs
        return a, lo, hi

    def _solve_linear(self, cost, dom, rows, budget):
        a, lo, hi = self._stack_rows(dom, rows, dom.n)
        return self._run("linear", np.asarray(cost, dtype=float), a, lo, hi, dom.n, budget)

    def solve_cp(self, cuts, dom, budget, upper_limit=None):
        cuts = list(cuts)
        if not cuts:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        n = dom.n
        c = np.zeros(n + 1)
        c[n] = 1.0
        a_dom, lo_dom, hi_dom = self._stack_rows(dom, [], n + 1)
        a_cut = np.zeros((len(cuts), n + 1))
        for i, cut in enumerate(cuts):
            a_cut[i, :n] = cut.grad
            a_cut[i, n] = -1.0
        a = np.vstack([a_dom, a_cut])
        lo = np.concatenate([lo_dom, np.full(len(cuts), -np.inf)])
        hi = np.concatenate([hi_dom, np.array([-c_.intercept for c_ in cuts])])
        return self._run("cp", c, a, lo, hi, n, budget, upper_limit)


class AutoBackend(MilpBackend):
    """Enumeration on small slices, HiGHS on the rest; the default backend.

    The choice is made per call from the domain: a slice whose point table,
    C(n,m) x n float64 entries, fits in AUTO_ENUM_ENTRIES is answered exactly
    by one BruteForceBackend scan, which on such slices costs a fraction of a
    HiGHS call's overhead. Larger slices go to a HighsBackend, constructed on
    first use.
    """

    name = "auto"

    def __init__(self):
        self._brute = BruteForceBackend()
        self._highs: Optional[HighsBackend] = None

    def for_domain(self, dom: FeasibleDomain) -> MilpBackend:
        if comb(dom.n, dom.m) * dom.n <= AUTO_ENUM_ENTRIES:
            return self._brute
        if self._highs is None:
            self._highs = HighsBackend()
        return self._highs

    def _solve_linear(self, cost, dom, rows, budget):
        return self.for_domain(dom)._solve_linear(cost, dom, rows, budget)

    def solve_cp(self, cuts, dom, budget, upper_limit=None):
        return self.for_domain(dom).solve_cp(cuts, dom, budget, upper_limit)


def _unusable(res: MilpResult, upper_limit: Optional[float]) -> Optional[str]:
    """Why a solver answer cannot be used as it is, or None when it can."""
    if res.status.kind is StatusKind.ERROR:
        return res.status.message
    bound = res.bound
    if (
        upper_limit is not None
        and bound is not None
        and bound > upper_limit + BOUND_RTOL * max(1.0, abs(upper_limit))
    ):
        return f"lower bound {bound!r} exceeds the upper limit {upper_limit!r}"
    return None


def solve_cp_model(
    oracle,
    dom: FeasibleDomain,
    budget: float,
    backend: MilpBackend,
    incumbent: Optional[np.ndarray] = None,
) -> MilpResult:
    """Lower-bound problem: min theta subject to every cut in the oracle.

    With an incumbent, the cut model evaluated there -- max over cuts of
    value + <grad, incumbent - anchor> -- bounds the model optimum from above
    and is handed to the backend as its upper limit.
    """
    if len(oracle) == 0:
        raise ValueError("cutting-plane model requires a nonempty oracle")
    if budget <= 0:
        return _timeout_result()
    cuts = list(oracle)
    upper_limit = None
    if incumbent is not None:
        x = np.asarray(incumbent, dtype=float)
        upper_limit = max(cut.value + float(cut.grad @ (x - cut.anchor)) for cut in cuts)
    return backend.solve_cp(cuts, dom, budget, upper_limit)


def project(
    z: np.ndarray,
    dom: FeasibleDomain,
    cut_rows: Sequence[LinearRow],
    budget: float,
    backend: MilpBackend,
) -> MilpResult:
    """Euclidean projection of z onto dom intersected with the cut rows.

    For binary x, argmin ||x - z||^2 = argmin <1 - 2z, x>; the returned
    objective carries <1 - 2z, x> so callers can detect argmin ties.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (dom.n,):
        raise ValueError(f"point has shape {z.shape}, domain dimension is {dom.n}")
    if budget <= 0:
        return _timeout_result()
    return backend.solve_linear(1.0 - 2.0 * z, dom, cut_rows, budget)


def check_nonempty(
    dom: FeasibleDomain,
    cut_rows: Sequence[LinearRow],
    budget: float,
    backend: MilpBackend,
    witness: Optional[np.ndarray] = None,
) -> bool:
    """Feasibility of dom intersected with the cut rows, as a zero-objective solve.

    A witness, a point of dom that satisfies every cut row, proves the set
    nonempty without a solve. A time-limited check conservatively reports empty
    (the offset search treats that as "reduce the offset"); a failed solve
    raises MilpSolveError rather than passing for an empty set.
    """
    if witness is not None and all(row.satisfied_by(witness) for row in cut_rows):
        return True
    if budget <= 0:
        log.warning("feasibility check hit the time budget; treating set as empty")
        return False
    res = backend.solve_linear(np.zeros(dom.n), dom, cut_rows, budget)
    if res.status.kind is StatusKind.ERROR:
        n_rows = 1 + len(dom.extra_rows) + len(cut_rows)
        raise MilpSolveError("linear", n_rows, dom.n, res.status.message)
    if res.status.kind is StatusKind.TIME_LIMIT:
        log.warning("feasibility check hit the time budget; treating set as empty")
        return False
    return res.status.kind is StatusKind.OPTIMAL


def solve_tr_subproblem(
    grad: np.ndarray,
    x_center: np.ndarray,
    radius: float,
    norm_p,
    dom: FeasibleDomain,
    cut_rows: Sequence[LinearRow],
    budget: float,
    backend: MilpBackend,
) -> MilpResult:
    """min <grad, x> over dom and cut rows within a polyhedral-norm ball.

    On binaries the l1 ball is the single row sum_i [c_i(1-x_i) + (1-c_i)x_i]
    <= radius; an l-inf ball with radius < 1 pins x to the center and with
    radius >= 1 is vacuous.
    """
    if radius <= 0:
        raise ValueError("trust-region radius must be positive")
    x_center = np.asarray(x_center, dtype=float)
    if budget <= 0:
        return _timeout_result()
    rows = list(cut_rows)
    if norm_p == 1:
        coeffs = 1.0 - 2.0 * x_center
        rows.append(LinearRow(coeffs, "<=", radius - float(np.sum(x_center))))
    elif norm_p in ("inf", np.inf):
        if radius < 1:
            for i in range(dom.n):
                e = np.zeros(dom.n)
                e[i] = 1.0
                rows.append(LinearRow(e, "==", float(x_center[i])))
    else:
        raise ValueError(f"unsupported trust-region norm {norm_p!r}")
    return backend.solve_linear(np.asarray(grad, dtype=float), dom, rows, budget)
