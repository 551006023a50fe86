"""MILP backend contract and the three subproblem builders.

Every subproblem the solver needs boils down to one of two primitives over the
binary domain: minimizing a linear objective, or minimizing the epigraph
variable theta of the cutting-plane model. Backends implement exactly those
two; the module-level functions pose the concrete models (lower bound,
projection, feasibility) so that engine and local-solver code never touches
solver types.

Three backends ship: a brute-force enumerator (exact, small slices, also the
test oracle), an adapter to the HiGHS solver via scipy.optimize.milp, and the
default, which picks one of the two per call from the size of the slice.
"""

from __future__ import annotations

import abc
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Optional, Sequence

import numpy as np

from .logs import get_logger
from .model import FEAS_TOL, Cut, CutOracle, CutRows, FeasibleDomain, LinearRow, stack_cuts

log = get_logger(__name__)

# the enumerator's state for a slice -- a packed bit row of ceil(n/8) bytes
# and a float64 cut value per point -- may take this many bytes; AutoBackend
# enumerates the slices within it and BruteForceBackend refuses the others
ENUM_STATE_BYTES = 16_000_000

# HiGHS's default mip_feasibility_tolerance: a lower bound it reports may sit
# this far below the model optimum
HIGHS_FEAS_TOL = 1e-6

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
    exact = False  # an exact backend's bounds need no upper limit to check them

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
        if all(row.satisfied_by(x) for row in dom.extra_rows) and _satisfied(rows, x):
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
        ub: Optional[float] = None,
        tight: bool = False,
    ) -> MilpResult:
        """min theta over x in dom, theta >= <grad, x> + intercept for each cut.

        upper_limit, when given, is a value the model optimum cannot exceed; a
        backend may use it to reject a bound that is provably wrong. ub, when
        given, is the incumbent value of the run whose oracle cuts is; it never
        rises during a run, and a backend may forget every point whose cut
        model exceeds it. tight asks for the solve at the backend's tightest
        feasibility tolerance.
        """


class BruteForceBackend(MilpBackend):
    """Exhaustive enumeration of the cardinality slice; exact and deterministic.

    Points are scanned in lexicographic order of their chosen index tuples, so
    ties always resolve to the first minimizer. The backend holds the
    _LevelSets of one run: the lower bound is the argmin of its theta, and the
    cut rows of that run (CutRows at a level no higher than the run's ub) are
    answered from theta without reading a row. The points of the level last
    asked for are extracted once and held, so the offset check, the start
    projection, the descent steps and the criticality test posed at one level
    scan only that set. Any other rows take one masked pass over a freshly
    built table of the slice.
    """

    name = "bruteforce"
    exact = True

    def __init__(self):
        self._sets: Optional[_LevelSets] = None

    def _solve_linear(self, cost, dom, rows, budget):
        t0 = time.perf_counter()
        sets = self._sets
        if sets is not None and sets.reads(rows, dom):
            found = sets.argmin(cost, rows.level)
        else:
            table = _packed_table(dom)
            checks = _row_checks(dom.n, rows)
            found = _first_minimum(
                (
                    np.compress(_satisfying(table[:, b], checks), table[:, b], axis=1)
                    for b in _blocks(table.shape[1])
                ),
                cost,
                dom.n,
            )
        if found is None:
            return MilpResult(
                status=MilpStatus(StatusKind.INFEASIBLE, "no feasible point"),
                solve_time=time.perf_counter() - t0,
            )
        x, obj = found
        return MilpResult(
            status=MilpStatus(StatusKind.OPTIMAL),
            x=x,
            objective=obj,
            dual_bound=obj,
            solve_time=time.perf_counter() - t0,
        )

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        # exact: the limit can never be violated and there is no tolerance to
        # tighten, so neither upper_limit nor tight is consulted
        t0 = time.perf_counter()
        if len(cuts) == 0:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        sets = self._sets
        if sets is None or not sets.holds(cuts, dom) or (ub is not None and ub > sets.ub):
            sets = self._sets = None  # free the old state before building the new one
            sets = self._sets = _LevelSets(dom, cuts)
        grads, values, grad_dot_anchor = stack_cuts(cuts)
        new = slice(sets.n_cuts, None)
        sets.extend(grads[new], values[new] - grad_dot_anchor[new])
        if len(sets.theta) == 0:
            return MilpResult(
                status=MilpStatus(StatusKind.INFEASIBLE, "empty domain"),
                solve_time=time.perf_counter() - t0,
            )
        i = int(np.argmin(sets.theta))
        obj = sets.theta_min = float(sets.theta[i])
        x = _decode(sets.table[:, i], dom.n)
        if ub is not None:
            sets.prune(max(ub, obj))
        return MilpResult(
            status=MilpStatus(StatusKind.OPTIMAL),
            x=x,
            objective=obj,
            dual_bound=obj,
            solve_time=time.perf_counter() - t0,
        )


class _LevelSets:
    """An enumerator's state for one run: the surviving points of its domain
    and the cut model theta at each of them.

    table holds the points in lexicographic order as packed bit rows (the
    np.packbits layout, ceil(n/8) bytes each), one column per point, and
    theta[i] is the max over the first n_cuts cuts of the oracle of
    <grad, x_i> + intercept. A point whose theta exceeds ub + FEAS_TOL is
    dead: theta only grows and ub only falls during a run, so it can never
    again be a lower-bound argmin or lie in a level set theta <= ub - tau.
    Only a CutOracle, whose cuts can only be appended, has its state serve
    later calls.

    The level set last asked for, its points copied out of table in the same
    order, is held with its level until a cut is folded in, the points are
    compacted or another level is asked for.
    """

    def __init__(self, dom: FeasibleDomain, cuts: Sequence[Cut]):
        self.dom = dom
        self.oracle = cuts if isinstance(cuts, CutOracle) else None
        self.table = _packed_table(dom)
        self.theta = np.full(self.table.shape[1], -np.inf)
        self.theta_min = -np.inf  # set by each lower bound
        self.n_cuts = 0
        self.ub = np.inf
        self._held: Optional[tuple] = None  # (level, points) of the last level set

    def holds(self, cuts, dom: FeasibleDomain) -> bool:
        """Whether this is the state of the run whose oracle is cuts, on dom."""
        return self.oracle is not None and cuts is self.oracle and dom is self.dom

    def reads(self, rows, dom: FeasibleDomain) -> bool:
        """Whether rows are a level set of theta: the cut rows of this run, of
        the cuts folded in so far, at a level no higher than ub."""
        return (
            isinstance(rows, CutRows)
            and self.holds(rows.cuts, dom)
            and len(rows) == self.n_cuts
            and rows.level <= self.ub
        )

    def extend(self, grads: np.ndarray, intercepts: np.ndarray) -> None:
        """Fold new cuts, given as gradient rows and intercepts, into theta.

        While the table is still the whole slice (nothing filtered or
        compacted away) and spans several blocks, <grad, x> is summed by
        _fold_by_tails instead of looked up byte by byte."""
        n, m = self.dom.n, self.dom.m
        for grad, intercept in zip(grads, intercepts):
            self._held = None
            if len(self.theta) == comb(n, m) > _BLOCK:
                _fold_by_tails(self.theta, grad, intercept, n, m)
            else:
                lut = _lut(grad, len(self.table))
                for block in _blocks(len(self.theta)):
                    theta = self.theta[block]
                    np.maximum(theta, _scores(self.table[:, block], lut) + intercept, out=theta)
            self.n_cuts += 1

    def prune(self, ub: float) -> None:
        """Lower ub, and drop the dead points once they are an eighth of those
        held: until then no answer reads them, and keeping them costs less
        than moving the others."""
        limit = ub + FEAS_TOL
        dead = sum(int(np.count_nonzero(self.theta[b] > limit)) for b in _blocks(len(self.theta)))
        if 8 * dead >= len(self.theta):
            self._held = None
            self.table, self.theta = _compact(
                lambda block: self.theta[block] <= limit, self.table, self.theta
            )
        self.ub = ub

    def argmin(self, cost: np.ndarray, level: float):
        """min <cost, x> over the level set theta <= level, or None when empty.

        The set is empty exactly when the model minimum exceeds the level, and
        then no point is read.
        """
        if self.theta_min > level + FEAS_TOL:
            return None
        points = self._level_set(level)
        return _first_minimum(
            (points[:, block] for block in _blocks(points.shape[1])), cost, self.dom.n
        )

    def _level_set(self, level: float) -> np.ndarray:
        """The packed points with theta <= level + FEAS_TOL, in table order;
        extracted on the first request at a level and held for the next."""
        if self._held is None or self._held[0] != level:
            self._held = None  # free the old set before extracting the new one
            limit = level + FEAS_TOL
            blocks = list(_blocks(len(self.theta)))
            count = sum(int(np.count_nonzero(self.theta[b] <= limit)) for b in blocks)
            points = np.empty((len(self.table), count), dtype=np.uint8)
            filled = 0
            for b in blocks:
                part = np.compress(self.theta[b] <= limit, self.table[:, b], axis=1)
                points[:, filled : filled + part.shape[1]] = part
                filled += part.shape[1]
            self._held = (level, points)
        return self._held[1]


# points read at a time, so that no array the size of the slice is made
# besides the packed table and theta
_BLOCK = 8192

# _BITS[b] is the byte b unpacked, most significant bit first: np.packbits
# packs coordinates 8j .. 8j+7 into byte j, and _BIT[k] is the bit of 8j+k
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(float)
_BIT = np.array([128 >> k for k in range(8)], dtype=np.uint8)


def enumerable(n: int, m: int) -> bool:
    """Whether the enumerator's state for the slice, a packed bit row and a
    float64 cut value per point, fits in ENUM_STATE_BYTES."""
    return comb(n, m) * ((n + 7) // 8 + 8) <= ENUM_STATE_BYTES


def _blocks(count: int):
    return (slice(s, s + _BLOCK) for s in range(0, count, _BLOCK))


def _packed_table(dom: FeasibleDomain) -> np.ndarray:
    """The points of dom as packed bit rows, one column per point, in
    lexicographic order of their index tuples.

    Built one index at a time from the back: level k holds the k-subsets of
    range(m - k, n), the last k indices of every point, in lexicographic
    order. Those starting above i are a tail of level k, so level k + 1 is
    the tails of level k, each prefixed with its index i.
    """
    n, m = dom.n, dom.m
    if not enumerable(n, m):
        raise ValueError(f"C({n},{m}) exceeds the enumeration budget of {ENUM_STATE_BYTES:,} bytes")
    level = np.zeros(((n + 7) // 8, n - m + 1), dtype=np.uint8)
    for col, i in enumerate(range(m - 1, n)):
        level[i >> 3, col] = _BIT[i & 7]
    for k in range(2, m + 1):
        out = np.empty((len(level), comb(n - m + k, k)), dtype=np.uint8)
        filled = 0
        for i in range(m - k, n - k + 1):
            count = comb(n - i - 1, k - 1)
            out[:, filled : filled + count] = level[:, level.shape[1] - count :]
            out[i >> 3, filled : filled + count] |= _BIT[i & 7]
            filled += count
        level = out
    if dom.extra_rows:
        checks = _row_checks(n, dom.extra_rows)
        (level,) = _compact(lambda block: _satisfying(level[:, block], checks), level)
    return level


def _fold_by_tails(theta: np.ndarray, v: np.ndarray, intercept: float, n: int, m: int) -> None:
    """theta = max(theta, <v, x> + intercept) at every point x of the whole
    slice, in the order of _packed_table.

    The sums follow the recursion that builds the table: level k holds <v, x>
    over the k-subsets of range(m - k, n), and level k + 1 is the tails of
    level k, each plus v[i]. Level m is never built: it is folded into theta
    one first index i and one block at a time, so besides theta the largest
    array held is level m - 1, C(n - 1, m - 1) values.
    """
    level = np.zeros(1)  # the empty subset
    for k in range(1, m):
        out = np.empty(comb(n - m + k, k))
        filled = 0
        for i in range(m - k, n - k + 1):
            count = comb(n - i - 1, k - 1)
            np.add(level[len(level) - count :], v[i], out=out[filled : filled + count])
            filled += count
        level = out
    level += intercept
    filled = 0
    for i in range(n - m + 1):
        tails = level[len(level) - comb(n - i - 1, m - 1) :]
        for block in _blocks(len(tails)):
            part = theta[filled : filled + len(tails)][block]
            np.maximum(part, tails[block] + v[i], out=part)
        filled += len(tails)


def _compact(keep, *arrays):
    """Keep the points (last-axis entries) where keep(block) holds, moved
    forward block by block in place; returns the arrays cut to the kept
    points. Once at most 1/16 of them is kept they are copied, so that the
    memory of the rest is returned at the cost of a small copy held beside
    it for a moment."""
    total = arrays[0].shape[-1]
    kept = 0
    for block in _blocks(total):
        mask = keep(block)
        count = int(np.count_nonzero(mask))
        for a in arrays:
            a[..., kept : kept + count] = np.compress(mask, a[..., block], axis=-1)
        kept += count
    if 16 * kept > total:
        return tuple(a[..., :kept] for a in arrays)
    return tuple(a[..., :kept].copy() for a in arrays)


def _lut(v: np.ndarray, n_bytes: int) -> np.ndarray:
    """Lookup tables of <v, x> on packed rows: lut[j, b] is the share of byte j
    when it holds the value b."""
    padded = np.zeros(8 * n_bytes)
    padded[: len(v)] = v
    return padded.reshape(n_bytes, 8) @ _BITS.T


def _scores(packed: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """<v, x> for every packed point (column) x, from the lookup tables of v."""
    s = lut[0].take(packed[0])
    for j in range(1, len(lut)):
        s += lut[j].take(packed[j])
    return s


def _decode(row: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(row, count=n).astype(float)


def _row_checks(n: int, rows: Sequence[LinearRow]) -> list:
    return [(_lut(row.coeffs, (n + 7) // 8), row) for row in rows]


def _satisfying(packed: np.ndarray, checks: list) -> np.ndarray:
    """Mask of the packed points that satisfy every checked row."""
    keep = np.ones(packed.shape[1], dtype=bool)
    for lut, row in checks:
        lhs = _scores(packed, lut)
        if row.sense == "<=":
            keep &= lhs <= row.rhs + FEAS_TOL
        elif row.sense == ">=":
            keep &= lhs >= row.rhs - FEAS_TOL
        else:
            keep &= np.abs(lhs - row.rhs) <= FEAS_TOL
    return keep


def _satisfied(rows: Sequence[LinearRow], x: np.ndarray) -> bool:
    """Whether x satisfies every row; CutRows check theirs in one product."""
    if isinstance(rows, CutRows):
        return rows.satisfied_by(x)
    return all(row.satisfied_by(x) for row in rows)


def _first_minimum(blocks, cost: np.ndarray, n: int):
    """The lexicographically first minimizer of <cost, x> over packed blocks
    given in lexicographic order, with its objective; None when all are empty."""
    lut = _lut(np.asarray(cost, dtype=float), (n + 7) // 8)
    best_row, best = None, np.inf
    for block in blocks:
        if block.shape[1] == 0:
            continue
        s = _scores(block, lut)
        i = int(np.argmin(s))
        if best_row is None or s[i] < best:
            best_row, best = block[:, i].copy(), float(s[i])
    return None if best_row is None else (_decode(best_row, n), best)


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
    also unusable, MilpSolveError names the subproblem kind and model size. A
    tight lower-bound solve goes straight to that second solve, with
    mip_feasibility_tolerance lowered from HIGHS_FEAS_TOL to FEAS_TOL. Other
    options stay at solver defaults.
    """

    name = "highs"

    def __init__(self, exact_gaps: bool = True):
        from scipy.optimize import milp  # defer so brute-force use never needs scipy

        self._milp = milp
        self.exact_gaps = exact_gaps

    def _solve_once(self, c, constraints, integrality, bounds, budget, n, presolve, tight=False):
        t0 = time.perf_counter()
        options = {"time_limit": float(budget), "presolve": presolve}
        if tight:
            options["mip_feasibility_tolerance"] = FEAS_TOL
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
        x = obj = None
        if res.x is not None:
            # + 0.0 turns the -0.0 that rounding a slightly negative value gives into 0.0
            x = np.clip(np.round(res.x[:n]), 0.0, 1.0) + 0.0
            obj = float(res.fun)
        dual = getattr(res, "mip_dual_bound", None)
        return MilpResult(
            status=MilpStatus(kind, str(res.message)),
            x=x,
            objective=obj,
            solve_time=elapsed,
            dual_bound=float(dual) if dual is not None else None,
        )

    def _run(self, kind, c, a, lo, hi, n, budget, upper_limit=None, tight=False) -> MilpResult:
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
        if tight:
            why = f"a tight solve, at mip_feasibility_tolerance {FEAS_TOL:g}"
        else:
            res = self._solve_once(c, constraints, integrality, bounds, budget, n, presolve=True)
            reason = _unusable(res, upper_limit)
            if reason is None:
                return res
            why = f"unusable: {reason}"
        log.warning(
            "HiGHS %s solve (%d rows x %d cols) re-solving with presolve off; %s",
            kind, a.shape[0], len(c), why,
        )
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return _timeout_result(f"budget exhausted before re-solving; {why}")
        res = self._solve_once(
            c, constraints, integrality, bounds, remaining, n, presolve=False, tight=tight
        )
        reason = _unusable(res, upper_limit)
        if reason is None:
            return res
        raise MilpSolveError(kind, a.shape[0], len(c), f"{reason}, also with presolve off")

    @staticmethod
    def _stack_rows(dom: FeasibleDomain, rows: Sequence[LinearRow], n_cols: int):
        """Cardinality equality, the domain's rows and rows as one (A, lb, ub)
        block; CutRows fill theirs as one slice of it, from the oracle's stack."""
        stacked = isinstance(rows, CutRows)
        listed = list(dom.extra_rows) + ([] if stacked else list(rows))
        size = 1 + len(listed) + (len(rows) if stacked else 0)
        a = np.zeros((size, n_cols))
        lo = np.empty(size)
        hi = np.empty(size)
        a[0, : dom.n] = 1.0
        lo[0] = hi[0] = dom.m
        for i, row in enumerate(listed, start=1):
            a[i, : dom.n] = row.coeffs
            if row.sense == "<=":
                lo[i], hi[i] = -np.inf, row.rhs
            elif row.sense == ">=":
                lo[i], hi[i] = row.rhs, np.inf
            else:
                lo[i] = hi[i] = row.rhs
        if stacked and len(rows):
            cut = slice(1 + len(listed), None)
            a[cut, : dom.n] = rows.coeffs
            lo[cut] = -np.inf
            hi[cut] = rows.rhs
        return a, lo, hi

    def _solve_linear(self, cost, dom, rows, budget):
        a, lo, hi = self._stack_rows(dom, rows, dom.n)
        return self._run("linear", np.asarray(cost, dtype=float), a, lo, hi, dom.n, budget)

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        if len(cuts) == 0:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        grads, values, grad_dot_anchor = stack_cuts(cuts)
        n = dom.n
        c = np.zeros(n + 1)
        c[n] = 1.0
        a_dom, lo_dom, hi_dom = self._stack_rows(dom, [], n + 1)
        a_cut = np.empty((len(values), n + 1))
        a_cut[:, :n] = grads
        a_cut[:, n] = -1.0
        a = np.vstack([a_dom, a_cut])
        lo = np.concatenate([lo_dom, np.full(len(values), -np.inf)])
        hi = np.concatenate([hi_dom, -(values - grad_dot_anchor)])
        return self._run("cp", c, a, lo, hi, n, budget, upper_limit, tight)


class AutoBackend(MilpBackend):
    """Enumeration on small slices, HiGHS on the rest; the default backend.

    The choice is made per call from the domain: a slice whose enumerator
    state fits in ENUM_STATE_BYTES (see enumerable) is answered exactly by a
    BruteForceBackend, whose level sets cost a fraction of a HiGHS call. Larger
    slices go to a HighsBackend, constructed on first use.
    """

    name = "auto"

    def __init__(self):
        self._brute = BruteForceBackend()
        self._highs: Optional[HighsBackend] = None

    def for_domain(self, dom: FeasibleDomain) -> MilpBackend:
        if enumerable(dom.n, dom.m):
            return self._brute
        if self._highs is None:
            self._highs = HighsBackend()
        return self._highs

    def _solve_linear(self, cost, dom, rows, budget):
        return self.for_domain(dom)._solve_linear(cost, dom, rows, budget)

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        return self.for_domain(dom).solve_cp(cuts, dom, budget, upper_limit, ub, tight)


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
    oracle: CutOracle,
    dom: FeasibleDomain,
    budget: float,
    backend: MilpBackend,
    incumbent: Optional[np.ndarray] = None,
    ub: Optional[float] = None,
    tight: bool = False,
) -> MilpResult:
    """Lower-bound problem: min theta subject to every cut in the oracle.

    With an incumbent, the cut model evaluated there -- max over cuts of
    value + <grad, incumbent - anchor> -- bounds the model optimum from above
    and is handed to a backend that is not exact as its upper limit. ub and
    tight are handed on as MilpBackend.solve_cp describes them.
    """
    if len(oracle) == 0:
        raise ValueError("cutting-plane model requires a nonempty oracle")
    if budget <= 0:
        return _timeout_result()
    upper_limit = None
    if incumbent is not None and not backend.for_domain(dom).exact:
        grads, values, grad_dot_anchor = stack_cuts(oracle)
        x = np.asarray(incumbent, dtype=float)
        upper_limit = float(np.max(values + (grads @ x - grad_dot_anchor)))
    return backend.solve_cp(oracle, dom, budget, upper_limit, ub, tight)


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
    if witness is not None and _satisfied(cut_rows, witness):
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
