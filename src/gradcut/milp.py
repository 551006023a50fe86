"""MILP backend contract and the three subproblem builders.

Every subproblem the solver needs boils down to one of two primitives over the
binary domain: minimizing a linear objective, or minimizing the epigraph
variable theta of the cutting-plane model. Backends implement exactly those
two; the module-level functions pose the concrete models (lower bound,
projection, feasibility) so that engine and local-solver code never touches
solver types.

Three backends ship: a brute-force enumerator (exact, small slices, also the
test oracle), which answers every query by one masked pass over the slice; an
adapter to the HiGHS solver via scipy.optimize.milp; and the default, which
picks one of the two per call from the size of the slice.
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

# the enumerator's state for a slice may take this many bytes, counted at
# ceil(n/8) + 8 bytes a point: a packed bit row and a float64 cut value, the
# most a point costs (the whole state holds the cut values alone); AutoBackend
# enumerates the slices within it and BruteForceBackend refuses the others
ENUM_STATE_BYTES = 16_000_000

# HiGHS's default mip_feasibility_tolerance: a lower bound it reports may sit
# this far below the model optimum
HIGHS_FEAS_TOL = 1e-6

# the least mip_feasibility_tolerance HiGHS accepts, used by tight solves: a
# bound that may sit FEAS_TOL below the optimum cannot close a FEAS_TOL gap
HIGHS_TIGHT_FEAS_TOL = 1e-10

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
    _LevelSets of one run: theta, the cut model at every point of the slice,
    +inf where a point violates a row of the domain. The lower bound is the
    argmin of theta, and every other query is one masked pass: the cost's
    value at each point, a block at a time, masked by a limit on theta. The
    cut rows of the run (CutRows at a level no higher than its ub) are that
    level set of theta, answered without reading a row. Any other rows are
    folded, as +inf where a point violates one, into a temporary theta of
    zeros over the whole slice, which is masked at 0. The state fits the
    ENUM_STATE_BYTES budget, and a pass over it allocates block-sized buffers
    only.
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
            n, m = dom.n, dom.m
            _require_enumerable(n, m)
            theta = np.zeros(comb(n, m))
            _fold_rows(theta, [*dom.extra_rows, *rows], n, m)
            found = _masked_minimum(_tail_sums(cost, n, m), theta, 0.0)
            if found is not None:
                found = (_point(found[0], n, m), found[1])
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
        i = int(np.argmin(sets.theta))
        obj = sets.theta_min = float(sets.theta[i])
        if obj == np.inf:
            return MilpResult(
                status=MilpStatus(StatusKind.INFEASIBLE, "empty domain"),
                solve_time=time.perf_counter() - t0,
            )
        x = sets.point(i)
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
    """An enumerator's state for one run: the surviving points of its slice
    and the cut model theta at each of them.

    theta[i] is the max over the first n_cuts cuts of the oracle of
    <grad, x_i> + intercept at the i-th surviving point, in lexicographic
    order, or +inf where x_i violates a row of the domain. A point whose
    theta exceeds ub + FEAS_TOL is dead: theta only grows and ub only falls
    during a run, so it can never again be a lower-bound argmin or lie in a
    level set theta <= ub - tau. Only a CutOracle, whose cuts can only be
    appended, has its state serve later calls.

    The state has two forms:

    - whole (table is None): from construction until the prune that first
      drops points, every point of the slice is held, and theta[r] is at the
      point of lexicographic rank r. The domain's rows and the cuts fold by
      the tail sums of _tail_sums, the lower bound's argmin is unranked, and
      no point is stored.
    - compacted: from that prune on, table holds the surviving points as
      packed bit rows (the np.packbits layout, ceil(n/8) bytes each), one
      column per point; the first compaction unranks only the survivors into
      it. Cuts fold by byte lookup.

    Either way a level set theta <= level is read by one masked pass,
    _masked_minimum over the cost's value at each point: its tail sums in the
    whole form, its byte lookup in the compacted one. theta and table never
    take more than ceil(n/8) + 8 bytes per point of the slice, the size
    enumerable() admits, and a pass adds block-sized buffers only.
    """

    def __init__(self, dom: FeasibleDomain, cuts: Sequence[Cut]):
        _require_enumerable(dom.n, dom.m)
        self.dom = dom
        self.oracle = cuts if isinstance(cuts, CutOracle) else None
        self.table = None
        self.theta = np.full(comb(dom.n, dom.m), -np.inf)
        _fold_rows(self.theta, dom.extra_rows, dom.n, dom.m)
        self.theta_min = -np.inf  # set by each lower bound
        self.n_cuts = 0
        self.ub = np.inf

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

    def point(self, i: int) -> np.ndarray:
        """The i-th held point, as 0/1 floats; unranked while the whole slice
        is held."""
        if self.table is None:
            return _point(i, self.dom.n, self.dom.m)
        return _decode(self.table[:, i], self.dom.n)

    def extend(self, grads: np.ndarray, intercepts: np.ndarray) -> None:
        """Fold new cuts, given as gradient rows and intercepts, into theta."""
        n, m = self.dom.n, self.dom.m
        for grad, intercept in zip(grads, intercepts):
            if self.table is None:
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
        than moving the others. The first drop from the whole slice builds
        the table, of the survivors only."""
        limit = ub + FEAS_TOL
        dead = sum(int(np.count_nonzero(self.theta[b] > limit)) for b in _blocks(len(self.theta)))
        if 8 * dead >= len(self.theta):
            if self.table is None:
                self.table, self.theta = _compact_whole(
                    self.theta, limit, len(self.theta) - dead, self.dom.n, self.dom.m
                )
            else:
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
        if self.table is None:
            scores = _tail_sums(cost, self.dom.n, self.dom.m)
        else:
            lut = _lut(cost, len(self.table))
            scores = ((b.start, _scores(self.table[:, b], lut)) for b in _blocks(len(self.theta)))
        found = _masked_minimum(scores, self.theta, level + FEAS_TOL)
        return None if found is None else (self.point(found[0]), found[1])


# points read at a time, so that no array the size of the slice is made
# besides theta and the packed table
_BLOCK = 8192

# _BITS[b] is the byte b unpacked, most significant bit first: np.packbits
# packs coordinates 8j .. 8j+7 into byte j, and _BIT[k] is the bit of 8j+k
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(float)
_BIT = np.array([128 >> k for k in range(8)], dtype=np.uint8)


def enumerable(n: int, m: int) -> bool:
    """Whether the enumerator's state for the slice, a packed bit row and a
    float64 cut value per point, fits in ENUM_STATE_BYTES."""
    return comb(n, m) * ((n + 7) // 8 + 8) <= ENUM_STATE_BYTES


def _require_enumerable(n: int, m: int) -> None:
    if not enumerable(n, m):
        raise ValueError(f"C({n},{m}) exceeds the enumeration budget of {ENUM_STATE_BYTES:,} bytes")


def _blocks(count: int):
    return (slice(s, s + _BLOCK) for s in range(0, count, _BLOCK))


def _tail_sums(v: np.ndarray, n: int, m: int, base: float = 0.0):
    """Yield (rank, sums): sums[j] is <v, x> + base at the point x of the
    whole slice of lexicographic rank rank + j, in blocks of _BLOCK points
    (the last may be shorter), in rank order. sums is one buffer, which the
    next block overwrites.

    The sums are built one index at a time from the back: level k holds
    <v, x> over the k-subsets of range(m - k, n), the last k indices of every
    point, in lexicographic order. Those starting above i are a tail of level
    k, so level k + 1 is the tails of level k, each plus v[i]. Level m is
    never built: it is written into the buffer one block at a time, so
    besides it the largest array held is level m - 1, C(n - 1, m - 1) values.
    """
    # level 1 is v over range(m - 1, n); level 0, the empty subset, is 0
    level = np.array(v[m - 1 :], dtype=float) if m > 1 else np.zeros(1)
    for k in range(2, m):
        out = np.empty(comb(n - m + k, k))
        filled = 0
        for i in range(m - k, n - k + 1):
            count = comb(n - i - 1, k - 1)
            np.add(level[len(level) - count :], v[i], out=out[filled : filled + count])
            filled += count
        level = out
    level += base
    sums = np.empty(min(_BLOCK, comb(n, m)))
    rank = filled = 0
    for i in range(n - m + 1):
        tails = level[len(level) - comb(n - i - 1, m - 1) :]
        while len(tails):
            count = min(len(tails), len(sums) - filled)
            np.add(tails[:count], v[i], out=sums[filled : filled + count])
            tails = tails[count:]
            filled += count
            if filled == len(sums):
                yield rank, sums
                rank += filled
                filled = 0
    if filled:
        yield rank, sums[:filled]


def _fold_by_tails(theta: np.ndarray, v: np.ndarray, intercept: float, n: int, m: int) -> None:
    """theta = max(theta, <v, x> + intercept) at every point x of the whole
    slice, theta in rank order."""
    for rank, sums in _tail_sums(v, n, m, intercept):
        part = theta[rank : rank + len(sums)]
        np.maximum(part, sums, out=part)


def _fold_rows(theta: np.ndarray, rows: Sequence[LinearRow], n: int, m: int) -> None:
    """theta = +inf at every point of the whole slice that violates one of
    rows, theta in rank order."""
    for row in rows:
        for rank, lhs in _tail_sums(row.coeffs, n, m):
            np.copyto(theta[rank : rank + len(lhs)], np.inf, where=~row.holds(lhs))


def _masked_minimum(scores, theta: np.ndarray, limit: float):
    """(i, s): s is the least of scores[i] over the indices i with
    theta[i] <= limit, and i the first index that reaches it; None when there
    is no such index. scores come as (start, block) pairs in index order,
    block holding scores[start : start + len(block)], and are overwritten."""
    best_i, best = None, np.inf
    for start, block in scores:
        np.copyto(block, np.inf, where=theta[start : start + len(block)] > limit)
        i = int(np.argmin(block))
        if block[i] < best:
            best_i, best = start + i, float(block[i])
    return None if best_i is None else (best_i, best)


def _unrank(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    """The points of the whole slice of lexicographic rank ranks, as packed
    bit rows (the np.packbits layout, ceil(n/8) bytes each), one column per
    point.

    The point c_1 < ... < c_m of rank r has C(n, m) - 1 - r = sum over j of
    C(n - 1 - c_j, m - j + 1), which the combinatorial number system writes
    one way only: each a_j = n - 1 - c_j is, in turn, the largest a with
    C(a, m - j + 1) no more than what is left.
    """
    # counts[k, a] = C(a, k), the sum of C(b, k - 1) over b < a, capped at the
    # slice size, which nothing left reaches, so that int64 holds them
    total = comb(n, m)
    counts = np.zeros((m + 1, n), dtype=np.int64)
    counts[0] = 1
    for k in range(1, m + 1):
        np.minimum(np.cumsum(counts[k - 1, :-1]), total, out=counts[k, 1:])
    left = total - 1 - np.asarray(ranks, dtype=np.int64)
    chosen = np.empty((m, len(left)), dtype=np.intp)  # the a_j of every point
    for j, k in enumerate(range(m, 0, -1)):
        # counts[k, 0] = 0 is never above what is left
        chosen[j] = np.searchsorted(counts[k, 1:], left, side="right")
        left -= counts[k].take(chosen[j])
    # bits[i, a]: the bit that coordinate n - 1 - a sets in byte i
    coord = n - 1 - np.arange(n)
    bits = np.zeros(((n + 7) // 8, n), dtype=np.uint8)
    bits[coord >> 3, np.arange(n)] = _BIT[coord & 7]
    packed = np.empty((len(bits), len(left)), dtype=np.uint8)
    for i, row in enumerate(bits):
        np.bitwise_or.reduce(row.take(chosen), axis=0, out=packed[i])
    return packed


def _point(rank: int, n: int, m: int) -> np.ndarray:
    """The point of the whole slice of lexicographic rank rank, as 0/1
    floats: _unrank for one rank, in Python integers, which for the one
    point that a lower bound or a projection decodes cost a fraction of
    _unrank's array calls."""
    x = np.zeros(n)
    left = comb(n, m) - 1 - rank
    a = n
    for k in range(m, 0, -1):
        a -= 1
        while comb(a, k) > left:
            a -= 1
        left -= comb(a, k)
        x[n - 1 - a] = 1.0
    return x


def _compact_whole(theta: np.ndarray, limit: float, count: int, n: int, m: int):
    """_compact for the whole slice: theta cut to the count points with
    theta <= limit, and their packed rows, unranked into a table of their
    size some _BLOCK ranks at a time."""
    table = np.empty(((n + 7) // 8, count), dtype=np.uint8)
    pending: list = []  # kept ranks not yet unranked
    filled = 0

    def unrank_pending():
        nonlocal filled
        ranks = np.concatenate(pending)
        table[:, filled : filled + len(ranks)] = _unrank(ranks, n, m)
        filled += len(ranks)
        pending.clear()

    def keep(block):
        mask = theta[block] <= limit
        pending.append(np.flatnonzero(mask) + block.start)
        if sum(map(len, pending)) >= _BLOCK:
            unrank_pending()
        return mask

    (theta,) = _compact(keep, theta)
    if pending:
        unrank_pending()
    return table, theta


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


def _satisfied(rows: Sequence[LinearRow], x: np.ndarray) -> bool:
    """Whether x satisfies every row; CutRows check theirs in one product."""
    if isinstance(rows, CutRows):
        return rows.satisfied_by(x)
    return all(row.satisfied_by(x) for row in rows)


class HighsBackend(MilpBackend):
    """HiGHS via scipy.optimize.milp.

    The MIP gap tolerances are pinned to zero so the reported dual bound is
    the exact model optimum whenever HiGHS claims optimality; this is what
    makes 1e-9 outer gaps closable.

    No answer is trusted blindly. A solve that ends in any status other than
    optimal, infeasible or time limit (HiGHS reports "Solve error" when its
    presolved model's solution violates the original rows), or whose lower
    bound exceeds the caller's upper limit by more than BOUND_RTOL, is solved
    once more with presolve off inside the remaining budget. If that answer is
    also unusable, MilpSolveError names the subproblem kind and model size. A
    tight lower-bound solve goes straight to that second solve, with
    mip_feasibility_tolerance lowered from HIGHS_FEAS_TOL to
    HIGHS_TIGHT_FEAS_TOL, and an unusable answer there is solved once more at
    FEAS_TOL. Other options stay at solver defaults.
    """

    name = "highs"

    def __init__(self):
        from scipy.optimize import milp  # defer so brute-force use never needs scipy

        self._milp = milp

    def _solve_once(self, c, constraints, integrality, bounds, budget, n, presolve, feas_tol=None):
        t0 = time.perf_counter()
        options = {
            "time_limit": float(budget),
            "presolve": presolve,
            "mip_rel_gap": 0.0,
            "mip_abs_gap": 0.0,
        }
        if feas_tol is not None:
            options["mip_feasibility_tolerance"] = feas_tol
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
            # the least tolerance can end in a solve error where the values
            # are large; FEAS_TOL is the tightest one to fall back on
            why = f"a tight solve, at mip_feasibility_tolerance {HIGHS_TIGHT_FEAS_TOL:g}"
            retries = (HIGHS_TIGHT_FEAS_TOL, FEAS_TOL)
        else:
            res = self._solve_once(c, constraints, integrality, bounds, budget, n, presolve=True)
            reason = _unusable(res, upper_limit)
            if reason is None:
                return res
            why = f"unusable: {reason}"
            retries = (None,)
        for feas_tol in retries:
            log.warning(
                "HiGHS %s solve (%d rows x %d cols) re-solving with presolve off; %s",
                kind, a.shape[0], len(c), why,
            )
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return _timeout_result(f"budget exhausted before re-solving; {why}")
            res = self._solve_once(
                c, constraints, integrality, bounds, remaining, n, presolve=False, feas_tol=feas_tol
            )
            reason = _unusable(res, upper_limit)
            if reason is None:
                return res
            why = f"unusable: {reason}; now at mip_feasibility_tolerance {FEAS_TOL:g}"
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
            lo[i], hi[i] = row.bounds
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
