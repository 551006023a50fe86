"""MILP backend contract and the three subproblem builders.

Every subproblem the solver needs boils down to one of two primitives over
the cardinality slice: minimizing a linear objective under a set of CutRows,
or minimizing the epigraph variable theta of the cutting-plane model.
Backends implement exactly those two; the module-level functions pose the
concrete models (lower bound, projection, feasibility) so that engine and
local-solver code never touches solver types.

Three backends ship: a brute-force enumerator (exact, small slices, also the
test oracle), which holds a slice whole or as a table of at most one block,
walks the level set of a tight cut into that table once a run, and answers a
lower bound by one step per block, a query on cut rows it has not folded from
the level set of a Lagrangian relaxation where that fits one block, and every
other query by one masked pass; an adapter to the HiGHS solver via
scipy.optimize.milp; and the default, which picks one of the two from the
size of the slice, once per engine run.
"""

from __future__ import annotations

import abc
import contextlib
import ctypes
import functools
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Optional, Sequence

import numpy as np

from .logs import get_logger
from .model import FEAS_TOL, Cut, CutOracle, CutRows, FeasibleDomain, stack_cuts

log = get_logger(__name__)

# the enumerator's state for a slice may take this many bytes, counted at
# ceil(n/8) + 8 bytes a point, a packed bit row and a float64 cut value; the
# count is conservative: the state writes 8 bytes a point only while it holds
# the whole slice and a lower bound sweeps it, and else holds a table of at
# most _BLOCK points, which is also the most the walk of a level set makes;
# AutoBackend enumerates the slices within it and BruteForceBackend refuses
# the others
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


# the status of every optimal answer; MilpStatus is frozen, so one is shared
_OPTIMAL = MilpStatus(StatusKind.OPTIMAL)


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
        self, cost: np.ndarray, dom: FeasibleDomain, rows: CutRows, budget: float
    ) -> MilpResult:
        """min <cost, x> over binary x in dom satisfying all rows.

        The cardinality-only optimum -- the m cheapest coordinates, ties to the
        lowest index -- is tried first. When it satisfies every row it is
        optimal for the full problem, and no solver runs.
        """
        cost = np.asarray(cost, dtype=float)
        x = _cheapest(cost, dom.m)
        if rows.satisfied_by(x):
            obj = float(cost @ x)
            return MilpResult(
                status=_OPTIMAL,
                x=x,
                objective=obj,
                dual_bound=obj,
            )
        return self._solve_linear(cost, dom, rows, budget)

    @abc.abstractmethod
    def _solve_linear(
        self, cost: np.ndarray, dom: FeasibleDomain, rows: CutRows, budget: float
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
    _LevelSets of one run, theta at every held point of the slice, and
    answers a lower bound from it by one step per block. A query on the cut
    rows of the run (CutRows at a level no higher than its ub) is that level
    set of theta: one pass over the cost's values, masked by theta. Cut rows
    the state has not folded (between a run's closed-form first lower bound
    and its second, or of another oracle) are, on a slice of several blocks,
    first relaxed (_lagrangian), and the level set of the relaxation is
    walked and folded over where it fits one block; else each row is
    checked in each block against its own tail sums, taken in step with the
    cost's.
    """

    name = "bruteforce"
    exact = True

    def __init__(self):
        self._sets: Optional[_LevelSets] = None

    def _solve_linear(self, cost, dom, rows, budget):
        sets = self._sets
        if sets is not None and sets.reads(rows, dom):
            found = sets.argmin(cost, rows.level)
        else:
            n, m = dom.n, dom.m
            _require_enumerable(n, m)
            found = _lagrangian(cost, rows, n, m) if comb(n, m) > _BLOCK else None
            if found is None:
                found = _first_minimum(_row_masked(_tail_sums(cost, n, m), rows, n, m))
                if found is not None:
                    found = (_point(found[0], n, m), found[1])
        if found is None:
            return MilpResult(status=MilpStatus(StatusKind.INFEASIBLE, "no feasible point"))
        x, obj = found
        return MilpResult(
            status=_OPTIMAL,
            x=x,
            objective=obj,
            dual_bound=obj,
        )

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        # exact: the limit can never be violated and there is no tolerance to
        # tighten, so neither upper_limit nor tight is consulted
        if len(cuts) == 0:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        sets = self._sets
        if sets is None or not sets.holds(cuts, dom) or (ub is not None and ub > sets.ub):
            sets = self._sets = None  # free the old state before building the new one
            sets = self._sets = _LevelSets(dom, cuts)
        grads, values, grad_dot_anchor = stack_cuts(cuts)
        new = slice(sets.n_cuts, None)
        x, obj = sets.lower_bound(grads[new], values[new] - grad_dot_anchor[new], ub)
        return MilpResult(
            status=_OPTIMAL,
            x=x,
            objective=obj,
            dual_bound=obj,
        )


class _LevelSets:
    """An enumerator's state for one run: the held points of its slice and
    the cut model theta at each of them.

    theta[i] is the max over the first n_cuts cuts of the oracle of
    <grad, x_i> + intercept at the i-th held point, in lexicographic
    order; the first lower bound that folds a cut in writes it. A point
    whose theta exceeds ub + FEAS_TOL is dead: theta only grows and ub only
    falls during a run, so it can never again be a lower-bound argmin or lie
    in a level set theta <= ub - tau. Only a CutOracle, whose cuts can only
    be appended, has its state serve later calls.

    Points are held in one of two forms:

    - whole (table is None): a slice of several blocks starts with every
      point held, theta[r] at the point of lexicographic rank r, its values
      the tail sums of _tail_sums, and no point stored. A first lower bound
      of one cut is answered by its m cheapest coordinates, and leaves theta
      unwritten and n_cuts at 0; so the next lower bound is fresh again, and
      a query in between reads no theta. A fresh lower bound of several cuts
      with a ub walks the level set of each cut (_walk); the first that fits
      one block, folded with every cut, makes the state the table of its
      survivors, unless its minimum is above ub, where the walk proves
      nothing. Else the lower bound sweeps: it writes theta, and dead points
      stay, since every answer masks by theta. The first lower bound with a
      ub whose survivors number at most _BLOCK makes the state their table,
      _unrank of the ranks its sweep recorded, with theta cut to them.
    - as a table: packed bit rows (the np.packbits layout, ceil(n/8) bytes
      each) of at most _BLOCK points, one column per point, whose values
      come by byte lookup. A slice of at most _BLOCK points starts as its
      table, built once per slice shape (n, m), read-only and shared by
      every run on that shape, whose state only compresses it, which copies.
      Each lower bound is one _step over the table, and each level set
      theta <= level one masked lookup; the dead points are dropped by a
      boolean mask once they are an eighth of those held, which copies the
      survivors beside them for a moment.

    The whole state holds 8 bytes a point once swept, and a sweep adds at
    most the int64 ranks of _BLOCK points; the table adds at most _BLOCK
    columns, and so does a walk, whose prefixes never outnumber a block. So
    the state stays within the ceil(n/8) + 8 bytes a point of the slice that
    enumerable() admits. A pass adds block-sized buffers and, for each cost,
    cut or row it sums by tails, one array of C(n - 1, m - 1) values.
    """

    def __init__(self, dom: FeasibleDomain, cuts: Sequence[Cut]):
        _require_enumerable(dom.n, dom.m)
        self.dom = dom
        self.oracle = cuts if isinstance(cuts, CutOracle) else None
        total = comb(dom.n, dom.m)
        self.table = _slice_table(dom.n, dom.m) if total <= _BLOCK else None
        self.theta = np.empty(total)  # written by the first lower bound
        self.theta_min = -np.inf  # set by each lower bound
        self.n_cuts = 0
        self.ub = np.inf

    def holds(self, cuts, dom: FeasibleDomain) -> bool:
        """Whether this is the state of the run whose oracle is cuts, on dom."""
        return self.oracle is not None and cuts is self.oracle and dom is self.dom

    def reads(self, rows, dom: FeasibleDomain) -> bool:
        """Whether rows are a level set of theta: the cut rows of this run, of
        the cuts folded in so far, at a level no higher than ub."""
        return self.holds(rows.cuts, dom) and len(rows) == self.n_cuts and rows.level <= self.ub

    def point(self, i: int) -> np.ndarray:
        """The i-th held point, as 0/1 floats; unranked while the whole slice
        is held."""
        if self.table is None:
            return _point(i, self.dom.n, self.dom.m)
        return _decode(self.table[:, i], self.dom.n)

    def lower_bound(self, grads: np.ndarray, intercepts: np.ndarray, ub: Optional[float]):
        """Fold new cuts, given as gradient rows and intercepts, into theta,
        and return (x, theta(x)) at its first minimizer: one _step on a
        table, one sweep over the blocks of the whole state. The first lower
        bound that folds cuts in writes theta from them.

        On the whole state, while no cut is folded in, a lower bound of one
        cut is its m cheapest coordinates, ties to the lowest index: it folds
        nothing in and writes no theta. A lower bound of several cuts with a
        ub first walks their level sets (_walk); when one fits a block, it is
        the table the step folds over, and the state becomes that table's
        survivors, as long as its minimum is within ub: every point off the
        table is above ub, and so above that minimum. Else the lower bound
        sweeps.

        With ub, lower the state's ub and drop dead points: a table drops
        them by its step's mask once they are an eighth of those held, and
        the whole state becomes the table of its survivors once they fit one
        block. A minimum above ub + FEAS_TOL (rounding) drops nothing, which
        is always valid.
        """
        total = len(self.theta)
        limit = None if ub is None else ub + FEAS_TOL
        if ub is not None:
            self.ub = ub
        fresh = self.n_cuts == 0
        n, m = self.dom.n, self.dom.m
        new = len(grads)
        walked = None
        if fresh and self.table is None:
            if new == 1:
                x = _cheapest(grads[0], m)
                return x, float(grads[0] @ x) + float(intercepts[0])
            if limit is not None:
                walked = _walk(grads, intercepts, limit, n, m)
        if walked is not None and walked.shape[1]:
            theta, best_i, best, alive = _fold(walked, grads, intercepts, limit)
            if best <= limit:
                # every point off the table is above limit, and so above best
                self.table, self.theta = walked.compress(alive, axis=1), theta.compress(alive)
                self.n_cuts, self.theta_min = new, best
                return _decode(walked[:, best_i], n), best
        if self.table is not None:
            values = [_scores(self.table, lut) for lut in _lut(grads, len(self.table), intercepts)]
            best_i, best, alive = _step(self.theta, values, fresh, limit)
        else:
            best_i, best, kept = self._sweep(grads, intercepts, fresh, limit)
        self.n_cuts += new
        self.theta_min = best
        found = self.point(best_i), best
        if ub is None or best > limit:
            return found
        if self.table is None:
            if kept is not None:
                self.table = _unrank(kept, n, m)
                self.theta = self.theta[kept]
        elif 8 * (total - np.count_nonzero(alive)) >= total:
            self.table = self.table.compress(alive, axis=1)
            self.theta = self.theta.compress(alive)
        return found

    def _sweep(self, grads, intercepts, fresh: bool, limit: Optional[float]):
        """lower_bound's pass over the whole state: _step on each block, fed
        by tail sums. Returns (i, theta[i]) at the first argmin and, with a
        limit, the ranks of the points within it while they number at most
        _BLOCK (None past that, or without a limit)."""
        n, m = self.dom.n, self.dom.m
        feeds = [_tail_sums(g, n, m, c) for g, c in zip(grads, intercepts)]
        best_i, best = 0, np.inf
        kept = None if limit is None else []
        count = 0
        for b in _blocks(len(self.theta)):
            values = [next(feed)[1] for feed in feeds]
            i, low, alive = _step(self.theta[b], values, fresh, limit)
            if low < best:
                best_i, best = b.start + i, low
            if alive is not None:
                ranks = alive.nonzero()[0]
                count += len(ranks)
                if count <= _BLOCK:
                    kept.append(ranks + b.start)
                else:
                    kept = limit = None  # too many: the rest needs no mask
        return best_i, best, None if kept is None else np.concatenate(kept)

    def argmin(self, cost: np.ndarray, level: float):
        """min <cost, x> over the level set theta <= level, or None when empty.

        The set is empty exactly when the model minimum exceeds the level, and
        then no point is read.
        """
        limit = level + FEAS_TOL
        if self.theta_min > limit:
            return None
        if self.table is None:
            blocks = _tail_sums(cost, self.dom.n, self.dom.m)
            found = _first_minimum(_masked(blocks, self.theta, limit))
        else:
            values = _scores(self.table, _lut(cost, len(self.table)))
            np.putmask(values, self.theta > limit, np.inf)
            i = int(values.argmin())
            found = None if values[i] == np.inf else (i, float(values[i]))
        return None if found is None else (self.point(found[0]), found[1])


def _step(theta, values, fresh: bool, limit: Optional[float]):
    """A lower bound's work on one block: fold values, the new cuts' values
    at the block's points, one array each, into theta, the block's view of
    the state, and return (i, theta[i], alive), i the first argmin and alive
    the mask of theta <= limit (None without a limit). With fresh, theta is
    written from the first cut instead of raised by it."""
    if fresh:
        theta[:] = values[0]
    for v in values[int(fresh) :]:
        np.maximum(theta, v, out=theta)
    i = int(theta.argmin())
    return i, float(theta[i]), None if limit is None else theta <= limit


def _fold(table, grads, intercepts, limit: Optional[float]):
    """A fresh _step over a table: theta of the cuts given as gradient rows
    and intercepts at every point of the table by byte lookup. Returns
    (theta, i, theta[i], alive)."""
    theta = np.empty(table.shape[1])
    values = [_scores(table, lut) for lut in _lut(grads, len(table), intercepts)]
    return (theta, *_step(theta, values, True, limit))


# points read at a time, so that no array the size of the slice is made
# besides theta, and the most points a table holds: a slice of at most this
# many points is its table from the start, a whole state becomes the table
# of its survivors once they number at most this many, and a walk of a level
# set gives up once it knows of more points in it than this. On a 2-core
# machine, rounds of the five configurations on an n=30 m=6 slice took 33.2,
# 32.2 and 31.4 ms (least of 10) at 16k, 32k and 64k points, and 33.2, 32.5
# and 32.4 ms in a second pass of 16: past 32k the gain is within the noise,
# for twice the block buffers
_BLOCK = 32768

# _BITS[:, b] is the byte b unpacked, most significant bit first: np.packbits
# packs coordinates 8j .. 8j+7 into byte j, and _BIT[k] is the bit of 8j+k
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[None, :], axis=0).astype(float)
_BIT = np.array([128 >> k for k in range(8)], dtype=np.uint8)


def enumerable(n: int, m: int) -> bool:
    """Whether the slice, counted at a packed bit row and a float64 cut value
    per point, fits in ENUM_STATE_BYTES. The count is conservative: the
    enumerator's state writes 8 bytes a point only while whole and swept by
    a lower bound, and holds a table of at most _BLOCK points after that, or
    from a walk of a level set, which makes at most one block of candidates."""
    return comb(n, m) * ((n + 7) // 8 + 8) <= ENUM_STATE_BYTES


def _require_enumerable(n: int, m: int) -> None:
    if not enumerable(n, m):
        raise ValueError(f"C({n},{m}) exceeds the enumeration budget of {ENUM_STATE_BYTES:,} bytes")


def _blocks(count: int):
    return (slice(s, s + _BLOCK) for s in range(0, count, _BLOCK))


def _tail_sums(v: np.ndarray, n: int, m: int, base: float = 0.0):
    """Yield (rank, sums): sums[j] is <v, x> + base at the point x of the
    whole slice of lexicographic rank rank + j, in blocks of _BLOCK points
    (the last may be shorter), in rank order, the blocks of _blocks. sums is
    one buffer, which the next block overwrites.

    The sums are built one index at a time from the back, as _subsets builds
    its table, in place in one array: level k holds <v, x> over the
    k-subsets of range(m - k, n), the last k indices of every point, in
    lexicographic order, and is a prefix of the array, as no level is larger
    than the next. Those starting above i are a tail of level k, so level
    k + 1 is the tails of level k, each plus v[i]; for the least i that is
    all of level k, so the groups of the larger i are written past it first,
    and then it adds v[i] in place. Level m - 1 then takes base. Level m is
    never built: it is written into the buffer one block at a time, so
    besides it the one array held is level m - 1, C(n - 1, m - 1) values.
    """
    level = np.zeros(comb(n - 1, m - 1))
    size = 1  # level 0, the empty subset, is 0
    for k in range(1, m):
        filled = size
        for i in range(m - k + 1, n - k + 1):
            count = comb(n - i - 1, k - 1)
            np.add(level[size - count : size], v[i], out=level[filled : filled + count])
            filled += count
        level[:size] += v[m - k]
        size = filled
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


def _row_masked(scores, rows: CutRows, n: int, m: int):
    """scores, (start, block) pairs over the whole slice in rank order, with
    +inf at every point that violates one of rows; each row's left-hand
    sides are tail sums, computed in step with the blocks."""
    feeds = [_tail_sums(g, n, m) for g in rows.coeffs]
    for start, block in scores:
        for limit, feed in zip(rows.limit, feeds):
            np.putmask(block, next(feed)[1] > limit, np.inf)
        yield start, block


def _masked(scores, theta: np.ndarray, limit: float):
    """scores, (start, block) pairs in index order, with +inf at the indices
    i with theta[i] > limit."""
    for start, block in scores:
        np.putmask(block, theta[start : start + len(block)] > limit, np.inf)
        yield start, block


def _first_minimum(scores):
    """(i, s): s is the least of scores, and i the first index that reaches
    it; None when every score is +inf. scores come as (start, block) pairs in
    index order, block holding scores[start : start + len(block)]."""
    best_i, best = None, np.inf
    for start, block in scores:
        i = int(block.argmin())
        if block[i] < best:
            best_i, best = start + i, float(block[i])
    return None if best_i is None else (best_i, best)


def _walk(grads: np.ndarray, intercepts: np.ndarray, limit: float, n: int, m: int):
    """The level set where a cut, given as a gradient row and an intercept,
    is at most limit, as _level_set makes it, of the first cut whose level
    set fits; None when none does.

    The cuts are walked in increasing order of how many standard deviations
    of their values over the slice limit sits above their mean: the first
    is the one whose level set is likely the least, which makes the
    smallest table to fold the cuts over. Walked newest first instead, the
    five configurations on mdp_like 24/6 seed 0 and 26/5 seed 1 fold over
    tables of 30,890 and 6,025 points, not 1,431 and 423, and a round of
    them takes 31.0 and 20.5 ms, not 17.2 and 17.6 (2-core machine). A walk
    that gives up costs little, as it stops once it knows of more than
    _BLOCK points."""
    if limit == np.inf:
        return None  # the whole slice, which is more than a block
    spread = grads.std(axis=1)
    above = (limit - intercepts - m * grads.mean(axis=1)) / np.where(spread > 0, spread, np.inf)
    for q in above.argsort(kind="stable"):
        table = _level_set(grads[q], float(intercepts[q]), limit, n, m)
        if table is not None:
            return table
    return None


def _level_set(g: np.ndarray, c: float, limit: float, n: int, m: int):
    """The points x of the whole slice with <g, x> + c at most limit, and
    perhaps a few more within rounding of it, as packed bit rows in rank
    order, one column per point; None as soon as the walk knows of more than
    _BLOCK of them.

    The walk chooses a point's coordinates in increasing order of g, one
    depth at a time. A prefix stays while its sum, plus the least sum of
    the coordinates left to choose, the next ones in that order, is at most
    limit, give or take a slack for rounding. That least sum grows with the
    coordinate chosen, so the children of a prefix are a run of
    coordinates, which one searchsorted finds and counts before any is
    made. A prefix with k children and r coordinates left to choose has at
    least C(k + r - 1, r) points in the level set: any r of the k + r - 1
    coordinates that follow it sum to no more than the last r, which its
    last child completes. So the walk gives up at the first depth whose
    prefixes have more than _BLOCK such points, no later than at one of
    more than _BLOCK prefixes. limit is finite.
    """
    order = g.argsort(kind="stable")
    h = g[order]
    tails = np.concatenate([[0.0], np.cumsum(h)])
    room = limit - c + FEAS_TOL * (1.0 + abs(c) + m * np.abs(g).max())
    prefixes = np.zeros(((n + 7) // 8, 1), dtype=np.uint8)
    sums = np.zeros(1)
    last = np.array([-1])  # the position in h of each prefix's last coordinate
    for k in range(1, m + 1):
        # least[j]: the least sum of a child at position j and its completion
        least = np.full(n, np.inf)
        least[: n - m + k] = tails[m - k + 1 :] - tails[: n - m + k]
        np.maximum.accumulate(least, out=least)  # sorted, where rounding is not
        counts = np.searchsorted(least, room - sums, side="right") - last - 1
        np.maximum(counts, 0, out=counts)
        within = np.array([comb(j + m - k, m - k + 1) for j in range(n + 1)], dtype=float)
        if within.take(counts).sum() > _BLOCK:
            return None
        size = int(counts.sum())
        parent = np.repeat(np.arange(len(counts)), counts)
        last = np.arange(size) + np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
        sums = sums[parent] + h[last]
        coord = order.take(last)
        prefixes = prefixes.take(parent, axis=1)
        prefixes[coord >> 3, np.arange(size)] |= _BIT[coord & 7]
    # rank order: the first point holds the lower coordinate where two differ,
    # so its packed bytes read as the larger number
    return prefixes[:, np.lexsort(prefixes[::-1])[::-1]]


def _lagrangian(cost: np.ndarray, rows: CutRows, n: int, m: int):
    """min <cost, x> over the points x of the whole slice that satisfy rows,
    as (x, value) at the first minimizer in rank order, from the level set
    of one Lagrangian relaxation; None where it cannot tell: the m cheapest
    coordinates meet every row, no point it probes does, or the level set
    has more than _BLOCK points.

    The first row that the m cheapest coordinates violate is <a, x> <= b,
    b + FEAS_TOL its limit. The m cheapest coordinates of cost + lam * a,
    ties to the lowest index, change only where two coordinates swap order,
    at finitely many lam > 0, and <a, x> at them never rises with lam. A
    binary search over the gaps between those breakpoints, probing each at
    its middle, finds the first gap whose point meets that row; lam is the
    breakpoint that opens it (0 for the first gap), where the relaxation's
    bound is the highest, and U is the least cost of the probed points that
    meet every row. For any lam >= 0, a point that meets every row and costs
    at most U, so the first minimizer, has <cost + lam * a, x> <= U + lam *
    (b + FEAS_TOL): _level_set walks that level set, and the cost is folded
    over it, masked where a row is violated. Breakpoints that repeat make a
    gap of one point, probed where ties go to the lowest index; they leave
    the search as it is.
    """

    def cheapest(v: np.ndarray):
        """The m cheapest coordinates of v and which rows they meet."""
        x = _cheapest(v, m)
        return x, rows.coeffs @ x <= rows.limit

    x, met = cheapest(cost)
    if met.all():
        return None
    r = int(met.argmin())
    a = rows.coeffs[r]
    i, j = np.triu_indices(n, 1)
    keep = a[i] != a[j]
    swaps = (cost[j] - cost[i])[keep] / (a[i] - a[j])[keep]
    edges = np.concatenate([[0.0], np.sort(swaps[swaps > 0])])
    probes = np.append((edges[:-1] + edges[1:]) / 2, 2 * edges[-1] if len(edges) > 1 else 1.0)
    lo, hi, bound = 0, len(probes), np.inf
    while lo < hi:
        k = (lo + hi) // 2
        x, met = cheapest(cost + probes[k] * a)
        if met[r]:
            hi = k
            if met.all():
                bound = min(bound, float(cost @ x))
        else:
            lo = k + 1
    if bound == np.inf:
        return None
    lam = float(edges[lo])
    table = _level_set(cost + lam * a, 0.0, bound + lam * rows.limit[r], n, m)
    if table is None:
        return None
    luts = _lut(np.vstack([cost, rows.coeffs]), len(table))
    values, *lhs = (_scores(table, lut) for lut in luts)
    for row, limit in zip(lhs, rows.limit):
        np.putmask(values, row > limit, np.inf)
    best_i = int(values.argmin())
    best = float(values[best_i])
    return None if best == np.inf else (_decode(table[:, best_i], n), best)


def _unrank(ranks: np.ndarray, n: int, m: int) -> np.ndarray:
    """The points of the whole slice of lexicographic rank ranks, in
    increasing order, as packed bit rows (the np.packbits layout, ceil(n/8)
    bytes each), one column per point.

    The points whose least index is i hold the ranks from starts[i] on:
    i joined to each (m - 1)-subset of range(i + 1, n), which are, in
    order, the last C(n - i - 1, m - 1) columns of the table of the
    (m - 1)-subsets of range(1, n), C(n - 1, m - 1) <= C(n, m) of them. So
    each point is one column of that table, found by one searchsorted over
    the groups, with bit i set. The table is built for the call and not
    kept: a whole state is unranked once a run, and a table kept beside the
    next run's theta would add to its peak.
    """
    rest = _subsets(n, m, m - 1)
    sizes = np.array([comb(n - i - 1, m - 1) for i in range(n - m + 1)], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    bounds = np.searchsorted(ranks, starts)
    # the column of rest that the rank r of group i reads
    shift = rest.shape[1] - sizes - starts[:-1]
    table = rest.take(ranks + np.repeat(shift, np.diff(bounds)), axis=1)
    for i in range(n - m + 1):
        table[i >> 3, bounds[i] : bounds[i + 1]] |= _BIT[i & 7]
    return table


def _subsets(n: int, m: int, k: int) -> np.ndarray:
    """The packed table of the k-subsets of range(m - k, n), in rank order:
    the last k indices of every point of the slice of m-subsets, so the
    whole slice at k = m.

    It is built up from the empty subset as _tail_sums builds its sums, in
    place: level j, the j-subsets of range(m - j, n), has C(n - m + j, j)
    columns, which grows with j, so each level is a prefix of the table and
    none is larger than it, even where m is close to n. The j-subsets whose
    least index is i are i joined to the last C(n - i - 1, j - 1) columns
    of level j - 1; for i = m - j those are all of it, so the groups of the
    larger i are copied past it first, and then it takes its bit in place."""
    table = np.zeros(((n + 7) // 8, comb(n - m + k, k)), dtype=np.uint8)
    size = 1  # level 0, the empty subset
    for j in range(1, k + 1):
        filled = size
        for i in range(m - j + 1, n - j + 1):
            count = comb(n - i - 1, j - 1)
            table[:, filled : filled + count] = table[:, size - count : size]
            table[i >> 3, filled : filled + count] |= _BIT[i & 7]
            filled += count
        table[(m - j) >> 3, :size] |= _BIT[(m - j) & 7]
        size = filled
    return table


# a table is at most ENUM_STATE_BYTES; a process works on a few slice shapes
@functools.lru_cache(maxsize=4)
def _slice_table(n: int, m: int) -> np.ndarray:
    """The packed table of the whole slice, in rank order, read-only: built
    once per shape and shared by every run on it, on any thread."""
    table = _subsets(n, m, m)
    table.flags.writeable = False
    return table


def _point(rank: int, n: int, m: int) -> np.ndarray:
    """The point of the whole slice of lexicographic rank rank, as 0/1
    floats, in Python integers, which for the one point that a lower bound
    or a projection decodes cost a fraction of _unrank's array calls.

    The point c_1 < ... < c_m of rank r has C(n, m) - 1 - r = sum over j of
    C(n - 1 - c_j, m - j + 1), which the combinatorial number system writes
    one way only: each a_j = n - 1 - c_j is, in turn, the largest a with
    C(a, m - j + 1) no more than what is left."""
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


def _lut(v: np.ndarray, n_bytes: int, base=None) -> np.ndarray:
    """Lookup tables of <v, x> on packed rows: lut[j, b] is the share of byte j
    when it holds the value b. For the rows v[k] of a matrix, lut[k] are
    v[k]'s, all from one product, and lut[k, 0] carries base[k] when given:
    every point has one byte 0."""
    padded = np.zeros(v.shape[:-1] + (8 * n_bytes,))
    padded[..., : v.shape[-1]] = v
    lut = np.dot(padded.reshape(-1, 8), _BITS).reshape(v.shape[:-1] + (n_bytes, 256))
    if base is not None:
        lut[:, 0] += base[:, None]
    return lut


def _scores(packed: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """<v, x> for every packed point (column) x, from the lookup tables of v."""
    s = lut[0].take(packed[0])
    for j in range(1, len(lut)):
        s += lut[j].take(packed[j])
    return s


def _decode(row: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(row, count=n).astype(float)


def _cheapest(cost: np.ndarray, m: int) -> np.ndarray:
    """The minimizer of <cost, x> on the slice, the m cheapest coordinates
    with ties to the lowest index, as 0/1 floats."""
    x = np.zeros(len(cost))
    x[cost.argsort(kind="stable")[:m]] = 1.0
    return x


# fd 1 is pointed at fd 2 while any HiGHS solve runs: HiGHS prints stray
# debug lines through C stdio even with output off. Solves on several threads
# share one redirect, kept by a count of the solves inside it.
_STDOUT_LOCK = threading.Lock()
_stdout_users = 0
_stdout_saved = -1  # a duplicate of fd 1 as it was before the redirect
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
if _LIBC is not None:
    _LIBC.fflush.argtypes = [ctypes.c_void_p]
    _LIBC.fflush.restype = ctypes.c_int


def _flush_c_stdio() -> None:
    """Flush every C stdio stream (fflush(NULL)), HiGHS's among them."""
    if _LIBC is not None:
        _LIBC.fflush(None)


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point fd 1 at fd 2 for the duration; the first of overlapping callers
    saves fd 1 and the last one restores it. What is buffered for stdout is
    flushed before the redirect, and C stdio after it, so that each line
    lands on the stream that was fd 1 when it was printed."""
    global _stdout_users, _stdout_saved
    with _STDOUT_LOCK:
        if _stdout_users == 0:
            if sys.stdout is not None:
                sys.stdout.flush()
            _flush_c_stdio()
            _stdout_saved = os.dup(1)
            os.dup2(2, 1)
        _stdout_users += 1
    try:
        yield
    finally:
        with _STDOUT_LOCK:
            _stdout_users -= 1
            if _stdout_users == 0:
                _flush_c_stdio()
                os.dup2(_stdout_saved, 1)
                os.close(_stdout_saved)


class HighsBackend(MilpBackend):
    """HiGHS via scipy.optimize.milp.

    The MIP gap tolerances are pinned to zero so the reported dual bound is
    the exact model optimum whenever HiGHS claims optimality; this is what
    makes 1e-9 outer gaps closable.

    No answer is trusted blindly. A solve that ends in any status other than
    optimal, infeasible or time limit (HiGHS reports "Solve error" when its
    presolved model's solution violates the original rows), or whose lower
    bound exceeds the caller's upper limit by more than BOUND_RTOL, is solved
    again inside the remaining budget, down one ladder of rungs: presolve
    off at HIGHS_FEAS_TOL, then presolve off at HIGHS_TIGHT_FEAS_TOL, then
    presolve off at FEAS_TOL, then presolve on at HIGHS_TIGHT_FEAS_TOL. A
    tight lower-bound solve starts at the second rung. If the last rung's
    answer is also unusable, MilpSolveError names the subproblem kind and
    model size. Other options stay at solver defaults.

    Each model is the cardinality row sum(x) == m followed by one stacked
    block: the cut rows of a linear solve, or the theta-cuts of the
    cutting-plane model.
    """

    name = "highs"

    def __init__(self):
        from scipy.optimize import milp  # defer so brute-force use never needs scipy

        self._milp = milp

    def _solve_once(self, c, constraints, integrality, bounds, budget, n, presolve, feas_tol=None):
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
            with _stdout_to_stderr():
                res = self._milp(
                    c,
                    constraints=constraints,
                    integrality=integrality,
                    bounds=bounds,
                    options=options,
                )
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
        # where the values are large, presolve off can end in a solve error at
        # the default tolerance and at the least one, where presolve on at
        # the least one certifies; FEAS_TOL is the tightest to try in between
        rungs = (
            (False, None),
            (False, HIGHS_TIGHT_FEAS_TOL),
            (False, FEAS_TOL),
            (True, HIGHS_TIGHT_FEAS_TOL),
        )
        if tight:
            why = "a tight solve"
            rungs = rungs[1:]
        else:
            res = self._solve_once(c, constraints, integrality, bounds, budget, n, presolve=True)
            reason = _unusable(res, upper_limit)
            if reason is None:
                return res
            why = f"unusable: {reason}"
        for presolve, feas_tol in rungs:
            at = "" if feas_tol is None else f" at mip_feasibility_tolerance {feas_tol:g}"
            log.warning(
                "HiGHS %s solve (%d rows x %d cols) re-solving with presolve %s%s; %s",
                kind, a.shape[0], len(c), "on" if presolve else "off", at, why,
            )
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return _timeout_result(f"budget exhausted before re-solving; {why}")
            res = self._solve_once(
                c, constraints, integrality, bounds, remaining, n, presolve, feas_tol
            )
            reason = _unusable(res, upper_limit)
            if reason is None:
                return res
            why = f"unusable: {reason}"
        raise MilpSolveError(
            kind, a.shape[0], len(c), f"{reason}, also with presolve {'on' if presolve else 'off'}{at}"
        )

    def _solve_linear(self, cost, dom, rows, budget):
        a = np.vstack([np.ones(dom.n), rows.coeffs.reshape(-1, dom.n)])
        lo, hi = _cardinality_first(dom, rows.rhs)
        return self._run("linear", np.asarray(cost, dtype=float), a, lo, hi, dom.n, budget)

    def solve_cp(self, cuts, dom, budget, upper_limit=None, ub=None, tight=False):
        if len(cuts) == 0:
            raise ValueError("cutting-plane model requires a nonempty oracle")
        grads, values, grad_dot_anchor = stack_cuts(cuts)
        n = dom.n
        c = np.zeros(n + 1)
        c[n] = 1.0
        a = np.zeros((1 + len(values), n + 1))
        a[0, :n] = 1.0
        a[1:, :n] = grads
        a[1:, n] = -1.0
        lo, hi = _cardinality_first(dom, -(values - grad_dot_anchor))
        return self._run("cp", c, a, lo, hi, n, budget, upper_limit, tight)


def _cardinality_first(dom: FeasibleDomain, rhs: np.ndarray) -> tuple:
    """(lo, hi) of a HiGHS model's rows: sum(x) == m, then a block of rows
    <= rhs."""
    lo = np.full(1 + len(rhs), -np.inf)
    lo[0] = dom.m
    return lo, np.concatenate([[dom.m], rhs])


class AutoBackend(MilpBackend):
    """Enumeration on small slices, HiGHS on the rest; the default backend.

    for_domain chooses from the domain: a slice whose enumerator state fits
    in ENUM_STATE_BYTES (see enumerable) is answered exactly by a
    BruteForceBackend, whose level sets cost a fraction of a HiGHS call. Larger
    slices go to a HighsBackend, constructed on first use. An engine run
    makes that choice once, as its domain is fixed, and calls the chosen
    backend from then on; called directly, this backend chooses per call.
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
    if incumbent is not None and not backend.exact:
        grads, values, grad_dot_anchor = stack_cuts(oracle)
        x = np.asarray(incumbent, dtype=float)
        upper_limit = float(np.max(values + (grads @ x - grad_dot_anchor)))
    return backend.solve_cp(oracle, dom, budget, upper_limit, ub, tight)


def project(
    z: np.ndarray,
    dom: FeasibleDomain,
    cut_rows: CutRows,
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
    cut_rows: CutRows,
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
    if witness is not None and cut_rows.satisfied_by(witness):
        return True
    if budget <= 0:
        log.warning("feasibility check hit the time budget; treating set as empty")
        return False
    res = backend.solve_linear(np.zeros(dom.n), dom, cut_rows, budget)
    if res.status.kind is StatusKind.ERROR:
        raise MilpSolveError("linear", 1 + len(cut_rows), dom.n, res.status.message)
    if res.status.kind is StatusKind.TIME_LIMIT:
        log.warning("feasibility check hit the time budget; treating set as empty")
        return False
    return res.status.kind is StatusKind.OPTIMAL
