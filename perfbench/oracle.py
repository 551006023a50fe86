"""The benchmark's own answer check, computed apart from the program.

The optimum of each instance comes from enumerating the whole cardinality
slice with numpy here, not from gradcut's brute-force backend or its bench
module. A cell is then judged on what it returned alone.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

# the engine certifies an absolute gap of 1e-9; values are compared within
# that much of the objective's scale
GAP_TOL = 1e-9


def enumerated_minimum(q: np.ndarray, m: int) -> float:
    """min of 0.5 x'Qx over binary x with m ones, by visiting every such x."""
    n = len(q)
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), m)),
        dtype=np.int16,
        count=comb(n, m) * m,
    ).reshape(-1, m)
    total = np.zeros(len(idx))
    for a in range(m):
        for b in range(m):
            total += q[idx[:, a], idx[:, b]]
    return float(0.5 * total.min())


def tolerance(f_star: float) -> float:
    return GAP_TOL * max(1.0, abs(f_star))


def judge(cell: dict, q: np.ndarray, m: int, f_star: float) -> tuple[bool, list[str]]:
    """(failed, problems) for one cell.

    A cell fails when it raised or ended uncertified; a failed cell is not
    checked further. A cell that did not fail must return a feasible x_best
    whose recomputed objective is f_best, equal to the enumerated optimum, and
    a trace with lb <= f* <= ub at every record.
    """
    if "error" in cell or cell["status"] != "eps_optimal":
        return True, []
    tol = tolerance(f_star)
    x = np.asarray(cell["x_best"], dtype=float)
    problems = []
    if x.shape != (len(q),) or not np.all((x == 0.0) | (x == 1.0)) or x.sum() != m:
        problems.append("x_best is not a binary point with m ones")
    else:
        f_x = 0.5 * float(x @ q @ x)
        if abs(f_x - cell["f_best"]) > tol:
            problems.append(f"f_best {cell['f_best']!r} but 0.5 x'Qx = {f_x!r}")
    if abs(cell["f_best"] - f_star) > tol:
        problems.append(f"f_best {cell['f_best']!r} but the enumerated optimum is {f_star!r}")
    for k, ub, lb in cell["records"]:
        if lb > f_star + tol or ub < f_star - tol:
            problems.append(f"record {k}: f* = {f_star!r} outside [lb {lb!r}, ub {ub!r}]")
            break
    return False, problems


def residue_area(cell: dict, f_star: float) -> float:
    """Sum over the trace records of R(k) = (best ub up to k - f*) / (f0 - f*)."""
    denom = cell["f0"] - f_star
    if denom <= 0:
        return 0.0
    best = np.minimum.accumulate([ub for _, ub, _ in cell["records"]])
    return float(np.clip((best - f_star) / denom, 0.0, 1.0).sum())
