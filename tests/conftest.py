import itertools

import numpy as np
import pytest

from gradcut.milp import BruteForceBackend, HighsBackend
from gradcut.model import FEAS_TOL, Cut, CutOracle, CutRows, FeasibleDomain, QuadraticObjective

# small worked instances used throughout: a diagonal quadratic and a dense one
Q_DIAG = np.diag([2.0, 4.0, 6.0])
Q_FULL = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 2.0], [0.0, 2.0, 6.0]])


def e(i, n=3):
    v = np.zeros(n)
    v[i] = 1.0
    return v


@pytest.fixture
def diag_instance():
    return QuadraticObjective(Q_DIAG), FeasibleDomain(n=3, m=1)


@pytest.fixture
def full_instance():
    return QuadraticObjective(Q_FULL), FeasibleDomain(n=3, m=1)


@pytest.fixture(params=["bruteforce", "highs"])
def backend(request):
    if request.param == "bruteforce":
        return BruteForceBackend()
    return HighsBackend()


@pytest.fixture
def brute_backend():
    return BruteForceBackend()


def feasible_points(dom):
    """All binary points of the cardinality slice, in lexicographic order."""
    pts = []
    for idx in itertools.combinations(range(dom.n), dom.m):
        x = np.zeros(dom.n)
        x[list(idx)] = 1.0
        pts.append(x)
    return pts


def rows_of(coeffs=(), rhs=(), level=0.0):
    """CutRows whose k-th row is <coeffs[k], x> <= rhs[k], within rounding
    (exactly, for whole-number data); rows_of() has no row. An oracle keeps
    one cut per anchor, so cut k is anchored at its own point, k * e_0, with
    the value g_k . a_k + level - rhs_k."""
    oracle = CutOracle()
    for k, (g, b) in enumerate(zip(coeffs, rhs)):
        g = np.asarray(g, dtype=float)
        anchor = np.zeros(len(g))
        anchor[0] = k
        oracle.add(Cut(anchor=anchor, grad=g, value=float(g @ anchor) + level - float(b)))
    return CutRows(oracle, level)


def meets(rows, x):
    """Whether x meets every one of rows, checked one row at a time."""
    return all(float(g @ x) <= float(b) + FEAS_TOL for g, b in zip(rows.coeffs, rows.rhs))


def enumerate_min(q, dom):
    """Independent oracle: exhaustive minimum of 0.5 x'Qx over the domain."""
    best_f, best_x = np.inf, None
    for x in feasible_points(dom):
        f = 0.5 * float(x @ q @ x)
        if f < best_f:
            best_f, best_x = f, x
    return best_f, best_x


def random_psd_objective(rng, n):
    a = rng.standard_normal((n, n))
    q = a.T @ a
    q = (q + q.T) / 2.0
    return QuadraticObjective(q / np.linalg.norm(q, 2))


def random_symmetric_objective(rng, n):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return QuadraticObjective((a + a.T) / 2.0)
