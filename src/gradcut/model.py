"""Problem data for binary quadratic minimization under a cardinality constraint.

Objectives are dense symmetric quadratics f(x) = 0.5 * x'Qx. The feasible
domain is {0,1}^n with sum(x) == m plus optional extra linear rows. Cuts are
affine underestimators anchored at visited binary points; the oracle is the
growing, deduplicated collection of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

SENSES = ("<=", ">=", "==")

# the one absolute tolerance: slack on row and level-set membership, on the
# criticality test of the local solver, and the default optimality gap
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearRow:
    """One linear constraint over the binary variables: <coeffs, x> sense rhs."""

    coeffs: np.ndarray
    sense: str
    rhs: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if self.sense not in SENSES:
            raise ValueError(f"unknown row sense {self.sense!r}, expected one of {SENSES}")

    def satisfied_by(self, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
        lhs = float(self.coeffs @ x)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass(frozen=True)
class Regularization:
    """Record of an exact diagonal shift applied to make tangent cuts valid."""

    rho: float
    shift: float


@dataclass(frozen=True)
class QuadraticObjective:
    """f(x) = 0.5 * x'Qx with Q dense symmetric."""

    q: np.ndarray
    regularization: Optional[Regularization] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be square, got shape {q.shape}")
        if not np.array_equal(q, q.T):
            raise ValueError("Q must be symmetric (use symmetrize() on raw input)")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def shift(self) -> float:
        """Constant offset between this objective and the unregularized one."""
        return self.regularization.shift if self.regularization is not None else 0.0


def symmetrize(q: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
    """Return the exactly-symmetric average of q, rejecting asymmetry beyond tol."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if np.max(np.abs(q - q.T), initial=0.0) > tol:
        raise ValueError("matrix is asymmetric beyond tolerance")
    return (q + q.T) / 2.0


@dataclass(frozen=True)
class FeasibleDomain:
    """Binary points with sum(x) == m and any extra linear rows."""

    n: int
    m: int
    extra_rows: tuple = ()

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        rows = tuple(self.extra_rows)
        for row in rows:
            if row.coeffs.shape != (self.n,):
                raise ValueError("extra row dimension does not match domain")
        object.__setattr__(self, "extra_rows", rows)


def is_feasible(dom: FeasibleDomain, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (dom.n,):
        return False
    if np.any(np.abs(x - np.round(x)) > tol) or np.any(x < -tol) or np.any(x > 1 + tol):
        return False
    if abs(float(np.sum(x)) - dom.m) > tol:
        return False
    return all(row.satisfied_by(x, tol) for row in dom.extra_rows)


@dataclass(frozen=True)
class Cut:
    """Tangent-plane data anchored at a binary point: theta >= value + <grad, x - anchor>."""

    anchor: np.ndarray
    grad: np.ndarray
    value: float

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        grad = np.asarray(self.grad, dtype=float)
        anchor.setflags(write=False)
        grad.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "grad", grad)

    @property
    def intercept(self) -> float:
        """Affine form is theta >= <grad, x> + intercept."""
        return self.value - float(self.grad @ self.anchor)

    def key(self) -> tuple:
        return anchor_key(self.anchor)


def anchor_key(x) -> tuple:
    """The binary point nearest x, as the tuple of ints that identifies a cut's
    anchor; halves round to even."""
    return tuple(np.rint(np.asarray(x, dtype=float)).astype(int).tolist())


class CutOracle:
    """Ordered, anchor-deduplicated cut collection."""

    def __init__(self, cuts: Sequence[Cut] = ()):
        self.cuts: list[Cut] = []
        self._seen: set[tuple] = set()
        for cut in cuts:
            self.add(cut)

    def add(self, cut: Cut) -> bool:
        key = cut.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.cuts.append(cut)
        return True

    def __contains__(self, anchor) -> bool:
        return anchor_key(anchor) in self._seen

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator[Cut]:
        return iter(self.cuts)


class CutRows(list):
    """The rows <grad, x> <= level - intercept, one per cut of an oracle.

    Together they cut out the level set {x : theta(x) <= level} of the cut
    model theta(x) = max over cuts of <grad, x> + intercept. A MILP solver
    reads the rows; an enumerator that holds theta for the oracle's cuts reads
    `cuts` (the oracle) and `level` instead. The rows are those of the cuts
    present when they were built, so len(rows) counts those cuts; their
    coefficients and right-hand sides are also stacked, for satisfied_by.
    """

    def __init__(self, oracle: CutOracle, level: float):
        super().__init__(
            LinearRow(cut.grad, "<=", level - cut.value + float(cut.grad @ cut.anchor))
            for cut in oracle
        )
        self.cuts = oracle
        self.level = level
        self.coeffs = np.array([row.coeffs for row in self])
        self.rhs = np.array([row.rhs for row in self])

    def satisfied_by(self, x: np.ndarray) -> bool:
        """Whether x satisfies every row, as LinearRow.satisfied_by judges each."""
        return len(self) == 0 or bool(np.all(self.coeffs @ x <= self.rhs + FEAS_TOL))


def _check_dim(obj: QuadraticObjective, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.n,):
        raise ValueError(f"point has shape {x.shape}, objective dimension is {obj.n}")
    return x


def eval_objective(obj: QuadraticObjective, x) -> float:
    """0.5 * x'Qx."""
    x = _check_dim(obj, x)
    return 0.5 * float(x @ obj.q @ x)


def eval_gradient(obj: QuadraticObjective, x) -> np.ndarray:
    """Qx."""
    x = _check_dim(obj, x)
    return obj.q @ x


def regularize(obj: QuadraticObjective, dom: FeasibleDomain) -> QuadraticObjective:
    """Diagonal shift making Q diagonally dominant PSD, exact on the cardinality slice.

    rho is the Gershgorin bound max(0, max_i(sum_{j != i} |q_ij| - q_ii)); the
    shifted objective differs from the original by the constant rho*m/2 at every
    binary x with sum(x) == m, so the argmin over the domain is unchanged.
    """
    if obj.n != dom.n:
        raise ValueError("objective and domain dimensions differ")
    q = obj.q
    off_diag = np.sum(np.abs(q), axis=1) - np.abs(np.diag(q))
    rho = float(max(0.0, np.max(off_diag - np.diag(q))))
    if rho == 0.0:
        return obj
    q_shifted = q + rho * np.eye(obj.n)
    base_shift = obj.shift
    return QuadraticObjective(
        q=q_shifted,
        regularization=Regularization(rho=rho, shift=base_shift + rho * dom.m / 2.0),
    )


def make_cut(obj: QuadraticObjective, x_a) -> Cut:
    """Tangent plane of the quadratic at a binary anchor."""
    x_a = _check_dim(obj, x_a)
    return Cut(anchor=x_a, grad=eval_gradient(obj, x_a), value=eval_objective(obj, x_a))


def add_cut(oracle: CutOracle, cut: Cut) -> bool:
    """Set-union insert; False when the anchor is already present."""
    return oracle.add(cut)
