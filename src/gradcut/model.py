"""Problem data for binary quadratic minimization under a cardinality constraint.

Objectives are dense symmetric quadratics f(x) = 0.5 * x'Qx. The feasible
domain is {0,1}^n with sum(x) == m plus optional extra linear rows. Cuts are
affine underestimators anchored at visited binary points; the oracle is the
growing, deduplicated collection of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

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
class QuadraticObjective:
    """f(x) = 0.5 * x'Qx with Q dense symmetric."""

    q: np.ndarray

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
    """Ordered, anchor-deduplicated cut collection.

    Each cut is stacked once, as it is added: its gradient row, its value and
    <grad, anchor>, in arrays that double when full. Growth allocates new
    arrays and never writes to the rows already stacked, so the views that
    stacked() hands out (and the CutRows built on them) keep reading the same
    cuts while the oracle grows. One read-only view of each whole array is
    made when it is allocated; stacked() slices those.
    """

    def __init__(self, cuts: Sequence[Cut] = ()):
        self.cuts: list[Cut] = []
        self._seen: set[tuple] = set()
        self._grads = self._values = self._grad_dot_anchor = np.empty(0)
        self._views = (_read_only(self._grads),) * 3
        for cut in cuts:
            self.add(cut)

    def add(self, cut: Cut) -> bool:
        key = cut.key()
        if key in self._seen:
            return False
        k = len(self.cuts)
        if k == len(self._values):
            size = max(8, 2 * k)
            self._grads = _grown(self._grads, k, (size, len(cut.grad)))
            self._values = _grown(self._values, k, (size,))
            self._grad_dot_anchor = _grown(self._grad_dot_anchor, k, (size,))
            self._views = tuple(
                _read_only(a) for a in (self._grads, self._values, self._grad_dot_anchor)
            )
        self._grads[k] = cut.grad
        self._values[k] = cut.value
        self._grad_dot_anchor[k] = float(cut.grad @ cut.anchor)
        self._seen.add(key)
        self.cuts.append(cut)
        return True

    def stacked(self) -> tuple:
        """(grads, values, grad_dot_anchor) of the cuts added so far, one row or
        entry per cut, as read-only views of the stack."""
        k = len(self.cuts)
        grads, values, grad_dot_anchor = self._views
        return grads[:k], values[:k], grad_dot_anchor[:k]

    def __contains__(self, anchor) -> bool:
        return anchor_key(anchor) in self._seen

    def __len__(self) -> int:
        return len(self.cuts)

    def __iter__(self) -> Iterator[Cut]:
        return iter(self.cuts)


def _grown(a: np.ndarray, k: int, shape: tuple) -> np.ndarray:
    """A new array of the given shape whose first k rows are those of a."""
    out = np.empty(shape)
    if k:
        out[:k] = a[:k]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def stack_cuts(cuts: Sequence[Cut]) -> tuple:
    """(grads, values, grad_dot_anchor) of cuts, as CutOracle.stacked gives
    them: the oracle's own views, or arrays stacked afresh from any other
    sequence of cuts."""
    if isinstance(cuts, CutOracle):
        return cuts.stacked()
    grads = np.array([cut.grad for cut in cuts], dtype=float).reshape(len(cuts), -1)
    values = np.array([cut.value for cut in cuts], dtype=float)
    grad_dot_anchor = np.array([float(cut.grad @ cut.anchor) for cut in cuts])
    return grads, values, grad_dot_anchor


class CutRows(Sequence):
    """The rows <grad, x> <= level - intercept, one per cut of an oracle.

    Together they cut out the level set {x : theta(x) <= level} of the cut
    model theta(x) = max over cuts of <grad, x> + intercept. The rows are a
    read-only view of the oracle's stack: coeffs is its gradient rows and rhs
    is level - value + <grad, anchor>, for the cuts present when the view was
    made; len(rows) counts those cuts, and a LinearRow is built only when a
    row is indexed or iterated. A MILP solver reads coeffs and rhs; an
    enumerator that holds theta for the oracle's cuts reads `cuts` (the
    oracle) and `level` instead.
    """

    def __init__(self, oracle: CutOracle, level: float):
        grads, values, grad_dot_anchor = oracle.stacked()
        self.cuts = oracle
        self.level = level
        self.coeffs = grads
        self.rhs = level - values + grad_dot_anchor
        self.rhs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return LinearRow(self.coeffs[i], "<=", float(self.rhs[i]))

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


def make_cut(obj: QuadraticObjective, x_a) -> Cut:
    """Tangent plane of the quadratic at a binary anchor."""
    x_a = _check_dim(obj, x_a)
    return Cut(anchor=x_a, grad=eval_gradient(obj, x_a), value=eval_objective(obj, x_a))

