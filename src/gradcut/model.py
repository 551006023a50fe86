"""Problem data for binary quadratic minimization under a cardinality constraint.

Objectives are dense symmetric quadratics f(x) = 0.5 * x'Qx. The feasible
domain is the slice {0,1}^n with sum(x) == m. Cuts are affine underestimators
anchored at visited binary points; the oracle is the growing, deduplicated
collection of them, and CutRows a level set of their model.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

# QuadraticObjective and Cut hold arrays, whose == is elementwise; they are
# dataclasses with eq=False, so == and hash are by identity, as a run's state
# is keyed by the objects it was built from

# the one absolute tolerance: slack on row and level-set membership, on the
# criticality test of the local solver, and the default optimality gap
FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def diag_shift(self) -> np.ndarray:
        """u = slice_shift(Q), the diagonal the engine convexifies Q with on the
        cardinality slice; solved on first use and kept, since q is read-only."""
        u = slice_shift(self.q)
        u.setflags(write=False)
        return u


# relative margin the shift leaves above the smallest eigenvalue on the slice
_PSD_TOL = 1e-12


def _complement_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector, as n x (n-1)
    columns: the Householder reflector H mapping 1/sqrt(n) to e1 is orthogonal
    and symmetric, so its columns past the first are orthogonal to H e1, the
    normalized all-ones vector."""
    w = np.full(n, 1.0 / math.sqrt(n))
    w[0] -= 1.0
    reflector = np.eye(n) - np.outer(w, w) * (2.0 / float(w @ w))
    return reflector[:, 1:]


def slice_shift(q: np.ndarray) -> np.ndarray:
    """A diagonal u with V'(Q + diag u)V PSD and sum(u) about least, where V
    is an orthonormal basis of the complement of the all-ones vector.

    This is the diagonal variant of QCR's convexification (Billionnet,
    Elloumi and Plateau, Discrete Appl. Math. 157, 2009), solved by a
    barrier method on sum(u) - mu*log det S(u), S(u) = V'(Q + diag u)V.
    The uniform shift rho = -lambda_min(V'QV) is feasible; the method starts
    at rho + mu, where the least eigenvalue of S is mu, since from the
    boundary itself Newton steps stay short. mu falls tenfold per round in
    five rounds, from max(1, |rho|) to 1e-4 of that, with two Newton steps a
    round; measured on the benchmark's workloads, fewer steps left u short
    enough of the least sum to cost outer iterations. Any feasible u is
    valid, so a singular system ends the method where it stands. At n = 2 S
    is the scalar V'QV + sum(u)/2, so the uniform shift is already least and
    no step is taken. Last, u moves uniformly until the least eigenvalue of S
    is the relative margin _PSD_TOL. The schedule's floor of 1 is absolute:
    on a spectrum much smaller than 1 the method ends far from the least sum,
    and where that leaves sum(u) above the uniform shift's, the uniform shift
    is returned.
    """
    n = len(q)
    scale = max(1.0, float(np.max(np.abs(q), initial=0.0)))
    basis = _complement_basis(n)
    base = basis.T @ q @ basis
    rho = -float(np.linalg.eigvalsh(base)[0])
    mu = max(1.0, abs(rho))
    u = np.full(n, rho + mu)
    try:
        for _ in range(5 if n > 2 else 0):
            for _ in range(2):
                u = _barrier_step(base, basis, u, mu)
            mu *= 0.1
    except np.linalg.LinAlgError:
        pass
    lam = float(np.linalg.eigvalsh(base + (basis.T * u) @ basis)[0])
    u = u - (lam - _PSD_TOL * scale)
    uniform = rho + _PSD_TOL * scale
    return u if float(np.sum(u)) <= n * uniform else np.full(n, uniform)


def _barrier_step(base: np.ndarray, basis: np.ndarray, u: np.ndarray, mu: float) -> np.ndarray:
    """u after one Newton step on sum(u) - mu*log det S(u), S(u) = base +
    V'diag(u)V, with an exact line search; LinAlgError where S(u) is not
    positive definite (by Cholesky) or the Newton system is singular.

    With S = LL' and W = V S^-1 V', the gradient is 1 - mu*diag(W) and the
    Hessian mu*(W o W). Along the step d, S(u + t*d) = L(I + t*G)L' with G =
    L^-1 V'diag(d)V L^-T, so the objective moves by t*sum(d) - mu*sum(log(1 +
    t*g)) over the eigenvalues g of G: convex in t, and feasible while every
    1 + t*g stays positive. A few Newton iterations on that line pick t,
    kept at most 1 and short of the boundary.
    """
    chol = np.linalg.cholesky(base + (basis.T * u) @ basis)
    half = np.linalg.solve(chol, basis.T)  # L^-1 V', so that W = half'half
    w = half.T @ half
    step = np.linalg.solve(mu * w * w, mu * np.diag(w) - 1.0)
    g = np.linalg.eigvalsh((half * step) @ half.T)
    cap = min(1.0, -0.99 / g[0]) if g[0] < 0 else 1.0
    total = float(np.sum(step))
    t = cap / 2.0
    for _ in range(4):
        r = g / (1.0 + t * g)
        t = min(max(t - (total - mu * float(np.sum(r))) / (mu * float(r @ r)), t / 2.0), cap)
    return u + t * step


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
    """The binary points of length n with sum(x) == m."""

    n: int
    m: int

    def __post_init__(self):
        if not (0 < self.m < self.n):
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={self.n}")


def is_feasible(dom: FeasibleDomain, x: np.ndarray, tol: float = FEAS_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (dom.n,) or not np.isfinite(x).all():
        return False
    if (abs(x - x.round()) > tol).any() or (x < -tol).any() or (x > 1 + tol).any():
        return False
    return abs(float(x.sum()) - dom.m) <= tol


@dataclass(frozen=True, eq=False)
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

    Each cut is stacked once, as it is added: its gradient row and its
    intercept, in arrays that double when full. Growth allocates new arrays
    and never writes to the rows already stacked, so the views that
    stacked() hands out (and the CutRows built on them) keep reading the
    same cuts while the oracle grows. One read-only view of each whole array
    is made when it is allocated; stacked() slices those.
    """

    def __init__(self, cuts: Sequence[Cut] = ()):
        self.cuts: list[Cut] = []
        self._seen: set[tuple] = set()
        self._grads = self._intercepts = np.empty(0)
        self._views = (_read_only(self._grads),) * 2
        for cut in cuts:
            self.add(cut)

    def add(self, cut: Cut, key: Optional[tuple] = None) -> bool:
        """Stack cut unless a cut at its anchor is held; key, when given, is
        cut.key(), which the caller already has."""
        if key is None:
            key = cut.key()
        if key in self._seen:
            return False
        k = len(self.cuts)
        if k == len(self._intercepts):
            size = max(8, 2 * k)
            self._grads = _grown(self._grads, k, (size, len(cut.grad)))
            self._intercepts = _grown(self._intercepts, k, (size,))
            self._views = (_read_only(self._grads), _read_only(self._intercepts))
        self._grads[k] = cut.grad
        self._intercepts[k] = cut.intercept
        self._seen.add(key)
        self.cuts.append(cut)
        return True

    def stacked(self) -> tuple:
        """(grads, intercepts) of the cuts added so far, one row or entry per
        cut, as read-only views of the stack."""
        k = len(self.cuts)
        grads, intercepts = self._views
        return grads[:k], intercepts[:k]

    def __contains__(self, anchor) -> bool:
        """Whether a cut at anchor is held; anchor is a point, or the tuple
        anchor_key gives for it."""
        return (anchor if isinstance(anchor, tuple) else anchor_key(anchor)) in self._seen

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


class CutRows:
    """The rows <grad, x> <= level - intercept, one per cut of an oracle: the
    one row type every linear subproblem takes.

    Together they cut out the level set {x : theta(x) <= level} of the cut
    model theta(x) = max over cuts of <grad, x> + intercept. The rows are a
    read-only view of the oracle's stack: coeffs is its gradient rows and rhs
    is level - intercept, for the cuts present when the view was made;
    len(rows) counts those cuts. A point meets a row when its
    left-hand side is at most the row's entry of limit, rhs + FEAS_TOL. A
    MILP solver reads coeffs and rhs; an enumerator that holds theta for the
    oracle's cuts reads `cuts` (the oracle) and `level` instead.
    """

    def __init__(self, oracle: CutOracle, level: float):
        grads, intercepts = oracle.stacked()
        self.cuts = oracle
        self.level = level
        self.coeffs = grads
        self.rhs = level - intercepts
        self.rhs.flags.writeable = False
        self.limit = self.rhs + FEAS_TOL
        self.limit.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rhs)

    def satisfied_by(self, x: np.ndarray) -> bool:
        """Whether x meets every row."""
        return len(self) == 0 or bool((self.coeffs @ x <= self.limit).all())


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
    """Tangent plane of the quadratic at a binary anchor: f and its gradient
    there, as eval_objective and eval_gradient give them, with the point's
    shape checked once."""
    x_a = _check_dim(obj, x_a)
    return Cut(anchor=x_a, grad=obj.q @ x_a, value=0.5 * float(x_a @ obj.q @ x_a))

