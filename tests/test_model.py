import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcut.model import (
    Cut,
    CutOracle,
    FeasibleDomain,
    QuadraticObjective,
    add_cut,
    anchor_key,
    eval_gradient,
    eval_objective,
    is_feasible,
    make_cut,
    regularize,
    symmetrize,
)

from conftest import Q_DIAG, Q_FULL, e, feasible_points, random_psd_objective


class TestEvalObjective:
    def test_diagonal_single_term(self):
        assert eval_objective(QuadraticObjective(Q_DIAG), e(1)) == 2.0

    def test_zero_vector(self):
        assert eval_objective(QuadraticObjective(Q_DIAG), np.zeros(3)) == 0.0

    def test_dense_hand_expansion(self):
        # 0.5 * (2 + 1 + 1 + 4) over the (1,1,0) support
        assert eval_objective(QuadraticObjective(Q_FULL), np.array([1.0, 1.0, 0.0])) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_objective(QuadraticObjective(Q_DIAG), np.ones(4))


class TestEvalGradient:
    def test_diagonal_pick(self):
        np.testing.assert_array_equal(
            eval_gradient(QuadraticObjective(Q_DIAG), e(1)), [0.0, 4.0, 0.0]
        )

    def test_column_read(self):
        np.testing.assert_array_equal(
            eval_gradient(QuadraticObjective(Q_FULL), e(1)), [1.0, 4.0, 2.0]
        )

    def test_zero_point(self):
        np.testing.assert_array_equal(
            eval_gradient(QuadraticObjective(Q_FULL), np.zeros(3)), np.zeros(3)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_gradient(QuadraticObjective(Q_DIAG), np.ones(2))


class TestRegularize:
    def test_indefinite_two_by_two(self):
        obj = QuadraticObjective(np.array([[0.0, -2.0], [-2.0, 0.0]]))
        dom = FeasibleDomain(n=2, m=1)
        reg = regularize(obj, dom)
        assert reg.regularization.rho == 2.0
        assert reg.regularization.shift == 1.0
        np.testing.assert_array_equal(reg.q, [[2.0, -2.0], [-2.0, 2.0]])
        x = np.array([1.0, 0.0])
        assert eval_objective(reg, x) == eval_objective(obj, x) + 1.0

    def test_already_dominant_is_identity(self):
        obj = QuadraticObjective(Q_DIAG)
        reg = regularize(obj, FeasibleDomain(n=3, m=1))
        assert reg is obj
        assert reg.shift == 0.0

    def test_gershgorin_row_sum(self):
        obj = QuadraticObjective(np.array([[1.0, 3.0], [3.0, 1.0]]))
        reg = regularize(obj, FeasibleDomain(n=2, m=1))
        assert reg.regularization.rho == 2.0
        assert reg.regularization.shift == 1.0
        np.testing.assert_array_equal(reg.q, [[3.0, 3.0], [3.0, 3.0]])

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_exact_shift_on_slice(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        obj = QuadraticObjective((a + a.T) / 2.0)
        m = int(rng.integers(1, n))
        dom = FeasibleDomain(n=n, m=m)
        reg = regularize(obj, dom)
        for x in feasible_points(dom):
            assert abs(eval_objective(reg, x) - eval_objective(obj, x) - reg.shift) <= 1e-9

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_result_is_psd(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        obj = QuadraticObjective((a + a.T) / 2.0)
        reg = regularize(obj, FeasibleDomain(n=n, m=1))
        assert np.min(np.linalg.eigvalsh(reg.q)) >= -1e-9


class TestCuts:
    def test_make_cut_diagonal(self):
        # tangent at e2: theta >= 4 x2 - 2
        cut = make_cut(QuadraticObjective(Q_DIAG), e(1))
        assert cut.value == 2.0
        np.testing.assert_array_equal(cut.grad, [0.0, 4.0, 0.0])
        assert cut.intercept == -2.0

    def test_make_cut_third_axis(self):
        cut = make_cut(QuadraticObjective(Q_DIAG), e(2))
        assert cut.value == 3.0
        assert cut.intercept == -3.0

    def test_zero_objective_zero_cut(self):
        cut = make_cut(QuadraticObjective(np.zeros((3, 3))), e(0))
        assert cut.value == 0.0
        assert cut.intercept == 0.0
        np.testing.assert_array_equal(cut.grad, np.zeros(3))

    def test_add_cut_union_semantics(self):
        obj = QuadraticObjective(Q_DIAG)
        oracle = CutOracle()
        assert add_cut(oracle, make_cut(obj, e(1))) is True
        assert len(oracle) == 1
        assert add_cut(oracle, make_cut(obj, e(1))) is False
        assert len(oracle) == 1
        assert add_cut(oracle, make_cut(obj, e(0))) is True
        assert len(oracle) == 2

    def test_anchor_key_rounds_as_int_round(self):
        # both round halves to even and read -0.0 and near-binary noise as 0 or 1
        x = np.array([0.5, 1.5, -0.0, 1.0 - 1e-12, 1e-12, 2.5, -0.5])
        want = tuple(int(round(v)) for v in x)
        assert anchor_key(x) == want == (0, 2, 0, 1, 0, 2, 0)
        oracle = CutOracle([Cut(anchor=np.array([1.0, -0.0, 0.0]), grad=np.zeros(3), value=0.0)])
        assert oracle.cuts[0].key() == (1, 0, 0)
        assert np.array([1.0 - 1e-12, 1e-12, -0.0]) in oracle
        assert e(1) not in oracle

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    @settings(max_examples=80, deadline=None)
    def test_convex_cut_validity(self, seed, n):
        # gradient inequality of a convex quadratic: the cut never overshoots f
        rng = np.random.default_rng(seed)
        obj = random_psd_objective(rng, n)
        x = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 0.5).astype(float)
        cut = make_cut(obj, y)
        lhs = cut.value + float(cut.grad @ (x - y))
        assert eval_objective(obj, x) >= lhs - 1e-9


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_gradient_matches_finite_differences(seed, n):
    rng = np.random.default_rng(seed)
    obj = random_psd_objective(rng, n)
    x = rng.uniform(-1.0, 1.0, size=n)
    grad = eval_gradient(obj, x)
    h = 1e-5
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        fd = (eval_objective(obj, x + step) - eval_objective(obj, x - step)) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-6


class TestDomainsAndValidation:
    def test_cardinality_bounds(self):
        with pytest.raises(ValueError):
            FeasibleDomain(n=3, m=0)
        with pytest.raises(ValueError):
            FeasibleDomain(n=3, m=3)

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetrize_tolerance(self):
        q = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
        sym = symmetrize(q)
        assert np.array_equal(sym, sym.T)
        with pytest.raises(ValueError):
            symmetrize(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_is_feasible(self):
        dom = FeasibleDomain(n=3, m=1)
        assert is_feasible(dom, e(0))
        assert not is_feasible(dom, np.array([1.0, 1.0, 0.0]))
        assert not is_feasible(dom, np.array([0.5, 0.5, 0.0]))
