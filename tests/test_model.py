import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcut.model import (
    FEAS_TOL,
    Cut,
    CutOracle,
    CutRows,
    FeasibleDomain,
    QuadraticObjective,
    anchor_key,
    eval_gradient,
    eval_objective,
    is_feasible,
    make_cut,
    symmetrize,
)

from conftest import Q_DIAG, Q_FULL, e, random_psd_objective


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
        assert oracle.add(make_cut(obj, e(1))) is True
        assert len(oracle) == 1
        assert oracle.add(make_cut(obj, e(1))) is False
        assert len(oracle) == 1
        assert oracle.add(make_cut(obj, e(0))) is True
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
        # a key asks as its point does, and a known key spares the rounding
        assert (1, 0, 0) in oracle and anchor_key(e(1)) not in oracle
        assert oracle.add(make_cut(QuadraticObjective(Q_DIAG), e(1)), anchor_key(e(1)))
        assert e(1) in oracle and len(oracle) == 2

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


def distinct_points(n, m, count):
    """The first count points of the (n, m) slice, in lexicographic order."""
    pts = []
    for idx in itertools.islice(itertools.combinations(range(n), m), count):
        x = np.zeros(n)
        x[list(idx)] = 1.0
        pts.append(x)
    return pts


class TestCutRowsView:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_per_cut_formula_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        obj = random_psd_objective(rng, 9)
        cuts = [make_cut(obj, x) for x in rng.permutation(distinct_points(9, 3, 84))[:20]]
        oracle = CutOracle(cuts)
        level = float(rng.uniform(-2.0, 2.0))
        rows = CutRows(oracle, level)
        assert len(rows) == len(rows.coeffs) == len(rows.limit) == len(cuts)
        for i, cut in enumerate(cuts):
            rhs = level - cut.value + float(cut.grad @ cut.anchor)
            assert rows.rhs[i] == rhs
            assert rows.limit[i] == rhs + FEAS_TOL
            np.testing.assert_array_equal(rows.coeffs[i], cut.grad)

    def test_a_view_keeps_its_rows_while_the_oracle_grows(self):
        obj = random_psd_objective(np.random.default_rng(3), 10)
        points = distinct_points(10, 3, 60)
        oracle = CutOracle(make_cut(obj, x) for x in points[:3])
        rows = CutRows(oracle, 1.5)
        coeffs, rhs = rows.coeffs.copy(), rows.rhs.copy()
        first = oracle.stacked()[0]
        for x in points[3:]:  # the stack reallocates at 8, 16 and 32 cuts
            oracle.add(make_cut(obj, x))
        assert oracle.stacked()[0] is not first and oracle.stacked()[0].base is not first.base
        assert len(rows) == 3 and len(oracle) == 60
        np.testing.assert_array_equal(rows.coeffs, coeffs)
        np.testing.assert_array_equal(rows.rhs, rhs)
        np.testing.assert_array_equal(CutRows(oracle, 1.5).rhs[:3], rhs)
        with pytest.raises(ValueError):
            rows.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            rows.rhs[0] = 1.0
        with pytest.raises(ValueError):
            rows.limit[0] = 1.0

    def test_empty_oracle_gives_no_rows(self):
        rows = CutRows(CutOracle(), 0.0)
        assert len(rows) == 0
        assert rows.coeffs.size == rows.rhs.size == rows.limit.size == 0
        assert rows.satisfied_by(np.ones(4)) is True


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
        # every comparison with NaN is false, and inf - round(inf) is NaN
        dom = FeasibleDomain(n=8, m=3)
        point = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert is_feasible(dom, point)
        assert not is_feasible(dom, np.full(8, np.nan))
        for bad in (np.nan, np.inf, -np.inf):
            for i in (0, 7):
                x = point.copy()
                x[i] = bad
                assert not is_feasible(dom, x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuadraticObjective(np.eye(3)),
        lambda: CutRows(CutOracle([Cut(np.array([1.0, 0.0, 0.0]), np.ones(3), 0.5)]), 1.0),
        lambda: Cut(np.array([1.0, 0.0, 0.0]), np.ones(3), 0.5),
        lambda: CutOracle([Cut(np.array([1.0, 0.0, 0.0]), np.ones(3), 0.5)]),
    ],
)
def test_equality_of_array_holders_is_identity_and_never_raises(make):
    """Two objects built from equal arrays compare, search and hash without
    the elementwise == of their arrays; each still equals itself."""
    a, b = make(), make()
    assert a == a
    assert not a == b and a != b
    assert a in [b, a] and b not in [a]
    assert [b, a].index(a) == 1
    assert len({a, b}) == 2
