import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcut.bench import (
    DataError,
    Instance,
    ParseError,
    ResidueSeries,
    RunTrace,
    TraceRecord,
    default_x0,
    instance_to_json,
    median_profile,
    parse_instance,
    read_trace_csv,
    read_trace_json,
    residue,
    residue_distribution,
    synth_instance,
    validate_trace,
    write_distribution_svg,
    write_instance_json,
    write_profile_svg,
    write_trace_csv,
    write_trace_json,
)
from gradcut.engine import slice_shift
from gradcut.milp import BruteForceBackend
from gradcut.model import FeasibleDomain, LinearRow, QuadraticObjective

from conftest import Q_DIAG


def trace_of(ubs, f0, ts=None, config="cpm", instance="synthetic"):
    ts = ts if ts is not None else [0.1 * (i + 1) for i in range(len(ubs))]
    records = [
        TraceRecord(k=i + 1, t=ts[i], ub=ubs[i], lb=-10.0, n_cuts=i + 1, tau=0.0)
        for i in range(len(ubs))
    ]
    return RunTrace(records=records, config_name=config, instance_name=instance, f0=f0)


class TestParseTriplet:
    def test_round_trip_small_file(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3 1\n1 2 5.0\n1 3 2.0\n2 3 1.0\n")
        inst = parse_instance(path, "mdplib_triplet")
        assert inst.dom.n == 3
        assert inst.dom.m == 1
        # distances are negated into the minimization objective
        assert inst.obj.q[0, 1] == -5.0
        assert inst.obj.q[1, 0] == -5.0
        assert inst.obj.q[2, 1] == -1.0
        assert np.all(np.diag(inst.obj.q) == 0.0)

    def test_zero_based_indices_detected(self, tmp_path):
        path = tmp_path / "tri0.txt"
        path.write_text("3 1\n0 1 5.0\n0 2 2.0\n1 2 1.0\n")
        inst = parse_instance(path, "mdplib_triplet")
        assert inst.obj.q[0, 1] == -5.0

    def test_missing_cardinality_needs_override(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3\n1 2 5.0\n")
        with pytest.raises(ValueError, match="cardinality"):
            parse_instance(path, "mdplib_triplet")
        inst = parse_instance(path, "mdplib_triplet", m_override=2)
        assert inst.dom.m == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3 1\n1 2 5.0\n1 oops\n")
        with pytest.raises(ParseError, match="tri.txt:3"):
            parse_instance(path, "mdplib_triplet")

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3 1\n1 7 5.0\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_instance(path, "mdplib_triplet")


class TestParseDense:
    def test_reads_matrix_directly(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("3 1\n2 0 0\n0 4 0\n0 0 6\n")
        inst = parse_instance(path, "dense_matrix")
        np.testing.assert_array_equal(inst.obj.q, Q_DIAG)
        assert inst.dom.m == 1

    def test_asymmetry_is_a_data_error(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("2 1\n1 2\n2.1 1\n")
        with pytest.raises(DataError):
            parse_instance(path, "dense_matrix")

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("3 1\n1 0 0\n0 1 0\n")
        with pytest.raises(ParseError, match="matrix rows"):
            parse_instance(path, "dense_matrix")


class TestParseAuto:
    @pytest.mark.parametrize(
        "name, text, source",
        [
            ("d.txt", "3 1\n2 0 0\n0 4 0\n0 0 6\n", "dense_matrix"),
            # fewer rows of three than n: a triplet file, not a matrix
            ("t.txt", "3 1\n1 2 5.0\n2 3 1.0\n", "mdplib_triplet"),
            ("j.json", json.dumps({"n": 2, "m": 1, "q": [1.0, 0.0, 0.0, 2.0]}), "canonical_json"),
        ],
        ids=["dense", "triplet", "json"],
    )
    def test_detects_each_format(self, tmp_path, name, text, source):
        path = tmp_path / name
        path.write_text(text)
        assert parse_instance(path, "auto").source == source

    def test_complete_triplet_file_of_three_points_read_as_triplets(self, tmp_path):
        # three rows of three fields, as a dense 3x3 matrix has; read as a
        # matrix it is asymmetric, so only the triplet reading holds
        path = tmp_path / "t3.txt"
        path.write_text("3 1\n1 2 5\n1 3 4\n2 3 3\n")
        inst = parse_instance(path, "auto")
        assert inst.source == "mdplib_triplet"
        np.testing.assert_array_equal(-inst.obj.q, [[0, 5, 4], [5, 0, 3], [4, 3, 0]])

    def test_file_that_reads_in_both_formats_names_the_option(self, tmp_path):
        # the pairs (2,1), (1,3), (3,2) are complete, and the rows symmetric
        path = tmp_path / "both.txt"
        path.write_text("3 1\n2 1 3\n1 3 2\n3 2 1\n")
        with pytest.raises(ParseError, match="--input-format"):
            parse_instance(path, "auto")
        assert parse_instance(path, "dense_matrix").source == "dense_matrix"
        assert parse_instance(path, "mdplib_triplet").source == "mdplib_triplet"

    def test_bad_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("abc 3\n1 2 5.0\n")
        with pytest.raises(ParseError, match=r"bad\.txt:1: bad header"):
            parse_instance(path, "auto")


class TestParseJson:
    def test_identity_round_trip(self, tmp_path):
        inst = Instance(
            name="e1",
            obj=QuadraticObjective(Q_DIAG),
            dom=FeasibleDomain(n=3, m=1),
            best_known=1.0,
            source="canonical_json",
        )
        path = tmp_path / "e1.json"
        write_instance_json(inst, path)
        back = parse_instance(path, "canonical_json")
        assert back.name == "e1"
        assert back.dom.m == 1
        assert back.best_known == 1.0
        np.testing.assert_array_equal(back.obj.q, inst.obj.q)
        assert instance_to_json(back) == instance_to_json(inst)

    def test_nested_rows_accepted(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"name": "x", "n": 2, "m": 1, "q": [[0, 1], [1, 0]]}))
        inst = parse_instance(path, "canonical_json")
        assert inst.obj.q[0, 1] == 1.0

    def test_m_override_wins(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"name": "x", "n": 3, "m": 1, "q": [0.0] * 9}))
        inst = parse_instance(path, "canonical_json", m_override=2)
        assert inst.dom.m == 2

    def test_bad_length_is_data_error(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"name": "x", "n": 3, "m": 1, "q": [0.0] * 8}))
        with pytest.raises(DataError):
            parse_instance(path, "canonical_json")


class TestResidue:
    def test_start_is_one(self):
        series = residue(trace_of([3.0], f0=3.0), f_star=1.0)
        assert series.value_at(0.0) == 1.0

    def test_optimum_is_zero(self):
        series = residue(trace_of([1.0], f0=3.0), f_star=1.0)
        assert series.points[-1][1] == 0.0

    def test_halfway(self):
        series = residue(trace_of([2.0], f0=3.0), f_star=1.0)
        assert series.points[-1][1] == pytest.approx(0.5)

    def test_degenerate_start_at_optimum(self):
        series = residue(trace_of([1.0], f0=1.0), f_star=1.0)
        assert series.points == ((0.0, 0.0),)

    def test_empty_trace_rejected(self):
        empty = RunTrace(records=[], config_name="cpm", instance_name="x", f0=3.0)
        with pytest.raises(ValueError):
            residue(empty, 1.0)

    def test_clamped_and_monotone_even_for_messy_values(self):
        # a value above f0 clamps to 1; later improvements step down
        series = residue(trace_of([5.0, 2.0, 0.0], f0=3.0), f_star=1.0)
        values = [r for _, r in series.points]
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_runtime_axis_uses_wall_clock(self):
        series = residue(trace_of([2.0], f0=3.0, ts=[7.5]), 1.0, budget_kind="runtime")
        assert series.value_at(7.4) == 1.0
        assert series.value_at(7.5) == pytest.approx(0.5)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_series_invariants_hold(self, seed):
        rng = np.random.default_rng(seed)
        n_rec = int(rng.integers(1, 12))
        f0 = float(rng.uniform(1.0, 10.0))
        ubs = np.minimum.accumulate(rng.uniform(-5.0, f0, size=n_rec))
        f_star = float(min(ubs.min(), rng.uniform(-6.0, 0.0)))
        trace = trace_of(list(ubs), f0=f0)
        if f0 <= f_star:
            return
        series = residue(trace, f_star)
        budgets = [b for b, _ in series.points]
        values = [r for _, r in series.points]
        assert series.value_at(0.0) == 1.0 or values == [0.0]
        assert budgets == sorted(budgets)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def naive_quantile(values, q):
    """Sort-and-index quantile with linear interpolation between order stats."""
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def naive_step_value(points, budget):
    value = 1.0
    for b, r in points:
        if b <= budget:
            value = r
    return value


class TestMedianProfile:
    def setup_method(self):
        self.series = [
            ResidueSeries(points=((0.0, 1.0), (1.0, r)), budget_kind="iterations")
            for r in (0.0, 0.5, 1.0)
        ]

    def test_symmetric_median(self):
        band = median_profile(self.series, [1.0])
        assert band.median[0] == pytest.approx(0.5)

    def test_interpolated_quartiles(self):
        band = median_profile(self.series, [1.0])
        assert band.q1[0] == pytest.approx(0.25)
        assert band.q3[0] == pytest.approx(0.75)

    def test_single_series_degenerate(self):
        band = median_profile(self.series[:1], [1.0])
        assert band.median[0] == band.q1[0] == band.q3[0] == 0.0

    def test_value_before_first_record_is_one(self):
        band = median_profile(self.series, [0.5])
        assert band.median[0] == 1.0

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            median_profile([], [1.0])
        with pytest.raises(ValueError):
            median_profile(self.series, [])
        mixed = self.series + [ResidueSeries(points=((0.0, 1.0),), budget_kind="runtime")]
        with pytest.raises(ValueError):
            median_profile(mixed, [1.0])

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reimplementation(self, seed):
        rng = np.random.default_rng(seed)
        n_series = int(rng.integers(1, 9))
        series = []
        for _ in range(n_series):
            budgets = np.sort(rng.uniform(0.0, 10.0, size=int(rng.integers(1, 6))))
            values = np.minimum.accumulate(rng.uniform(0.0, 1.0, size=len(budgets)))
            pts = ((0.0, 1.0),) + tuple((float(b), float(v)) for b, v in zip(budgets, values))
            series.append(ResidueSeries(points=pts, budget_kind="runtime"))
        grid = rng.uniform(0.0, 12.0, size=5)
        band = median_profile(series, grid)
        for i, b in enumerate(grid):
            vals = [naive_step_value(s.points, b) for s in series]
            assert band.median[i] == pytest.approx(naive_quantile(vals, 0.5), abs=1e-12)
            assert band.q1[i] == pytest.approx(naive_quantile(vals, 0.25), abs=1e-12)
            assert band.q3[i] == pytest.approx(naive_quantile(vals, 0.75), abs=1e-12)


class TestResidueDistribution:
    def test_counts_duplicates(self):
        series = [
            ResidueSeries(points=((0.0, r),), budget_kind="runtime") for r in (0.0, 0.0, 1.0)
        ]
        cdf = residue_distribution(series, 1.0)
        assert cdf == [(0.0, pytest.approx(2 / 3)), (1.0, 1.0)]

    def test_budget_zero_all_mass_at_one(self):
        series = [
            ResidueSeries(points=((0.0, 1.0), (1.0, 0.3)), budget_kind="runtime")
            for _ in range(4)
        ]
        assert residue_distribution(series, 0.0) == [(1.0, 1.0)]

    def test_single_problem(self):
        series = [ResidueSeries(points=((0.0, 1.0), (2.0, 0.4)), budget_kind="runtime")]
        cdf = residue_distribution(series, 5.0)
        assert cdf == [(0.4, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            residue_distribution([], 1.0)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_counting(self, seed):
        rng = np.random.default_rng(seed)
        residues = rng.choice([0.0, 0.25, 0.5, 1.0], size=int(rng.integers(1, 15)))
        series = [
            ResidueSeries(points=((0.0, float(r)),), budget_kind="runtime") for r in residues
        ]
        cdf = residue_distribution(series, 3.0)
        for r, frac in cdf:
            expected = sum(1 for v in residues if v <= r) / len(residues)
            assert frac == pytest.approx(expected, abs=1e-12)
        assert cdf[-1][1] == 1.0


class TestRegularizationInvariance:
    def test_constant_shift_cancels_in_residue(self):
        ubs = [3.0, 2.5, 1.2, 1.0]
        base = trace_of(ubs, f0=3.0)
        shift = 17.25
        shifted = trace_of([u + shift for u in ubs], f0=3.0 + shift)
        for kind in ("iterations", "runtime"):
            r_base = residue(base, 1.0, kind)
            r_shift = residue(shifted, 1.0 + shift, kind)
            assert len(r_base.points) == len(r_shift.points)
            for (b0, v0), (b1, v1) in zip(r_base.points, r_shift.points):
                assert b0 == b1
                assert v0 == pytest.approx(v1, abs=1e-12)


class TestExport:
    def test_csv_header_and_single_row(self, tmp_path):
        trace = trace_of([2.0], f0=3.0)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,t,ub,lb,n_cuts,tau"
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_csv_round_trip(self, tmp_path):
        trace = trace_of([3.0, 2.0, 1.5], f0=3.0)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path, trace.config_name, trace.instance_name, trace.f0)
        assert back.records == trace.records

    def test_json_round_trip_identity(self, tmp_path):
        trace = trace_of([3.0, 1.0], f0=3.0)
        path = tmp_path / "t.json"
        write_trace_json(trace, path)
        back = read_trace_json(path)
        assert back == trace

    def test_profile_svg_structure(self, tmp_path):
        series = [
            ResidueSeries(points=((0.0, 1.0), (float(i + 1), 0.2 * i)), budget_kind="iterations")
            for i in range(3)
        ]
        band = median_profile(series, [0.0, 1.0, 2.0, 3.0])
        path = tmp_path / "p.svg"
        write_profile_svg({"profile": band}, path)
        text = path.read_text()
        assert text.count('class="median"') == 1
        assert text.count('class="band"') == 1
        assert text.startswith("<svg")

    def test_distribution_svg_structure(self, tmp_path):
        curves = {"cpm": [(0.0, 0.5), (1.0, 1.0)], "pgm": [(0.0, 1.0)]}
        path = tmp_path / "c.svg"
        write_distribution_svg(curves, path)
        text = path.read_text()
        assert text.count('class="cdf"') == 2

    def test_deterministic_output(self, tmp_path):
        trace = trace_of([3.0, 2.0], f0=3.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, a)
        write_trace_csv(trace, b)
        assert a.read_bytes() == b.read_bytes()


class TestSynthInstance:
    def test_deterministic_per_seed(self):
        a = synth_instance(6, 2, "psd_random", seed=42)
        b = synth_instance(6, 2, "psd_random", seed=42)
        np.testing.assert_array_equal(a.obj.q, b.obj.q)
        c = synth_instance(6, 2, "psd_random", seed=43)
        assert not np.array_equal(a.obj.q, c.obj.q)

    def test_mdp_like_is_negated_distance(self):
        inst = synth_instance(8, 2, "mdp_like", seed=1)
        assert np.all(np.diag(inst.obj.q) == 0.0)
        assert np.all(inst.obj.q <= 0.0)

    def test_psd_random_is_psd_unit_norm(self):
        inst = synth_instance(8, 2, "psd_random", seed=5)
        eigs = np.linalg.eigvalsh(inst.obj.q)
        assert eigs.min() >= -1e-12
        assert eigs.max() == pytest.approx(1.0, abs=1e-9)

    def test_nonconvex_random_triggers_regularization(self):
        inst = synth_instance(10, 3, "nonconvex_random", seed=2)
        # indefinite on 1-perp, so the engine's diagonal shift is positive in sum
        assert np.sum(slice_shift(inst.obj.q)) > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_instance(5, 2, "bogus", seed=0)


class TestDefaultX0:
    def test_first_m_ones(self):
        x0 = default_x0(FeasibleDomain(n=5, m=2))
        np.testing.assert_array_equal(x0, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_extra_row_fallback_uses_backend(self):
        # forbid the first coordinate so the naive start is infeasible
        row = LinearRow(np.array([1.0, 0.0, 0.0, 0.0]), "<=", 0.0)
        dom = FeasibleDomain(n=4, m=2, extra_rows=(row,))
        with pytest.raises(ValueError):
            default_x0(dom)
        x0 = default_x0(dom, BruteForceBackend())
        assert x0[0] == 0.0
        assert np.sum(x0) == 2.0


def test_validate_trace_rejects_bad_sequences():
    good = trace_of([3.0, 2.0], f0=3.0)
    validate_trace(good)
    bad_ub = trace_of([2.0, 3.0], f0=3.0)
    with pytest.raises(ValueError):
        validate_trace(bad_ub)
    bad_k = trace_of([3.0, 2.0], f0=3.0)
    bad_k.records[1] = TraceRecord(k=1, t=0.2, ub=2.0, lb=-10.0, n_cuts=2, tau=0.0)
    with pytest.raises(ValueError):
        validate_trace(bad_k)
