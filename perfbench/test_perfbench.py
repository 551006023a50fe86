"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import solver  # noqa: E402
from oracle import enumerated_minimum, judge, residue_area  # noqa: E402
from spans import Span, Tracer, check_nesting, layer_table, self_times  # noqa: E402

Q = np.array(
    [
        [2.0, -1.0, 0.5, 0.0],
        [-1.0, 1.0, -2.0, 0.3],
        [0.5, -2.0, 3.0, -0.7],
        [0.0, 0.3, -0.7, 0.5],
    ]
)
M = 2
# by hand: the best pair is {1, 2}, 0.5 * (1 + 3 - 4) = 0
F_STAR = 0.0
X_STAR = [0.0, 1.0, 1.0, 0.0]


def good_cell(**changes):
    cell = {
        "instance": "tiny",
        "config": "cpm",
        "status": "eps_optimal",
        "x_best": list(X_STAR),
        "f_best": F_STAR,
        "f0": 0.5 * (2.0 + 1.0 - 2.0),
        "records": [[1, 0.5, -3.0], [2, F_STAR, F_STAR]],
    }
    cell.update(changes)
    return cell


def test_enumeration_matches_a_loop_over_the_slice():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (7, 7))
    q = (a + a.T) / 2
    naive = min(
        0.5 * q[np.ix_(s, s)].sum() for s in map(list, itertools.combinations(range(7), 3))
    )
    assert enumerated_minimum(q, 3) == pytest.approx(naive, abs=1e-12)
    assert enumerated_minimum(Q, M) == pytest.approx(F_STAR, abs=1e-15)


def test_checker_accepts_a_right_answer():
    assert judge(good_cell(), Q, M, F_STAR) == (False, [])


@pytest.mark.parametrize(
    "changes",
    [
        {"f_best": F_STAR + 1e-6},  # not the objective at x_best, nor the optimum
        {"x_best": [1.0, 1.0, 1.0, 0.0]},  # three ones where m = 2
        {"x_best": [0.0, 1.0, 0.5, 0.0]},  # not binary
        {"x_best": [1.0, 1.0, 0.0, 0.0], "f_best": 0.5},  # feasible but not optimal
        {"records": [[1, 0.5, -3.0], [2, F_STAR, 1e-3]]},  # lb above f*
        {"records": [[1, -1.0, -3.0]]},  # ub below f*
    ],
)
def test_checker_rejects_a_wrong_answer(changes):
    failed, problems = judge(good_cell(**changes), Q, M, F_STAR)
    assert not failed and problems


@pytest.mark.parametrize("changes", [{"status": "iter_limit"}, {"status": "time_limit"}])
def test_uncertified_status_fails_the_cell(changes):
    assert judge(good_cell(**changes), Q, M, F_STAR) == (True, [])


def test_raising_cell_fails():
    assert judge({"instance": "tiny", "config": "cpm", "error": "boom"}, Q, M, F_STAR) == (True, [])


def test_residue_area_sums_the_normalised_best_so_far():
    cell = good_cell(f0=2.0, records=[[1, 1.0, -3.0], [2, 1.5, -1.0], [3, 0.0, 0.0]])
    # best so far 1.0, 1.0, 0.0 over f0 - f* = 2
    assert residue_area(cell, 0.0) == pytest.approx(1.0)
    assert residue_area(good_cell(f0=F_STAR), F_STAR) == 0.0


def test_reference_is_the_same_work_in_every_run():
    a, b = reference.build_models(count=2), reference.build_models(count=2)
    for x, y in zip(a, b):
        assert np.array_equal(x["constraints"][0].A, y["constraints"][0].A)
        assert np.array_equal(x["constraints"][0].ub, y["constraints"][0].ub)
    assert reference.time_reference(a) > 0.0


def test_times_are_reported_at_the_reference_speed():
    cell = good_cell(run_s=2.0, iterations=3)
    fast = {"solve_s": 10.0, "ref_s": [reference.REFERENCE_S] * 2, "cells": [cell]}
    slow = {"solve_s": 20.0, "ref_s": [2 * reference.REFERENCE_S] * 2, "cells": [cell]}
    result = {"rounds": [fast, slow], "peak_rss_mb": 80.0}
    metrics = run.end_to_end([0.6, 0.5, 0.7], result, {"tiny": F_STAR})
    # the slow round ran at half the reference speed: its 20 s count as 10 s
    assert metrics["solve_s"] == pytest.approx(10.0)
    assert metrics["cell_median_s"] == pytest.approx(1.5)  # 2.0 and 2.0 / 2
    assert metrics["setup_s"] == pytest.approx(0.6 * 0.75)  # the run's mean factor
    assert metrics["outer_iters"] == 3


def test_nesting_check_rejects_escaping_and_overlapping_spans():
    root = Span("cell", -1, 0.0, 10.0)
    check_nesting([root, Span("cp", 0, 1.0, 4.0), Span("project", 0, 4.0, 9.0)])
    with pytest.raises(ValueError, match="leaves"):
        check_nesting([root, Span("cp", 0, 1.0, 11.0)])
    with pytest.raises(ValueError, match="overlaps"):
        check_nesting([root, Span("cp", 0, 1.0, 5.0), Span("project", 0, 4.0, 9.0)])


def test_traced_round_on_a_tiny_instance_nests_and_adds_up():
    from gradcut import engine, local
    from gradcut.bench import synth_instance

    originals = (engine.run, engine.solve_cp_model, engine.project, local.project)
    inst = synth_instance(7, 3, "nonconvex_random", 0)
    cells = [(inst, config) for config in engine.CONFIG_NAMES]
    tracer = Tracer()
    rnd = solver.solve_round(cells, range(len(cells)), tracer)
    assert (engine.run, engine.solve_cp_model, engine.project, local.project) == originals

    # each cell untraced, then traced
    assert [c["traced"] for c in rnd["cells"]] == [False, True] * len(cells)
    assert [c.get("error") for c in rnd["cells"]] == [None] * 2 * len(cells)
    traced = [c for c in rnd["cells"] if c["traced"]]
    spans = tracer.spans
    check_nesting(spans)
    assert [s.name for s in spans if s.parent < 0] == ["cell"] * len(cells)
    assert {"cell", "engine", "cp", "project", "local", "offset", "highs"} <= {
        s.name for s in spans
    }
    traced_s = sum(c["cell_s"] for c in traced)
    assert sum(self_times(spans)) == pytest.approx(traced_s, abs=1e-9)

    table = layer_table(spans)
    own = [k for k in table if k.endswith("self_s")] + ["highs.s"]
    assert sum(table[k] for k in own) == pytest.approx(traced_s, abs=1e-9)
    assert table["cp.calls"] == sum(c["iterations"] for c in traced)
    assert table["project.solves"] <= table["project.calls"]
    assert table["highs.calls"] >= table["cp.calls"]


def test_a_raising_cell_is_recorded_and_the_round_goes_on(monkeypatch):
    from gradcut import engine
    from gradcut.bench import synth_instance

    real_run = engine.run

    def run(obj, dom, x0, cfg, backend, **kwargs):
        if kwargs["config_name"] == "pgm":
            raise RuntimeError("lower-bound solve failed")
        return real_run(obj, dom, x0, cfg, backend, **kwargs)

    monkeypatch.setattr(engine, "run", run)
    inst = synth_instance(6, 2, "psd_random", 0)
    cells = [(inst, "cpm"), (inst, "pgm"), (inst, "pgm-lb")]
    rnd = solver.solve_round(cells, [0, 1, 2], reference=reference.build_models(count=1))
    cpm, pgm, lb = rnd["cells"]
    # the reference is timed after every cell, and the round's time is the cells' own
    assert len(rnd["ref_s"]) == 3
    assert rnd["solve_s"] == sum(c["cell_s"] for c in rnd["cells"])
    assert pgm["error"] == "RuntimeError: lower-bound solve failed"
    assert "Traceback" in pgm["traceback"] and "x_best" not in pgm
    assert cpm["status"] == lb["status"] == "eps_optimal"
    assert judge(pgm, np.eye(6), 2, 1.0) == (True, [])
