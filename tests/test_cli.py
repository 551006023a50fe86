import json
import logging
import threading

import numpy as np
import pytest

from gradcut import cli, milp
from gradcut.bench import Instance, read_trace_json, synth_instance, write_instance_json
from gradcut.cli import main, make_backend
from gradcut.engine import CONFIG_NAMES
from gradcut.milp import (
    AutoBackend,
    BruteForceBackend,
    HighsBackend,
    MilpResult,
    MilpStatus,
    StatusKind,
)
from gradcut.model import FeasibleDomain, QuadraticObjective

from conftest import Q_DIAG


@pytest.fixture
def e1_json(tmp_path):
    inst = Instance(
        name="e1",
        obj=QuadraticObjective(Q_DIAG),
        dom=FeasibleDomain(n=3, m=1),
        source="canonical_json",
    )
    path = tmp_path / "e1.json"
    write_instance_json(inst, path)
    return path


@pytest.fixture
def e2_json(tmp_path):
    q = np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 2.0], [0.0, 2.0, 6.0]])
    inst = Instance(
        name="e2",
        obj=QuadraticObjective(q),
        dom=FeasibleDomain(n=3, m=1),
        source="canonical_json",
    )
    path = tmp_path / "e2.json"
    write_instance_json(inst, path)
    return path


class TestSolve:
    def test_solves_to_optimality(self, e1_json, capsys):
        code = main(["solve", str(e1_json), "--config", "cpm", "--backend", "bruteforce"])
        out = capsys.readouterr().out
        assert code == 0
        assert "f_best     1" in out
        assert "eps_optimal" in out

    def test_loose_epsilon_exits_zero_immediately(self, e1_json, capsys):
        code = main(
            [
                "solve", str(e1_json), "--config", "pgm", "--epsilon", "10",
                "--backend", "bruteforce", "--x0", "001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "f_best     3" in out
        assert "iterations 1" in out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json"), "--config", "cpm"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_x0_exits_one(self, e1_json, capsys):
        code = main(["solve", str(e1_json), "--x0", "11", "--backend", "bruteforce"])
        assert code == 1

    def test_writes_trace(self, e1_json, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve", str(e1_json), "--config", "cpm", "--backend", "bruteforce",
             "--out", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "k,t,ub,lb,n_cuts,tau"
        assert len(lines) >= 2

    def test_writes_json_trace(self, e2_json, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            ["solve", str(e2_json), "--config", "pgm-tau-lb", "--backend", "bruteforce",
             "--out", str(path), "--format", "json"]
        )
        assert code == 0
        printed = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        trace = read_trace_json(path)
        assert (trace.instance_name, trace.config_name) == ("e2", "pgm-tau-lb")
        assert trace.f0 == 1.0  # the default start e0
        assert [r.k for r in trace.records] == list(range(1, int(printed["iterations"]) + 1))
        assert int(printed["local_steps"]) >= 0
        last = trace.records[-1]
        assert last.ub == pytest.approx(float(printed["f_best"]), abs=1e-9)
        assert last.ub - last.lb <= 1e-9  # the run's eps-optimal certificate

    def test_bad_header_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("abc 3\n1 2 5.0\n")
        assert main(["solve", str(path)]) == 1
        assert f"error: {path}:1: bad header" in capsys.readouterr().err

    def test_time_limit_zero_exits_two(self, e1_json, capsys):
        code = main(
            ["solve", str(e1_json), "--config", "cpm", "--backend", "bruteforce",
             "--time-limit", "0"]
        )
        assert code == 2


class TestBench:
    def test_cell_count_and_manifest(self, e1_json, e2_json, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            ["bench", str(e1_json), str(e2_json), "--out", str(out_dir),
             "--backend", "bruteforce"]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["cells"]) == 10
        traces = list(out_dir.glob("*.csv"))
        assert len(traces) == 10
        assert all(cell["status"] == "eps_optimal" for cell in manifest["cells"])
        steps = {(c["instance"], c["config"]): c["local_steps"] for c in manifest["cells"]}
        assert all(isinstance(s, int) and s >= 0 for s in steps.values())
        assert steps["e1", "cpm"] == steps["e2", "cpm"] == 0

    def test_synthetic_sweep_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            code = main(
                ["bench", "--synthetic", "psd_random", "--synth-count", "2",
                 "--synth-n", "7", "--seed", "3", "--out", str(out_dir),
                 "--backend", "bruteforce", "--config", "cpm", "--config", "pgm"]
            )
            assert code == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            for cell in manifest["cells"]:
                cell.pop("runtime")
            outs.append(manifest)
        assert outs[0] == outs[1]

    def test_unreadable_instance_isolated(self, e1_json, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(
            ["bench", str(e1_json), str(tmp_path / "missing.json"), "--out", str(out_dir),
             "--backend", "bruteforce", "--config", "cpm"]
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        statuses = {cell["instance"]: cell["status"] for cell in manifest["cells"]}
        assert statuses["e1"] == "eps_optimal"
        assert any(s == "error" for s in statuses.values())

    def test_all_cells_failing_exits_nonzero(self, tmp_path):
        code = main(
            ["bench", str(tmp_path / "missing.json"), "--out", str(tmp_path / "s"),
             "--backend", "bruteforce"]
        )
        assert code == 1


class TestReport:
    def test_profiles_and_cdfs_from_sweep(self, e1_json, e2_json, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        assert (
            main(
                ["bench", str(e1_json), str(e2_json), "--out", str(sweep),
                 "--backend", "bruteforce"]
            )
            == 0
        )
        report = tmp_path / "report"
        code = main(
            ["report", str(sweep / "manifest.json"), "--out", str(report),
             "--budget", "0.5"]
        )
        assert code == 0
        assert (report / "profile_iterations.csv").exists()
        assert (report / "profile_iterations.svg").exists()
        assert (report / "profile_runtime.csv").exists()
        assert (report / "cdf_t0p5.csv").exists()
        assert (report / "cdf_t0p5.svg").exists()

    def test_best_known_sidecar_used(self, e1_json, tmp_path):
        sweep = tmp_path / "sweep"
        main(["bench", str(e1_json), "--out", str(sweep), "--backend", "bruteforce",
              "--config", "cpm"])
        sidecar = tmp_path / "best.json"
        sidecar.write_text(json.dumps({"e1": 1.0}))
        report = tmp_path / "report"
        code = main(
            ["report", str(sweep / "manifest.json"), "--best-known", str(sidecar),
             "--out", str(report)]
        )
        assert code == 0
        profile = (report / "profile_iterations.csv").read_text()
        # the optimum is reached, so the profile ends at residue 0
        last = profile.strip().splitlines()[-1].split(",")
        assert float(last[2]) == 0.0

    def test_single_cell_profile_equals_series(self, e1_json, tmp_path):
        sweep = tmp_path / "sweep"
        main(["bench", str(e1_json), "--out", str(sweep), "--backend", "bruteforce",
              "--config", "cpm"])
        report = tmp_path / "report"
        assert main(["report", str(sweep / "manifest.json"), "--out", str(report)]) == 0
        rows = (report / "profile_iterations.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _, _, med, q1, q3 = row.split(",")
            assert med == q1 == q3


def test_unknown_config_rejected(e1_json):
    with pytest.raises(SystemExit):
        main(["solve", str(e1_json), "--config", "bogus"])


class TestUsageErrors:
    """A usage error exits 1, as a data error does; 2 means stopped uncertified."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["solve", "{e1}", "--config", "nope"],
            ["solve", "{e1}", "--no-such-flag"],
            ["bench", "{e1}", "--parallel", "two"],
            [],
        ],
        ids=["no-instance", "unknown-config", "unknown-flag", "parallel-nan", "no-command"],
    )
    def test_exits_one(self, argv, e1_json, capsys):
        argv = [a.format(e1=e1_json) for a in argv]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1
        assert "usage: gradcut" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_is_a_usage_error(self, parallel, e1_json, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        with pytest.raises(SystemExit) as stop:
            main(["bench", str(e1_json), "--parallel", parallel, "--out", str(out_dir)])
        assert stop.value.code == 1
        assert f"argument --parallel: must be at least 1, not {parallel}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["bench", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert "usage: gradcut" in capsys.readouterr().out


def printed(out: str) -> dict:
    return dict(line.split(None, 1) for line in out.splitlines())


def test_solve_and_bench_report_a_cell_alike(tmp_path, capsys):
    inst = synth_instance(9, 3, "nonconvex_random", 4)
    path = tmp_path / "inst.json"
    write_instance_json(inst, path)
    assert main(["bench", str(path), "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    rows = {row["config"]: row for row in manifest["cells"]}
    assert sorted(rows) == sorted(CONFIG_NAMES)
    for config in CONFIG_NAMES:
        code = main(["solve", str(path), "--config", config])
        solved, row = printed(capsys.readouterr().out), rows[config]
        assert code == (0 if row["status"] == "eps_optimal" else 2)
        assert solved["status"] == row["status"]
        assert solved["f_best"] == f"{row['f_best']:.12g}"
        assert solved["gap"] == f"{row['gap']:.6g}"
        assert int(solved["iterations"]) == row["iterations"]
        assert int(solved["local_steps"]) == row["local_steps"]


class FailingOn(BruteForceBackend):
    """Answers every subproblem, but fails the second lower bound on an
    n-dimensional slice, so a cell there raises mid-run."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.lower_bounds = 0

    def solve_cp(self, cuts, dom, budget, *args):
        if dom.n == self.n:
            self.lower_bounds += 1
            if self.lower_bounds == 2:
                return MilpResult(status=MilpStatus(StatusKind.ERROR, "scripted failure"))
        return super().solve_cp(cuts, dom, budget, *args)


def sweep(tmp_path, tag, paths, parallel):
    out_dir = tmp_path / tag
    code = main(
        ["bench", *paths, "--config", "cpm", "--config", "pgm", "--parallel", str(parallel),
         "--out", str(out_dir)]
    )
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for row in manifest["cells"]:
        row.pop("runtime", None)
    traces = {}
    for path in out_dir.glob("*.csv"):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        traces[path.name] = [row[:1] + row[2:] for row in rows]  # less the wall-clock t
    return code, manifest["cells"], traces


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_cell_that_raises_mid_run_leaves_the_others_alone(tmp_path, monkeypatch, parallel):
    paths = []
    for n, m, seed in ((6, 2, 0), (7, 3, 1)):
        inst = synth_instance(n, m, "nonconvex_random", seed)
        paths.append(str(tmp_path / f"{inst.name}.json"))
        write_instance_json(inst, paths[-1])
    # each cell builds its own backend; the n = 7 ones fail their second lower bound
    monkeypatch.setattr(cli, "make_backend", lambda name: FailingOn(7))
    code, rows, traces = sweep(tmp_path, "with", paths, parallel)
    _, rows_without, traces_without = sweep(tmp_path, "without", paths[:1], parallel)
    assert code == 0
    failed = "nonconvex_random-n7-m3-s1"
    assert [(r["instance"], r["config"], r["status"]) for r in rows[2:]] == [
        (failed, "cpm", "error"),
        (failed, "pgm", "error"),
    ]
    for row in rows[2:]:
        assert row["error"].startswith("RuntimeError: lower-bound solve failed")
        assert "scripted failure" in row["error"]
    assert rows[:2] == rows_without
    assert all(row["status"] == "eps_optimal" for row in rows_without)
    assert traces == traces_without
    assert not any(name.startswith(failed) for name in traces)


def test_solve_agrees_with_enumeration(tmp_path, capsys):
    from conftest import enumerate_min

    rng = np.random.default_rng(31)
    a = rng.standard_normal((8, 8))
    q = a.T @ a
    q = (q + q.T) / 2.0
    inst = Instance(
        name="rand8",
        obj=QuadraticObjective(q),
        dom=FeasibleDomain(n=8, m=3),
        source="canonical_json",
    )
    path = tmp_path / "rand8.json"
    write_instance_json(inst, path)
    f_star, _ = enumerate_min(q, inst.dom)
    for backend in ("bruteforce", "highs"):
        code = main(["solve", str(path), "--config", "pgm-tau-lb", "--backend", backend])
        out = capsys.readouterr().out
        assert code == 0
        f_line = next(ln for ln in out.splitlines() if ln.startswith("f_best"))
        assert abs(float(f_line.split()[1]) - f_star) <= 1e-9


class TestBackendChoice:
    def test_auto_is_the_default(self, monkeypatch):
        monkeypatch.delenv("GRADCUT_BACKEND", raising=False)
        assert type(make_backend("auto")) is AutoBackend

    @pytest.mark.parametrize("name, cls", [("highs", HighsBackend), ("bruteforce", BruteForceBackend)])
    def test_env_and_flag_force_one_backend(self, monkeypatch, name, cls):
        monkeypatch.setenv("GRADCUT_BACKEND", name)
        assert type(make_backend("auto")) is cls
        monkeypatch.delenv("GRADCUT_BACKEND")
        assert type(make_backend(name)) is cls

    def test_unknown_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("GRADCUT_BACKEND", "cplex")
        with pytest.raises(ValueError, match="unknown backend 'cplex'"):
            make_backend("auto")

    def test_solve_prints_the_backend_used(self, e1_json, monkeypatch, capsys):
        monkeypatch.delenv("GRADCUT_BACKEND", raising=False)
        assert main(["solve", str(e1_json), "--config", "cpm"]) == 0
        assert "backend    bruteforce (auto)" in capsys.readouterr().out
        assert main(["solve", str(e1_json), "--config", "cpm", "--backend", "highs"]) == 0
        assert "backend    highs\n" in capsys.readouterr().out
        monkeypatch.setenv("GRADCUT_BACKEND", "highs")
        assert main(["solve", str(e1_json), "--config", "cpm"]) == 0
        assert "backend    highs\n" in capsys.readouterr().out


def test_stalled_run_exits_two(e1_json, monkeypatch, capsys):
    from test_engine import UndershootingBackend

    monkeypatch.setattr(cli, "make_backend", lambda name: UndershootingBackend())
    code = main(["solve", str(e1_json), "--config", "cpm"])
    assert code == 2
    assert "status     stalled" in capsys.readouterr().out


class BarrierBackend(BruteForceBackend):
    """Logs one warning per lower bound, naming the slice size. Before each of
    its first two, it waits for the other cell: so both cells have set their
    labels before either logs, and neither ends before both have logged."""

    def __init__(self, barrier):
        super().__init__()
        self.barrier = barrier
        self.waits = 2

    def solve_cp(self, cuts, dom, budget, *args):
        if self.waits:
            self.waits -= 1
            self.barrier.wait()
        milp.log.warning("lower bound on n=%d", dom.n)
        return super().solve_cp(cuts, dom, budget, *args)


def test_parallel_cells_keep_their_own_log_labels(tmp_path, monkeypatch, capsys, caplog):
    # from its default start each cell needs at least four lower bounds under
    # cpm, so neither ends between the two waits of the other; non-separable Q,
    # as a diagonal one is linear on the slice and certifies in two
    paths = []
    for n, m, seed in ((6, 2, 0), (7, 3, 1)):
        inst = synth_instance(n, m, "nonconvex_random", seed)
        paths.append(str(tmp_path / f"{inst.name}.json"))
        write_instance_json(inst, paths[-1])
    barrier = threading.Barrier(2, timeout=10)
    monkeypatch.setattr(cli, "make_backend", lambda name: BarrierBackend(barrier))
    caplog.set_level(logging.WARNING, logger="gradcut")
    code = main(
        ["bench", *paths, "--config", "cpm", "--parallel", "2", "--out", str(tmp_path / "sweep")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert all(cell["status"] == "eps_optimal" for cell in manifest["cells"])
    labels = {
        "lower bound on n=6": "nonconvex_random-n6-m2-s0/cpm",
        "lower bound on n=7": "nonconvex_random-n7-m3-s1/cpm",
    }
    assert {r.getMessage() for r in caplog.records} == set(labels)
    for record in caplog.records:
        assert record.cell == labels[record.getMessage()]
    err = capsys.readouterr().err
    for message, cell in labels.items():
        assert f"gradcut WARNING [{cell}] {message}" in err
