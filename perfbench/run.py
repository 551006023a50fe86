"""Benchmark of gradcut end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mdp30|nonconvex12|psd14 --seed N
                             --seconds S --trace 0|1

One run times the set-up five times (one solving process, four set-up-only
ones) and solves the workload's cells in whole rounds for at least S seconds
in a separate process. It then checks every answer against its own enumeration
of the slice and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of the traced cells with --trace 1.
The end-to-end times are at the reference speed of reference.py, and the
wall times they come from are printed on standard error.
Per-run results and span files are written under perfbench/out/. The exit
code is 0 when a result was printed, and non-zero otherwise (for instance
when the program's sources are not beside the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from oracle import enumerated_minimum, judge, residue_area
from reference import REFERENCE_S
from spans import from_rows, layer_table
from suite import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up-only processes, besides the solving one
# the whole run must end within 180 s
SETUP_TIMEOUT_S = 8
SOLVE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def run_solver(args, *extra, timeout):
    """Run solver.py in its own process and capture what it prints."""
    env = {k: v for k, v in os.environ.items() if k != "GRADCUT_BACKEND"}
    cmd = [
        sys.executable, str(HERE / "solver.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    return subprocess.run(
        cmd, env=env, cwd=ROOT, timeout=timeout, check=True, capture_output=True, text=True
    )


def speed_factors(rounds) -> list[float]:
    """Per round: REFERENCE_S over the mean reference time measured among its cells."""
    return [REFERENCE_S / statistics.fmean(r["ref_s"]) for r in rounds]


def end_to_end(setups, result, stars) -> dict:
    """The end-to-end metrics; times are at the reference speed (see reference.py)."""
    rounds = result["rounds"]
    factors = speed_factors(rounds)
    ok = [[c for c in r["cells"] if "error" not in c] for r in rounds]
    return {
        # the set-up processes ran just before the rounds, at the run's speed
        "setup_s": statistics.median(setups) * statistics.fmean(factors),
        "solve_s": statistics.median(r["solve_s"] * f for r, f in zip(rounds, factors)),
        "cell_median_s": statistics.median(
            c["run_s"] * f for cells, f in zip(ok, factors) for c in cells
        ),
        "outer_iters": statistics.median(sum(c["iterations"] for c in cells) for cells in ok),
        "residue_area": statistics.median(
            sum(residue_area(c, stars[c["instance"]]) for c in cells) for cells in ok
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result, spans_path: Path) -> dict:
    """Per traced round: the layer table of its traced cells, and their overhead."""
    rounds = result["rounds"]
    table: dict[str, float] = {}
    for r, rows in zip(rounds, json.loads(spans_path.read_text()), strict=True):
        traced = [c for c in r["cells"] if c["traced"]]
        row = layer_table(from_rows(rows))
        traced_s = sum(c["cell_s"] for c in traced)
        # the cells are the roots, so their spans' self times make them up
        if abs(row.pop("self_sum_s") - traced_s) > 1e-6:
            raise RuntimeError("layer self times do not add up to the traced solve_s")
        ok = [c for c in traced if "error" not in c]
        row["lbcut.added"] = sum(c["lbcut_added"] for c in ok)
        row["offset.backtracks"] = sum(c["offset_backtracks"] for c in ok)
        row["trace.solve_s"] = traced_s
        row["trace.overhead_s"] = traced_s - sum(
            c["cell_s"] for c in r["cells"] if not c["traced"]
        )
        for key, value in row.items():
            table[key] = table.get(key, 0.0) + value / len(rounds)
    calls = table["project.calls"]
    table["project.settled"] = 1.0 - table["project.solves"] / calls if calls else 0.0
    table["highs.ms_per_call"] = (
        1000.0 * table["highs.s"] / table["highs.calls"] if table["highs.calls"] else 0.0
    )
    return table


def declared_units(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this kind of run, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gradcut" / "__init__.py").is_file():
        print(f"error: the gradcut sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cells_path, spans_path = OUT / f"{stem}.cells.json", OUT / f"{stem}.spans.json"

    extra = ["--out", str(cells_path)] + (["--spans", str(spans_path)] if args.trace else [])
    try:
        setups = [
            json.loads(run_solver(args, "--setup-only", timeout=SETUP_TIMEOUT_S).stdout)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        solved = run_solver(args, *extra, timeout=SOLVE_TIMEOUT_S)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"{exc}\n{exc.stdout}{exc.stderr}")
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(solved.stdout + solved.stderr)
    result = json.loads(cells_path.read_text())
    setups.append(result["setup_s"])

    stars = {}
    for name, inst in result["instances"].items():
        stars[name] = enumerated_minimum(np.asarray(inst["q"]), inst["m"])
    attempted = failed = 0
    problems = []
    for r in result["rounds"]:
        for cell in r["cells"]:
            inst = result["instances"][cell["instance"]]
            cell_failed, cell_problems = judge(
                cell, np.asarray(inst["q"]), inst["m"], stars[cell["instance"]]
            )
            attempted += 1
            failed += cell_failed
            problems += [f"{cell['instance']} {cell['config']}: {p}" for p in cell_problems]
    for p in problems:
        print(f"wrong answer: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(result, spans_path)
    else:
        metrics = end_to_end(setups, result, stars)
        rounds = result["rounds"]
        print(
            f"wall times: setup_s {statistics.median(setups):.4f} of "
            f"{[round(x, 3) for x in setups]}, solve_s per round "
            f"{[round(r['solve_s'], 3) for r in rounds]}; reference speed factor per round "
            f"{[round(f, 4) for f in speed_factors(rounds)]}",
            file=sys.stderr,
        )
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
