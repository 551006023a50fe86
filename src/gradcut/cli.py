"""Command-line entry point: solve one instance, run benchmark sweeps over the
five solver configurations, and turn trace files into residue reports.

Exit codes: 0 success / eps-optimal, 2 stopped uncertified (time or iteration
limit, or stalled), 1 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bench
from .bench import Instance, ParseError, RunTrace, default_x0, parse_instance, synth_instance
from .engine import CONFIG_NAMES, SolveStatus, SolverConfig, run
from .logs import NO_CELL
from .milp import ENUM_STATE_BYTES, AutoBackend, BruteForceBackend, HighsBackend

BACKEND_ENV = "GRADCUT_BACKEND"
BACKENDS = {"auto": AutoBackend, "highs": HighsBackend, "bruteforce": BruteForceBackend}


def make_backend(name: str):
    """The backend called name; "auto" defers to GRADCUT_BACKEND when it is set."""
    if name == "auto":
        name = os.environ.get(BACKEND_ENV, "auto")
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose {', '.join(BACKENDS)})")
    return BACKENDS[name]()


class _StderrHandler(logging.StreamHandler):
    """Writes each record to sys.stderr as it is when the record comes."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _log_to_stderr() -> None:
    """One stderr handler on the gradcut logger, whose lines name the cell."""
    logger = logging.getLogger("gradcut")
    if any(isinstance(h, _StderrHandler) for h in logger.handlers):
        return
    handler = _StderrHandler()
    handler.setFormatter(
        logging.Formatter(
            "gradcut %(levelname)s [%(cell)s] %(message)s", defaults={"cell": NO_CELL}
        )
    )
    logger.addHandler(handler)


def _parse_x0(spec: str, n: int) -> np.ndarray:
    bits = [c for c in spec if not c.isspace()]
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(f"--x0 must be a {n}-character 0/1 string")
    return np.array([float(c) for c in bits])


def _add_common(p: argparse.ArgumentParser):
    p.add_argument(
        "--epsilon", type=float, default=SolverConfig.epsilon, help="optimality gap tolerance"
    )
    p.add_argument("--time-limit", type=float, default=100.0, help="wall-clock limit, seconds")
    p.add_argument(
        "--cardinality", type=int, default=None, help="override instance cardinality m"
    )
    p.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="auto",
        help="MILP backend: auto enumerates a slice when its C(n,m) points, at "
        f"ceil(n/8)+8 bytes each, fit in {ENUM_STATE_BYTES:,} bytes and uses HiGHS "
        f"otherwise; highs or bruteforce forces one (env {BACKEND_ENV} overrides auto)",
    )
    p.add_argument(
        "--input-format",
        choices=("auto", "mdplib_triplet", "dense_matrix", "canonical_json"),
        default="auto",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcut",
        description="Cutting planes with gradient-based local search for binary "
        "quadratic problems under a cardinality constraint.",
        epilog="Exit codes: 0 success/eps-optimal, 2 stopped uncertified (time or "
        "iteration limit, or stalled), 1 usage or data error. Env: "
        f"{BACKEND_ENV} (auto, highs or bruteforce) replaces the default backend, "
        "auto, which enumerates a slice whose enumerator state (a packed bit row "
        "and a cut value per point) fits in 16 MB and uses HiGHS on the rest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance with one configuration")
    p_solve.add_argument("instance")
    p_solve.add_argument("--config", choices=CONFIG_NAMES, default="pgm-tau-lb")
    p_solve.add_argument("--x0", default=None, help="explicit 0/1 start string")
    p_solve.add_argument("--out", default=None, help="write the run trace here")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p_solve)

    p_bench = sub.add_parser("bench", help="run an (instance x config) sweep")
    p_bench.add_argument("instances", nargs="*", help="instance files")
    p_bench.add_argument(
        "--config",
        action="append",
        choices=CONFIG_NAMES,
        default=None,
        help="configuration to run (repeatable; default: all five)",
    )
    p_bench.add_argument("--out", default="bench_out", help="output directory")
    p_bench.add_argument("--parallel", type=int, default=1, help="cells solved concurrently")
    p_bench.add_argument("--synthetic", choices=("psd_random", "mdp_like", "nonconvex_random"))
    p_bench.add_argument("--synth-count", type=int, default=10)
    p_bench.add_argument("--synth-n", type=int, default=30)
    p_bench.add_argument("--synth-m", type=int, default=None, help="default n // 5")
    p_bench.add_argument("--seed", type=int, default=0)
    _add_common(p_bench)

    p_report = sub.add_parser("report", help="residue profiles and distributions from a sweep")
    p_report.add_argument("manifest", help="manifest.json written by bench")
    p_report.add_argument("--best-known", default=None, help="sidecar JSON {name: value}")
    p_report.add_argument(
        "--budget", action="append", type=float, default=None, help="runtime budgets for CDFs"
    )
    p_report.add_argument("--out", default="report_out", help="output directory")
    p_report.add_argument("--format", default="csv,svg", help="comma list of csv,svg")
    return parser


def cmd_solve(args) -> int:
    inst = parse_instance(args.instance, args.input_format, args.cardinality)
    backend = make_backend(args.backend)
    cfg = SolverConfig.from_name(
        args.config, epsilon=args.epsilon, time_limit=args.time_limit
    )
    x0 = _parse_x0(args.x0, inst.dom.n) if args.x0 else default_x0(inst.dom)
    outcome = run(
        inst.obj, inst.dom, x0, cfg, backend, instance_name=inst.name, config_name=args.config
    )
    print(f"instance   {inst.name} (n={inst.dom.n}, m={inst.dom.m})")
    print(f"config     {args.config}")
    used = backend.for_domain(inst.dom)
    print(f"backend    {used.name}" + (f" ({backend.name})" if used is not backend else ""))
    print(f"f_best     {outcome.f_best:.12g}")
    print(f"gap        {outcome.gap:.6g}")
    print(f"status     {outcome.status.value}")
    print(f"iterations {outcome.iterations}")
    print(f"local_steps {outcome.local_steps}")
    print(f"runtime    {outcome.runtime:.3f} s")
    if args.out:
        write = bench.write_trace_json if args.format == "json" else bench.write_trace_csv
        write(outcome.trace, args.out)
        print(f"trace      {args.out}")
    return 0 if outcome.status is SolveStatus.EPS_OPTIMAL else 2


def _bench_instances(args) -> tuple[list[Instance], list[dict]]:
    instances = []
    failures = []
    for path in args.instances:
        try:
            instances.append(parse_instance(path, args.input_format, args.cardinality))
        except Exception as exc:
            failures.append(
                {
                    "instance": str(path),
                    "config": None,
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    if args.synthetic:
        m = args.synth_m if args.synth_m is not None else max(1, args.synth_n // 5)
        for i in range(args.synth_count):
            instances.append(synth_instance(args.synth_n, m, args.synthetic, args.seed + i))
    return instances, failures


def _run_cell(inst: Instance, config: str, args) -> dict:
    backend = make_backend(args.backend)
    cfg = SolverConfig.from_name(config, epsilon=args.epsilon, time_limit=args.time_limit)
    x0 = default_x0(inst.dom)
    outcome = run(
        inst.obj, inst.dom, x0, cfg, backend, instance_name=inst.name, config_name=config
    )
    return {
        "instance": inst.name,
        "config": config,
        "status": outcome.status.value,
        "f_best": outcome.f_best,
        "gap": outcome.gap,
        "iterations": outcome.iterations,
        "local_steps": outcome.local_steps,
        "runtime": outcome.runtime,
        "f0": outcome.trace.f0,
        "trace": f"{_safe(inst.name)}__{config}.csv",
        "_trace_obj": outcome.trace,
    }


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = args.config or list(CONFIG_NAMES)
    instances, load_failures = _bench_instances(args)
    if not instances and not load_failures:
        print("error: no instances given (paths or --synthetic)", file=sys.stderr)
        return 1
    cells = [(inst, config) for inst in instances for config in configs]

    def solve_cell(cell):
        inst, config = cell
        try:
            return _run_cell(inst, config, args)
        except Exception as exc:  # cell isolation: record and continue
            return {
                "instance": inst.name,
                "config": config,
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(solve_cell, cells))
    else:
        results = [solve_cell(cell) for cell in cells]
    results = load_failures + results

    for res in results:
        trace = res.pop("_trace_obj", None)
        if trace is not None:
            bench.write_trace_csv(trace, out_dir / res["trace"])
    manifest = {
        "params": {
            "epsilon": args.epsilon,
            "time_limit": args.time_limit,
            "configs": configs,
            "backend": args.backend,
            "seed": args.seed,
        },
        "cells": results,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    n_failed = sum(1 for r in results if r["status"] == "error")
    print(f"{len(results) - n_failed}/{len(results)} cells solved; manifest at "
          f"{out_dir / 'manifest.json'}")
    return 1 if n_failed == len(results) else 0


def cmd_report(args) -> int:
    manifest_path = Path(args.manifest)
    manifest = json.loads(manifest_path.read_text())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    sidecar = {}
    if args.best_known:
        sidecar = json.loads(Path(args.best_known).read_text())

    cells = [c for c in manifest["cells"] if c.get("status") != "error"]
    if not cells:
        print("error: manifest has no successful cells", file=sys.stderr)
        return 1
    traces: dict[tuple[str, str], RunTrace] = {}
    for cell in cells:
        trace = bench.read_trace_csv(
            manifest_path.parent / cell["trace"], cell["config"], cell["instance"], cell["f0"]
        )
        traces[(cell["instance"], cell["config"])] = trace

    configs = sorted({c for _, c in traces})
    per_config_instances = [{i for i, c in traces if c == config} for config in configs]
    common = set.intersection(*per_config_instances)
    if any(inst_set != common for inst_set in per_config_instances):
        print("warning: instance sets differ across configs; using the intersection",
              file=sys.stderr)
    if not common:
        print("error: no instance common to every config", file=sys.stderr)
        return 1

    f_star = {}
    for name in common:
        if name in sidecar:
            f_star[name] = float(sidecar[name])
        else:
            f_star[name] = min(
                min(rec.ub for rec in traces[(name, c)].records) for c in configs
            )

    budgets = args.budget or []
    for kind in ("iterations", "runtime"):
        series = {
            config: [
                bench.residue(traces[(name, config)], f_star[name], kind) for name in sorted(common)
            ]
            for config in configs
        }
        hi = max(
            (pt[0] for curves in series.values() for s in curves for pt in s.points),
            default=1.0,
        )
        if kind == "iterations":
            grid = np.arange(0.0, max(hi, 1.0) + 1.0)
        else:
            grid = np.linspace(0.0, max(hi, 1e-6), 101)
        bands = {config: bench.median_profile(series[config], grid) for config in configs}
        if "csv" in formats:
            bench.write_profile_csv(bands, out_dir / f"profile_{kind}.csv")
        if "svg" in formats:
            bench.write_profile_svg(bands, out_dir / f"profile_{kind}.svg", x_label=kind)
        if kind == "runtime":
            for budget in budgets:
                curves = {
                    config: bench.residue_distribution(series[config], budget)
                    for config in configs
                }
                tag = f"{budget:g}".replace(".", "p")
                if "csv" in formats:
                    bench.write_distribution_csv(curves, out_dir / f"cdf_t{tag}.csv")
                if "svg" in formats:
                    bench.write_distribution_svg(
                        curves, out_dir / f"cdf_t{tag}.svg", budget_label=f"t={budget:g}s"
                    )
    print(f"report written to {out_dir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _log_to_stderr()
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_report(args)
    except (FileNotFoundError, ParseError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
