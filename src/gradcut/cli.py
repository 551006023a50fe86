"""Command-line entry point: solve one instance, run benchmark sweeps over the
five solver configurations, and turn trace files into residue reports.

solve and bench solve a cell the same way, through solve_cell; bench makes an
error row of a cell that raises or an instance it cannot read, and goes on.

Exit codes: 0 success / eps-optimal (bench: at least one cell solved), 2
stopped uncertified (time or iteration limit, or stalled), 1 usage or data
error (argparse's own usage code 2 is sent to 1 too), a subproblem the
solver could not solve (MilpSolveError), or every bench cell failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bench
from .bench import Instance, ParseError, RunTrace, default_x0, parse_instance, synth_instance
from .engine import CONFIG_NAMES, SolveStatus, SolverConfig, run
from .logs import NO_CELL
from .milp import ENUM_STATE_BYTES, AutoBackend, BruteForceBackend, HighsBackend, MilpSolveError

BACKENDS = {"auto": AutoBackend, "highs": HighsBackend, "bruteforce": BruteForceBackend}


def make_backend(name: str):
    """The backend called name."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose {', '.join(BACKENDS)})")
    return BACKENDS[name]()


def solve_cell(inst: Instance, config: str, backend="auto", x0=None, **overrides):
    """One (instance, configuration) cell, as solve and bench both run it:
    engine.run with a fresh backend called backend, SolverConfig.from_name(
    config, **overrides) and the start x0, default_x0 when None. Returns the
    outcome and the backend that answered it."""
    solver = make_backend(backend)
    cfg = SolverConfig.from_name(config, **overrides)
    x0 = default_x0(inst.dom) if x0 is None else x0
    outcome = run(
        inst.obj, inst.dom, x0, cfg, solver, instance_name=inst.name, config_name=config
    )
    return outcome, solver


class _UsageErrorExitsOne(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2, which means stopped
    uncertified here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
        "otherwise; highs or bruteforce forces one",
    )
    p.add_argument(
        "--input-format",
        choices=("auto", "mdplib_triplet", "dense_matrix", "canonical_json"),
        default="auto",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageErrorExitsOne(
        prog="gradcut",
        description="Cutting planes with gradient-based local search for binary "
        "quadratic problems under a cardinality constraint.",
        epilog="Exit codes: 0 success/eps-optimal, 2 stopped uncertified (time or "
        "iteration limit, or stalled), 1 usage, data or solver error.",
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
    x0 = _parse_x0(args.x0, inst.dom.n) if args.x0 else None
    outcome, backend = solve_cell(
        inst, args.config, args.backend, x0, epsilon=args.epsilon, time_limit=args.time_limit
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


def _error_row(instance: str, config: str | None, exc: Exception) -> dict:
    return {
        "instance": instance,
        "config": config,
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
    }


def _bench_instances(args) -> tuple[list[Instance], list[dict]]:
    instances = []
    failures = []
    for path in args.instances:
        try:
            instances.append(parse_instance(path, args.input_format, args.cardinality))
        except Exception as exc:
            failures.append(_error_row(str(path), None, exc))
    if args.synthetic:
        m = args.synth_m if args.synth_m is not None else max(1, args.synth_n // 5)
        for i in range(args.synth_count):
            instances.append(synth_instance(args.synth_n, m, args.synthetic, args.seed + i))
    return instances, failures


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = args.config or list(CONFIG_NAMES)
    instances, results = _bench_instances(args)
    if not instances and not results:
        print("error: no instances given (paths or --synthetic)", file=sys.stderr)
        return 1
    cells = [(inst, config) for inst in instances for config in configs]

    def solve_row(cell):
        inst, config = cell
        try:
            outcome, _ = solve_cell(
                inst, config, args.backend, epsilon=args.epsilon, time_limit=args.time_limit
            )
        except Exception as exc:  # cell isolation: record and continue
            return _error_row(inst.name, config, exc)
        trace = f"{_safe(inst.name)}__{config}.csv"
        bench.write_trace_csv(outcome.trace, out_dir / trace)
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
            "trace": trace,
        }

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            results += pool.map(solve_row, cells)
    else:
        results += map(solve_row, cells)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.parallel < 1:
        parser.error(f"argument --parallel: must be at least 1, not {args.parallel}")
    _log_to_stderr()
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_report(args)
    except (
        FileNotFoundError, ParseError, ValueError, json.JSONDecodeError, MilpSolveError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
