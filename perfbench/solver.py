"""The solving process of one benchmark run.

Usage: python3 perfbench/solver.py --workload NAME --seed N --seconds S
           --trace 0|1 --out CELLS.json [--spans SPANS.json] [--setup-only]

It times its own set-up (importing gradcut and scipy, generating the
instances, constructing a backend), then solves the workload's cells in whole
rounds until S seconds are spent, at least one round. A cell takes the
steps `gradcut bench` takes with its defaults: a fresh backend from
make_backend("auto"), SolverConfig.from_name, default_x0, engine.run. With
--trace 1 each cell of a round is solved untraced and then traced; the spans
of the traced cells go to --spans. With --trace 0 the machine-speed reference
of reference.py is timed after every cell. Everything the checker needs --
instances, answers, traces, times -- goes to --out. The answers are checked in
another process, so that this one's peak memory is the solver's own.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import build_models, time_reference  # noqa: E402
from spans import Tracer, instrument, to_rows  # noqa: E402
from suite import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def set_up(workload):
    """Import the program, generate the instances and construct one backend."""
    os.environ.pop("GRADCUT_BACKEND", None)  # backends are chosen as users get them
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    from gradcut.bench import synth_instance
    from gradcut.cli import make_backend

    instances = [synth_instance(workload.n, workload.m, workload.kind, s) for s in workload.seeds]
    make_backend("auto")
    return instances


def solve_cell(inst, config, tracer=None):
    """One cell, as `gradcut bench` runs it; a raising cell is reported, not fatal.

    With a tracer the layer entry points are instrumented for this cell, whose
    own span is the root of the spans it records.
    """
    from gradcut import engine
    from gradcut.bench import default_x0
    from gradcut.cli import make_backend

    cell = {"instance": inst.name, "config": config, "traced": tracer is not None}
    out = None
    t = time.perf_counter()
    with instrument(tracer) if tracer else nullcontext():
        with tracer.span("cell") if tracer else nullcontext() as root:
            try:
                backend = make_backend("auto")
                cell["backend"] = type(backend).__name__
                cfg = engine.SolverConfig.from_name(config)
                x0 = default_x0(inst.dom, backend)
                t_run = time.perf_counter()
                out = engine.run(
                    inst.obj, inst.dom, x0, cfg, backend,
                    instance_name=inst.name, config_name=config,
                )
                cell["run_s"] = time.perf_counter() - t_run
            except Exception as exc:  # one failing cell must not end the round
                cell["error"] = f"{type(exc).__name__}: {exc}"
                cell["traceback"] = traceback.format_exc()
        cell["cell_s"] = root.end - root.start if root else time.perf_counter() - t
    if out is not None:
        cell.update(
            status=out.status.value,
            x_best=out.x_best.tolist(),
            f_best=out.f_best,
            f0=out.trace.f0,
            iterations=out.iterations,
            records=[[r.k, r.ub, r.lb] for r in out.trace.records],
            lbcut_added=sum(1 for e in out.lb_cut_events if e.added),
            offset_backtracks=out.offset_backtracks,
        )
    return cell


def solve_round(cells, order, tracer=None, reference=None):
    """Every cell once, in the given order.

    With a tracer each cell is solved untraced and then traced, so the two
    times that give the tracing overhead are taken close together. With
    reference models the reference is timed after every cell, so that it
    sees the machine at the speed the cells saw. solve_s is the time of the
    untraced cells alone.
    """
    results, ref_s = [], []
    for i in order:
        results.append(solve_cell(*cells[i]))
        if reference is not None:
            ref_s.append(time_reference(reference))
        if tracer is not None:
            results.append(solve_cell(*cells[i], tracer))
    solve_s = sum(c["cell_s"] for c in results if not c["traced"])
    return {"solve_s": solve_s, "ref_s": ref_s, "cells": results}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    instances = set_up(workload)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    from gradcut.engine import CONFIG_NAMES

    cells = [(inst, config) for inst in instances for config in CONFIG_NAMES]
    rng = np.random.default_rng(args.seed)
    reference = None
    if not args.trace:
        reference = build_models()
        time_reference(reference)  # warm-up
    rounds, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace else None
        order = rng.permutation(len(cells)).tolist()
        rounds.append(solve_round(cells, order, tracer, reference))
        if tracer is not None:
            tracers.append(tracer)
        if time.perf_counter() - start >= args.seconds:
            break

    if args.spans:
        spans = [to_rows(t.spans) for t in tracers]
        Path(args.spans).write_text(json.dumps(spans))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": {
            inst.name: {"n": inst.dom.n, "m": inst.dom.m, "q": inst.obj.q.tolist()}
            for inst in instances
        },
        "rounds": rounds,
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
