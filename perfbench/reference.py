"""A fixed reference of machine speed: HiGHS solves that involve no gradcut code.

The benchmark's machine is shared, and its speed drifts by a third or more
over minutes: every solve of a slow stretch is slow alike. A run therefore
times this reference between its cells and reports its times at the
reference speed, scaled by REFERENCE_S over the reference time measured
beside them. The reference is a few lower-bound models of the kind the
engine solves -- a continuous epigraph variable over tangent cuts of a convex
quadratic, binaries with a cardinality row, gaps pinned to zero -- built
here from a fixed seed and solved through scipy.optimize.milp directly. A
change to the program cannot change it.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

SEED = 7
MODELS = 8
N, M, CUTS = 14, 4, 40
# one pass over the models on a quiet 2-core machine, in seconds; reported
# times equal wall times when the machine runs at that speed
REFERENCE_S = 0.42
OPTIONS = {"mip_rel_gap": 0.0, "mip_abs_gap": 0.0}


def build_models(count: int = MODELS) -> list[dict]:
    """min t s.t. t >= f(p) + grad f(p).(x - p) at CUTS random points p, sum x = M."""
    from scipy.optimize import Bounds, LinearConstraint

    rng = np.random.default_rng(SEED)
    models = []
    for _ in range(count):
        a = rng.normal(size=(N, N))
        q = a @ a.T / N
        points = np.zeros((CUTS, N))
        for p in points:
            p[rng.choice(N, M, replace=False)] = 1.0
        grads = points @ q
        values = 0.5 * np.einsum("ij,ij->i", points, grads)
        # t >= f(p) + g.(x - p)  <=>  g.x - t <= g.p - f(p)
        cuts = LinearConstraint(
            np.hstack([grads, -np.ones((CUTS, 1))]),
            -np.inf,
            np.einsum("ij,ij->i", grads, points) - values,
        )
        card = LinearConstraint(np.append(np.ones(N), 0.0)[None], M, M)
        models.append(
            dict(
                c=np.append(np.zeros(N), 1.0),
                constraints=[cuts, card],
                integrality=np.append(np.ones(N), 0.0),
                bounds=Bounds(np.append(np.zeros(N), -1e6), np.append(np.ones(N), 1e6)),
            )
        )
    return models


def time_reference(models: list[dict]) -> float:
    """Wall seconds to solve every model once; raises if one is not solved."""
    from scipy.optimize import milp

    t = time.perf_counter()
    with warnings.catch_warnings():
        # mip_abs_gap is forwarded to HiGHS verbatim; silence scipy's note
        warnings.filterwarnings("ignore", message="Unrecognized options detected")
        for model in models:
            res = milp(**model, options=OPTIONS)
            if res.status != 0:
                raise RuntimeError(f"reference model not solved: {res.message}")
    return time.perf_counter() - t
