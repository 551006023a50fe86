"""The benchmark's workloads: fixed suites of synthetic instances.

Every workload runs each of its instances under all five solver
configurations; one (instance, configuration) pair is a cell. The instance
seeds are part of the suite, not of the run: every run solves the same cells,
and the run's --seed only fixes the order in which they are solved.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    kind: str  # synth_instance flavour
    n: int
    m: int
    seeds: tuple[int, ...]  # instance seeds handed to synth_instance


# Why each workload is in the suite is written in BENCHMARK.json and the README.
WORKLOADS = {
    # seed 2 holds the pgm-tau cell that stalls short of its certificate
    "mdp30": Workload("mdp_like", 30, 6, (2,)),
    # seed 0 sends two lower-bound solves down the presolve-off retry ladder
    "nonconvex12": Workload("nonconvex_random", 12, 4, (0,)),
    "psd14": Workload("psd_random", 14, 4, (1,)),
}
