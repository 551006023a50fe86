"""Cutting-plane solver for binary quadratic minimization with cardinality
constraints, hybridized with projected-gradient local search, plus the
residue-based benchmarking toolkit.

The top level holds the library API the README documents; the rest lives in
the submodules (gradcut.bench, gradcut.engine, gradcut.local, gradcut.milp,
gradcut.model)."""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .engine import CONFIG_NAMES, SolveOutcome, SolverConfig, SolveStatus, run
from .milp import AutoBackend, BruteForceBackend, HighsBackend, MilpSolveError
from .model import FeasibleDomain, QuadraticObjective

__version__ = "0.1.0"
