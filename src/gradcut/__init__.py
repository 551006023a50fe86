"""Cutting-plane solver for binary quadratic minimization with cardinality
constraints, hybridized with projected-gradient local search, plus the
residue-based benchmarking toolkit."""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .bench import (
    Instance,
    ProfileBand,
    ResidueSeries,
    RunTrace,
    TraceRecord,
    default_x0,
    export,
    median_profile,
    parse_instance,
    residue,
    residue_distribution,
    synth_instance,
)
from .engine import (
    CONFIG_FLAGS,
    CONFIG_NAMES,
    SolveOutcome,
    SolveStatus,
    SolverConfig,
    TrParams,
    build_cut_constraints,
    effective_objective,
    lb_cut_condition,
    run,
    select_offset,
)
from .local import (
    LocalResult,
    PgmParams,
    is_critical,
    pgm_solve,
    sufficient_decrease,
    tr_solve,
)
from .milp import (
    AutoBackend,
    BruteForceBackend,
    HighsBackend,
    MilpBackend,
    MilpResult,
    MilpStatus,
    StatusKind,
    check_nonempty,
    project,
    solve_cp_model,
    solve_tr_subproblem,
)
from .model import (
    Cut,
    CutOracle,
    FeasibleDomain,
    LinearRow,
    QuadraticObjective,
    Regularization,
    eval_gradient,
    eval_objective,
    is_feasible,
    make_cut,
    symmetrize,
)

__version__ = "0.1.0"
