"""Age of information of status updates served by a straggler-prone worker pool.

Exact average-age formulas for uncoded, repetition-coded, MDS-coded, and
multi-message MDS-coded task distribution; optimizers for the code
parameter; and a Monte Carlo simulator that validates every formula.
"""

__version__ = "0.1.0"

from .age import AgeResult, age_from_moments, age_of
from .levels import Infeasible, InconsistentK, NoConvergence, level_counts, solve_levels
from .optimize import OptResult, lambert_w_m1, opt_mds, opt_mm_mds, opt_repetition, refine_discrete
from .order_stats import ShiftedExp, gen_harmonic2, harmonic, os_mean, os_var
from .schemes import (
    MDS,
    MultiMDS,
    Repetition,
    Scheme,
    ServiceMoments,
    SystemParams,
    Uncoded,
    sample_service_batch,
    service_moments,
)
from .simulate import InsufficientCycles, SimReport, run, run_parallel

__all__ = [
    "AgeResult", "age_from_moments", "age_of",
    "Infeasible", "InconsistentK", "NoConvergence",
    "level_counts", "solve_levels",
    "OptResult", "lambert_w_m1", "opt_mds", "opt_mm_mds", "opt_repetition",
    "refine_discrete",
    "ShiftedExp", "gen_harmonic2", "harmonic", "os_mean", "os_var",
    "MDS", "MultiMDS", "Repetition", "Scheme",
    "ServiceMoments", "SystemParams", "Uncoded",
    "sample_service_batch", "service_moments",
    "InsufficientCycles", "SimReport", "run", "run_parallel",
]
