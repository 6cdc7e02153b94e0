"""Optimization substrate: GP surrogates, MOBO, SH/MSH, NSGA-II, hypervolume.

Everything here is problem-agnostic (operates on design-space configs and
objective vectors); the UNICO-specific logic (robustness metric, high-
fidelity update, Algorithm 1) composes these pieces in :mod:`repro.core`.
"""

from repro.optim.acquisition import expected_improvement
from repro.optim.gp import CholeskyFactor, GaussianProcess, GPHyperparameters
from repro.optim.hyperband import Bracket, hyperband_brackets
from repro.optim.hypervolume import hypervolume, reference_point_from
from repro.optim.mobo import MOBOSampler
from repro.optim.nsga2 import NSGA2, Individual
from repro.optim.pareto import (
    ObjectiveNormalizer,
    ParetoFront,
    crowding_distance,
    dominates,
    non_dominated_mask,
    non_dominated_sort,
    pareto_front,
)
from repro.optim.scalarize import (
    DEFAULT_RHO,
    parego_scalar,
    parego_scalars,
    sample_weight_vector,
    uniform_weights,
)
from repro.optim.indicators import inverted_generational_distance
from repro.optim.tpe import ParzenEstimator, TPESampler
from repro.optim.sh import (
    DEFAULT_ETA,
    DEFAULT_KEEP_FRACTION,
    RoundPlan,
    plan_rounds,
    relative_auc_scores,
    select_survivors_soa,
    terminal_values,
)

__all__ = [
    "inverted_generational_distance",
    "ParzenEstimator",
    "TPESampler",
    "expected_improvement",
    "CholeskyFactor",
    "GaussianProcess",
    "GPHyperparameters",
    "Bracket",
    "hyperband_brackets",
    "hypervolume",
    "reference_point_from",
    "MOBOSampler",
    "NSGA2",
    "Individual",
    "ObjectiveNormalizer",
    "ParetoFront",
    "crowding_distance",
    "dominates",
    "non_dominated_mask",
    "non_dominated_sort",
    "pareto_front",
    "DEFAULT_RHO",
    "parego_scalar",
    "parego_scalars",
    "sample_weight_vector",
    "uniform_weights",
    "DEFAULT_ETA",
    "DEFAULT_KEEP_FRACTION",
    "RoundPlan",
    "relative_auc_scores",
    "plan_rounds",
    "select_survivors_soa",
    "terminal_values",
]
