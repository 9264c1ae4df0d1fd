"""predopt: joint prediction-and-optimization training for action-conditioned
decision problems, with a two-stage predict-then-optimize baseline, synthetic
worlds with known oracles, and a regret-based comparison harness.

The package namespace holds the names the demos use; everything else is
imported from its module (predopt.core, predopt.predictor, ...).
"""

from .core import WeightConfig, make_grid, split_dataset
from .evaluation import (
    ExperimentConfig,
    compare_methods,
    derive_seeds,
    evaluate_decision,
    write_results_csv,
)
from .objective import action_distribution, argmin_profile, empirical_profile
from .predictor import Architecture
from .problems import (
    TrueModel,
    gen_dataset,
    newsvendor_problem,
    oracle_action,
    oracle_expected_cost,
    problem_from_model,
)
from .training import TrainConfig, simpo_fit, two_stage_fit

__version__ = "0.1.0"
