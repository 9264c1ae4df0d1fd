"""Joint-objective machinery: cost profiles over the action grid, soft-min
action probabilities, and the omega/gamma weight functions.

The trainer combines a predictive-loss term and a task-cost term,

    F = pred_loss * omega + task_loss * gamma,

where omega grows as the action distribution drifts away from the historical
optimum (more pressure to fit the data) and gamma shrinks as the historical and
model-implied optima disagree (less trust in the model-implied cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionGrid, ValidationError, _require_finite, _require_probs
from .core import _require_finite_array
from .predictor import PredictorParams, _inputs, _profile
from .problems import Problem

__all__ = [
    "CostProfile",
    "empirical_profile",
    "model_profile",
    "argmin_profile",
    "action_distribution",
    "omega_weight",
    "gamma_weight",
]


@dataclass(frozen=True)
class CostProfile:
    """Cost as a function of action, tabulated on the grid.

    source is "empirical" when averaged over historical outcomes and "model"
    when averaged over model predictions.
    """

    grid: ActionGrid
    values: np.ndarray
    source: str

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValidationError("profile values must have one entry per grid point")
        if not np.all(np.isfinite(v)):
            raise ValidationError("profile values must be finite")
        if self.source not in ("empirical", "model"):
            raise ValidationError(f"unknown profile source {self.source!r}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def empirical_profile(train_labels, problem: Problem) -> CostProfile:
    """Average task cost of each grid action over the historical labels: the
    problem's separable kernel of the outcomes y[j] + 0, no (K, n) cost matrix."""
    y = _require_finite_array("train_labels", train_labels).ravel()
    if y.size == 0:
        raise ValidationError("train_labels must be non-empty")
    values = problem.separable_kernel(y, np.zeros_like(problem.grid.points))[0]
    return CostProfile(problem.grid, values, "empirical")


def model_profile(params: PredictorParams, inputs, problem: Problem) -> CostProfile:
    """Average task cost of each action of the problem's grid over the model's predictions."""
    X = _inputs(params.architecture, inputs)
    if X.shape[0] == 0:
        raise ValidationError("inputs must be non-empty")
    values, _ = _profile(params.architecture, params.weights, X, problem)
    return CostProfile(problem.grid, values, "model")


def argmin_profile(profile: CostProfile) -> float:
    """Grid action with the smallest cost; ties break toward the smallest action."""
    return profile.grid.best(profile.values)[0]


def action_distribution(profile: CostProfile, tau: float) -> np.ndarray:
    """Soft-min probabilities over grid actions at temperature tau.

    p_k proportional to exp(-(v_k - min v)/tau); the shift makes the largest
    exponent exactly 0 so the normalizer never overflows.
    """
    tau = _require_finite("tau", tau, above=0)
    return _soft_min(profile.values, tau, profile.values.min())


def _soft_min(values: np.ndarray, tau: float, lo: float) -> np.ndarray:
    """action_distribution's probabilities, given the smallest value lo. Dividing
    by -tau gives the bits of negating first: IEEE division is sign-symmetric."""
    w = np.exp((values - lo) / -tau)
    return w / w.sum()


def omega_weight(
    probs: np.ndarray, grid: ActionGrid, z_star_train: float, alpha: float
) -> float:
    """Predictive-loss weight: 1 + alpha * normalized mean distance from the
    historical optimum under the action distribution."""
    probs = _require_probs("probs", probs, grid)
    alpha = _require_finite("alpha", alpha, least=0)
    return _omega(probs, np.abs(grid.points - z_star_train), grid.width, alpha)


def _omega(probs: np.ndarray, distance: np.ndarray, width: float, alpha: float) -> float:
    """omega_weight without its checks, from each action's distance to z_star_train."""
    return 1.0 + alpha * (float(probs @ distance) / width)


def gamma_weight(
    z_star_train: float, z_star_test: float, beta: float, grid: ActionGrid
) -> float:
    """Task-cost weight: exp(-beta * normalized anchor distance), in (0, 1]
    (0.0 only where the exponential underflows at very large beta)."""
    beta = _require_finite("beta", beta, least=0)
    return _gamma(z_star_train, z_star_test, beta, grid.width)


def _gamma(z_star_train: float, z_star_test: float, beta: float, width: float) -> float:
    """gamma_weight without its check."""
    return float(np.exp(-beta * abs(z_star_train - z_star_test) / width))
