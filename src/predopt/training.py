"""Training loops: the joint simpo procedure and the two-stage baseline.

Each simpo iteration: (1) one predictor._profile call gives the
model-implied cost profile over the grid actions, and from it the action
probabilities, the test-side anchor and (with the task term on) the task
loss and its gradient; (2) the omega/gamma weights come from the anchors;
(3) one gradient step on F = pred*omega + task*gamma with the weights and
action probabilities frozen for the step, where a linear model on the full
batch takes pred and its gradient from the moments of the training rows,
formed once per fit (predictor._full_batch), so no step reads those rows,
and any other fit reads its batch's rows; (4) count the iteration as stalled
if F improved by less than tol relative to the previous F, and stop once
`patience` iterations in a row have stalled, or at max_iters. The
train-side anchor, and each action's distance from it that omega reads,
depend only on historical labels, so they are computed once up front.

The anchors and the per-iteration profile are built only when a term reads
them: omega when alpha > 0, or the task term. A fit that reads neither steps
on the predictive loss alone (omega = gamma = 1), logs z_star_test as nan and
takes its decision in a single pass from the final model profile. The
two-stage baseline is that fit: the same loop at alpha = 0 with the task
term off, whatever the config's weights say.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import Dataset, WeightConfig, _require_finite, _require_int, _write_csv
from .objective import _gamma, _omega, _soft_min, argmin_profile, empirical_profile
from .predictor import (
    Architecture,
    PredictorParams,
    _batch_loss_and_grad,
    _full_batch,
    _inputs,
    _pass_runner,
    _profile,
    init_params,
)
from .problems import Problem

__all__ = [
    "TrainConfig",
    "HistoryRow",
    "TrainResult",
    "TrainingError",
    "simpo_fit",
    "two_stage_fit",
    "save_history_csv",
]

# HistoryRow's fields in order, with F for `total`
HISTORY_COLUMNS = ("iter", "F", "pred_term", "task_term", "omega", "gamma", "z_star_test")


class TrainingError(RuntimeError):
    """Raised when a fit hits a non-finite loss, gradient, cost profile or
    weight vector."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    weight_config: WeightConfig
    learning_rate: float
    max_iters: int
    batch_size: int = 0  # 0 means full batch
    tol: float = 1e-6
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "tol"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name), above=0))
        for name, least in (("max_iters", 1), ("patience", 1), ("batch_size", 0), ("seed", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), least))


class HistoryRow(NamedTuple):
    """One iteration of a fit: a tuple, so the loop builds it at a tuple's cost."""

    iter: int
    total: float
    pred_term: float
    task_term: float
    omega: float
    gamma: float
    z_star_test: float


@dataclass(frozen=True)
class TrainResult:
    params_star: PredictorParams
    z_star: float
    g_star: float
    iters_run: int
    converged: bool
    history: tuple


def _abort(what: str, it: int, detail: str = ""):
    """Abort the fit at iteration `it` on a non-finite `what`."""
    raise TrainingError(
        f"non-finite {what} at iteration {it}{detail}; reduce the learning rate", iteration=it
    )


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), as Python floats: for the few weights of a linear fit,
    a fifth of the cost of the two numpy calls."""
    return all(map(math.isfinite, x.tolist()))


def _fit(
    problem: Problem, train: Dataset, val: Dataset, arch: Architecture, config: TrainConfig
) -> TrainResult:
    for name, split in (("train", train), ("val", val)):
        _inputs(arch, split.X, f"{name}.X")
    wc: WeightConfig = config.weight_config
    grid = problem.grid
    points, width = grid.points, grid.width
    joint = wc.alpha > 0 or wc.task_term_enabled  # a term reads the anchors and the profile

    if joint:
        z_star_train = argmin_profile(empirical_profile(train.y, problem))
        distance = np.abs(points - z_star_train)
    # A plain weight vector in the loop: PredictorParams validates and copies,
    # so it is built once, for the result.
    w = init_params(arch, config.seed).weights
    # Batch sampling gets its own stream so it never aliases the init draws.
    batch_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    history = []
    rows = (train.X, train.z_obs, train.y)
    minibatch = 0 < config.batch_size < len(train)
    if not minibatch:
        batch = _full_batch(arch, *rows)

    with _pass_runner(arch) as run:  # runs each mlp1 profile pass over the usable CPUs
        stalled = 0  # consecutive iterations whose relative improvement of F was below tol
        for it in range(1, config.max_iters + 1):
            if minibatch:
                idx = batch_rng.choice(len(train), size=config.batch_size, replace=False)
                batch = tuple(column[idx] for column in rows)

            if joint:
                values, grad_at = _profile(arch, w, val.X, problem, run)
                # min and max propagate nan, so both are finite iff every value is
                lo, hi = float(values.min()), float(values.max())
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    _abort("model cost profile", it)
                probs = _soft_min(values, wc.tau, lo)
                z_star_test = grid._best(values, lo, hi)[0]
                omega = _omega(probs, distance, width, wc.alpha)
                gamma = _gamma(z_star_train, z_star_test, wc.beta, width)
            else:
                omega, gamma, z_star_test = 1.0, 1.0, float("nan")

            pred_loss, pred_grad = _batch_loss_and_grad(arch, w, batch)
            if wc.task_term_enabled:
                task_loss = float(probs @ values)
                total_grad = omega * pred_grad + gamma * grad_at(probs)
            else:
                # Recorded as 0 so every row composes as pred*omega + task*gamma
                task_loss = 0.0
                total_grad = omega * pred_grad if joint else pred_grad  # else omega is 1.0
            grad_at = None  # it holds an mlp1 pass's activations: free them before the next pass

            finite = math.isfinite(pred_loss) and math.isfinite(task_loss)
            if not (finite and _all_finite(total_grad)):
                _abort("loss or gradient", it, f" (pred={pred_loss!r}, task={task_loss!r})")
            total = pred_loss * omega + task_loss * gamma
            history.append(HistoryRow(it, total, pred_loss, task_loss, omega, gamma, z_star_test))
            w = w - config.learning_rate * total_grad
            if not _all_finite(w):
                _abort("weights after the step", it)
            improved = it == 1 or (prev - total) / max(abs(prev), 1e-12) >= config.tol
            stalled = 0 if improved else stalled + 1
            if stalled >= config.patience:
                break
            prev = total

        values = _profile(arch, w, val.X, problem, run)[0]
        if not np.isfinite(values).all():
            _abort("model cost profile", len(history))
    z_star, g_star = grid.best(values)
    return TrainResult(
        params_star=PredictorParams(arch, w),
        z_star=z_star,
        g_star=g_star,
        iters_run=len(history),
        # the stall stop fired before the cap, and F did not rise over its window
        converged=len(history) < config.max_iters
        and history[-1].total <= history[-config.patience - 1].total,
        history=tuple(history),
    )


def simpo_fit(
    problem: Problem,
    train: Dataset,
    val: Dataset,
    arch: Architecture,
    config: TrainConfig,
) -> TrainResult:
    """Fit with the joint weighted objective; see the module docstring."""
    return _fit(problem, train, val, arch, config)


def two_stage_fit(
    problem: Problem,
    train: Dataset,
    val: Dataset,
    arch: Architecture,
    config: TrainConfig,
) -> TrainResult:
    """Predict-then-optimize baseline: minimize the predictive loss alone,
    then take the decision from the fitted model's cost profile."""
    off = replace(config.weight_config, alpha=0.0, task_term_enabled=False)
    return _fit(problem, train, val, arch, replace(config, weight_config=off))


# Each method's name and fit, in the results' order; every other module reads the names here.
_FITS = {"simpo": simpo_fit, "two_stage": two_stage_fit}


def save_history_csv(history, path) -> None:
    """Training log: HISTORY_COLUMNS, then one line per HistoryRow, floats by repr."""
    rows = ([str(it), *map(repr, values)] for it, *values in history)
    _write_csv(path, HISTORY_COLUMNS, rows)
