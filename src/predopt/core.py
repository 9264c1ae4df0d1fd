"""Shared domain types: action grids, datasets, problem definitions, weight settings.

Everything here is an immutable value after construction; arrays are stored
read-only so instances can be shared across concurrent experiment runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ValidationError",
    "ActionGrid",
    "Dataset",
    "Problem",
    "WeightConfig",
    "make_grid",
    "split_dataset",
    "save_dataset_csv",
]


class ValidationError(ValueError):
    """An input violated a documented precondition."""


# Cost values within this fraction of max|values| of the minimum count as tied.
TIE_TOLERANCE = 1e-12


def _require_finite(name: str, value) -> float:
    """`value` as a float; a ValidationError naming `name` unless it is a finite real number."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ActionGrid:
    """Uniform discretization of the closed action interval [z_min, z_max]."""

    z_min: float
    z_max: float
    n_points: int
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        z_min, z_max, n_points = float(self.z_min), float(self.z_max), self.n_points
        # a finite width also rules out a non-finite end
        if not (z_min < z_max and math.isfinite(z_max - z_min)):
            raise ValidationError(
                "grid needs z_min < z_max and a finite width z_max - z_min, "
                f"got z_min={z_min}, z_max={z_max}"
            )
        if int(n_points) != n_points or n_points < 2:
            raise ValidationError(f"grid needs an integer n_points >= 2, got {n_points}")
        object.__setattr__(self, "z_min", z_min)
        object.__setattr__(self, "z_max", z_max)
        object.__setattr__(self, "n_points", int(n_points))
        object.__setattr__(self, "points", _frozen_array(np.linspace(z_min, z_max, self.n_points)))

    @property
    def step(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def width(self) -> float:
        return self.z_max - self.z_min

    def best(self, values) -> tuple[float, float]:
        """The smallest action whose value is within TIE_TOLERANCE * max|values|
        of the minimum, and its value: ties break toward the smallest action,
        however the sums behind `values` were rounded."""
        values = np.asarray(values)
        lo, hi = float(values.min()), float(values.max())
        k = int((values <= lo + TIE_TOLERANCE * max(hi, -lo)).argmax())
        return float(self.points[k]), float(values[k])

    def index_of(self, action: float) -> int:
        """Index of the grid point closest to `action`."""
        return int(np.argmin(np.abs(self.points - action)))


def make_grid(z_min: float, z_max: float, n_points: int) -> ActionGrid:
    """Build an evenly spaced action grid with exact endpoints."""
    return ActionGrid(z_min, z_max, n_points)


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample store.

    X has shape (n, d), z_obs and y shape (n,). Non-empty, one shared
    feature dimension.
    """

    X: np.ndarray
    z_obs: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        z = np.asarray(self.z_obs, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] == 0:
            raise ValidationError("dataset must be non-empty")
        if X.shape[0] != z.shape[0] or X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"column lengths disagree: X {X.shape[0]}, z_obs {z.shape[0]}, y {y.shape[0]}"
            )
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "z_obs", _frozen_array(z))
        object.__setattr__(self, "y", _frozen_array(y))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.X[indices], self.z_obs[indices], self.y[indices])


@dataclass(frozen=True)
class Problem:
    """One decision task: an action grid plus its cost function.

    task_cost(z, y) is the cost of taking action z when the outcome is y; it
    must be numpy-vectorized (broadcast over array arguments).
    task_cost_grad_y is its derivative with respect to the outcome, with the
    value-0 convention exactly at kinks, so trainers can form exact analytic
    gradients. The predictive loss is squared error for every problem.

    separable_kernel, when set, computes the same profile and task-gradient
    sums for separable outcomes P[j, k] = a[j] + c[k] without forming the
    (m, K) matrices: separable_kernel(z, a, c) returns (values,
    gradient_sums), where values[k] is the mean over j of
    task_cost(z[k], P[j, k]) and gradient_sums(probs) returns the row sums,
    column sums and total of C[j, k] = task_cost_grad_y(z[k], P[j, k]) *
    probs[k] / m. Both a linear model's predictions and the true outcomes of
    a problems.TrueModel are separable, so linear fits take their profiles
    and task gradients from it, and problems.oracle_profile its scan.
    """

    grid: ActionGrid
    task_cost: Callable
    task_cost_grad_y: Callable
    name: str = "problem"
    separable_kernel: Callable = None


@dataclass(frozen=True)
class WeightConfig:
    """Settings for the joint-objective weight functions.

    alpha scales how fast the predictive-loss weight grows with the action
    distribution's distance from the historical optimum; beta scales how fast
    the task-term weight decays with anchor disagreement; tau is the soft-min
    temperature for the action distribution.
    """

    alpha: float
    beta: float
    tau: float
    task_term_enabled: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "tau"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if not self.tau > 0:
            raise ValidationError(f"tau must be > 0, got {self.tau}")


def _split_sizes(n: int, train_frac: float, val_frac: float) -> tuple[int, int, int]:
    """(train, val, test) sizes for n samples: floor(n * frac) for train and
    val, the remainder to test. Raises unless both fractions are finite and
    > 0 with a sum < 1, and every split is non-empty."""
    train_frac = _require_finite("train_frac", train_frac)
    val_frac = _require_finite("val_frac", val_frac)
    for name, value in (("train_frac", train_frac), ("val_frac", val_frac)):
        if not value > 0:
            raise ValidationError(f"{name} must be > 0, got {value}")
    if train_frac + val_frac >= 1:
        raise ValidationError(f"train_frac + val_frac must be < 1, got {train_frac + val_frac}")
    n_train = int(np.floor(n * train_frac))
    n_val = int(np.floor(n * val_frac))
    sizes = (n_train, n_val, n - n_train - n_val)
    if min(sizes) < 1:
        raise ValidationError(
            f"n_samples {n} with train_frac {train_frac} and val_frac {val_frac} "
            f"gives split sizes {sizes}; every split must be non-empty"
        )
    return sizes


def split_dataset(
    data: Dataset, train_frac: float, val_frac: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Shuffle-split into (train, val, test); deterministic in seed.

    Sizes are floor(n * frac) for train and val, remainder to test. Raises if
    any split would be empty; see _split_sizes.
    """
    n_train, n_val, _ = _split_sizes(len(data), train_frac, val_frac)
    perm = np.random.default_rng(seed).permutation(len(data))
    return (
        data.take(perm[:n_train]),
        data.take(perm[n_train : n_train + n_val]),
        data.take(perm[n_train + n_val :]),
    )


def save_dataset_csv(data: Dataset, path) -> None:
    """Write the dataset CSV: header x0..x{d-1},z_obs,y, LF line endings."""
    d = data.feature_dim
    header = ",".join([f"x{j}" for j in range(d)] + ["z_obs", "y"])
    lines = [header]
    for i in range(len(data)):
        cells = [repr(float(v)) for v in data.X[i]]
        cells.append(repr(float(data.z_obs[i])))
        cells.append(repr(float(data.y[i])))
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
