"""Shared domain types: action grids, datasets, weight settings.

Everything here is an immutable value after construction; arrays are stored
read-only so instances can be shared across concurrent experiment runs.
predopt reads every file, config or checkpoint, through _read_json, and
writes every file through _write_atomic, every CSV by way of _write_csv.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

__all__ = [
    "ValidationError",
    "ActionGrid",
    "Dataset",
    "WeightConfig",
    "make_grid",
    "split_dataset",
    "save_dataset_csv",
]


class ValidationError(ValueError):
    """An input violated a documented precondition."""


# Cost values within this fraction of max|values| of the minimum count as tied,
# and so do those within _TINY, the smallest normal float, of it.
TIE_TOLERANCE, _TINY = 1e-12, float(np.finfo(float).tiny)


def _require_finite(name: str, value, above=None, least=None) -> float:
    """`value` as a float; a ValidationError naming `name` unless it is a finite
    real number (a bool is not), > `above` and >= `least` where they are given."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    value = float(value)
    if above is not None and not value > above:
        raise ValidationError(f"{name} must be > {above}, got {value}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def _require_finite_array(name: str, values) -> np.ndarray:
    """`values` as a float array; a ValidationError naming `name` unless every entry is finite."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValidationError(
            f"{name} must be a finite number in every entry, got {values.flat[bad[0]]} "
            f"at flat index {bad[0]}"
        )
    return values


def _require_int(name: str, value, least: int) -> int:
    """`value` as an int; a ValidationError naming `name` unless it is an
    integer >= `least` (a numpy integer passes, a bool does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _require_probs(name: str, probs, grid) -> np.ndarray:
    """`probs` as a flat float array; a ValidationError naming `name` unless it
    has one entry per action of `grid`, each finite and >= 0, summing to 1 within 1e-9."""
    probs = np.asarray(probs, dtype=float).ravel()
    if probs.shape != (grid.n_points,):
        raise ValidationError(f"{name} length must match the grid, got {probs.size}")
    if not (abs(probs.sum() - 1.0) <= 1e-9 and np.all(probs >= 0.0)):  # nan and inf fail too
        raise ValidationError(f"{name} must sum to 1 within 1e-9 with every entry >= 0")
    return probs


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
    points: np.ndarray = field(init=False, compare=False)  # a grid is its other three fields

    def __post_init__(self):
        z_min, z_max = _require_finite("z_min", self.z_min), _require_finite("z_max", self.z_max)
        if not (z_min < z_max and math.isfinite(z_max - z_min)):
            raise ValidationError(
                "grid needs z_min < z_max and a finite width z_max - z_min, "
                f"got z_min={z_min}, z_max={z_max}"
            )
        if isinstance(self.n_points, numbers.Integral) and self.n_points < 2:
            raise ValidationError(f"grid needs an integer n_points >= 2, got {self.n_points}")
        object.__setattr__(self, "z_min", z_min)
        object.__setattr__(self, "z_max", z_max)
        object.__setattr__(self, "n_points", _require_int("n_points", self.n_points, 2))
        object.__setattr__(self, "points", _frozen_array(np.linspace(z_min, z_max, self.n_points)))

    @property
    def step(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def width(self) -> float:
        return self.z_max - self.z_min

    def best(self, values) -> tuple[float, float]:
        """The smallest action whose value is within TIE_TOLERANCE * max|values|
        (or the smallest normal float) of the minimum, and its value: ties break
        toward the smallest action, however the sums behind `values` were rounded."""
        values = np.asarray(values)
        return self._best(values, float(values.min()), float(values.max()))

    def _best(self, values: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
        """best(values), given the smallest value lo and the largest hi."""
        k = int((values <= lo + max(TIE_TOLERANCE * max(hi, -lo), _TINY)).argmax())
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

    X has shape (n, d), z_obs and y shape (n,). Non-empty, finite, one shared
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
        for name, column in (("X", X), ("z_obs", z), ("y", y)):
            if not np.all(np.isfinite(column)):
                raise ValidationError(f"dataset column {name} must be finite")
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
        object.__setattr__(self, "alpha", _require_finite("alpha", self.alpha, least=0))
        object.__setattr__(self, "beta", _require_finite("beta", self.beta, least=0))
        object.__setattr__(self, "tau", _require_finite("tau", self.tau, above=0))
        if not isinstance(self.task_term_enabled, bool):
            raise ValidationError(
                f"task_term_enabled must be a bool, got {self.task_term_enabled!r}"
            )


def _split_sizes(n: int, train_frac: float, val_frac: float) -> tuple[int, int, int]:
    """(train, val, test) sizes for n samples: floor(n * frac) for train and
    val, the remainder to test. Raises unless both fractions are finite and
    > 0 with a sum < 1, and every split is non-empty."""
    train_frac = _require_finite("train_frac", train_frac, above=0)
    val_frac = _require_finite("val_frac", val_frac, above=0)
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
    perm = np.random.default_rng(_require_int("seed", seed, 0)).permutation(len(data))
    return (
        data.take(perm[:n_train]),
        data.take(perm[n_train : n_train + n_val]),
        data.take(perm[n_train + n_val :]),
    )


def save_dataset_csv(data: Dataset, path) -> None:
    """Write the dataset CSV: header x0..x{d-1},z_obs,y, floats by repr."""
    header = [f"x{j}" for j in range(data.feature_dim)] + ["z_obs", "y"]
    table = np.column_stack((data.X, data.z_obs, data.y)).tolist()
    _write_csv(path, header, (map(repr, row) for row in table))


def _write_csv(path, header, rows) -> None:
    """Write a CSV through _write_atomic: the `header` cells, then one line per
    row of `rows`, each an iterable of str cells, comma-joined, LF line endings."""
    _write_atomic(path, "".join(",".join(cells) + "\n" for cells in (header, *rows)))


_NUMBER = (int, float)
# The largest value of an int key; numpy's conversion of a larger size overflows.
_INT_MAX = 2**31 - 1
# The JSON type(s) a key takes, by the annotation of its dataclass field
_JSON_TYPES = {str: str, int: int, bool: bool, float: _NUMBER, tuple: list}


def _json_keys(cls):
    """(name, required, type hint) of each init field of dataclass `cls`; a
    field without a default is a required key."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.init:
            yield f.name, f.default is MISSING and f.default_factory is MISSING, hints[f.name]


def _read_json(path, schema: dict, what: str) -> dict:
    """The JSON object in UTF-8 file `path`, checked against `schema`: key ->
    (required, expected JSON type(s)), where a nested dict is an object's own
    schema. Every failure is a ValidationError that names the file or the key;
    `what` ("config", "checkpoint") names the kind of file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw_text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {what} {path}: {err}") from err
    try:
        blob = json.loads(raw_text, object_pairs_hook=_unique_keys)
    except ValidationError as err:
        raise ValidationError(f"{path}: {what} {err}") from err
    except (ValueError, RecursionError) as err:  # also an integer with too many digits
        raise ValidationError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    _check_keys(blob, schema, raw_text, what)
    return blob


def _unique_keys(pairs) -> dict:
    """A JSON object from its (key, value) pairs; a ValidationError names a key given twice."""
    blob = {}
    for key, value in pairs:
        if key in blob:
            raise ValidationError(f"key '{key}' is given twice")
        blob[key] = value
    return blob


def _find_line(raw_text: str, where: str):
    """The line of dotted key `where`, each part searched for from where the
    part before it was found; None if a part is not found."""
    pos = -1
    for key in where.split("."):
        pos = raw_text.find(f'"{key}"', pos + 1)
        if pos < 0:
            return None
    return raw_text.count("\n", 0, pos) + 1


def _check_keys(blob: dict, schema: dict, raw_text: str, what: str, path: str = "") -> None:
    for key, value in blob.items():
        where = f"{path}{key}"
        if key not in schema:
            lineno = _find_line(raw_text, where)
            at = f" (line {lineno})" if lineno else ""
            raise ValidationError(f"unknown {what} key '{where}'{at}")
        _required, expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"{what} key '{where}' must be an object")
            _check_keys(value, expected, raw_text, what, path=where + ".")
        else:
            if expected is int and isinstance(value, bool):
                raise ValidationError(f"{what} key '{where}' must be an integer")
            if not isinstance(value, expected):
                raise ValidationError(f"{what} key '{where}' has the wrong type")
            if expected is int and value > _INT_MAX:
                raise ValidationError(f"{what} key '{where}' must be <= {_INT_MAX}")
            if expected in (_NUMBER, list):
                numbers = value if isinstance(value, list) else [value]
                if not all(isinstance(v, _NUMBER) and not isinstance(v, bool) for v in numbers):
                    raise ValidationError(f"{what} key '{where}' must be numeric")
                try:
                    finite = all(math.isfinite(v) for v in numbers)
                except OverflowError:  # an integer literal too large for a float
                    finite = False
                if not finite:
                    raise ValidationError(f"{what} key '{where}' must be finite")
    for key, (required, _expected) in schema.items():
        if required and key not in blob:
            raise ValidationError(f"missing {what} key '{path}{key}'")


def _write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file next to it that is
    renamed into place, so `path` never holds a partial file. Creates missing
    parent directories; the file's mode is 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # mkstemp creates the file 0o600; read the umask to undo that
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
