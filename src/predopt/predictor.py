"""Action-conditioned predictors y_hat = h(x, z; theta) with analytic gradients.

Two architectures: `linear` (affine in [x; z]) and `mlp1` (one tanh hidden
layer). Parameters live in a single flat vector so the SGD loop, checkpoints,
and finite-difference checks all see one layout:

    linear: [w_x (d), w_z, b]
    mlp1:   [W1 ((d+1) x h, row-major by hidden unit), b1 (h), w2 (h), b2]

For mlp1 the input is u = [x; z] and the forward pass is
w2 . tanh(W1 u + b1) + b2. _grid_pass is the one forward pass: its actions Z
broadcast against the m inputs, a (1, K) grid row for the model profile or an
(n, 1) column for the predictive loss's paired rows. For mlp1 the tanh
activations form an (m, K, h) tensor T, which each grid pass allocates for
itself. _mlp1_grad is the one backprop, of sum_jk C[j, k] * h(x_j, Z[j, k])
through T: one matmul C @ T for the w2 term, then, with T overwritten in
place by 1 - T*T, one batched matmul
[C, C*Z] @ (1 - T*T) for every W1 and b1 term. C holds the task term's cost
derivatives (m, K) or the predictive loss's squared-error derivatives (n, 1).

An mlp1 pass runs its work on T in contiguous blocks of rows (_in_blocks),
and a fit spreads its model-profile passes, (m, K, h) each, over the usable
CPUs (_pass_runner). Each block writes only its own rows, and every step
there is per row, so the bits do not depend on the blocks. The sums across
rows stay whole, on the calling thread: the w2 term C @ T, the W1 term
M[:, 0]' @ X, and the sums of M (b1 and the z column) and of C (b2). Each is
one BLAS call or numpy reduction, and split into per-block partial sums it
would round differently. The input term X @ W1[:, :d]' is formed whole too,
before the blocks: it is a BLAS product whose rounding need not be per row.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import ActionGrid, ValidationError, _require_int, _require_probs
from .core import _JSON_TYPES, _json_keys, _read_json, _write_atomic
from .problems import Problem

__all__ = [
    "Architecture",
    "PredictorParams",
    "init_params",
    "predict",
    "predict_batch",
    "predict_on_grid",
    "loss_and_grad",
    "task_grad",
    "save_checkpoint",
    "load_checkpoint",
]

_KINDS = ("linear", "mlp1")


@dataclass(frozen=True)
class Architecture:
    kind: str
    feature_dim: int
    hidden_units: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "linear" and self.hidden_units != 0:
            raise ValidationError(f"linear does not use hidden_units, got {self.hidden_units}")
        for name, least in (("feature_dim", 1), ("hidden_units", 1 if self.kind == "mlp1" else 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), least))

    @property
    def n_weights(self) -> int:
        d = self.feature_dim
        if self.kind == "linear":
            return d + 2
        h = self.hidden_units
        return (d + 1) * h + h + h + 1


@dataclass(frozen=True)
class PredictorParams:
    architecture: Architecture
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.architecture.n_weights:
            raise ValidationError(
                f"weight vector length {w.shape} does not match architecture "
                f"layout ({self.architecture.n_weights})"
            )
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must all be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def init_params(arch: Architecture, seed: int) -> PredictorParams:
    """Initial parameters: linear starts at zero; mlp1 draws hidden weights
    uniformly from [-s, s] with s = 1/sqrt(d+1) and zeroes the biases and the
    output layer. Deterministic in seed."""
    seed = _require_int("seed", seed, 0)
    w = np.zeros(arch.n_weights)
    if arch.kind == "mlp1":
        s = 1.0 / np.sqrt(arch.feature_dim + 1)
        W1, _, _, _ = _unpack_mlp1(arch, w)  # a view into w
        W1[:] = np.random.default_rng(seed).uniform(-s, s, size=W1.shape)
    return PredictorParams(arch, w)


def _unpack_linear(arch: Architecture, w: np.ndarray):
    d = arch.feature_dim
    return w[:d], w[d], w[d + 1]


def _unpack_mlp1(arch: Architecture, w: np.ndarray):
    d, h = arch.feature_dim, arch.hidden_units
    W1 = w[: (d + 1) * h].reshape(h, d + 1)
    b1 = w[(d + 1) * h : (d + 1) * h + h]
    w2 = w[(d + 1) * h + h : (d + 1) * h + 2 * h]
    b2 = w[-1]
    return W1, b1, w2, b2


def _inputs(arch: Architecture, X, what: str = "inputs") -> np.ndarray:
    """X as a float array, checked to be (n, d) for the architecture's d; `what` names X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.feature_dim:
        raise ValidationError(f"{what} must be (n, {arch.feature_dim}), got shape {X.shape}")
    return X


def predict(params: PredictorParams, x, z: float) -> float:
    """Forward pass for a single (x, z)."""
    x = np.asarray(x, dtype=float).ravel()
    return float(predict_batch(params, x[None, :], np.array([z]))[0])


def predict_batch(params: PredictorParams, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Predictions for paired rows: X (n, d) with actions Z (n,) -> (n,)."""
    X = _inputs(params.architecture, X)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != X.shape[:1]:
        raise ValidationError("Z must be (n,): one action per row of X")
    return _grid_pass(params.architecture, params.weights, X, Z[:, None])[0][:, 0]


def _row_blocks(m: int, n: int) -> list[slice]:
    """range(m) as min(n, m) contiguous slices (one if m is 0), their lengths within one."""
    n = max(1, min(n, m))
    return [slice(m * i // n, m * (i + 1) // n) for i in range(n)]


def _in_blocks(n: int, pool=None):
    """A pass runner: run(fn, m) calls fn(rows) on each of _row_blocks(m, n)
    and returns once every call has. This thread takes the first block and
    the pool the rest (one block needs no pool); an error in any block is
    raised here."""

    def run(fn, m):
        first, *rest = _row_blocks(m, n)
        futures = [pool.submit(fn, rows) for rows in rest]
        try:
            fn(first)
        finally:
            for future in futures:
                future.exception()  # waits: no block writes once run returns
        for future in futures:
            future.result()

    return run


_inline = _in_blocks(1)  # a single call's pass: one block, on this thread


@contextmanager
def _pass_runner(arch: Architecture):
    """The runner for a fit's model-profile passes: for mlp1, one block per
    usable CPU, over a thread pool that lives for the with-block only, so no
    thread outlives the fit or is shared across a fork. A linear fit forms
    no tensor and runs inline, and so does every predictive-loss pass: its
    (n, 1, h) tensor is too small for the hand-off to a thread to pay."""
    cpus = len(os.sched_getaffinity(0))
    if arch.kind == "linear" or cpus == 1:
        yield _inline
        return
    from concurrent.futures import ThreadPoolExecutor  # only here: it pulls in logging

    with ThreadPoolExecutor(max_workers=cpus - 1) as pool:
        yield _in_blocks(cpus, pool)


def _grid_pass(arch: Architecture, w: np.ndarray, X, Z, run=_inline):
    """One forward pass over the inputs X (m, d) and the actions Z, which
    broadcast against the rows of X: a (1, K) row crosses every input with
    every action, an (m, 1) column gives each input its own action.

    Returns (P, T): the (m, K) predictions and, for mlp1, the (m, K, h)
    hidden activations (None for linear), which _mlp1_grad backpropagates
    through. `run` runs the mlp1 pass's row blocks.
    """
    if arch.kind == "linear":
        w_x, w_z, b = _unpack_linear(arch, w)
        return (X @ w_x)[:, None] + w_z * Z + b, None
    W1, b1, w2, b2 = _unpack_mlp1(arch, w)
    d = arch.feature_dim
    # T[j, k, i] = tanh(Z[j, k] * W1[i, d] + (x_j . W1[i, :d] + b1[i]))
    inputs = (X @ W1[:, :d].T + b1)[:, None, :]  # (m, 1, h)
    actions = Z[..., None] * W1[:, d]  # (1, K, h) or (m, 1, h)
    m, K = len(X), Z.shape[1]
    T = np.empty((m, K, arch.hidden_units))
    P = np.empty((m, K))

    def block(rows):
        A = T[rows]
        # copy, then add in place: the same sums as inputs + actions, and
        # only the add broadcasts over h-long runs
        A[:] = actions if len(actions) == 1 else actions[rows]
        A += inputs[rows]
        np.tanh(A, out=A)
        np.matmul(A, w2, out=P[rows])
        P[rows] += b2

    run(block, m)
    return P, T


def predict_on_grid(
    params: PredictorParams, X: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Predictions for every input crossed with every action: (m, K)."""
    X = _inputs(params.architecture, X)
    points = np.asarray(points, dtype=float)
    return _grid_pass(params.architecture, params.weights, X, points[None, :])[0]


def loss_and_grad(
    params: PredictorParams,
    X: np.ndarray,
    Z: np.ndarray,
    Y: np.ndarray,
    weights: np.ndarray,
    problem: Problem,
) -> tuple[float, np.ndarray]:
    """Weighted squared-error loss and its exact gradient.

    loss = (1/n) sum_i weights_i * (h(x_i, z_i) - y_i)^2; grad is
    d(loss)/d(theta) over the flat weight vector. The loss is the same for
    every problem; `problem` is accepted so this call mirrors task_grad.
    """
    X = _inputs(params.architecture, X)
    Z = np.asarray(Z, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    n = Z.shape[0]
    if n == 0:
        raise ValidationError("batch must be non-empty")
    if not X.shape[0] == Y.shape[0] == weights.shape[0] == n:
        raise ValidationError("X, Z, Y and weights must have one entry per sample")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("sample weights must be finite and nonnegative")

    return _loss_and_grad(params.architecture, params.weights, X, Z, Y, weights)


def _loss_and_grad(arch: Architecture, w: np.ndarray, X, Z, Y, weights):
    n = Z.shape[0]
    P, T = _grid_pass(arch, w, X, Z[:, None])
    diff = P[:, 0] - Y
    loss = float(np.mean(weights * (diff * diff)))
    # c_i = (1/n) w_i dl/dy_hat_i; grad = sum_i c_i dy_hat_i/dtheta
    c = weights * (2.0 * diff) / n
    if arch.kind == "linear":
        return loss, _linear_task_grad(w, X, Z, c, c, c.sum())
    return loss, _mlp1_grad(arch, w, X, Z[:, None], T, c[:, None])


class _Moments(NamedTuple):
    """A linear model's full-batch predictive loss as a quadratic in its
    weights w: with A = [X, Z, 1] over n rows, G = A'A/n, h = A'Y/n and
    s = Y'Y/n, so loss = w'Gw - 2h'w + s and grad = 2(Gw - h)."""

    G: np.ndarray
    h: np.ndarray
    s: float


def _full_batch(arch: Architecture, X, Z, Y):
    """What a full-batch fit's predictive loss reads at every step: the
    _Moments of the rows for a linear model, formed here once, so no step
    reads the rows; the rows (X, Z, Y) themselves for any other model."""
    if arch.kind != "linear":
        return X, Z, Y
    A = np.column_stack([X, Z, np.ones_like(Z)])
    n = Z.shape[0]
    return _Moments(A.T @ A / n, A.T @ Y / n, float(Y @ Y) / n)


def _batch_loss_and_grad(arch: Architecture, w: np.ndarray, batch):
    """The predictive loss at unit sample weights and its gradient, at w, from
    a batch: _Moments, or rows (X, Z, Y) for _loss_and_grad."""
    if isinstance(batch, _Moments):
        Gw = batch.G @ w
        return float(w @ Gw - 2.0 * (batch.h @ w) + batch.s), 2.0 * (Gw - batch.h)
    return _loss_and_grad(arch, w, *batch, 1.0)


def task_grad(
    params: PredictorParams,
    X: np.ndarray,
    grid: ActionGrid,
    action_probs: np.ndarray,
    problem: Problem,
) -> tuple[float, np.ndarray]:
    """Expected model-implied task cost under `action_probs`, and its gradient.

    task_loss = sum_k p_k * gbar(z_k) with gbar(z) = (1/m) sum_j g(z, h(x_j, z)),
    over the actions z_k of the problem's grid; `grid` must be that grid.
    The probabilities are treated as constants; the gradient flows only through
    the predictions, using the problem's outcome-derivative of g (0 at kinks).
    """
    X = _inputs(params.architecture, X)
    if grid != problem.grid:
        raise ValidationError("grid must be the problem's grid")
    probs = _require_probs("action_probs", action_probs, grid)
    if X.shape[0] == 0:
        raise ValidationError("inputs must be non-empty")

    values, grad_at = _profile(params.architecture, params.weights, X, problem)
    return float(probs @ values), grad_at(probs)


def _profile(arch: Architecture, w: np.ndarray, X, problem: Problem, run=_inline):
    """The model cost profile at weights w over the problem's grid, and its task gradient.

    Returns (values, grad_at): values[k] = (1/m) sum_j task_cost(z_k, h(x_j, z_k)),
    and grad_at(probs) is the flat gradient of probs @ values with probs held
    fixed. A linear model takes the problem's separable kernel, P[j, k] =
    a[j] + c[k], and never forms the (m, K) matrices; mlp1 takes one grid
    pass, run by `run`, whose activations live as long as grad_at does.
    Call grad_at at most once per _profile call: for mlp1 it overwrites the
    activations it backpropagates through.
    """
    points = problem.grid.points
    if arch.kind == "linear":
        w_x, w_z, b = _unpack_linear(arch, w)
        values, gradient_sums = problem.separable_kernel(X @ w_x + b, w_z * points)
        return values, lambda probs: _linear_task_grad(w, X, points, *gradient_sums(probs))
    P, T = _grid_pass(arch, w, X, points[None, :], run)

    def grad_at(probs):  # backprop C = dg/dy * p_k / m, (m, K), through T
        C = (problem.task_cost_grad_y(points[None, :], P) * probs[None, :]) / X.shape[0]
        return _mlp1_grad(arch, w, X, points[None, :], T, C, run)

    return problem.task_cost(points[None, :], P).mean(axis=0), grad_at


def _linear_task_grad(w: np.ndarray, X, points, row, col, total):
    """Linear-model task gradient from the row sums, column sums and total of
    the (m, K) coefficient matrix C[j, k] = p_k * dg/dy(z_k, P[j, k]) / m;
    with the batch's actions as points and row = col = c, the predictive-loss gradient."""
    d = X.shape[1]
    grad = np.empty_like(w)
    grad[:d] = X.T @ row
    grad[d] = col @ points
    grad[d + 1] = total
    return grad


def _mlp1_grad(arch: Architecture, w: np.ndarray, X, Z, T, C, run=_inline):
    """Flat gradient of sum_jk C[j, k] * h(x_j, Z[j, k]) given the activations T
    of _grid_pass(arch, w, X, Z), which this overwrites in place with 1 - T*T,
    in the row blocks that `run` runs. The task term passes C = dg/dy * p_k / m,
    (m, K); the predictive loss passes C = c[:, None], (n, 1)."""
    grad = np.empty_like(w)
    gW1, gb1, gw2, _ = _unpack_mlp1(arch, grad)  # views into grad
    _, _, w2, _ = _unpack_mlp1(arch, w)
    d, h = arch.feature_dim, arch.hidden_units
    gw2[:] = C.ravel() @ T.reshape(-1, h)  # before any block overwrites T
    S = np.stack([C, C * Z], axis=1)  # (m, 2, K)
    M = np.empty((len(S), 2, h))

    def block(rows):
        # backprop through tanh: D = 1 - T*T, formed explicitly because
        # sum C - sum C*T*T cancels where |tanh| is near 1
        D = T[rows]
        np.subtract(1.0, np.multiply(D, D, out=D), out=D)
        # M[j, 0, i] = sum_k C[j, k] D[j, k, i]; M[j, 1, i] weighs the same sum by Z[j, k]
        np.matmul(S[rows], D, out=M[rows])

    run(block, len(S))
    gW1[:, :d] = w2[:, None] * (M[:, 0].T @ X)
    gb1[:], gW1[:, d] = w2 * M.sum(axis=0)  # b1, z column
    grad[-1] = C.sum()  # b2
    return grad


def save_checkpoint(params: PredictorParams, path) -> None:
    """Write the weights and the architecture's fields that load_checkpoint cannot default."""
    arch = params.architecture
    blob = {f.name: v for f in fields(arch) if (v := getattr(arch, f.name)) != f.default}
    text = json.dumps({"architecture": blob, "weights": list(params.weights)})
    _write_atomic(path, text + "\n")


def load_checkpoint(path) -> PredictorParams:
    """Read a checkpoint written by save_checkpoint, checked like a config: its
    architecture keys are Architecture's fields."""
    keys = {name: (required, _JSON_TYPES[t]) for name, required, t in _json_keys(Architecture)}
    raw = _read_json(path, {"architecture": (True, keys), "weights": (True, list)}, "checkpoint")
    blob = raw["architecture"]
    return PredictorParams(Architecture(**blob), np.asarray(raw["weights"], dtype=float))
