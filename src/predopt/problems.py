"""Synthetic decision worlds with known generative truth, plus their oracles.

A TrueModel defines the outcome process

    y = base_weights . x + intercept + e*z + q*e*z^2 + eps,

with x ~ N(0, feature_sd^2)^d and eps ~ N(0, noise_sd^2). The action enters
the outcome directly (elasticity e), optionally with curvature (q != 0), which
is what makes a linear predictor class misspecified. Historical actions come
from an explicit logging policy over the grid, because an action-conditioned
predictor is only identifiable if logged actions vary.

Each problem kind and logging policy is one entry of _KINDS or _POLICIES: the
builders, TrueModel, the oracles and the config schema all read those tables.
A kind also gives its cost as knots and slopes in the outcome, whose knots all
sort in one order over the actions (each a float, or just one knot), from
which one kernel (_bind_pieces) makes every Problem's separable kernel.

Oracles evaluate actions by Monte Carlo, with common random numbers across
actions. A world draw is one number, u = base_weights . x + intercept + eps,
the part of the outcome that does not depend on the action, so the outcome
of draw i at action z is u[i] + m(z) with m(z) = mean_outcome(model, 0, z).
That is separable like a linear model's prediction a[j] + c[k], so the
problem's kernel scans every action at once. The scan only picks the oracle
action; every reported oracle value is the mean of one dense cost_draws
pass, exact under a shared (seed, n_mc).

Every pass over the n_mc draws works in place: world_draws reduces the
features to u before it draws eps and adds eps into u, the kernel sorts and
sums in one (m + 1) array, and cost_draws writes the outcomes and then the
kind's cost into one array (a _KINDS cost takes the array to write into).
So beside u, the oracle scan holds one array of n_mc (the kernel's) and a
cost pass one, plus one temporary for a newsvendor cost.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .core import _NUMBER, ActionGrid, Dataset, Problem, ValidationError, _require_finite
from .core import _require_int

__all__ = [
    "TrueModel",
    "newsvendor_cost",
    "newsvendor_cost_grad_y",
    "pricing_cost",
    "pricing_cost_grad_y",
    "newsvendor_problem",
    "pricing_problem",
    "problem_from_model",
    "gen_dataset",
    "world_draws",
    "cost_draws",
    "oracle_expected_cost",
    "oracle_profile",
    "oracle_action",
]

@dataclass(frozen=True)
class TrueModel:
    """Ground-truth data-generating process for one synthetic world."""

    kind: str
    base_weights: tuple
    intercept: float
    action_effect: float
    nonlinearity: float
    noise_sd: float
    feature_sd: float
    cost_params: dict
    logging: dict

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown problem kind {self.kind!r}")
        for name in ("intercept", "action_effect", "nonlinearity", "noise_sd", "feature_sd"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if not self.noise_sd > 0:
            raise ValidationError(f"noise_sd must be > 0, got {self.noise_sd}")
        if not self.feature_sd > 0:
            raise ValidationError(f"feature_sd must be > 0, got {self.feature_sd}")
        weights = enumerate(self.base_weights)
        bw = tuple(_require_finite(f"base_weights[{i}]", v) for i, v in weights)
        if len(bw) < 1:
            raise ValidationError("base_weights must have at least one entry")
        object.__setattr__(self, "base_weights", bw)
        object.__setattr__(self, "cost_params", dict(self.cost_params))
        _check_params(
            self.cost_params, _KINDS[self.kind], "cost_params", self.kind, "cost_params key"
        )
        object.__setattr__(self, "logging", dict(self.logging))
        params = dict(self.logging)
        policy = params.pop("policy", None)
        if not isinstance(policy, str) or policy not in _POLICIES:
            raise ValidationError(f"unknown logging policy {policy!r}")
        _check_params(params, _POLICIES[policy], "logging", f"{policy} logging", "key")

    @property
    def feature_dim(self) -> int:
        return len(self.base_weights)


def newsvendor_cost(z, y, c_h: float, c_s: float):
    """Holding cost on leftover stock plus shortage cost on unmet outcome."""
    return _new_cost(_newsvendor_cost, z, y, c_h=c_h, c_s=c_s)


def _newsvendor_cost(out, z, y, c_h: float, c_s: float):
    """newsvendor_cost written into `out`, which may be y itself; one temporary."""
    short = np.subtract(y, z, out=np.empty_like(out))  # before out, maybe y, is overwritten
    np.maximum(short, 0.0, out=short)
    short *= c_s
    np.subtract(z, y, out=out)
    np.maximum(out, 0.0, out=out)
    out *= c_h
    out += short  # hold + short
    return out


def newsvendor_cost_grad_y(z, y, c_h: float, c_s: float):
    """d(newsvendor_cost)/dy; 0 exactly at the kink y == z."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.where(y > z, c_s, 0.0) + np.where(y < z, -c_h, 0.0)


def pricing_cost(z, y, capacity: float):
    """Negative revenue at price z: sales are the outcome clamped to [0, capacity]."""
    return _new_cost(_pricing_cost, z, y, capacity=capacity)


def _pricing_cost(out, z, y, capacity: float):
    """pricing_cost written into `out`, which may be y itself; no temporary."""
    np.clip(y, 0.0, capacity, out=out)
    return np.multiply(-z, out, out=out)


def _new_cost(body, z, y, **cost_params):
    """The cost `body` (a _KINDS cost) of actions z at outcomes y, in a new
    array of their broadcast shape; a scalar when both are scalars."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return body(np.empty(np.broadcast_shapes(z.shape, y.shape)), z, y, **cost_params)[()]


def pricing_cost_grad_y(z, y, capacity: float):
    """d(pricing_cost)/dy; 0 outside (0, capacity) and exactly at the clamps."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < capacity), -z, 0.0)


def _bind_pieces(knots, slopes, value):
    """The separable kernel (core.Problem.separable_kernel) on one grid of a cost
    continuous and piecewise linear in the outcome: knots[r], ascending in r, at
    least one; slopes[p] on piece p, from knots[p - 1] (or -inf) to knots[p] (or
    +inf); `value`, the cost at knots[0]. Each is a float or one per action, but
    the knots share one order over the actions: all are floats, or there is one.

    For predictions a[j] + c[k], the knots in a are T[r] = knots[r] - c. An input
    strictly inside piece p costs the cost at knot max(p - 1, 0), its anchor,
    plus slopes[p] * (a[j] - T[anchor]); one on a knot costs that knot's cost and
    adds exactly 0 to the gradient. One sort of a, one argsort of the actions,
    searchsorted and prefix sums: O((m + K) log m), one (m + 1) array, no (m, K)
    array, `a` left as it was. Pieces of slope 0 and knots of cost 0 are skipped,
    and the probabilities are summed once when no slope depends on the action.
    """
    top = len(knots)  # the last piece
    shared = all(np.ndim(b) == 0 for b in knots)  # then every T[r] sorts like -c
    if not (shared or top == 1):
        raise ValidationError("knots must share one action order: every knot a float, or one knot")
    slopes = [s if np.ndim(s) else float(s) for s in slopes]  # an int slope sums as a float
    rises = (slopes[r] * (knots[r] - knots[r - 1]) for r in range(1, top))
    live = [p for p in range(top + 1) if np.any(slopes[p])] or [0]  # a zero cost keeps one
    # knot r's cost goes to the inputs in [T[r], T[r + 1]), knot 0's to those below T[1]
    flat = [(r, cost) for r, cost in enumerate(accumulate(rises, initial=value)) if np.any(cost)]
    counted = {(p - 1, "right") for p in live if p} | {(p, "left") for p in live}
    counted |= {(r, "left") for r, _ in flat if r} | {(r + 1, "left") for r, _ in flat}
    one_mass = all(np.ndim(s) == 0 for s in slopes)

    def kernel(a, c):
        m = a.shape[0]
        prefix = np.empty(m + 1)
        prefix[0] = 0.0
        a_sorted = prefix[1:]
        a_sorted[...] = a
        a_sorted.sort()
        T = [b - c for b in knots]
        # n[r, "left"]: the inputs with a[j] < T[r]; n[r, "right"]: with a[j] <= T[r]
        n = {(r, side): a_sorted.searchsorted(T[r], side) for r, side in counted if r < top}
        n[-1, "right"], n[top, "left"] = 0, m  # piece 0 starts at the first input
        a_sorted.cumsum(out=a_sorted)  # now prefix[i] is the sum of the i smallest
        terms, inside = [], []  # inside: the inputs strictly inside each live piece
        for p in live:
            lo, hi = n[p - 1, "right"], n[p, "left"]
            inside.append(hi - lo)
            term = prefix[hi] - prefix[lo]  # a new array: the rest in place
            term -= inside[-1] * T[max(p - 1, 0)]
            term *= slopes[p]
            terms.append(term)
        terms += [cost * (n[r + 1, "left"] - (n[r, "left"] if r else 0)) for r, cost in flat]
        values = sum(terms[1:], terms[0]) / m  # terms[0] + terms[1] + ...

        def gradient_sums(probs):
            order = (-c if shared else T[0]).argsort(kind="stable")  # sorts every T[r]
            T_sorted = [t[order] for t in T]
            # one prefix sum per weight, from 0 as prefix is: of the probabilities, which
            # serves every piece when no slope depends on the action, else of each slope's
            weights = [probs] if one_mass else [slopes[p] * probs for p in live]
            cums = [np.concatenate(([0.0], w[order].cumsum())) for w in weights]
            rows = []
            for p, cum in zip(live, cums * len(live) if one_mass else cums):
                # the weight of actions with T[p - 1] < a[j], less those with T[p] <= a[j]
                held = cum[T_sorted[p - 1].searchsorted(a, "left")] if p else cum[-1]
                if p < top:
                    held = held - cum[T_sorted[p].searchsorted(a, "right")]
                rows.append(slopes[p] * held if one_mass else held)
            per_action = [slopes[p] * count for p, count in zip(live, inside)]
            col = probs * sum(per_action[1:], per_action[0]) / m
            return sum(rows[1:], rows[0]) / m, col, col.sum()

        return values, gradient_sums

    return kernel


# A problem kind: its cost_params keys, their condition (a predicate, and its text as the
# error states it), its cost (written into a given array: cost(out, z, y, **cost_params)),
# the cost's outcome derivative, and its pieces(z, **cost_params): the cost at actions z
# as knots, slopes and the cost at knots[0] in the outcome, for _bind_pieces.
_Kind = namedtuple("_Kind", "keys ok needs cost grad_y pieces")
# A logging policy: its keys besides `policy`, their condition, its grid weights.
_Policy = namedtuple("_Policy", "keys ok needs weights")
_KINDS = {
    "newsvendor": _Kind(
        ("c_h", "c_s"), lambda c_h, c_s: c_h >= 0 and c_s >= 0 and c_h + c_s > 0,
        "cost_params {c_h >= 0, c_s >= 0, c_h + c_s > 0}",
        _newsvendor_cost, newsvendor_cost_grad_y,
        # one knot, at the action: holding cost below it, shortage cost above
        lambda z, c_h, c_s: ((z,), (-c_h, c_s), 0.0),
    ),
    "pricing": _Kind(
        ("capacity",), lambda capacity: capacity > 0, "cost_params {capacity > 0}",
        _pricing_cost, pricing_cost_grad_y,
        # knots where sales start and where they reach the capacity; each sale earns z
        lambda z, capacity: ((0.0, capacity), (0.0, -z, 0.0), 0.0),
    ),
}
_POLICIES = {
    "uniform": _Policy((), lambda: True, "", np.ones_like),
    "biased": _Policy(
        ("center", "width"), lambda center, width: width > 0, "center and width > 0",
        lambda points, center, width: np.maximum(0.0, 1.0 - np.abs(points - center) / width),
    ),
}
# The config schema (core._read_json) of cost_params and logging: every entry's keys
_PARAM_SCHEMAS = {
    "cost_params": {key: (False, _NUMBER) for kind in _KINDS.values() for key in kind.keys},
    "logging": {"policy": (True, str)}
    | {key: (False, _NUMBER) for policy in _POLICIES.values() for key in policy.keys},
}


def _check_params(params: dict, entry, field: str, subject: str, key_noun: str) -> None:
    """Raise a ValidationError unless `params` holds only keys of table `entry`, each
    finite, that meet its condition; `field`, `subject` and `key_noun` word the errors."""
    for key, value in params.items():
        if key not in entry.keys:
            raise ValidationError(f"{subject} does not use {key_noun} {key!r}")
        _require_finite(f"{field}[{key!r}]", value)
    if not (set(entry.keys) <= params.keys() and entry.ok(**params)):
        raise ValidationError(f"{subject} needs {entry.needs}")


def _problem(kind: str, grid: ActionGrid, cost_params: dict) -> Problem:
    """The Problem of `kind` on `grid`; its cost_params are checked as TrueModel checks them."""
    entry = _KINDS[kind]
    _check_params(cost_params, entry, "cost_params", kind, "cost_params key")
    return Problem(
        grid=grid,
        task_cost=partial(_new_cost, entry.cost, **cost_params),
        name=kind,
        task_cost_grad_y=partial(entry.grad_y, **cost_params),
        separable_kernel=_bind_pieces(*entry.pieces(grid.points, **cost_params)),
    )


def newsvendor_problem(grid: ActionGrid, c_h: float, c_s: float) -> Problem:
    return _problem("newsvendor", grid, {"c_h": c_h, "c_s": c_s})


def pricing_problem(grid: ActionGrid, capacity: float) -> Problem:
    return _problem("pricing", grid, {"capacity": capacity})


def problem_from_model(model: TrueModel, grid: ActionGrid) -> Problem:
    return _problem(model.kind, grid, model.cost_params)


def mean_outcome(model: TrueModel, base, z):
    """Noise-free outcome given the feature part `base = X . w + intercept`."""
    e, q = model.action_effect, model.nonlinearity
    z = np.asarray(z, dtype=float)
    return base + e * z + q * e * z * z


def _logging_probs(model: TrueModel, grid: ActionGrid) -> np.ndarray:
    params = dict(model.logging)
    w = _POLICIES[params.pop("policy")].weights(grid.points, **params)
    if w.sum() <= 0:
        raise ValidationError(
            "biased logging puts no mass on the grid; widen it or move the center"
        )
    return w / w.sum()


def gen_dataset(model: TrueModel, n: int, grid: ActionGrid, seed: int) -> Dataset:
    """Draw n samples under the logging policy; deterministic in seed."""
    n = _require_int("n", n, 1)
    rng = np.random.default_rng(seed)
    d = model.feature_dim
    X = rng.normal(0.0, model.feature_sd, size=(n, d))
    idx = rng.choice(grid.n_points, size=n, p=_logging_probs(model, grid))
    z = grid.points[idx]
    eps = rng.normal(0.0, model.noise_sd, size=n)
    base = X @ np.asarray(model.base_weights) + model.intercept
    y = mean_outcome(model, base, z) + eps
    return Dataset(X=X, z_obs=z, y=y)


def world_draws(model: TrueModel, n_mc: int, seed: int) -> np.ndarray:
    """Fresh world draws for counterfactual evaluation: the action-free part of
    the outcome, u = X . w + intercept + eps, one value per draw."""
    n_mc = _require_int("n_mc", n_mc, 1)
    rng = np.random.default_rng(seed)
    # reduced to u before the noise is drawn: features and noise are never held at once
    u = rng.normal(0.0, model.feature_sd, size=(n_mc, model.feature_dim))
    u = u @ np.asarray(model.base_weights)
    u += model.intercept
    u += rng.normal(0.0, model.noise_sd, size=n_mc)
    return u


def cost_draws(model: TrueModel, z: float, u: np.ndarray) -> np.ndarray:
    """Per-draw cost of action z under the shared world draws u (one value per
    draw), computed in the one array that holds the outcomes u + m(z)."""
    y = u + mean_outcome(model, 0.0, z)
    return _KINDS[model.kind].cost(y, z, y, **model.cost_params)


def oracle_expected_cost(model: TrueModel, z: float, n_mc: int, seed: int) -> float:
    """Monte Carlo estimate of the true expected cost of action z.

    Counterfactual: outcomes are generated under the queried z, not under any
    logged action. Deterministic in seed.
    """
    return float(cost_draws(model, z, world_draws(model, n_mc, seed)).mean())


def oracle_profile(model: TrueModel, grid: ActionGrid, u: np.ndarray) -> np.ndarray:
    """Mean cost of every grid action under the shared world draws u.

    The outcome of draw i at action z is u[i] + mean_outcome(model, 0, z),
    separable like a linear model's prediction, so the problem's separable
    kernel scans every action at once. Its sums run in another order than
    cost_draws(...).mean(), so values agree with oracle_expected_cost up to
    rounding; they do not depend on the order of the draws.
    """
    kernel = problem_from_model(model, grid).separable_kernel
    return kernel(u, mean_outcome(model, 0.0, grid.points))[0]


def _oracle_cost_draws(model: TrueModel, grid: ActionGrid, u: np.ndarray):
    """The grid action with the smallest oracle_profile value under the world
    draws u, and its per-draw costs, from which every reported oracle value
    is taken."""
    action = grid.best(oracle_profile(model, grid, u))[0]
    return action, cost_draws(model, action, u)


def oracle_action(
    model: TrueModel, grid: ActionGrid, n_mc: int, seed: int
) -> tuple[float, float]:
    """Grid action with the smallest oracle_profile value, and its
    oracle_expected_cost at the same (n_mc, seed).

    Exactly reproducible in (seed, n_mc). Ties break toward the smallest
    action.
    """
    action, costs = _oracle_cost_draws(model, grid, world_draws(model, n_mc, seed))
    return action, float(costs.mean())
