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
A kind states its cost once, as knots and slopes in the outcome (its pieces),
from which a Problem derives the dense cost (_cost), its outcome derivative
(_cost_grad_y) and, through one kernel (_bind_pieces), its separable kernel.

Oracles evaluate actions by Monte Carlo, with common random numbers across
actions. A world draw is one number, u = base_weights . x + intercept + eps,
the part of the outcome that does not depend on the action, so the outcome
of draw i at action z is u[i] + m(z) with m(z) = mean_outcome(model, 0, z).
That is separable like a linear model's prediction a[j] + c[k], so the
problem's kernel scans every action at once. The scan only picks the oracle
action; every reported oracle value is the mean of one dense cost_draws
pass, exact under a shared (seed, n_mc).

Every pass over the n_mc draws works in place, a block of _BLOCK rows at a
time where it can: world_draws reduces each block of features to X . w
in one scratch block before it draws eps there and adds it into u (given a
larger scratch, _draw_world takes larger blocks), the kernel sorts and sums
in one (m + 1) array, and cost_draws writes the outcomes and then the kind's
cost (_cost) into one array, block by block where the cost needs a temporary
(newsvendor's), else in one pass. So beside u, the oracle scan holds
one array of n_mc (the kernel's) and a cost pass one, plus one block, for
every kind and feature count. The oracle (_oracle) can take one array of
n_mc + 1 from its caller for both, as `out` of each.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np

from .core import _NUMBER, ActionGrid, Dataset, ValidationError, _require_finite, _require_int

__all__ = [
    "TrueModel",
    "Problem",
    "newsvendor_cost",
    "newsvendor_cost_grad_y",
    "pricing_cost",
    "pricing_cost_grad_y",
    "newsvendor_problem",
    "problem_from_model",
    "gen_dataset",
    "world_draws",
    "cost_draws",
    "oracle_expected_cost",
    "oracle_action",
]

_BLOCK = 65_536  # rows per block of a pass over the Monte Carlo draws


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
    cost_params: dict = field(hash=False)  # dicts: compared, but left out of the hash
    logging: dict = field(hash=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown problem kind {self.kind!r}")
        for name in ("intercept", "action_effect", "nonlinearity"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("noise_sd", "feature_sd"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name), above=0))
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
    return _cost(_KINDS["newsvendor"].pieces, z, y, c_h=c_h, c_s=c_s)


def newsvendor_cost_grad_y(z, y, c_h: float, c_s: float):
    """d(newsvendor_cost)/dy; 0 exactly at the kink y == z."""
    return _cost_grad_y(_KINDS["newsvendor"].pieces, z, y, c_h=c_h, c_s=c_s)


def pricing_cost(z, y, capacity: float):
    """Negative revenue at price z: sales are the outcome clamped to [0, capacity]."""
    return _cost(_KINDS["pricing"].pieces, z, y, capacity=capacity)


def pricing_cost_grad_y(z, y, capacity: float):
    """d(pricing_cost)/dy; 0 outside (0, capacity) and exactly at the clamps."""
    return _cost_grad_y(_KINDS["pricing"].pieces, z, y, capacity=capacity)


@dataclass(frozen=True)
class Problem:
    """One decision task: an action grid and its cost, stated once as pieces.

    pieces(z) gives the cost at actions z as (knots, slopes, value), continuous
    and piecewise linear in the outcome: knots ascending and sharing one order
    over the actions (each a float, or just one knot), slopes[p] between
    knots[p - 1] and knots[p] (unbounded at the ends), value the cost at
    knots[0]. No other cost can be built, not even for an mlp1 fit, which reads
    only the dense cost. The broadcast task_cost(z, y), its outcome derivative
    task_cost_grad_y(z, y), 0 at a knot, and separable_kernel, bound to the
    grid, all read them. For outcomes P[j, k] = a[j] + c[k] (a linear model's, a
    TrueModel's) separable_kernel(a, c[, out]) gives, without (m, K) matrices,
    values[k], the mean of task_cost(z[k], P[:, k]), and gradient_sums(probs),
    the row sums, column sums and total of task_cost_grad_y(z[k], P[j, k]) *
    probs[k] / m. An `out` of m + 1 floats takes its sort and sums.
    """

    grid: ActionGrid
    pieces: Callable
    name: str = "problem"
    separable_kernel: Callable = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "separable_kernel", _bind_pieces(*self.pieces(self.grid.points)))

    def task_cost(self, z, y):
        return _cost(self.pieces, z, y)

    def task_cost_grad_y(self, z, y):
        return _cost_grad_y(self.pieces, z, y)


def _live(slopes, signed=False):
    """The pieces with a slope not 0, or [0]; -0.0 too if `signed`, as it signs dense zeros."""
    return [p for p, s in enumerate(slopes) if np.any(s) or signed and np.signbit(s).any()] or [0]


def _cost(pieces, z, y, out=None, **cost_params):
    """The cost of actions z at outcomes y from pieces(z, **cost_params), in `out`
    (it may be y) or a new array, a scalar for scalars. Piece 0 adds -slopes[0] *
    max(knots[0] - y, 0), piece p > 0 slopes[p] * clip(y - knots[p - 1], 0,
    knots[p] - knots[p - 1]), the last in `out` and each other in a temporary,
    and knots and values of 0 are skipped: newsvendor's c_h * max(z - y, 0) +
    c_s * max(y - z, 0) and pricing's -z * clip(y, 0, capacity), bits and passes."""
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    knots, slopes, value = pieces(z, **cost_params)
    out = np.empty(np.broadcast_shapes(z.shape, y.shape)) if out is None else out
    live = _live(slopes, signed=True)
    terms = [np.empty_like(out) for _ in live[1:]] + [out]  # y is read before out is written
    for p, term in zip(live, terms):
        distance = y  # from the piece's knot, into the piece
        if not p:
            distance = np.subtract(knots[0], y, out=term)
        elif np.count_nonzero(knots[p - 1]):
            distance = np.subtract(y, knots[p - 1], out=term)
        np.clip(distance, 0.0, knots[p] - knots[p - 1] if 0 < p < len(knots) else None, out=term)
        term *= slopes[p] if p else -slopes[0]
    for term in terms[:-1]:
        out += term
    if np.count_nonzero(value):
        out += value
    return out[()]


def _cost_grad_y(pieces, z, y, **cost_params):
    """d(cost)/dy of actions z at outcomes y from pieces(z, **cost_params), a scalar for
    scalars: the slope of the piece that holds y strictly, 0 on a knot, signed as np.where."""
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    knots, slopes, _ = pieces(z, **cost_params)
    shape = np.broadcast_shapes(z.shape, y.shape)
    grad = None
    for p in _live(slopes, signed=True):
        inside = y > knots[p - 1] if p else y < knots[0]
        if 0 < p < len(knots):
            inside &= y < knots[p]
        term = np.where(np.broadcast_to(inside, shape), slopes[p], 0.0)  # each in one shape
        grad = term if grad is None else np.add(grad, term, out=grad)  # no third array
    return grad[()]


def _bind_pieces(knots, slopes, value):
    """The separable kernel (Problem.separable_kernel) of pieces (knots, slopes,
    value) on one grid, whose knots share one order over the actions: all are
    floats, or there is one.

    For predictions a[j] + c[k], the knots in a are T[r] = knots[r] - c. An input
    strictly inside piece p costs the cost at knot max(p - 1, 0), its anchor,
    plus slopes[p] * (a[j] - T[anchor]); one on a knot costs that knot's cost and
    adds exactly 0 to the gradient. One sort of a, one argsort of the actions,
    searchsorted and prefix sums: O((m + K) log m), one (m + 1) array (`out`, if
    given), no (m, K) array, `a` left as it was. Pieces of slope 0, knots of cost
    0 and searches no sum reads are skipped, and the probabilities are summed
    once when no slope depends on the action.
    """
    top = len(knots)  # the last piece
    shared = all(np.ndim(b) == 0 for b in knots)  # then every T[r] sorts like -c
    if not (shared or top == 1):
        raise ValidationError("knots must share one action order: every knot a float, or one knot")
    slopes = [s if np.ndim(s) else float(s) for s in slopes]  # an int slope sums as a float
    rises = (slopes[r] * (knots[r] - knots[r - 1]) for r in range(1, top))
    live = _live(slopes)
    # knot r's cost goes to the inputs in [T[r], T[r + 1]), knot 0's to those below T[1]
    flat = [(r, cost) for r, cost in enumerate(accumulate(rises, initial=value)) if np.any(cost)]
    one_mass = all(np.ndim(s) == 0 for s in slopes)
    # the searches the sums read, no others: below[top] is m, upto[-1] is 0, and a flat
    # cost reads below[r] and below[r + 1], with below[0] as 0
    read_below = {p for p in live if p < top}
    read_below |= {q for r, _ in flat for q in (r, r + 1) if 0 < q < top}
    read_upto = {p - 1 for p in live if p}

    def kernel(a, c, out=None):
        m = a.shape[0]
        prefix = np.empty(m + 1) if out is None else out
        prefix[0] = 0.0
        a_sorted = prefix[1:]
        a_sorted[...] = a
        a_sorted.sort()
        T = [b - c for b in knots]
        # the inputs with a[j] < T[r], m at r = top, and with a[j] <= T[r], 0 at r = -1
        below = {r: a_sorted.searchsorted(T[r], "left") for r in read_below} | {top: m}
        upto = {r: a_sorted.searchsorted(T[r], "right") for r in read_upto} | {-1: 0}
        a_sorted.cumsum(out=a_sorted)  # now prefix[i] is the sum of the i smallest
        terms, inside = [], []  # inside: the inputs strictly inside each live piece
        for p in live:
            lo, hi = upto[p - 1], below[p]
            inside.append(hi - lo)
            term = prefix[hi] - prefix[lo]  # a new array: the rest in place
            term -= inside[-1] * T[max(p - 1, 0)]
            term *= slopes[p]
            terms.append(term)
        terms += [cost * (below[r + 1] - (below[r] if r else 0)) for r, cost in flat]
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
# error states it), and its pieces(z, **cost_params), the one statement of its cost.
_Kind = namedtuple("_Kind", "keys ok needs pieces")
# A logging policy: its keys besides `policy`, their condition, its grid weights.
_Policy = namedtuple("_Policy", "keys ok needs weights")
_KINDS = {
    "newsvendor": _Kind(
        ("c_h", "c_s"), lambda c_h, c_s: c_h >= 0 and c_s >= 0 and c_h + c_s > 0,
        "cost_params {c_h >= 0, c_s >= 0, c_h + c_s > 0}",
        # one knot, at the action: holding cost below it, shortage cost above
        lambda z, c_h, c_s: ((z,), (-c_h, c_s), 0.0),
    ),
    "pricing": _Kind(
        ("capacity",), lambda capacity: capacity > 0, "cost_params {capacity > 0}",
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
    _check_params(cost_params, _KINDS[kind], "cost_params", kind, "cost_params key")
    return Problem(grid, partial(_KINDS[kind].pieces, **cost_params), kind)


def newsvendor_problem(grid: ActionGrid, c_h: float, c_s: float) -> Problem:
    return _problem("newsvendor", grid, {"c_h": c_h, "c_s": c_s})


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
    rng = np.random.default_rng(_require_int("seed", seed, 0))
    d = model.feature_dim
    X = rng.normal(0.0, model.feature_sd, size=(n, d))
    idx = rng.choice(grid.n_points, size=n, p=_logging_probs(model, grid))
    z = grid.points[idx]
    eps = rng.normal(0.0, model.noise_sd, size=n)
    base = _dot(X.copy(), model.base_weights, np.empty(n))
    base += model.intercept
    y = mean_outcome(model, base, z) + eps
    return Dataset(X=X, z_obs=z, y=y)


def _dot(X: np.ndarray, weights, out: np.ndarray) -> np.ndarray:
    """X . weights into out, summed column by column in order, so a world or a
    dataset depends on the model and the seed alone: a BLAS product rounds by
    row and thread counts. X's later columns are scaled in place."""
    np.multiply(X[:, 0], weights[0], out=out)
    for j in range(1, len(weights)):
        out += np.multiply(X[:, j], weights[j], out=X[:, j])
    return out


def _blocks(n: int, size: int = _BLOCK):
    """Row slices that cover range(n) in order, each of `size` rows but the last."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def world_draws(model: TrueModel, n_mc: int, seed: int) -> np.ndarray:
    """Fresh world draws for counterfactual evaluation: the action-free part of
    the outcome, u = X . w + intercept + eps, one value per draw."""
    n_mc, seed = _require_int("n_mc", n_mc, 1), _require_int("seed", seed, 0)
    scratch = np.empty(min(n_mc, _BLOCK) * model.feature_dim)
    return _draw_world(np.empty(n_mc), scratch, model, seed)


def _normal(rng: np.random.Generator, sd: float, out: np.ndarray) -> np.ndarray:
    """rng.normal(0.0, sd, out.shape), written into out: the same draws of the
    stream, and the bits of its 0.0 + sd * z."""
    rng.standard_normal(out=out)
    out *= sd
    out += 0.0
    return out


def _draw_world(u: np.ndarray, scratch: np.ndarray, model: TrueModel, seed: int) -> np.ndarray:
    """world_draws(model, len(u), seed), written into u and returned: its bits,
    for a seed already checked. The draws are made in `scratch`, of at least
    feature_dim floats, as many at a time as it holds: the features in blocks
    of len(scratch) // feature_dim rows, the noise in blocks of len(scratch).
    So a scratch of n_mc floats takes a handful of numpy calls where one block
    takes several per block, and each call can wait for the GIL when the draws
    run on a thread."""
    rng = np.random.default_rng(seed)
    d = model.feature_dim
    # every feature block, then every noise block: the stream's order of one draw of each
    for rows in _blocks(len(u), len(scratch) // d):
        x = scratch[: (rows.stop - rows.start) * d].reshape(-1, d)
        _dot(_normal(rng, model.feature_sd, x), model.base_weights, u[rows])
    u += model.intercept
    for rows in _blocks(len(u), len(scratch)):
        u[rows] += _normal(rng, model.noise_sd, scratch[: rows.stop - rows.start])
    return u


def cost_draws(model: TrueModel, z: float, u: np.ndarray, out=None) -> np.ndarray:
    """Per-draw cost of action z under the shared world draws u (one value per
    draw), computed in the one array that holds the outcomes u + m(z): `out`,
    of len(u) floats, if given, else a new one. A cost with temporaries (of
    several live pieces) is computed block by block, each temporary one block;
    one without takes one pass, so fewer numpy calls wait for the GIL."""
    z = _require_finite("z", z)
    pieces, params = _KINDS[model.kind].pieces, model.cost_params
    shift = mean_outcome(model, 0.0, z)
    out = np.empty_like(u, dtype=float) if out is None else out
    single = len(_live(pieces(z, **params)[1], signed=True)) == 1  # then _cost has no temporary
    for rows in [...] if single else _blocks(len(out)):  # [...]: every row at once
        y = np.add(u[rows], shift, out=out[rows])
        _cost(pieces, z, y, y, **params)
    return out


def oracle_expected_cost(model: TrueModel, z: float, n_mc: int, seed: int) -> float:
    """Monte Carlo estimate of the true expected cost of action z.

    Counterfactual: outcomes are generated under the queried z, not under any
    logged action. Deterministic in seed.
    """
    z = _require_finite("z", z)
    return float(cost_draws(model, z, world_draws(model, n_mc, seed)).mean())


def _oracle(model: TrueModel, problem: Problem, u: np.ndarray, work=None) -> tuple[float, float]:
    """The grid action of the smallest mean cost under the world draws u, and
    the mean of its per-draw costs, from which every reported oracle value is
    taken; `problem` is the model's. The outcome of draw i at action z is
    u[i] + mean_outcome(model, 0, z), separable like a linear model's
    prediction, so the problem's kernel scans every action at once (its sums,
    in another order than cost_draws(...).mean(), do not depend on the order
    of the draws). The scan, then the costs, are written into one working
    array of len(u) + 1 floats: `work`, if given, else a new one."""
    work = np.empty(len(u) + 1) if work is None else work
    shifts = mean_outcome(model, 0.0, problem.grid.points)
    action = problem.grid.best(problem.separable_kernel(u, shifts, work)[0])[0]
    return action, float(cost_draws(model, action, u, work[:-1]).mean())


def oracle_action(
    model: TrueModel, grid: ActionGrid, n_mc: int, seed: int
) -> tuple[float, float]:
    """Grid action with the smallest Monte Carlo mean cost, and its
    oracle_expected_cost at the same (n_mc, seed).

    Exactly reproducible in (seed, n_mc). Ties break toward the smallest
    action.
    """
    return _oracle(model, problem_from_model(model, grid), world_draws(model, n_mc, seed))
