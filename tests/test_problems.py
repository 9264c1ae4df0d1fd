import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predopt.core import ValidationError, make_grid, save_dataset_csv
from predopt.objective import empirical_profile, model_profile
from predopt.predictor import Architecture, PredictorParams, _grid_pass, task_grad
from predopt.problems import (
    _BLOCK,
    _KINDS,
    TrueModel,
    _bind_pieces,
    _draw_world,
    _oracle,
    _problem,
    cost_draws,
    gen_dataset,
    mean_outcome,
    newsvendor_cost,
    newsvendor_cost_grad_y,
    newsvendor_problem,
    oracle_action,
    oracle_expected_cost,
    pricing_cost,
    pricing_cost_grad_y,
    problem_from_model,
    world_draws,
)

ROOT = Path(__file__).resolve().parent.parent


def _newsvendor_world(**overrides):
    kwargs = dict(
        kind="newsvendor",
        base_weights=(0.0,),
        intercept=10.0,
        action_effect=0.0,
        nonlinearity=0.0,
        noise_sd=2.0,
        feature_sd=1.0,
        cost_params={"c_h": 1.0, "c_s": 3.0},
        logging={"policy": "uniform"},
    )
    kwargs.update(overrides)
    return TrueModel(**kwargs)


# --- cost functions ---------------------------------------------------------


def test_newsvendor_cost_zero_at_match():
    assert newsvendor_cost(5.0, 5.0, 1.0, 3.0) == 0.0


def test_newsvendor_cost_overstock():
    assert newsvendor_cost(8.0, 5.0, c_h=1.0, c_s=3.0) == 3.0


def test_newsvendor_cost_understock():
    assert newsvendor_cost(5.0, 8.0, c_h=1.0, c_s=3.0) == 9.0


def test_newsvendor_grad_sign_convention():
    assert newsvendor_cost_grad_y(5.0, 8.0, 1.0, 3.0) == 3.0
    assert newsvendor_cost_grad_y(8.0, 5.0, 1.0, 3.0) == -1.0
    assert newsvendor_cost_grad_y(5.0, 5.0, 1.0, 3.0) == 0.0  # kink convention


def test_pricing_cost_values():
    assert pricing_cost(3.0, -1.0, capacity=4.0) == 0.0
    assert pricing_cost(2.0, 10.0, capacity=4.0) == -8.0
    assert pricing_cost(0.0, 10.0, capacity=4.0) == 0.0


def test_pricing_grad_clamps():
    assert pricing_cost_grad_y(2.0, 1.0, capacity=4.0) == -2.0
    assert pricing_cost_grad_y(2.0, 9.0, capacity=4.0) == 0.0
    assert pricing_cost_grad_y(2.0, 0.0, capacity=4.0) == 0.0
    assert pricing_cost_grad_y(2.0, 4.0, capacity=4.0) == 0.0


# --- model validation and serialization --------------------------------------


def test_true_model_rejects_an_unknown_or_unhashable_kind():
    for kind in ("retail", ["pricing"]):
        with pytest.raises(ValidationError, match="unknown problem kind"):
            _newsvendor_world(kind=kind)


def test_true_model_rejects_bad_costs():
    with pytest.raises(ValidationError):
        _newsvendor_world(cost_params={"c_h": 0.0, "c_s": 0.0})
    with pytest.raises(ValidationError):
        TrueModel(
            kind="pricing",
            base_weights=(1.0,),
            intercept=5.0,
            action_effect=-1.0,
            nonlinearity=0.0,
            noise_sd=1.0,
            feature_sd=1.0,
            cost_params={"capacity": 0.0},
            logging={"policy": "uniform"},
        )


NEWSVENDOR_NEEDS = "newsvendor needs cost_params {c_h >= 0, c_s >= 0, c_h + c_s > 0}"


@pytest.mark.parametrize(
    "kind, cost_params, message",
    [
        ("newsvendor", {"c_h": -1.0, "c_s": 3.0}, NEWSVENDOR_NEEDS),
        ("newsvendor", {"c_h": -1.0, "c_s": -3.0}, NEWSVENDOR_NEEDS),
        ("newsvendor", {"c_h": 0.0, "c_s": 0.0}, NEWSVENDOR_NEEDS),
        ("pricing", {"capacity": 0}, "pricing needs cost_params {capacity > 0}"),
        ("pricing", {"capacity": -5.0}, "pricing needs cost_params {capacity > 0}"),
    ],
    ids=["negative-c_h", "negative-both", "zero-both", "capacity-0", "negative-capacity"],
)
def test_builders_reject_bad_costs_as_true_model_does(kind, cost_params, message):
    with pytest.raises(ValidationError) as from_model:
        _newsvendor_world(kind=kind, cost_params=cost_params)
    with pytest.raises(ValidationError) as from_builder:
        _problem(kind, make_grid(0, 10, 11), cost_params)
    assert str(from_model.value) == str(from_builder.value) == message


@pytest.mark.parametrize(
    "kind, cost_params, key",
    [
        ("newsvendor", {"c_h": 1.0, "c_s": 3.0, "capacity": 5.0}, "capacity"),
        ("pricing", {"capacity": 50.0, "c_h": 1.0}, "c_h"),
    ],
)
def test_true_model_rejects_cost_params_the_kind_does_not_use(kind, cost_params, key):
    with pytest.raises(ValidationError) as err:
        _newsvendor_world(kind=kind, cost_params=cost_params)
    assert str(err.value) == f"{kind} does not use cost_params key {key!r}"


@pytest.mark.parametrize(
    "logging, key",
    [
        ({"policy": "uniform", "center": 5, "width": -3}, "center"),
        ({"policy": "uniform", "width": 5.0}, "width"),
        ({"policy": "biased", "center": 5.0, "width": 5.0, "shape": 1.0}, "shape"),
    ],
    ids=["uniform-center", "uniform-width", "biased-shape"],
)
def test_true_model_rejects_logging_keys_the_policy_does_not_use(logging, key):
    with pytest.raises(ValidationError) as err:
        _newsvendor_world(logging=logging)
    assert str(err.value) == f"{logging['policy']} logging does not use key {key!r}"


def test_true_model_rejects_bad_logging():
    with pytest.raises(ValidationError):
        _newsvendor_world(logging={"policy": "greedy"})
    with pytest.raises(ValidationError, match="unknown logging policy"):
        _newsvendor_world(logging={"policy": ["biased"]})
    with pytest.raises(ValidationError):
        _newsvendor_world(logging={"policy": "biased", "center": 5.0})


def test_model_json_round_trip():
    m = _newsvendor_world(logging={"policy": "biased", "center": 4.0, "width": 3.0})
    assert TrueModel(**json.loads(json.dumps(asdict(m)))) == m


# --- dataset generation -------------------------------------------------------


def test_gen_dataset_constant_world():
    m = _newsvendor_world(intercept=7.0, noise_sd=1e-12)
    grid = make_grid(0.0, 10.0, 11)
    data = gen_dataset(m, 200, grid, seed=0)
    np.testing.assert_allclose(data.y, 7.0, atol=1e-10)


def test_gen_dataset_uniform_logging_counts():
    m = _newsvendor_world()
    grid = make_grid(0.0, 10.0, 11)
    data = gen_dataset(m, 11000, grid, seed=3)
    for z in grid.points:
        count = int(np.sum(data.z_obs == z))
        assert abs(count - 1000) <= 150


def test_gen_dataset_biased_logging_concentrates():
    m = _newsvendor_world(logging={"policy": "biased", "center": 2.0, "width": 3.0})
    grid = make_grid(0.0, 10.0, 11)
    data = gen_dataset(m, 5000, grid, seed=4)
    assert np.all(data.z_obs <= 5.0)  # no mass outside the triangle
    assert np.mean(data.z_obs) == pytest.approx(2.0, abs=0.2)


def test_gen_dataset_action_enters_outcome():
    m = _newsvendor_world(action_effect=0.9, nonlinearity=-0.04, noise_sd=1e-9)
    grid = make_grid(0.0, 20.0, 21)
    data = gen_dataset(m, 500, grid, seed=5)
    z = data.z_obs
    expected = 10.0 + 0.9 * z + (-0.04) * 0.9 * z * z
    np.testing.assert_allclose(data.y, expected, atol=1e-6)


def test_gen_dataset_same_seed_identical_csv(tmp_path):
    m = _newsvendor_world(base_weights=(2.0, -1.0))
    grid = make_grid(0.0, 10.0, 11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset_csv(gen_dataset(m, 300, grid, seed=9), p1)
    save_dataset_csv(gen_dataset(m, 300, grid, seed=9), p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- oracles -------------------------------------------------------------------


def test_oracle_perfect_matching_world():
    # y(x, z) = z for every draw, so the newsvendor cost vanishes at every action
    m = _newsvendor_world(
        intercept=0.0, action_effect=1.0, noise_sd=1e-12, feature_sd=1e-12
    )
    for z in (0.0, 4.0, 9.5):
        assert oracle_expected_cost(m, z, n_mc=500, seed=0) == pytest.approx(0.0, abs=1e-9)


def test_oracle_constant_demand_arithmetic():
    # y ~ 7 exactly; stocking 9 leaves 2 units at holding cost 1
    m = _newsvendor_world(intercept=7.0, noise_sd=1e-12)
    cost = oracle_expected_cost(m, 9.0, n_mc=2000, seed=1)
    assert cost == pytest.approx(2.0, abs=1e-9)


def test_oracle_constant_demand_with_noise():
    m = _newsvendor_world(intercept=7.0, noise_sd=0.5)
    n_mc = 40000
    cost = oracle_expected_cost(m, 9.0, n_mc=n_mc, seed=2)
    # per-draw cost sd is below c_s * noise_sd; allow 3 MC standard errors
    assert abs(cost - 2.0) < 3 * 3.0 * 0.5 / np.sqrt(n_mc) + 0.01


def test_oracle_action_recovers_gaussian_quantile():
    m = _newsvendor_world()  # y ~ N(10, 2^2), z-independent
    grid = make_grid(0.0, 20.0, 201)
    action, cost = oracle_action(m, grid, n_mc=100000, seed=3)
    assert abs(action - 11.349) <= grid.step + 1e-12
    assert cost > 0


def test_oracle_action_symmetric_costs_pick_mean():
    m = _newsvendor_world(cost_params={"c_h": 2.0, "c_s": 2.0})
    grid = make_grid(0.0, 20.0, 41)
    action, _ = oracle_action(m, grid, n_mc=60000, seed=4)
    assert abs(action - 10.0) <= grid.step


def test_oracle_pricing_vertex():
    # deterministic demand y = 12 - 2 z, revenue z*(12 - 2z) peaks at z = 3
    m = TrueModel(
        kind="pricing",
        base_weights=(0.0,),
        intercept=12.0,
        action_effect=-2.0,
        nonlinearity=0.0,
        noise_sd=1e-12,
        feature_sd=1e-12,
        cost_params={"capacity": 50.0},
        logging={"policy": "uniform"},
    )
    grid = make_grid(0.0, 6.0, 61)
    action, cost = oracle_action(m, grid, n_mc=200, seed=5)
    assert abs(action - 3.0) <= grid.step
    assert cost == pytest.approx(-18.0, abs=1e-6)


def test_oracle_counterfactual_ignores_logging_policy():
    uniform = _newsvendor_world()
    biased = _newsvendor_world(logging={"policy": "biased", "center": 2.0, "width": 2.0})
    for z in (3.0, 11.0):
        a = oracle_expected_cost(uniform, z, n_mc=5000, seed=6)
        b = oracle_expected_cost(biased, z, n_mc=5000, seed=6)
        assert a == b


def test_oracle_common_random_numbers_reproducible():
    m = _newsvendor_world()
    grid = make_grid(0.0, 20.0, 21)
    first = oracle_action(m, grid, n_mc=4000, seed=7)
    second = oracle_action(m, grid, n_mc=4000, seed=7)
    assert first == second
    # the scan's per-action values are the same stream oracle_expected_cost uses
    for z in (grid.points[0], grid.points[11]):
        scan_value = oracle_expected_cost(m, float(z), n_mc=4000, seed=7)
        assert scan_value == oracle_expected_cost(m, float(z), n_mc=4000, seed=7)


def test_oracle_action_matches_pointwise_expected_cost():
    m = _newsvendor_world()
    grid = make_grid(0.0, 20.0, 11)
    action, cost = oracle_action(m, grid, n_mc=3000, seed=8)
    assert cost == oracle_expected_cost(m, action, n_mc=3000, seed=8)


# --- the separable kernel against the dense grid pass -----------------------------
#
# For a linear model, each problem's separable kernel computes the model cost
# profile and the task-gradient sums without the (m, K) matrices. The
# reference is the dense path, kept here (_dense_profile): _grid_pass and
# explicit sums over the (m, K) matrices. The kernel sums in another order, so
# the two agree within a tolerance fixed before the kernel was written; where
# the answer is exactly 0, as on a kink, they agree bit for bit. Pricing
# capacities are drawn both below and above the predictions, so the cap binds
# for some inputs and not for others.

RTOL, ATOL = 1e-9, 1e-12


def _dense_profile(params, X, problem):
    """A linear model's cost profile on the problem's grid, and a function of
    the action probabilities that gives its task gradient, from one dense grid
    pass and explicit sums over the (m, K) matrix C = dg/dy * p_k / m."""
    arch, w, points = params.architecture, params.weights, problem.grid.points
    P, _ = _grid_pass(arch, w, X, points[None, :])

    def task_gradient(probs):
        C = (problem.task_cost_grad_y(points[None, :], P) * probs[None, :]) / X.shape[0]
        # the prediction x_j . w_x + w_z z_k + b, differentiated in (w_x, w_z, b)
        return np.concatenate([X.T @ C.sum(axis=1), [C.sum(axis=0) @ points, C.sum()]])

    return problem.task_cost(points[None, :], P).mean(axis=0), task_gradient


def _dense_reference(params, X, problem, probs):
    values, task_gradient = _dense_profile(params, X, problem)
    return values, float(probs @ values), task_gradient(probs)


def _through_the_kernel(params, X, problem, probs):
    """The public profile and task gradient, which take the kernel for a linear model."""
    values = model_profile(params, X, problem).values
    task_loss, grad = task_grad(params, X, problem.grid, probs, problem)
    return values, task_loss, grad


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= ATOL + RTOL * np.abs(want)), (got, want)


_COST = st.one_of(st.just(0.0), st.floats(0.1, 5.0))
_W_Z = st.one_of(st.floats(-2.0, 0.99), st.just(1.0), st.floats(1.01, 3.0))


@st.composite
def _problems(draw, grid, costs, capacities):
    """A newsvendor problem with costs drawn from `costs`, or a pricing
    problem with a capacity drawn from `capacities`."""
    if draw(st.booleans()):
        return _problem("pricing", grid, {"capacity": draw(capacities)})
    c_h, c_s = draw(costs), draw(costs)
    assume(c_h + c_s > 0)
    return newsvendor_problem(grid, c_h, c_s)


@st.composite
def _linear_cases(draw):
    """A newsvendor or pricing problem, a linear model on it, validation
    inputs with some duplicate rows, and action probabilities."""
    m, k, d = draw(st.integers(1, 60)), draw(st.integers(2, 80)), draw(st.integers(1, 3))
    z_min = draw(st.floats(-10.0, 10.0))
    grid = make_grid(z_min, z_min + draw(st.floats(1.0, 30.0)), k)
    problem = draw(_problems(grid, _COST, st.floats(0.5, 60.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(0.0, 1.5, size=(m, d))
    n_dup = draw(st.integers(0, m - 1))
    X[rng.integers(0, m, size=n_dup)] = X[rng.integers(0, m, size=n_dup)]
    # |w_x| >= 0.05 keeps the predictions continuous in the random inputs, so
    # no prediction lands within rounding of a hinge; exact ties are the
    # dyadic test's job
    w_x = rng.uniform(0.05, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    w = np.concatenate([w_x, [draw(_W_Z), draw(st.floats(-10.0, 30.0))]])
    probs = rng.random(k) ** 3
    probs /= probs.sum()
    params = PredictorParams(Architecture("linear", d), w)
    return problem, params, X, probs


@given(case=_linear_cases())
@settings(max_examples=300, deadline=None)
def test_separable_kernel_matches_dense_grid_pass(case):
    problem, params, X, probs = case
    values, task_loss, grad = _through_the_kernel(params, X, problem, probs)
    ref_values, ref_loss, ref_grad = _dense_reference(params, X, problem, probs)
    _assert_close(values, ref_values)
    _assert_close(task_loss, ref_loss)
    _assert_close(grad, ref_grad)


def _eighths(lo, hi):
    return st.integers(lo * 8, hi * 8).map(lambda v: v / 8.0)


@st.composite
def _dyadic_cases(draw):
    """Inputs, weights, grid, costs and capacity on multiples of 1/8: every
    prediction and every hinge (z_k - w_z z_k for newsvendor, -w_z z_k and
    capacity - w_z z_k for pricing) is exact, so many predictions sit exactly
    on a hinge (a kink: the action, or a sale of 0 or of the capacity) and
    both paths see the same ties."""
    m, k, d = draw(st.integers(1, 40)), draw(st.integers(2, 41)), draw(st.integers(1, 2))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    z_min = draw(_eighths(-4, 4))
    grid = make_grid(z_min, z_min + step * (k - 1), k)
    problem = draw(
        _problems(grid, st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0]), _eighths(1, 12))
    )
    X = np.array(draw(st.lists(_eighths(-4, 4), min_size=m * d, max_size=m * d))).reshape(m, d)
    w = np.array(
        draw(st.lists(_eighths(-2, 2), min_size=d, max_size=d))
        + [draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])), draw(_eighths(-4, 12))]
    )
    probs = np.array(draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)), dtype=float)
    assume(probs.sum() > 0)
    probs /= probs.sum()
    params = PredictorParams(Architecture("linear", d), w)
    return problem, params, X, probs


@given(case=_dyadic_cases())
@settings(max_examples=300, deadline=None)
def test_separable_kernel_matches_dense_on_exact_ties(case):
    problem, params, X, probs = case
    values, task_loss, grad = _through_the_kernel(params, X, problem, probs)
    ref_values, ref_loss, ref_grad = _dense_reference(params, X, problem, probs)
    # exact sums: each profile value is rounded once, by the division by m
    assert np.array_equal(values, ref_values)
    _assert_close(task_loss, ref_loss)
    _assert_close(grad, ref_grad)


@given(
    kind=st.sampled_from(["newsvendor", "pricing"]),
    w_z=st.sampled_from([0.0, 1.0]),
    m=st.integers(1, 30),
    k=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    c_h=_COST,
    c_s=_COST,
    on_capacity=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_separable_kernel_gradient_is_zero_on_kinks_bit_for_bit(
    kind, w_z, m, k, seed, c_h, c_s, on_capacity
):
    # w_x = 0, so every prediction is w_z * z_k + b, and all the probability
    # sits on actions where that prediction is a kink, which makes the
    # gradient exactly 0. Newsvendor (b = 0): with w_z = 1 the prediction
    # equals every action, with w_z = 0 it is 0, which equals the action
    # z_0 = 0. Pricing, with the capacity on a grid action: with w_z = 0 every
    # action sells exactly 0 (b = 0) or exactly the capacity (b = capacity);
    # with w_z = 1 and b = 0, z_0 = 0 sells 0 and z = capacity sells the
    # capacity.
    rng = np.random.default_rng(seed)
    grid = make_grid(0.0, float(k - 1), k)
    X = rng.normal(size=(m, 2))
    if kind == "newsvendor":
        assume(c_h + c_s > 0)
        problem, b = newsvendor_problem(grid, c_h, c_s), 0.0
        probs = rng.random(k) if w_z == 1.0 else np.eye(k)[0]
    else:
        capacity = float(rng.integers(1, k))
        problem = _problem("pricing", grid, {"capacity": capacity})
        b = capacity if on_capacity and w_z == 0.0 else 0.0
        kinks = [0, int(capacity)] if w_z == 1.0 else slice(None)
        probs = np.zeros(k)
        probs[kinks] = rng.random(k)[kinks]
        assume(probs.sum() > 0)
    probs /= probs.sum()
    params = PredictorParams(Architecture("linear", 2), np.array([0.0, 0.0, w_z, b]))
    values, task_loss, grad = _through_the_kernel(params, X, problem, probs)
    ref_values, ref_loss, ref_grad = _dense_reference(params, X, problem, probs)
    assert grad.tobytes() == ref_grad.tobytes() == np.zeros(4).tobytes()
    _assert_close(values, ref_values)
    _assert_close(task_loss, ref_loss)


# --- one kernel for every piecewise-linear cost -----------------------------------
#
# Each kind describes its cost once more as knots and slopes in the outcome, and
# _bind_pieces makes any such description a separable kernel. The reference for
# a description is the hinge sum value + s_0 min(y - B_0, 0) + sum_r s_(r+1)
# (clip(y, B_r, B_(r+1)) - B_r), with the slope of the piece that holds y
# strictly as its derivative and 0 on a knot.


def _dense_pieces(knots, slopes, value, P):
    """The cost and outcome derivative of the description at outcomes P, whose
    last axis runs over the actions."""
    cost = value + slopes[0] * np.minimum(P - knots[0], 0.0)
    grad = np.where(P < knots[0], slopes[0], 0.0)
    for r, lower in enumerate(knots):
        upper = knots[r + 1] if r + 1 < len(knots) else np.inf
        cost = cost + slopes[r + 1] * (np.clip(P, lower, upper) - lower)
        grad = grad + np.where((P > lower) & (P < upper), slopes[r + 1], 0.0)
    return cost, grad


@given(kind=st.sampled_from(sorted(_KINDS)), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_each_kind_pieces_agree_with_its_cost_and_grad_y(kind, seed, data):
    # the cost and outcome derivative a Problem derives from its kind's pieces,
    # against the hinge sum above, at random actions and outcomes, a third of
    # them exactly on a knot
    entry = _KINDS[kind]
    params = {key: data.draw(st.floats(0.1, 20.0), label=key) for key in entry.keys}
    assume(entry.ok(**params))
    problem = _problem(kind, make_grid(-5.0, 25.0, 2), params)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-5.0, 25.0, size=60)
    knots, slopes, value = entry.pieces(z, **params)
    B = np.broadcast_arrays(*knots, z)[:-1]  # each knot, per action
    assert all(np.all(lower < upper) for lower, upper in zip(B, B[1:]))
    y = rng.uniform(np.min(B) - 5.0, np.max(B) + 5.0, size=z.shape)
    on_knot = rng.random(z.shape) < 1 / 3
    y[on_knot] = np.choose(rng.integers(0, len(B), size=z.shape), B)[on_knot]
    cost, grad = _dense_pieces(knots, slopes, value, y)
    want = problem.task_cost(z, y)
    assert np.all(np.abs(cost - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    assert grad.tobytes() == problem.task_cost_grad_y(z, y).tobytes()
    assert not np.any(grad[on_knot])


@st.composite
def _piece_cases(draw, dyadic):
    """A random description the kernel binds, with knots in one order over the
    actions: one knot, a float or one per action, or 2 to 3 knots that are
    floats. Each slope and the value at the first knot is a float or one per
    action (slopes may be 0). Predictions a[j] + c[k] with some repeated
    inputs, and action weights. Dyadic cases take every number, the weights
    too, on multiples of 1/8, so sums are exact and many predictions sit
    exactly on a knot; other cases take probabilities."""
    m, k, n_knots = draw(st.integers(1, 40)), draw(st.integers(1, 30)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def number(lo, hi, size=None):
        if dyadic:
            return rng.integers(lo * 8, hi * 8 + 1, size=size) / 8.0
        return rng.uniform(lo, hi, size=size)

    def draw_number(lo, hi):  # 0, a float, or one per action
        form = draw(st.sampled_from(["zero", "float", "per action"]))
        return 0.0 if form == "zero" else number(lo, hi, k if form == "per action" else None)

    knots = [number(-4, 4, draw(st.sampled_from([None, k])) if n_knots == 1 else None)]
    for _ in range(n_knots - 1):
        knots.append(knots[-1] + 0.125 + number(0, 3))
    slopes = [draw_number(-2, 2) for _ in range(n_knots + 1)]
    value = draw_number(-3, 3)
    a = number(-6, 6, m)
    a[rng.integers(0, m, size=m // 2)] = a[rng.integers(0, m, size=m // 2)]
    c = number(-3, 3, k)
    weights = (rng.integers(0, 9, size=k) / 8.0) if dyadic else rng.random(k) ** 3
    weights[rng.random(k) < 0.2] = 0.0
    assume(weights.sum() > 0)
    return knots, slopes, value, a, c, weights if dyadic else weights / weights.sum()


def _kernel_and_dense(knots, slopes, value, a, c, probs):
    """(values, gradient sums) from the kernel, and from the dense (m, K) pass."""
    values, gradient_sums = _bind_pieces(knots, slopes, value)(a, c)
    cost, grad = _dense_pieces(knots, slopes, value, a[:, None] + c[None, :])
    C = grad * probs[None, :] / a.shape[0]
    dense_sums = C.sum(axis=1), C.sum(axis=0), C.sum()
    return (values, gradient_sums(probs)), (cost.mean(axis=0), dense_sums)


@given(case=_piece_cases(dyadic=False))
@settings(max_examples=300, deadline=None)
def test_one_kernel_matches_a_dense_evaluation_of_any_pieces(case):
    (values, sums), (ref_values, ref_sums) = _kernel_and_dense(*case)
    _assert_close(values, ref_values)
    for got, want in zip(sums, ref_sums):
        _assert_close(got, want)


@given(case=_piece_cases(dyadic=True), kink_at=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_one_kernel_is_exact_on_dyadic_pieces_and_kinks(case, kink_at, seed):
    knots, slopes, value, a, c, weights = case
    (values, sums), (ref_values, ref_sums) = _kernel_and_dense(*case)
    assert np.array_equal(values, ref_values)
    for got, want in zip(sums, ref_sums):
        _assert_close(got, want)
    # every input at a0, and each action's c puts a0 + c on its knot: every
    # prediction is a kink, so the gradient is exactly 0, with the dyadic
    # weights and with probabilities alike: the knots share one order, so the
    # kernel takes each piece's weight from prefix sums in that one order.
    a0 = a[0]
    kinks = np.broadcast_arrays(*knots, c)[min(kink_at, len(knots) - 1)]
    kernel = _bind_pieces(knots, slopes, value)
    probs = np.random.default_rng(seed).random(len(c))
    for w in (weights, probs / probs.sum()):
        row, col, total = kernel(np.full(a.shape, a0), kinks - a0)[1](w)
        assert not np.any(row) and not np.any(col) and total == 0.0


# newsvendor, pricing, and three float knots with slopes and a first-knot cost
# that depend on the action: one values and gradient call holds less than one
# (m, K) float64 array
PIECES_AT_SCALE = {
    "newsvendor": lambda z: _KINDS["newsvendor"].pieces(z, c_h=1.0, c_s=3.0),
    "pricing": lambda z: _KINDS["pricing"].pieces(z, capacity=12.0),
    "three-knots": lambda z: ((6.0, 12.0, 18.0), (-z, 1.0, z, -2.0), z),
}


@pytest.mark.parametrize("n_knots", [2, 3])
def test_knots_in_more_than_one_action_order_are_refused(n_knots):
    # two or more knots, any of them one per action, would each sort the
    # actions in their own order, so binding refuses them; as ascending
    # constants, or as a lone knot per action, the same knots bind
    c = np.linspace(-1.0, 1.0, 5)
    floats = [2.0 * r for r in range(n_knots)]
    slopes = [1.0, -1.0, 2.0, 0.5][: n_knots + 1]
    _bind_pieces(floats, slopes, 0.0)
    for r in range(n_knots):
        knots = list(floats)
        knots[r] = knots[r] + 0.5 * c  # still ascending
        _bind_pieces(knots[r : r + 1], slopes[:2], 0.0)
        with pytest.raises(ValidationError, match="knots must share one action order"):
            _bind_pieces(knots, slopes, 0.0)
    with pytest.raises(ValidationError, match="every knot a float, or one knot"):
        _bind_pieces([0.5 * c + 2.0 * r for r in range(n_knots)], slopes, 0.0)


@pytest.mark.parametrize("pieces", PIECES_AT_SCALE.values(), ids=PIECES_AT_SCALE)
def test_one_kernel_call_holds_less_than_one_m_by_k_array(pieces):
    m, k = 400, 201
    grid = make_grid(0.0, 20.0, k)
    kernel = _bind_pieces(*pieces(grid.points))
    rng = np.random.default_rng(0)
    a, c, probs = rng.normal(10.0, 4.0, size=m), 0.6 * grid.points, np.full(k, 1.0 / k)
    kernel(a, c)[1](probs)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        values, gradient_sums = kernel(a, c)
        gradient_sums(probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * k * 8, peak


# --- the oracle scan against a dense loop over actions ---------------------------
#
# The oracle (_oracle) scans every action at once with the problem's separable
# kernel, as _oracle_profile does. The reference is one cost_draws pass per
# action, the mean of each in the order the draws came, within the kernel
# tolerance above.


def _oracle_profile(model, problem, u):
    """The mean cost of every grid action under the world draws u: the one
    kernel call that problems._oracle makes."""
    return problem.separable_kernel(u, mean_outcome(model, 0.0, problem.grid.points))[0]


@st.composite
def _oracle_cases(draw):
    """A world of either kind whose outcome is curved in the action
    (nonlinearity != 0), a grid, and its world draws. Pricing capacities lie
    inside the outcome range, so the capacity binds for some draws."""
    kind = draw(st.sampled_from(["newsvendor", "pricing"]))
    intercept = draw(st.floats(5.0, 15.0))
    nonzero = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))
    if kind == "pricing":
        cost_params = {"capacity": draw(st.floats(1.0, intercept))}
    else:
        cost_params = {"c_h": draw(st.floats(0.1, 5.0)), "c_s": draw(st.floats(0.1, 5.0))}
    model = TrueModel(
        kind=kind,
        base_weights=tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))),
        intercept=intercept,
        action_effect=draw(nonzero),
        nonlinearity=draw(nonzero) / 20.0,
        noise_sd=draw(st.floats(0.1, 3.0)),
        feature_sd=1.0,
        cost_params=cost_params,
        logging={"policy": "uniform"},
    )
    z_min = draw(st.floats(0.0, 5.0))
    grid = make_grid(z_min, z_min + draw(st.floats(1.0, 10.0)), draw(st.integers(2, 61)))
    u = world_draws(model, draw(st.integers(1, 3000)), draw(st.integers(0, 2**32 - 1)))
    if kind == "pricing":
        outcomes = u + mean_outcome(model, 0.0, grid.points)[:, None]
        assume(np.any(outcomes > cost_params["capacity"]))
    return model, grid, u


@given(case=_oracle_cases(), perm_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_oracle_profile_matches_a_dense_loop_over_actions(case, perm_seed):
    model, grid, u = case
    problem = problem_from_model(model, grid)
    values = _oracle_profile(model, problem, u)
    dense = np.array([cost_draws(model, float(z), u).mean() for z in grid.points])
    _assert_close(values, dense)
    assert grid.best(values)[0] == grid.best(dense)[0] == _oracle(model, problem, u)[0]
    perm = np.random.default_rng(perm_seed).permutation(len(u))
    assert _oracle_profile(model, problem, u[perm]).tobytes() == values.tobytes()



@given(
    k=st.integers(2, 80),
    z_min=st.floats(-10.0, 10.0),
    n=st.integers(1, 300),
    spread=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_empirical_profile_matches_the_dense_mean(k, z_min, n, spread, seed, data):
    # empirical_profile takes the kernel, with the labels as the inputs and no
    # action term; the reference is the dense mean over the (K, n) cost matrix.
    # Pricing capacities bind for some labels and not for others.
    grid = make_grid(z_min, z_min + 20.0, k)
    problem = data.draw(_problems(grid, _COST, st.floats(0.5, 30.0)))
    labels = np.random.default_rng(seed).normal(z_min + 10.0, spread, size=n)
    values = empirical_profile(labels, problem).values
    dense = problem.task_cost(grid.points[:, None], labels[None, :]).mean(axis=1)
    _assert_close(values, dense)
    assert grid.best(values)[0] == grid.best(dense)[0]


# --- the in-place forms against the expressions they replace ----------------------
#
# The Monte Carlo evaluation holds few arrays of n_mc because world_draws
# returns one array u, and cost_draws, the costs and the kernel work in place.
# Each must give the bits of the plain expression it replaced, kept here as the
# reference, and leave its inputs as they were.


def _reference_newsvendor_cost(z, y, c_h, c_s):
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    return c_h * np.maximum(z - y, 0.0) + c_s * np.maximum(y - z, 0.0)


def _reference_pricing_cost(z, y, capacity):
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    return -z * np.clip(y, 0.0, capacity)


# kind: (cost, its reference, cost params)
_COSTS = {
    "newsvendor": (newsvendor_cost, _reference_newsvendor_cost, {"c_h": 1.5, "c_s": 3.0}),
    "pricing": (pricing_cost, _reference_pricing_cost, {"capacity": 4.0}),
}


def _reference_world_draws(model, n_mc, seed):
    """world_draws as it was: two arrays (base, eps), whose sum is u, with the
    features' products summed column by column in order, as new arrays."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, model.feature_sd, size=(n_mc, model.feature_dim))
    base = reduce(np.add, [X[:, j] * w for j, w in enumerate(model.base_weights)])
    base += model.intercept
    return base, rng.normal(0.0, model.noise_sd, size=n_mc)


def _reference_action_term(model, z):
    """m(z), the outcome's action term, as the plain expression."""
    e, q = model.action_effect, model.nonlinearity
    z = np.asarray(z, dtype=float)
    return 0.0 + e * z + q * e * z * z


def _reference_cost_draws(model, z, u):
    y = u + _reference_action_term(model, z)
    reference = _COSTS[model.kind][1]
    return reference(z, y, **model.cost_params)


def _reference_separable_values(kind, z, a, c, **cost_params):
    """The profile values of the kernel, from np.sort, np.cumsum and
    np.concatenate: three arrays of m. Newsvendor's are those of the kernel
    that newsvendor had before one kernel served every kind: holding cost on
    the inputs below the action's knot t = z - c, shortage cost above it.
    Pricing's are its piece between the knots lo = 0 - c and hi = capacity - c
    (the inputs that sell a[j] + c, each at -z), anchored at lo, and its cost
    at hi, -z * capacity as the kernel forms it from the cost 0 at lo, for the
    inputs from hi up."""
    m = a.shape[0]
    a_sorted = np.sort(a)
    prefix = np.concatenate(([0.0], np.cumsum(a_sorted)))
    if kind == "newsvendor":
        t = z - c
        n_below = np.searchsorted(a_sorted, t, side="left")
        n_upto = np.searchsorted(a_sorted, t, side="right")
        under = n_below * t - prefix[n_below]
        over = (prefix[m] - prefix[n_upto]) - (m - n_upto) * t
        return (cost_params["c_h"] * under + cost_params["c_s"] * over) / m
    capacity = cost_params["capacity"]
    lo, hi = 0.0 - c, capacity - c
    n_upto_lo = np.searchsorted(a_sorted, lo, side="right")
    n_below_hi = np.searchsorted(a_sorted, hi, side="left")
    between = (prefix[n_below_hi] - prefix[n_upto_lo]) - (n_below_hi - n_upto_lo) * lo
    cost_at_hi = 0.0 + -z * (capacity - 0.0)
    return (-z * between + cost_at_hi * (m - n_below_hi)) / m


def _reference_separable_sums(kind, z, a, c, probs, **cost_params):
    """The gradient sums of the kernel (row sums, column sums, total), from one
    argsort of the actions, np.cumsum and np.searchsorted. Sorted in that one
    order, an input's weight on a piece is the prefix sum of the weights up to
    the actions whose piece it has entered, less the prefix sum up to those
    whose piece it has left; on a knot it adds no weight. A column's sum counts
    the inputs strictly inside each piece."""
    m = a.shape[0]
    a_sorted = np.sort(a)
    if kind == "newsvendor":
        c_h, c_s = cost_params["c_h"], cost_params["c_s"]
        t = z - c  # the knot: holding cost for inputs below it, shortage cost above
        order = np.argsort(t, kind="stable")
        cum = np.concatenate(([0.0], np.cumsum(probs[order])))
        held_below = cum[-1] - cum[np.searchsorted(t[order], a, side="right")]
        held_above = cum[np.searchsorted(t[order], a, side="left")]
        row = (-c_h * held_below + c_s * held_above) / m
        n_below = np.searchsorted(a_sorted, t, side="left")
        n_above = m - np.searchsorted(a_sorted, t, side="right")
        col = probs * (-c_h * n_below + c_s * n_above) / m
        return row, col, col.sum()
    capacity = cost_params["capacity"]
    lo, hi = 0.0 - c, capacity - c  # each sale between them earns z
    order = np.argsort(-c, kind="stable")
    cum = np.concatenate(([0.0], np.cumsum((-z * probs)[order])))
    held = cum[np.searchsorted(lo[order], a, side="left")]
    held = held - cum[np.searchsorted(hi[order], a, side="right")]
    n_inside = np.searchsorted(a_sorted, hi, side="left") - np.searchsorted(a_sorted, lo, "right")
    col = probs * (-z * n_inside) / m
    return held / m, col, col.sum()


def _same_bits(got, want):
    """Equal type, shape and bytes: no tolerance, and 0.0 is not -0.0."""
    return (
        type(got) is type(want)
        and np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    )


# Both kinds with an outcome curved in the action (q != 0); the pricing world's
# outcomes run from above its capacity to below 0 across the grid, so both
# clamps bind.
IN_PLACE_WORLDS = {
    "newsvendor": dict(
        base_weights=(2.0, -1.0), intercept=10.0, action_effect=0.9, nonlinearity=-0.04
    ),
    "pricing-capacity-binds": dict(
        kind="pricing", base_weights=(0.5,), intercept=12.0, action_effect=-2.0,
        nonlinearity=0.05, noise_sd=0.5, cost_params={"capacity": 8.0},
    ),
}  # fmt: skip


# less than a block, a block edge on each side, and several blocks: 2 * _BLOCK + 1
# ends in one row, 3 * _BLOCK + 7 in 7 rows
BLOCK_EDGES = (5000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7)


@pytest.mark.parametrize("world", IN_PLACE_WORLDS.values(), ids=IN_PLACE_WORLDS)
def test_world_draws_and_cost_draws_give_the_reference_bits(world):
    model = _newsvendor_world(**world)
    for n_mc in BLOCK_EDGES:
        u = world_draws(model, n_mc, seed=11)
        base, eps = _reference_world_draws(model, n_mc, seed=11)
        assert _same_bits(u, base + eps), n_mc
        saved = u.tobytes()
        for z in make_grid(0.0, 6.0, 25).points:
            got = cost_draws(model, float(z), u)
            assert _same_bits(got, _reference_cost_draws(model, float(z), u)), (n_mc, z)
        assert u.tobytes() == saved
    if model.kind == "pricing":  # some draws sell the capacity at z = 1, and none at z = 6
        assert np.any(cost_draws(model, 1.0, u) == -8.0)
        assert np.any(cost_draws(model, 6.0, u) == 0.0)


# the blocked draws give the bits of one column-order sum over all the rows,
# whatever the feature count, with any number of BLAS threads
@pytest.mark.parametrize("d", [1, 2, 3, 6, 8, 16])
def test_world_draws_in_blocks_give_the_one_shot_bits(d):
    weights = tuple(np.random.default_rng(d).normal(0.0, 1.0, d))
    model = _newsvendor_world(base_weights=weights, intercept=3.0, feature_sd=1.5)
    for n_mc in BLOCK_EDGES:
        base, eps = _reference_world_draws(model, n_mc, seed=5)
        assert _same_bits(world_draws(model, n_mc, seed=5), base + eps), n_mc


# through any scratch of at least d floats: the features in blocks of
# len(scratch) // d rows, the noise in blocks as large as the scratch; a scratch
# of NaN shows that every draw is written before it is read
@pytest.mark.parametrize("d", [1, 2, 3, 6, 8, 16])
def test_world_draws_through_a_larger_scratch_give_the_same_bits(d):
    weights = tuple(np.random.default_rng(d).normal(0.0, 1.0, d))
    model = _newsvendor_world(base_weights=weights, intercept=3.0, feature_sd=1.5)
    for n_mc in (1, 2, *BLOCK_EDGES, 2 * _BLOCK + 2, 2 * _BLOCK + 5, 4 * _BLOCK + 1):
        base, eps = _reference_world_draws(model, n_mc, seed=5)
        least = min(n_mc, _BLOCK) * d  # world_draws' scratch
        small = {d, 3 * d - 1} if n_mc <= 5000 else set()  # one and two rows a block
        for size in small | {least, n_mc + d, least + _BLOCK * d, n_mc * d + 2}:
            u = _draw_world(np.empty(n_mc), np.full(size, np.nan), model, 5)
            assert _same_bits(u, base + eps), (n_mc, size)


# 16 features with weights whose products round, over more rows than a block:
# the SHA-256 of world_draws' u, then of gen_dataset's labels
_HASH_WIDE_WORLD = """
import hashlib
import numpy as np
from predopt.core import make_grid
from predopt.problems import TrueModel, gen_dataset, world_draws
model = TrueModel(
    kind="newsvendor", base_weights=tuple(np.random.default_rng(16).normal(0.0, 1.0, 16)),
    intercept=3.0, action_effect=0.9, nonlinearity=-0.04, noise_sd=2.0, feature_sd=1.5,
    cost_params={"c_h": 1.0, "c_s": 3.0}, logging={"policy": "uniform"},
)
print(hashlib.sha256(world_draws(model, 65_537, 5).tobytes()).hexdigest())
data = gen_dataset(model, 65_537, make_grid(0.0, 20.0, 101), 5)
print(hashlib.sha256(data.y.tobytes()).hexdigest())
"""


def test_world_draws_and_datasets_do_not_depend_on_the_blas_thread_count():
    # a BLAS product splits its rows among its threads, and each split can
    # round apart; the column-order sum has no such split
    hashes = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-c", _HASH_WIDE_WORLD],
            env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert run.returncode == 0, run.stderr
        hashes[threads] = run.stdout.split()
    assert len(hashes["1"]) == 2
    assert hashes["1"][0] == hashes["2"][0], "world_draws"
    assert hashes["1"][1] == hashes["2"][1], "gen_dataset"


@pytest.mark.parametrize("world", IN_PLACE_WORLDS.values(), ids=IN_PLACE_WORLDS)
def test_oracle_profile_scans_base_plus_eps_to_the_bit(world):
    # the scan of u is the scan of the two-array draws' sum base + eps, so the
    # scan values and the oracle action are those of the two-array form
    model = _newsvendor_world(**world)
    grid = make_grid(0.0, 6.0, 25)
    base, eps = _reference_world_draws(model, 5000, seed=11)
    problem = problem_from_model(model, grid)
    want = problem.separable_kernel(base + eps, _reference_action_term(model, grid.points))[0]
    assert _same_bits(_oracle_profile(model, problem, world_draws(model, 5000, seed=11)), want)


# each kind, and newsvendor with one slope 0, which pins the sign of a zero cost
COST_CASES = {kind: (kind, _COSTS[kind][2]) for kind in _COSTS} | {
    "newsvendor-c_h-0": ("newsvendor", {"c_h": 0.0, "c_s": 3.0}),
    "newsvendor-c_s-0": ("newsvendor", {"c_h": 1.5, "c_s": 0.0}),
}


@pytest.mark.parametrize("kind, params", COST_CASES.values(), ids=COST_CASES)
def test_costs_give_the_reference_bits_and_leave_their_inputs(kind, params):
    cost, reference, _ = _COSTS[kind]
    problem = _problem(kind, make_grid(0.0, 8.0, 9), params)
    rng = np.random.default_rng(5)
    z = rng.uniform(0.0, 8.0, size=(7, 1))
    y = rng.uniform(-2.0, 10.0, size=(1, 50))
    y[0, :7] = z[:, 0]  # kinks: the outcome equals the action
    y[0, 7:9] = 0.0, params.get("capacity", 0.0)  # pricing's clamps
    cases = {
        "0-d": (2.5, 3.0),
        "0-d arrays": (np.array(5.0), np.float64(1.0)),
        "broadcast": (z, y),
        "row": (z[0], y),
        "aliased": (y, y),
        "aliased views": (y[0, 1:], y[0, :-1]),
    }
    for name, (zz, yy) in cases.items():
        saved = np.array(zz).tobytes(), np.array(yy).tobytes()
        got, want = cost(zz, yy, **params), reference(zz, yy, **params)
        assert _same_bits(got, want), name
        assert _same_bits(problem.task_cost(zz, yy), want), name
        assert (np.array(zz).tobytes(), np.array(yy).tobytes()) == saved, name


def _reference_newsvendor_grad_y(z, y, c_h, c_s):
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    return np.where(y > z, c_s, 0.0) + np.where(y < z, -c_h, 0.0)


def _reference_pricing_grad_y(z, y, capacity):
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < capacity), -z, 0.0)


# kind: (outcome derivative, its reference)
_GRADS_Y = {
    "newsvendor": (newsvendor_cost_grad_y, _reference_newsvendor_grad_y),
    "pricing": (pricing_cost_grad_y, _reference_pricing_grad_y),
}


@pytest.mark.parametrize("kind, params", COST_CASES.values(), ids=COST_CASES)
def test_cost_grad_y_gives_the_reference_bits_and_leaves_its_inputs(kind, params):
    # the sign of every zero too: 0.0 on and beyond a kink, -0.0 inside pricing's
    # (0, capacity) at z = 0; a scalar for scalars, as the cost gives
    grad_y, reference = _GRADS_Y[kind]
    problem = _problem(kind, make_grid(0.0, 8.0, 9), params)
    rng = np.random.default_rng(6)
    z = rng.uniform(0.0, 8.0, size=(7, 1))
    z[0] = 0.0
    y = rng.uniform(-2.0, 10.0, size=(1, 50))
    y[0, :7] = z[:, 0]  # kinks: the outcome equals the action
    y[0, 7:9] = 0.0, params.get("capacity", 0.0)  # pricing's clamps
    cases = {
        "0-d": (2.5, 3.0),
        "0-d at z = 0": (0.0, 3.0),
        "0-d arrays": (np.array(5.0), np.float64(1.0)),
        "broadcast": (z, y),
        "row": (z[1], y),
        "row at z = 0": (z[0], y),
        "aliased": (y, y),
        "aliased views": (y[0, 1:], y[0, :-1]),
    }
    for name, (zz, yy) in cases.items():
        saved = np.array(zz).tobytes(), np.array(yy).tobytes()
        want = np.asarray(reference(zz, yy, **params))[()]
        assert _same_bits(grad_y(zz, yy, **params), want), name
        assert _same_bits(problem.task_cost_grad_y(zz, yy), want), name
        assert (np.array(zz).tobytes(), np.array(yy).tobytes()) == saved, name


@pytest.mark.parametrize("kind", _COSTS)
@pytest.mark.parametrize("m", [1, 2, 7, 400])
def test_separable_kernels_give_the_reference_bits_and_leave_a(kind, m):
    params = _COSTS[kind][2]
    grid = make_grid(-2.0, 6.0, 33)
    rng = np.random.default_rng(m)
    # a strided view with repeats and values on the hinges
    X = rng.normal(1.0, 3.0, size=(m, 2))
    X[: m // 2, 0] = rng.choice(grid.points, size=m // 2)
    a, c = X[:, 0], rng.choice([0.0, 1.0, -0.5]) * grid.points
    saved = a.tobytes()
    values, gradient_sums = _problem(kind, grid, params).separable_kernel(a, c)
    want = _reference_separable_values(kind, grid.points, a, c, **params)
    assert _same_bits(values, want)
    probs = rng.random(33) ** 3
    probs[rng.random(33) < 0.2] = 0.0
    probs /= probs.sum()
    got = gradient_sums(probs)
    want = _reference_separable_sums(kind, grid.points, a, c, probs, **params)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert a.tobytes() == saved


@pytest.mark.parametrize(
    "kind, params, capacity_binds",
    [
        ("newsvendor", {"c_h": 1.5, "c_s": 3.0}, False),
        ("pricing", {"capacity": 50.0}, False),
        ("pricing", {"capacity": 2.0}, True),
    ],
    ids=["newsvendor", "pricing", "pricing-capacity-binds"],
)
def test_separable_kernel_into_a_buffer_matches_the_kernel_without_one(
    kind, params, capacity_binds
):
    grid = make_grid(-2.0, 6.0, 33)
    rng = np.random.default_rng(5)
    a, c = rng.normal(2.0, 3.0, size=500), -0.5 * grid.points
    # whether some outcomes a[j] + c[k] sell the whole capacity
    assert (a + c[:, None] > params.get("capacity", np.inf)).any() == capacity_binds
    probs = rng.random(33)
    probs /= probs.sum()
    saved = a.tobytes()
    kernel = _problem(kind, grid, params).separable_kernel
    values, gradient_sums = kernel(a, c)
    out = np.full(len(a) + 1, np.nan)
    got_values, got_sums = kernel(a, c, out)
    assert np.array_equal(got_values, values)
    assert all(np.array_equal(g, w) for g, w in zip(got_sums(probs), gradient_sums(probs)))
    assert not np.isnan(out).any()  # the sort and the sums were written into out
    assert a.tobytes() == saved
