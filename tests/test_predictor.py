import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from predopt.core import ValidationError, make_grid
from predopt.objective import action_distribution, model_profile
from predopt.predictor import (
    Architecture,
    PredictorParams,
    _grid_pass,
    _in_blocks,
    _inline,
    _linear_task_grad,
    _mlp1_grad,
    _pass_runner,
    _profile,
    _row_blocks,
    _unpack_linear,
    _unpack_mlp1,
    init_params,
    load_checkpoint,
    loss_and_grad,
    predict_batch,
    predict_on_grid,
    save_checkpoint,
    task_grad,
)
from predopt.problems import _problem, newsvendor_problem

GRID = make_grid(0.0, 10.0, 21)
NEWSVENDOR = newsvendor_problem(GRID, c_h=1.0, c_s=3.0)
CAPACITY = 3.0
PRICING = _problem("pricing", GRID, {"capacity": CAPACITY})

LINEAR3 = Architecture("linear", feature_dim=3)
MLP24 = Architecture("mlp1", feature_dim=2, hidden_units=4)


def _random_params(arch, rng):
    return PredictorParams(arch, rng.normal(scale=0.7, size=arch.n_weights))


def _random_batch(arch, rng, n=12):
    X = rng.normal(size=(n, arch.feature_dim))
    Z = rng.uniform(0, 10, size=n)
    Y = rng.normal(loc=3.0, size=n)
    W = rng.uniform(0.1, 2.0, size=n)
    return X, Z, Y, W


def fd_gradient(fn, params, step=1e-6):
    """Central finite differences of a scalar fn(params) over the flat vector."""
    w = params.weights
    grad = np.empty_like(w)
    for i in range(len(w)):
        up = w.copy()
        up[i] += step
        dn = w.copy()
        dn[i] -= step
        grad[i] = (
            fn(PredictorParams(params.architecture, up))
            - fn(PredictorParams(params.architecture, dn))
        ) / (2 * step)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-5, atol=1e-8):
    # relative 1e-5 away from zero, absolute 1e-8 near zero; the absolute term
    # also covers the finite-difference noise floor (~1e-10 * |loss|)
    err = np.abs(np.asarray(analytic) - np.asarray(numeric))
    assert np.all(err <= rtol * np.abs(analytic) + atol)


# --- shapes and initialization -------------------------------------------------


def test_linear_param_length():
    assert LINEAR3.n_weights == 5
    assert init_params(LINEAR3, 0).weights.shape == (5,)


def test_mlp_param_length():
    assert MLP24.n_weights == (3 * 4) + 4 + 4 + 1 == 21


def test_init_deterministic():
    a = init_params(MLP24, seed=42)
    b = init_params(MLP24, seed=42)
    assert np.array_equal(a.weights, b.weights)
    c = init_params(MLP24, seed=43)
    assert not np.array_equal(a.weights, c.weights)


def test_init_linear_is_zero_and_mlp_output_layer_is_zero():
    assert np.all(init_params(LINEAR3, 7).weights == 0.0)
    p = init_params(MLP24, 7)
    d, h = 2, 4
    hidden = p.weights[: (d + 1) * h]
    s = 1 / np.sqrt(d + 1)
    assert np.all(np.abs(hidden) <= s) and np.any(hidden != 0.0)
    assert np.all(p.weights[(d + 1) * h :] == 0.0)


def test_params_reject_wrong_length_and_nonfinite():
    with pytest.raises(ValidationError):
        PredictorParams(LINEAR3, np.zeros(4))
    with pytest.raises(ValidationError):
        PredictorParams(LINEAR3, np.array([0.0, 0, 0, 0, np.nan]))


# --- forward pass ---------------------------------------------------------------


def _predict_one(params, x, z):
    """The prediction at one (x, z): predict_batch on one row."""
    return float(predict_batch(params, [x], [z])[0])


def test_predict_zero_params_is_zero():
    p = init_params(LINEAR3, 0)
    assert _predict_one(p, [1.0, -2.0, 0.5], 3.0) == 0.0


def test_predict_linear_hand_value():
    # w_x=(1,1), w_z=2, b=0.5, x=(1,2), z=3 -> 1+2+6+0.5
    p = PredictorParams(Architecture("linear", 2), np.array([1.0, 1.0, 2.0, 0.5]))
    assert _predict_one(p, [1.0, 2.0], 3.0) == pytest.approx(9.5, abs=0)


def test_predict_mlp_constant_when_W1_zero():
    d, h = 2, 4
    w = np.zeros(MLP24.n_weights)
    w[-1] = 2.5  # b2
    w[(d + 1) * h + h : (d + 1) * h + 2 * h] = 1.0  # w2; tanh(0) kills it
    p = PredictorParams(MLP24, w)
    for z in (0.0, 5.0, -3.0):
        assert _predict_one(p, [1.0, 9.0], z) == pytest.approx(2.5, abs=0)


def test_predict_dimension_mismatch():
    p = init_params(LINEAR3, 0)
    with pytest.raises(ValidationError):
        _predict_one(p, [1.0, 2.0], 0.0)


UNIFORM = np.full(GRID.n_points, 1.0 / GRID.n_points)
# each public function that takes the (n, d) inputs, called with inputs X and valid other arguments
INPUT_CALLS = {
    "predict_on_grid": lambda p, X: predict_on_grid(p, X, GRID.points),
    "loss_and_grad": lambda p, X: loss_and_grad(
        p, X, np.zeros(4), np.zeros(4), np.ones(4), NEWSVENDOR
    ),
    "task_grad": lambda p, X: task_grad(p, X, GRID, UNIFORM, NEWSVENDOR),
    "model_profile": lambda p, X: model_profile(p, X, NEWSVENDOR),
}


@pytest.mark.parametrize("shape", [(4, 3), (4,)], ids=["d=3", "1-d"])
@pytest.mark.parametrize("arch", [Architecture("linear", 2), MLP24], ids=["linear", "mlp1"])
@pytest.mark.parametrize("call", INPUT_CALLS.values(), ids=INPUT_CALLS.keys())
def test_inputs_of_the_wrong_shape_are_rejected_by_name(call, arch, shape):
    # a d = 2 model: the error names the expected shape, not numpy's matmul
    with pytest.raises(ValidationError, match=r"inputs must be \(n, 2\), got shape"):
        call(init_params(arch, 0), np.zeros(shape))


@pytest.mark.parametrize("Z", [np.zeros(3), np.float64(0.0), np.zeros((4, 1))])
def test_predict_batch_needs_one_action_per_row(Z):
    with pytest.raises(ValidationError):
        predict_batch(init_params(LINEAR3, 0), np.zeros((4, 3)), Z)


def test_predict_batch_matches_scalar():
    rng = np.random.default_rng(0)
    p = _random_params(MLP24, rng)
    X, Z, _, _ = _random_batch(MLP24, rng)
    batch = predict_batch(p, X, Z)
    singles = [_predict_one(p, X[i], Z[i]) for i in range(len(Z))]
    # one-row and many-row matmuls may take different BLAS paths
    assert np.allclose(batch, singles, rtol=1e-12, atol=0)


def test_linear_predict_batch_is_the_affine_map_bit_for_bit():
    # the paired rows go through the grid pass with one action per row
    rng = np.random.default_rng(3)
    p = _random_params(LINEAR3, rng)
    X, Z, _, _ = _random_batch(LINEAR3, rng, n=50)
    w_x, w_z, b = _unpack_linear(LINEAR3, p.weights)
    assert np.array_equal(predict_batch(p, X, Z), X @ w_x + w_z * Z + b)


def test_predict_on_grid_matches_scalar():
    rng = np.random.default_rng(1)
    for arch in (LINEAR3, MLP24):
        p = _random_params(arch, rng)
        X = rng.normal(size=(5, arch.feature_dim))
        P = predict_on_grid(p, X, GRID.points)
        assert P.shape == (5, GRID.n_points)
        for j in (0, 3):
            for k in (0, 7, 20):
                assert P[j, k] == pytest.approx(
                    _predict_one(p, X[j], GRID.points[k]), rel=1e-15
                )


def test_mlp_lipschitz_in_z():
    # |h(x,z1)-h(x,z2)| <= ||w2|| * ||W1 z-column|| * |z1-z2|
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = _random_params(MLP24, rng)
        d = MLP24.feature_dim
        W1 = p.weights[: (d + 1) * MLP24.hidden_units].reshape(MLP24.hidden_units, d + 1)
        w2 = p.weights[(d + 1) * 4 + 4 : (d + 1) * 4 + 8]
        bound = np.linalg.norm(w2) * np.linalg.norm(W1[:, d])
        x = rng.normal(size=d)
        z1, z2 = rng.uniform(-5, 5, size=2)
        gap = abs(_predict_one(p, x, z1) - _predict_one(p, x, z2))
        assert gap <= bound * abs(z1 - z2) + 1e-12


# --- predictive loss gradient ---------------------------------------------------


def test_loss_zero_at_perfect_fit():
    p = PredictorParams(Architecture("linear", 2), np.array([1.0, 0.0, 0.5, 0.0]))
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2))
    Z = rng.uniform(0, 10, size=6)
    Y = predict_batch(p, X, Z)
    loss, grad = loss_and_grad(p, X, Z, Y, np.ones(6), NEWSVENDOR)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_zero_weights():
    rng = np.random.default_rng(4)
    p = _random_params(MLP24, rng)
    X, Z, Y, _ = _random_batch(MLP24, rng)
    loss, grad = loss_and_grad(p, X, Z, Y, np.zeros(len(Z)), NEWSVENDOR)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_rejects_empty_or_negative_weights():
    p = init_params(LINEAR3, 0)
    with pytest.raises(ValidationError):
        loss_and_grad(p, np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0), NEWSVENDOR)
    with pytest.raises(ValidationError):
        loss_and_grad(p, np.zeros((1, 3)), np.zeros(1), np.zeros(1), np.array([-1.0]), NEWSVENDOR)


@pytest.mark.parametrize("arch", [LINEAR3, MLP24], ids=["linear", "mlp1"])
@pytest.mark.parametrize("short", ["Z", "Y", "weights"])
def test_loss_rejects_columns_of_different_lengths(arch, short):
    # a one-entry column would broadcast against the others
    rng = np.random.default_rng(5)
    batch = dict(zip(["X", "Z", "Y", "weights"], _random_batch(arch, rng, n=5)))
    batch[short] = batch[short][:1]
    with pytest.raises(ValidationError):
        loss_and_grad(_random_params(arch, rng), **batch, problem=NEWSVENDOR)


@pytest.mark.parametrize("arch", [LINEAR3, MLP24], ids=["linear", "mlp1"])
def test_loss_grad_matches_finite_differences(arch):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = _random_params(arch, rng)
        X, Z, Y, W = _random_batch(arch, rng)
        _, analytic = loss_and_grad(p, X, Z, Y, W, NEWSVENDOR)
        numeric = fd_gradient(
            lambda q: loss_and_grad(q, X, Z, Y, W, NEWSVENDOR)[0], p
        )
        assert_grad_close(analytic, numeric)


def test_loss_linear_in_weights():
    rng = np.random.default_rng(6)
    p = _random_params(MLP24, rng)
    X, Z, Y, _ = _random_batch(MLP24, rng)
    ones = np.ones(len(Z))
    c = 3.7
    base_loss, base_grad = loss_and_grad(p, X, Z, Y, ones, NEWSVENDOR)
    scaled_loss, scaled_grad = loss_and_grad(p, X, Z, Y, c * ones, NEWSVENDOR)
    assert scaled_loss == pytest.approx(c * base_loss, rel=1e-12)
    np.testing.assert_allclose(scaled_grad, c * base_grad, rtol=1e-12)


# --- task gradient ---------------------------------------------------------------


def _one_hot(k, n):
    p = np.zeros(n)
    p[k] = 1.0
    return p


def test_task_grad_zero_when_cost_ignores_outcome():
    from predopt.problems import Problem

    # the cost z: one knot, slopes 0 on both sides, value z
    flat = Problem(GRID, lambda z: ((z,), (0.0, 0.0), z), "outcome-free")
    rng = np.random.default_rng(7)
    p = _random_params(LINEAR3, rng)
    X = rng.normal(size=(4, 3))
    loss, grad = task_grad(p, X, GRID, _one_hot(0, GRID.n_points), flat)
    assert loss == pytest.approx(GRID.points[0])
    assert np.all(grad == 0.0)


def test_task_loss_zero_params_newsvendor():
    # predictions identically 0 -> task_loss = sum_k p_k g(z_k, 0)
    p = init_params(LINEAR3, 0)
    X = np.zeros((1, 3))
    probs = action_distribution(model_profile(p, X, NEWSVENDOR), tau=1.0)
    loss, _ = task_grad(p, X, GRID, probs, NEWSVENDOR)
    expected = probs @ NEWSVENDOR.task_cost(GRID.points, 0.0)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_task_grad_rejects_bad_probs():
    p = init_params(LINEAR3, 0)
    X = np.zeros((2, 3))
    k = GRID.n_points
    for scale in (1.01, float("nan")):
        bad = np.full(k, 1.0 / k) * scale
        with pytest.raises(ValidationError, match="action_probs must sum to 1"):
            task_grad(p, X, GRID, bad, NEWSVENDOR)
    negative = np.eye(k)[0] * 2.0 - np.eye(k)[1]  # sums to 1
    with pytest.raises(ValidationError, match="action_probs must sum to 1 .* every entry >= 0"):
        task_grad(p, X, GRID, negative, NEWSVENDOR)
    for n in (k - 1, k + 1):
        with pytest.raises(ValidationError, match=f"action_probs length must match .*, got {n}"):
            task_grad(p, X, GRID, np.full(n, 1.0 / n), NEWSVENDOR)


@pytest.mark.parametrize("arch", [LINEAR3, Architecture("mlp1", 3, 4)], ids=["linear", "mlp1"])
def test_task_grad_rejects_a_grid_that_is_not_the_problems(arch):
    # the profile reads the problem's grid; another grid, of its size or not, would
    # pair the problem's knots with other actions, so it is refused by name
    p = init_params(arch, 0)
    X = np.random.default_rng(0).normal(size=(5, 3))
    for grid in (make_grid(0.0, 20.0, 21), make_grid(0.0, 10.0, 11)):
        probs = np.full(grid.n_points, 1.0 / grid.n_points)
        with pytest.raises(ValidationError, match="^grid must be the problem's grid$"):
            task_grad(p, X, grid, probs, NEWSVENDOR)
    same = task_grad(p, X, make_grid(0, 10, 21), UNIFORM, NEWSVENDOR)
    assert same[0] == task_grad(p, X, GRID, UNIFORM, NEWSVENDOR)[0]


def _newsvendor_kink_gap(z, P):
    return np.abs(P - z)  # kink at y = z


def _pricing_kink_gap(z, P):
    return np.minimum(np.abs(P), np.abs(P - CAPACITY))  # kinks at y = 0 and y = capacity


# a linear model on pricing takes the dense grid pass, on newsvendor the kernel
@pytest.mark.parametrize(
    "arch, problem, kink_gap",
    [
        pytest.param(LINEAR3, NEWSVENDOR, _newsvendor_kink_gap, id="linear"),
        pytest.param(MLP24, NEWSVENDOR, _newsvendor_kink_gap, id="mlp1"),
        pytest.param(LINEAR3, PRICING, _pricing_kink_gap, id="pricing-linear"),
        pytest.param(MLP24, PRICING, _pricing_kink_gap, id="pricing-mlp1"),
    ],
)
def test_task_grad_matches_finite_differences(arch, problem, kink_gap):
    rng = np.random.default_rng(8)
    checked = nonzero = 0
    while checked < 20:
        p = _random_params(arch, rng)
        X = rng.normal(size=(6, arch.feature_dim))
        probs = rng.dirichlet(np.ones(GRID.n_points))
        # skip draws whose predictions sit within FD reach of a cost kink
        if np.min(kink_gap(GRID.points, predict_on_grid(p, X, GRID.points))) < 1e-3:
            continue
        _, analytic = task_grad(p, X, GRID, probs, problem)
        numeric = fd_gradient(lambda q: task_grad(q, X, GRID, probs, problem)[0], p)
        assert_grad_close(analytic, numeric)
        checked += 1
        nonzero += bool(np.any(analytic != 0.0))
    assert nonzero >= 10


# --- the mlp1 task gradient against the einsum reference ---------------------------


def _einsum_task_grad_body(
    arch: Architecture, w: np.ndarray, X, points, P, T, probs, problem, work=None
):
    """Gradient of sum_k p_k * gbar(z_k) given the grid pass (P, T) at weights w.

    For mlp1, `work` is an optional pair of (m, K, h) arrays to compute in.
    """
    m = X.shape[0]
    C = (problem.task_cost_grad_y(points[None, :], P) * probs[None, :]) / m  # (m, K)
    if arch.kind == "linear":
        return _linear_task_grad(w, X, points, C.sum(axis=1), C.sum(axis=0), C.sum())

    grad = np.empty_like(w)
    d = arch.feature_dim
    _, _, w2, _ = _unpack_mlp1(arch, w)
    h = arch.hidden_units
    U, V = work if work is not None else (np.empty_like(T), np.empty_like(T))
    # S = C[:, :, None] * w2 * (1 - T * T), backprop through tanh, (m, K, h)
    np.multiply(C[:, :, None], w2, out=U)
    np.multiply(T, T, out=V)
    np.subtract(1.0, V, out=V)
    S = np.multiply(U, V, out=U)
    gW1 = np.empty((h, d + 1))
    gW1[:, :d] = np.einsum("jkh,jd->hd", S, X)
    gW1[:, d] = np.einsum("jkh,k->h", S, points)
    grad[: (d + 1) * h] = gW1.ravel()
    grad[(d + 1) * h : (d + 1) * h + h] = S.sum(axis=(0, 1))
    grad[(d + 1) * h + h : (d + 1) * h + 2 * h] = np.einsum("jkh,jk->h", T, C)
    grad[-1] = C.sum()
    return grad


MLP38 = Architecture("mlp1", feature_dim=3, hidden_units=8)


# The einsum body above is the elementwise backprop S = C * w2 * (1 - T*T)
# reduced three times; the package reduces over actions with batched matmuls.
# Both form 1 - T*T elementwise, so where |tanh| is near 1 they differ only by
# summation order. The saturated case scales the hidden weights until most
# |tanh| > 0.995, where sum C - sum C*T*T loses most of its digits.
@pytest.mark.parametrize("problem", [NEWSVENDOR, PRICING], ids=["newsvendor", "pricing"])
@pytest.mark.parametrize("hidden_scale", [0.7, 30.0], ids=["moderate", "saturated"])
def test_mlp1_task_grad_body_matches_einsum_reference(problem, hidden_scale):
    rng = np.random.default_rng(11)
    arch, points = MLP38, GRID.points
    d, h = arch.feature_dim, arch.hidden_units
    for _ in range(5):
        w = rng.normal(scale=0.7, size=arch.n_weights)
        w[: (d + 1) * h + h] *= hidden_scale / 0.7  # W1 and b1
        X = rng.normal(size=(30, d))
        probs = rng.dirichlet(np.ones(GRID.n_points))
        P, T = _grid_pass(arch, w, X, points[None, :])
        if hidden_scale > 1:
            assert np.mean(np.abs(T) > 0.995) > 0.9
        want = _einsum_task_grad_body(arch, w, X, points, P, T, probs, problem)
        got = _profile(arch, w, X, problem)[1](probs)
        assert np.any(want != 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


# --- the mlp1 predictive gradient against the paired-row reference -----------------


def _paired_predict_batch(arch: Architecture, w: np.ndarray, X: np.ndarray, Z: np.ndarray):
    if arch.kind == "linear":
        w_x, w_z, b = _unpack_linear(arch, w)
        return X @ w_x + w_z * Z + b
    W1, b1, w2, b2 = _unpack_mlp1(arch, w)
    d = arch.feature_dim
    A = X @ W1[:, :d].T + np.outer(Z, W1[:, d]) + b1
    return np.tanh(A) @ w2 + b2


def _paired_loss_and_grad(arch: Architecture, w: np.ndarray, X, Z, Y, weights):
    n = Z.shape[0]
    diff = _paired_predict_batch(arch, w, X, Z) - Y
    loss = float(np.mean(weights * (diff * diff)))
    # c_i = (1/n) w_i dl/dy_hat_i; grad = sum_i c_i dy_hat_i/dtheta
    c = weights * (2.0 * diff) / n

    if arch.kind == "linear":
        return loss, _linear_task_grad(w, X, Z, c, c, c.sum())

    grad = np.empty_like(w)
    d = arch.feature_dim
    W1, b1, w2, _ = _unpack_mlp1(arch, w)
    h = arch.hidden_units
    U = np.column_stack([X, Z])
    T = np.tanh(U @ W1.T + b1)
    S = (c[:, None] * w2) * (1.0 - T * T)  # (n, h) backprop through tanh
    grad[: (d + 1) * h] = (S.T @ U).ravel()
    grad[(d + 1) * h : (d + 1) * h + h] = S.sum(axis=0)
    grad[(d + 1) * h + h : (d + 1) * h + 2 * h] = T.T @ c
    grad[-1] = c.sum()
    return loss, grad


# The reference above is the paired-row forward pass and backprop that the
# predictive loss used before it became a grid pass with one action per row
# and shared _mlp1_grad with the task term. Both form 1 - T*T elementwise, so
# they differ only by summation order, saturated units included.
@pytest.mark.parametrize("hidden_scale", [0.7, 30.0], ids=["moderate", "saturated"])
def test_mlp1_loss_and_grad_matches_paired_reference(hidden_scale):
    rng = np.random.default_rng(13)
    arch = MLP38
    d, h = arch.feature_dim, arch.hidden_units
    for _ in range(5):
        w = rng.normal(scale=0.7, size=arch.n_weights)
        w[: (d + 1) * h + h] *= hidden_scale / 0.7  # W1 and b1
        X, Z, Y, W = _random_batch(arch, rng, n=40)
        if hidden_scale > 1:
            T = _grid_pass(arch, w, X, Z[:, None])[1]
            assert np.mean(np.abs(T) > 0.995) > 0.9
        want_loss, want = _paired_loss_and_grad(arch, w, X, Z, Y, W)
        got_loss, got = loss_and_grad(PredictorParams(arch, w), X, Z, Y, W, NEWSVENDOR)
        assert np.any(want != 0.0)
        np.testing.assert_allclose(got_loss, want_loss, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("problem", [NEWSVENDOR, PRICING], ids=["newsvendor", "pricing"])
def test_mlp1_task_grad_repeats_and_matches_model_profile(problem):
    # the task gradient overwrites the activations it reads, so each call must
    # start from a fresh grid pass, as each fit iteration's _profile call does
    rng = np.random.default_rng(12)
    p = _random_params(MLP38, rng)
    X = rng.normal(size=(25, MLP38.feature_dim))
    probs = rng.dirichlet(np.ones(GRID.n_points))
    loss, grad = task_grad(p, X, GRID, probs, problem)
    loss2, grad2 = task_grad(p, X, GRID, probs, problem)
    assert loss2 == loss and np.array_equal(grad2, grad)
    assert loss == probs @ model_profile(p, X, problem).values
    # two consecutive calls on the same weights, each gradient taken once
    values, grad_at = _profile(MLP38, p.weights, X, problem)
    got = grad_at(probs)
    values2, grad_at2 = _profile(MLP38, p.weights, X, problem)
    assert np.array_equal(values2, values) and probs @ values == loss
    assert np.array_equal(grad_at2(probs), got) and np.array_equal(got, grad)


# --- row blocks ------------------------------------------------------------------


def _broadcast_grid_pass(arch: Architecture, w: np.ndarray, X, Z):
    """The mlp1 forward pass as one broadcast add of the input and action terms
    over the whole tensor, as it ran before the row blocks."""
    W1, b1, w2, b2 = _unpack_mlp1(arch, w)
    d = arch.feature_dim
    T = np.tanh(np.add((X @ W1[:, :d].T + b1)[:, None, :], Z[..., None] * W1[:, d]))
    return T @ w2 + b2, T


@pytest.mark.parametrize("m", [0, 1, 2, 7, 8, 400])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_row_blocks_cover_the_rows_in_order(m, n):
    blocks = _row_blocks(m, n)
    assert len(blocks) == max(1, min(n, m))
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [s.stop - s.start for s in blocks]
    assert max(sizes) - min(sizes) <= 1


@pytest.fixture(scope="module")
def runners():
    """Block runners to hold against one inline block: three blocks over one
    worker, five over four (more threads than this machine may have cores),
    and a fit's own runner."""
    with ThreadPoolExecutor(1) as one, ThreadPoolExecutor(4) as four, _pass_runner(MLP38) as fit:
        yield {"pool-3": _in_blocks(3, one), "pool-5": _in_blocks(5, four), "fit": fit}


# m = 1, fewer rows than blocks, an odd count, and the benchmark's validation rows
ROWS = [1, 2, 7, 400]


@pytest.mark.parametrize("shape", ["grid-row", "paired-column"])
@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("runner", ["pool-3", "pool-5", "fit"])
def test_blocked_mlp1_pass_and_backprop_are_bit_identical(runners, runner, m, shape):
    rng = np.random.default_rng(m)
    w = rng.normal(scale=0.7, size=MLP38.n_weights)
    X = rng.normal(size=(m, MLP38.feature_dim))
    Z = GRID.points[None, :] if shape == "grid-row" else rng.uniform(0, 10, size=(m, 1))
    P1, T1 = _grid_pass(MLP38, w, X, Z, _inline)
    P, T = _grid_pass(MLP38, w, X, Z, runners[runner])
    P0, T0 = _broadcast_grid_pass(MLP38, w, X, Z)
    assert np.array_equal(T, T1) and np.array_equal(P, P1)
    assert np.array_equal(T, T0) and np.array_equal(P, P0)  # copy-then-add is the same sum
    C = rng.normal(size=P.shape)
    got = _mlp1_grad(MLP38, w, X, Z, T, C, runners[runner])
    assert np.array_equal(got, _mlp1_grad(MLP38, w, X, Z, T1, C, _inline))
    assert np.array_equal(T, T1)  # both overwritten with 1 - T*T
    if shape == "paired-column":  # the single-call paths run one inline block
        assert np.array_equal(P[:, 0], predict_batch(PredictorParams(MLP38, w), X, Z[:, 0]))
        Y, W = rng.normal(size=m), rng.uniform(0.1, 2.0, size=m)
        c = W * (2.0 * (P[:, 0] - Y)) / m
        _, want = loss_and_grad(PredictorParams(MLP38, w), X, Z[:, 0], Y, W, NEWSVENDOR)
        T = _grid_pass(MLP38, w, X, Z, runners[runner])[1]
        assert np.array_equal(_mlp1_grad(MLP38, w, X, Z, T, c[:, None], runners[runner]), want)


@pytest.mark.parametrize("problem", [NEWSVENDOR, PRICING], ids=["newsvendor", "pricing"])
@pytest.mark.parametrize("m", ROWS)
@pytest.mark.parametrize("runner", ["pool-3", "pool-5", "fit"])
def test_blocked_profile_and_task_gradient_are_bit_identical(runners, runner, m, problem):
    rng = np.random.default_rng(m + 1)
    w = rng.normal(scale=0.7, size=MLP38.n_weights)
    X = rng.normal(size=(m, MLP38.feature_dim))
    probs = rng.dirichlet(np.ones(GRID.n_points))
    values, grad_at = _profile(MLP38, w, X, problem, runners[runner])
    values1, grad_at1 = _profile(MLP38, w, X, problem)
    assert np.array_equal(values, values1)
    assert np.array_equal(grad_at(probs), grad_at1(probs))


def test_blocks_on_more_threads_than_cores_switching_often_stay_bit_identical():
    # a block that wrote another's rows, or a run that returned before every
    # block had ended, would show as a changed value or gradient
    rng = np.random.default_rng(5)
    w = rng.normal(scale=0.7, size=MLP38.n_weights)
    X = rng.normal(size=(400, MLP38.feature_dim))
    probs = rng.dirichlet(np.ones(GRID.n_points))
    want, grad_at = _profile(MLP38, w, X, NEWSVENDOR)
    want_grad = grad_at(probs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            run = _in_blocks(8, pool)
            for _ in range(10):
                values, grad_at = _profile(MLP38, w, X, NEWSVENDOR, run)
                assert np.array_equal(values, want)
                assert np.array_equal(grad_at(probs), want_grad)
    finally:
        sys.setswitchinterval(interval)


def test_a_fit_runs_its_blocks_on_a_pool_that_ends_with_it():
    before = threading.active_count()
    cpus = len(os.sched_getaffinity(0))
    seen = []
    with _pass_runner(MLP38) as run:
        run(lambda rows: seen.append((rows, threading.get_ident())), 400)
    assert sorted((s.start, s.stop) for s, _ in seen) == [
        (s.start, s.stop) for s in _row_blocks(400, cpus)
    ]
    assert len({thread for _, thread in seen}) == min(cpus, 2)
    with _pass_runner(LINEAR3) as run:  # a linear fit forms no tensor
        assert run is _inline
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 4], ids=["this-thread", "pool"])
def test_an_error_in_a_block_is_raised_once_every_block_has_ended(failing):
    raised = MemoryError("block")
    ended = []

    def block(rows):  # rows 0-1 on this thread, 2-3 and 4-5 on the pool
        if rows.start == failing:
            raise raised
        ended.append(rows.start)

    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(MemoryError) as err:
            _in_blocks(3, pool)(block, 6)
        assert err.value is raised
        assert sorted(ended) == [s for s in (0, 2, 4) if s != failing]


# --- checkpoints -----------------------------------------------------------------


@pytest.mark.parametrize("arch", [LINEAR3, MLP24], ids=["linear", "mlp1"])
def test_checkpoint_round_trip(tmp_path, arch):
    rng = np.random.default_rng(9)
    p = _random_params(arch, rng)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    back = load_checkpoint(path)
    assert back.architecture == p.architecture
    assert np.array_equal(back.weights, p.weights)
    blob = json.loads(path.read_text())
    assert set(blob) == {"architecture", "weights"}
    assert "activation" not in blob["architecture"]
    # tanh is the only activation, so a checkpoint that names one is rejected like any unknown key
    blob["architecture"]["activation"] = "tanh"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match=r"unknown checkpoint key 'architecture\.activation'"):
        load_checkpoint(path)
