import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predopt.cli import load_config
from predopt.core import ValidationError, WeightConfig, make_grid, split_dataset
from predopt.evaluation import ExperimentConfig, _seed_setup, derive_seeds
from predopt.objective import (
    CostProfile,
    action_distribution,
    argmin_profile,
    empirical_profile,
    gamma_weight,
    model_profile,
    omega_weight,
)
from predopt.predictor import (
    Architecture,
    PredictorParams,
    _Moments,
    _batch_loss_and_grad,
    _full_batch,
    init_params,
    loss_and_grad,
    task_grad,
)
from predopt.problems import TrueModel, gen_dataset, oracle_action, problem_from_model
from predopt.training import (
    HistoryRow,
    TrainConfig,
    TrainingError,
    _all_finite,
    save_history_csv,
    simpo_fit,
    two_stage_fit,
)
from test_evaluation import _traced_peak
from test_problems import _dense_profile

GRID = make_grid(0.0, 20.0, 201)


def _world(**overrides):
    kwargs = dict(
        kind="newsvendor",
        base_weights=(2.0, -1.0),
        intercept=16.0,
        action_effect=-0.3,
        nonlinearity=0.0,
        noise_sd=1.0,
        feature_sd=1.5,
        cost_params={"c_h": 1.0, "c_s": 3.0},
        logging={"policy": "uniform"},
    )
    kwargs.update(overrides)
    return TrueModel(**kwargs)


def _splits(model, n, seed, grid=GRID):
    data = gen_dataset(model, n, grid, seed)
    return split_dataset(data, 0.6, 0.2, seed + 1)


def _config(**overrides):
    kwargs = dict(
        weight_config=WeightConfig(alpha=2.0, beta=20.0, tau=0.5),
        learning_rate=3e-3,
        max_iters=60,
        tol=1e-9,
        patience=10,
        seed=0,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# --- the stop rule ----------------------------------------------------------------


def _window_stop(F, max_iters, patience, tol):
    """(iters_run, converged) for a fit whose F values are F, by scanning the
    last patience + 1 values after each iteration: stop at the cap, or when
    every relative improvement in that window is below tol; converged when
    that stop comes before the cap and F ends no higher than the window began."""
    for n in range(1, max_iters + 1):
        window = F[n - patience - 1 : n] if n > patience else []
        pairs = zip(window, window[1:])
        if window and all((a - b) / max(abs(a), 1e-12) < tol for a, b in pairs):
            return n, n < max_iters and F[n - 1] <= window[0]
    return max_iters, False


_STOP_PROBLEM = problem_from_model(_world(), GRID)
_STOP_TRAIN, _STOP_VAL, _ = _splits(_world(), 60, seed=0)


def _scripted_fit(F, max_iters, patience, tol):
    """A two-stage fit whose i-th loss is F[i] with a zero gradient: omega =
    gamma = 1, so F[i] is the i-th row's F, and the weights never move."""
    import predopt.training

    values = iter(F)

    def scripted(arch, w, batch):
        return next(values), np.zeros_like(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(predopt.training, "_batch_loss_and_grad", scripted)
        cfg = _config(max_iters=max_iters, patience=patience, tol=tol)
        res = two_stage_fit(_STOP_PROBLEM, _STOP_TRAIN, _STOP_VAL, LINEAR, cfg)
    assert [row.total for row in res.history] == list(F[: res.iters_run])
    return res


STOP_CASES = [
    # F, max_iters, patience, tol, iters_run, converged
    pytest.param([9, 8, 7, 6, 5], 5, 3, 1e-6, 5, False, id="cap"),
    pytest.param([16 / 2**k for k in range(30)], 30, 3, 1e-3, 30, False, id="halving"),
    pytest.param([5, 4, 3, 3, 3, 3, 3, 3], 100, 4, 1e-6, 7, True, id="plateau"),
    pytest.param([3] * 10, 100, 4, 1e-6, 5, True, id="needs-a-full-window"),
    pytest.param([9, 8, 8, 8, 8], 5, 3, 1e-6, 5, False, id="stall-completes-on-the-cap"),
    pytest.param([9, 8, 8, 8, 8, 8], 6, 3, 1e-6, 5, True, id="stall-completes-before-the-cap"),
    pytest.param([4, 4, 5, 5, 5], 10, 3, 1e-6, 4, False, id="window-rose"),
]


@pytest.mark.parametrize("F, max_iters, patience, tol, iters_run, converged", STOP_CASES)
def test_stop_rule_cases(F, max_iters, patience, tol, iters_run, converged):
    res = _scripted_fit([float(v) for v in F], max_iters, patience, tol)
    assert (res.iters_run, res.converged) == (iters_run, converged)
    assert _window_stop(F, max_iters, patience, tol) == (iters_run, converged)


_STEPS = {"halve": 0.5, "repeat": 1.0, "rise": 1.5, "nudge": 1 - 1e-7}


@settings(max_examples=200, deadline=None)
@given(
    patience=st.integers(1, 6),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]),
    max_iters=st.integers(1, 30),
    start=st.sampled_from([8.0, 1e-13, -3.0]),
    steps=st.lists(st.sampled_from(sorted(_STEPS)), min_size=29, max_size=29),
)
def test_stop_rule_matches_the_window_scan(patience, tol, max_iters, start, steps):
    F = [start]
    for step in steps:
        F.append(F[-1] * _STEPS[step])
    res = _scripted_fit(F, max_iters, patience, tol)
    assert (res.iters_run, res.converged) == _window_stop(F, max_iters, patience, tol)


# --- fits ------------------------------------------------------------------------


def test_max_iters_one_gives_one_history_entry():
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=0)
    res = two_stage_fit(problem, train, val, Architecture("linear", 2), _config(max_iters=1))
    assert res.iters_run == 1 and len(res.history) == 1
    with pytest.raises(ValidationError):
        _config(max_iters=0)


@pytest.mark.parametrize("value", [2.5, -1, True], ids=["2.5", "-1", "True"])
@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda v: _config(seed=v), "seed", id="seed"),
        pytest.param(lambda v: Architecture("linear", v), "feature_dim", id="feature_dim"),
        pytest.param(lambda v: Architecture("mlp1", 2, v), "hidden_units", id="hidden_units"),
        pytest.param(lambda v: Architecture("linear", 2, v), "hidden_units", id="linear-hidden"),
    ],
)
def test_seeds_and_sizes_are_checked_by_name(build, field, value):
    with pytest.raises(ValidationError, match=field):
        build(value)


def test_two_stage_deterministic(tmp_path):
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 300, seed=1)
    cfg = _config(max_iters=30, batch_size=16)
    a = two_stage_fit(problem, train, val, Architecture("linear", 2), cfg)
    b = two_stage_fit(problem, train, val, Architecture("linear", 2), cfg)
    assert np.array_equal(a.params_star.weights, b.params_star.weights)
    # two-stage rows log z_star_test as nan, and nan != nan, so compare the
    # logs byte for byte
    save_history_csv(a.history, tmp_path / "a.csv")
    save_history_csv(b.history, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (a.z_star, a.g_star, a.iters_run, a.converged) == (
        b.z_star,
        b.g_star,
        b.iters_run,
        b.converged,
    )


def test_reduction_simpo_equals_two_stage_bitwise():
    model = _world()
    problem = problem_from_model(model, GRID)
    cfg_off = _config(
        weight_config=WeightConfig(alpha=0.0, beta=20.0, tau=0.5, task_term_enabled=False),
        max_iters=40,
        batch_size=8,
    )
    for seed in (0, 1, 2):
        train, val, _ = _splits(model, 200, seed=seed)
        a = simpo_fit(problem, train, val, Architecture("linear", 2), cfg_off)
        b = two_stage_fit(problem, train, val, Architecture("linear", 2), cfg_off)
        assert np.array_equal(a.params_star.weights, b.params_star.weights)
        assert [r.total for r in a.history] == [r.total for r in b.history]
        assert [r.pred_term for r in a.history] == [r.pred_term for r in b.history]
        assert a.z_star == b.z_star and a.g_star == b.g_star


def test_history_rows_compose_exactly():
    model = _world(nonlinearity=-0.04, action_effect=0.9)
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 300, seed=2)
    res = simpo_fit(problem, train, val, Architecture("linear", 2), _config(max_iters=50))
    for row in res.history:
        composed = row.pred_term * row.omega + row.task_term * row.gamma
        assert row.total == pytest.approx(composed, rel=1e-12)
    # two-stage: unit weights and the task term recorded as 0, so F is the loss
    base = two_stage_fit(problem, train, val, Architecture("linear", 2), _config(max_iters=50))
    for row in base.history:
        assert (row.omega, row.gamma, row.task_term) == (1.0, 1.0, 0.0)
        assert row.total == row.pred_term


def test_g_star_matches_final_profile():
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=3)
    res = simpo_fit(problem, train, val, Architecture("linear", 2), _config(max_iters=30))
    prof = model_profile(res.params_star, val.X, problem)
    k = GRID.index_of(res.z_star)
    assert res.z_star == argmin_profile(prof)
    assert res.g_star == pytest.approx(prof.values[k], rel=1e-12)


def test_gamma_underflow_does_not_abort_training():
    # at a huge beta, exp(-beta * gap) underflows to exactly 0 while the
    # anchors disagree; the fit must go on with the task term weighted out
    model = _world(nonlinearity=-0.04, action_effect=0.9)
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=2)
    wc = WeightConfig(alpha=2.0, beta=1e6, tau=0.5)
    res = simpo_fit(problem, train, val, Architecture("linear", 2), _config(weight_config=wc))
    assert any(row.gamma == 0.0 for row in res.history)


def test_training_abort_names_iteration():
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=4)
    # patience must not fire first: a diverging F counts as "no improvement"
    cfg = _config(learning_rate=1e9, max_iters=100, patience=100)
    with pytest.raises(TrainingError) as err, np.errstate(over="ignore"):
        two_stage_fit(problem, train, val, Architecture("linear", 2), cfg)
    assert err.value.iteration >= 1
    assert str(err.value.iteration) in str(err.value)


@pytest.mark.parametrize("fit", [simpo_fit, two_stage_fit])
def test_fit_on_a_nan_label_is_a_validation_error(fit):
    # one error for bad data, whichever method is asked to fit it
    model = _world()
    train, val, _ = _splits(model, 200, seed=4)
    y = train.y.copy()
    y[3] = np.nan
    with pytest.raises(ValidationError, match="^dataset column y must be finite$"):
        fit(problem_from_model(model, GRID), replace(train, y=y), val, LINEAR, _config())


@pytest.mark.parametrize("fit", [simpo_fit, two_stage_fit])
@pytest.mark.parametrize("kind, hidden", [("linear", 0), ("mlp1", 4)], ids=["linear", "mlp1"])
@pytest.mark.parametrize("split", ["train", "val"])
def test_fit_on_data_with_another_feature_count_is_a_validation_error(fit, kind, hidden, split):
    # three features in one split for a model of two: a ValidationError that
    # names the split, not numpy's matmul error from inside the first step
    model = _world(base_weights=(2.0, -1.0, 0.5))
    train, val, _ = _splits(model, 200, seed=0)
    if split == "train":
        val = replace(val, X=val.X[:, :2])
    else:
        train = replace(train, X=train.X[:, :2])
    pattern = rf"^{split}\.X must be \(n, 2\), got shape \(\d+, 3\)$"
    with pytest.raises(ValidationError, match=pattern):
        fit(problem_from_model(model, GRID), train, val, Architecture(kind, 2, hidden), _config())


def test_two_stage_recovers_zero_noise_linear_world():
    # closed-form check: with no noise and no action effect the fitted model
    # predicts the exact outcome map, so the decision matches the grid scan of
    # the true profile
    model = _world(noise_sd=1e-9, action_effect=0.0, intercept=12.0)
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 400, seed=5)
    cfg = _config(learning_rate=5e-3, max_iters=4000, tol=1e-14, patience=50)
    res = two_stage_fit(problem, train, val, Architecture("linear", 2), cfg)
    # oracle: true expected cost profile scanned on the grid
    action, _cost = oracle_action(model, GRID, n_mc=200000, seed=11)
    assert abs(res.z_star - action) <= 2 * GRID.step + 1e-12


def test_constant_labels_two_stage_picks_label():
    from predopt.problems import Problem

    grid = make_grid(0.0, 10.0, 101)
    # |z - y|: one knot at the action, slope -1 below it and 1 above
    problem = Problem(grid, lambda z: ((z,), (-1.0, 1.0), 0.0), "abs")
    model = _world(intercept=6.3, noise_sd=1e-9, action_effect=0.0, base_weights=(0.0, 0.0))
    train, val, _ = _splits(model, 200, seed=6, grid=grid)
    cfg = _config(learning_rate=0.02, max_iters=2000, tol=1e-14, patience=50)
    res = two_stage_fit(problem, train, val, Architecture("linear", 2), cfg)
    assert abs(res.z_star - 6.3) <= grid.step / 2 + 1e-9


def test_simpo_recovers_well_specified_world_in_500_iters():
    # analytic quantile oracle: well-conditioned world so 500 iterations of
    # full-batch descent land within one grid step of the true optimum
    grid = make_grid(0.0, 10.0, 101)
    model = _world(intercept=8.0, noise_sd=0.3, feature_sd=1.0)
    problem = problem_from_model(model, grid)
    for seed in (0, 1):
        from predopt.evaluation import derive_seeds

        data_seed, split_seed, train_seed, mc_seed = derive_seeds(seed)
        data = gen_dataset(model, 2000, grid, data_seed)
        train, val, _ = split_dataset(data, 0.6, 0.2, split_seed)
        cfg = TrainConfig(
            weight_config=WeightConfig(alpha=0.5, beta=40.0, tau=0.5),
            learning_rate=0.02,
            max_iters=500,
            tol=1e-12,
            patience=500,
            seed=train_seed,
        )
        res = simpo_fit(problem, train, val, Architecture("linear", 2), cfg)
        z_oracle, _ = oracle_action(model, grid, n_mc=200000, seed=mc_seed)
        assert abs(res.z_star - z_oracle) <= grid.step + 1e-12


def test_frozen_coefficient_descent_envelope():
    # replay the simpo update rule by hand with lr <= 1e-3 and a full batch:
    # stepping against the frozen-coefficient gradient should not increase the
    # frozen objective in at least 95% of iterations
    model = _world(nonlinearity=-0.04, action_effect=0.9)
    problem = problem_from_model(model, GRID)
    wc = WeightConfig(alpha=2.0, beta=20.0, tau=0.5)
    drops = 0
    total = 0
    for seed in (0, 1, 2):
        train, val, _ = _splits(model, 200, seed=seed)
        params = init_params(Architecture("linear", 2), seed)
        z_star_train = argmin_profile(empirical_profile(train.y, problem))
        ones = np.ones(len(train))
        for _ in range(100):
            prof = model_profile(params, val.X, problem)
            probs = action_distribution(prof, wc.tau)
            omega = omega_weight(probs, GRID, z_star_train, wc.alpha)
            gamma = gamma_weight(z_star_train, argmin_profile(prof), wc.beta, GRID)

            def frozen_F(p):
                pl, _ = loss_and_grad(p, train.X, train.z_obs, train.y, ones, problem)
                tl, _ = task_grad(p, val.X, GRID, probs, problem)
                return pl * omega + tl * gamma

            _, pred_grad = loss_and_grad(params, train.X, train.z_obs, train.y, ones, problem)
            _, task_grad_vec = task_grad(params, val.X, GRID, probs, problem)
            before = frozen_F(params)
            step = omega * pred_grad + gamma * task_grad_vec
            params = PredictorParams(params.architecture, params.weights - 1e-3 * step)
            after = frozen_F(params)
            total += 1
            if after <= before + 1e-12:
                drops += 1
    assert drops / total >= 0.95


def test_history_csv_round_trip(tmp_path):
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 150, seed=7)
    res = simpo_fit(problem, train, val, Architecture("linear", 2), _config(max_iters=5))
    path = tmp_path / "log.csv"
    save_history_csv(res.history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,F,pred_term,task_term,omega,gamma,z_star_test"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == res.history[0].total


# --- the fused loop against a loop built from the public functions ---------------


def _reference_simpo(
    problem,
    train,
    val,
    arch,
    config,
    profile=model_profile,
    task_gradient=task_grad,
    historical=empirical_profile,
):
    """simpo_fit written out with the public per-step functions, each iteration
    building its own profile and its own task gradient; `profile`,
    `task_gradient` and `historical` take the place of model_profile, task_grad
    and empirical_profile."""
    wc, grid = config.weight_config, problem.grid
    z_star_train = argmin_profile(historical(train.y, problem))
    params = init_params(arch, config.seed)
    batch_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    ones = np.ones(len(train))
    history = []
    while True:
        if config.batch_size == 0:
            idx = np.arange(len(train))
        else:
            idx = batch_rng.choice(len(train), size=config.batch_size, replace=False)
        current = profile(params, val.X, problem)
        probs = action_distribution(current, wc.tau)
        z_star_test = argmin_profile(current)
        omega = omega_weight(probs, grid, z_star_train, wc.alpha)
        gamma = gamma_weight(z_star_train, z_star_test, wc.beta, grid)
        X, Z, Y = train.X[idx], train.z_obs[idx], train.y[idx]
        pl, pg = loss_and_grad(params, X, Z, Y, ones[idx], problem)
        if wc.task_term_enabled:
            tl, tg = task_gradient(params, val.X, grid, probs, problem)
            step = omega * pg + gamma * tg
        else:
            tl, step = 0.0, omega * pg
        history.append(
            HistoryRow(len(history) + 1, pl * omega + tl * gamma, pl, tl, omega, gamma, z_star_test)
        )
        params = PredictorParams(arch, params.weights - config.learning_rate * step)
        # the stop rule as a scan of the last patience + 1 values of F
        window = [row.total for row in history[-config.patience - 1 :]]
        stalled = len(window) > config.patience and all(
            (a - b) / max(abs(a), 1e-12) < config.tol for a, b in zip(window, window[1:])
        )
        if len(history) >= config.max_iters or stalled:
            break
    final = profile(params, val.X, problem)
    z_star = argmin_profile(final)
    return params, tuple(history), z_star, float(final.values[grid.index_of(z_star)])


PRICING_GRID = make_grid(0.0, 6.0, 61)
PRICING_WORLD = dict(
    kind="pricing",
    base_weights=(0.5,),
    intercept=12.0,
    action_effect=-2.0,
    nonlinearity=0.0,
    noise_sd=0.5,
    feature_sd=1.0,
    cost_params={"capacity": 50.0},
)

# world, grid, arch, config overrides, and whether the fit must match the
# reference bit for bit: it must where both read the rows (mlp1, minibatches);
# a linear full-batch fit reads the moments of the rows, which round differently
REFERENCE_CASES = [
    # F descends at every step (at lr 3e-3 this world's F would grow about
    # 1.9-fold per step, and a match on a blow-up shows little)
    pytest.param(
        {}, GRID, Architecture("linear", 2), {"learning_rate": 1e-3}, False, id="newsvendor-linear"
    ),
    pytest.param(
        {}, GRID, Architecture("mlp1", 2, hidden_units=6), {"batch_size": 32}, True,
        id="newsvendor-mlp1",
    ),
    pytest.param(
        {}, GRID, Architecture("linear", 2), {"learning_rate": 1e-3, "batch_size": 32}, True,
        id="newsvendor-linear-minibatch",
    ),
    pytest.param(
        PRICING_WORLD,
        PRICING_GRID,
        Architecture("linear", 1),
        {
            "weight_config": WeightConfig(alpha=1.0, beta=40.0, tau=1.0, task_term_enabled=False),
            "learning_rate": 0.01,
        },
        False,
        id="pricing-task-off",
    ),
    # stops on the stall count at iteration 7 of 40, so the reference's
    # window scan and the fit's running count are both put to the test
    pytest.param(
        {}, GRID, Architecture("linear", 2), {"learning_rate": 1e-3, "tol": 1e-2, "patience": 3},
        False,
        id="newsvendor-linear-stall-stop",
    ),
]


@pytest.mark.parametrize("world, grid, arch, overrides, bitwise", REFERENCE_CASES)
def test_fused_loop_matches_reference_loop_bitwise(world, grid, arch, overrides, bitwise):
    model = _world(**{"nonlinearity": -0.04, "action_effect": 0.9, **world})
    problem = problem_from_model(model, grid)
    train, val, _ = _splits(model, 300, seed=2, grid=grid)
    cfg = _config(**{"max_iters": 40, "patience": 40, **overrides})
    res = simpo_fit(problem, train, val, arch, cfg)
    params, history, z_star, g_star = _reference_simpo(problem, train, val, arch, cfg)
    F = [row.total for row in res.history]
    if cfg.batch_size == 0:
        assert all(b < a for a, b in zip(F, F[1:]))
    if bitwise:
        assert np.array_equal(res.params_star.weights, params.weights)
        assert res.history == history
        assert (res.z_star, res.g_star) == (z_star, g_star)
        return
    # the same anchor at every step (so the same stop) and the same decision;
    # the same weights and F up to rounding
    assert [r.z_star_test for r in res.history] == [r.z_star_test for r in history]
    assert res.z_star == z_star
    np.testing.assert_allclose(res.params_star.weights, params.weights, rtol=1e-12, atol=0)
    np.testing.assert_allclose(F, [row.total for row in history], rtol=1e-12, atol=0)


@pytest.mark.parametrize("world, grid, arch, overrides, bitwise", REFERENCE_CASES)
def test_two_stage_matches_reference_loop_with_weights_off(
    tmp_path, world, grid, arch, overrides, bitwise
):
    # two-stage is the joint loop at alpha = 0 with the task term off, here
    # against the loop built from the public functions at those weights
    model = _world(**{"nonlinearity": -0.04, "action_effect": 0.9, **world})
    problem = problem_from_model(model, grid)
    train, val, _ = _splits(model, 300, seed=2, grid=grid)
    cfg = _config(**{"max_iters": 40, "patience": 40, **overrides})
    res = two_stage_fit(problem, train, val, arch, cfg)
    off = replace(cfg.weight_config, alpha=0.0, task_term_enabled=False)
    params, history, z_star, g_star = _reference_simpo(
        problem, train, val, arch, replace(cfg, weight_config=off)
    )
    assert res.z_star == z_star and res.iters_run == len(history)
    pairs = [
        (res.params_star.weights, params.weights),
        ([r.total for r in res.history], [r.total for r in history]),
        ([r.pred_term for r in res.history], [r.pred_term for r in history]),
        (res.g_star, g_star),
    ]
    for got, want in pairs:
        if bitwise:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # and it reads none of its config's weight settings: the same result, and
    # the same log byte for byte (its z_star_test is nan, and nan != nan)
    other = WeightConfig(alpha=5.0, beta=0.0, tau=3.0, task_term_enabled=True)
    again = two_stage_fit(problem, train, val, arch, replace(cfg, weight_config=other))
    assert np.array_equal(again.params_star.weights, res.params_star.weights)
    kept = ("z_star", "g_star", "iters_run", "converged")
    assert [getattr(again, f) for f in kept] == [getattr(res, f) for f in kept]
    save_history_csv(res.history, tmp_path / "a.csv")
    save_history_csv(again.history, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "world, grid", [({}, GRID), (PRICING_WORLD, PRICING_GRID)], ids=["newsvendor", "pricing"]
)
@pytest.mark.parametrize("scale", [1.0, 1e3], ids=["random", "large"])
def test_moment_form_matches_the_row_form(world, grid, scale):
    # a linear full-batch fit reads its predictive loss from the moments of
    # the training rows: the same loss and gradient as the public row form at
    # unit weights, and a gradient that is the loss's derivative
    model = _world(**world)
    problem = problem_from_model(model, grid)
    train, _, _ = _splits(model, 2000, seed=0, grid=grid)
    arch = Architecture("linear", model.feature_dim)
    moments = _full_batch(arch, train.X, train.z_obs, train.y)
    assert isinstance(moments, _Moments)
    ones = np.ones(len(train))
    rng = np.random.default_rng(0)
    for _ in range(3):
        w = rng.normal(scale=scale, size=arch.n_weights)
        loss, grad = _batch_loss_and_grad(arch, w, moments)
        rows = loss_and_grad(PredictorParams(arch, w), train.X, train.z_obs, train.y, ones, problem)
        assert loss == pytest.approx(rows[0], rel=1e-12, abs=0)
        np.testing.assert_allclose(grad, rows[1], rtol=1e-12, atol=0)
        # central differences of a quadratic are exact up to rounding, so a
        # step as wide as the weight keeps that rounding small
        fd = np.empty_like(w)
        for i, step in enumerate(np.maximum(1.0, np.abs(w))):
            e = np.zeros_like(w)
            e[i] = step
            up = _batch_loss_and_grad(arch, w + e, moments)[0]
            down = _batch_loss_and_grad(arch, w - e, moments)[0]
            fd[i] = (up - down) / (2 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-12, atol=0)


def _dense_model_profile(params, X, problem):
    return CostProfile(problem.grid, _dense_profile(params, X, problem)[0], "model")


def _dense_task_grad(params, X, grid, probs, problem):
    values, gradient = _dense_profile(params, X, problem)
    return float(probs @ values), gradient(probs)


def _dense_empirical_profile(y, problem):
    points = problem.grid.points
    return CostProfile(problem.grid, problem.task_cost(points[:, None], y).mean(axis=1), "empirical")


# the newsvendor_linear compare config of tests/test_golden.py
GOLDEN_LINEAR = ExperimentConfig(
    model_spec=_world(
        intercept=10.0,
        action_effect=0.9,
        nonlinearity=-0.04,
        feature_sd=1.0,
        logging={"policy": "biased", "center": 5.0, "width": 5.0},
    ),
    grid=make_grid(0.0, 20.0, 101),
    n_samples=500,
    train_frac=0.6,
    val_frac=0.2,
    arch=Architecture("linear", 2),
    train=TrainConfig(
        weight_config=WeightConfig(alpha=2.0, beta=3.0, tau=10.0),
        learning_rate=0.01,
        max_iters=800,
        tol=1e-9,
        patience=60,
    ),
    n_mc=5000,
    n_seeds=2,
    seed=0,
)


def _default_world_run():
    # at lr 1e-3 F descends at every step; at 3e-3 it grows about 1.9-fold per step
    model = _world(nonlinearity=-0.04, action_effect=0.9)
    train, val, _ = _splits(model, 300, seed=2)
    cfg = _config(max_iters=40, patience=40, learning_rate=1e-3)
    return problem_from_model(model, GRID), train, val, Architecture("linear", 2), cfg


def _pricing_world_run():
    # the capacity binds for the inputs with the highest predicted demand
    model = _world(
        kind="pricing", intercept=12.0, action_effect=-2.0, cost_params={"capacity": 10.0}
    )
    grid = make_grid(0.0, 6.0, 61)
    train, val, _ = _splits(model, 300, seed=4, grid=grid)
    cfg = _config(max_iters=200, patience=200)
    return problem_from_model(model, grid), train, val, Architecture("linear", 2), cfg


def _golden_seed_1_run():
    # all 800 iterations; at iteration 429 the profile's minimum sits on a
    # stretch that is flat up to rounding, which the two paths round differently
    problem, (train, val, _test), cfg, _ = _seed_setup(GOLDEN_LINEAR, 1)
    return problem, train, val, GOLDEN_LINEAR.arch, cfg


@pytest.mark.parametrize(
    "run, descends",
    [
        pytest.param(_default_world_run, True, id="default-world"),
        # omega and gamma move with the anchors, so F rises at some steps
        pytest.param(_golden_seed_1_run, False, id="golden-seed-1"),
        pytest.param(_pricing_world_run, True, id="pricing-world"),
    ],
)
def test_separable_fit_tracks_the_dense_reference_loop(run, descends):
    # the fit takes the problem's kernel for a linear model; the same loop on
    # the dense (m, K) grid pass must take the same decisions and reach the
    # same weights up to rounding
    problem, train, val, arch, cfg = run()
    res = simpo_fit(problem, train, val, arch, cfg)
    F = [row.total for row in res.history]
    assert all(b < a for a, b in zip(F, F[1:])) == descends
    params, history, z_star, g_star = _reference_simpo(
        problem, train, val, arch, cfg,
        _dense_model_profile, _dense_task_grad, _dense_empirical_profile,
    )
    assert [r.z_star_test for r in res.history] == [r.z_star_test for r in history]
    assert res.z_star == z_star
    assert res.g_star == pytest.approx(g_star, rel=1e-9)
    np.testing.assert_allclose(res.params_star.weights, params.weights, rtol=1e-9, atol=0)


def test_two_stage_decision_matches_least_squares_on_default_world():
    # an independent reference for the linear two-stage fit: ordinary least
    # squares on [x, z, 1] over the training split, then that model's profile
    config = load_config(Path(__file__).parents[1] / "configs" / "compare_default.json")
    data_seed, split_seed, train_seed, _ = derive_seeds(0)
    problem = problem_from_model(config.model_spec, config.grid)
    data = gen_dataset(config.model_spec, config.n_samples, config.grid, data_seed)
    train, val, _ = split_dataset(data, config.train_frac, config.val_frac, split_seed)
    res = two_stage_fit(problem, train, val, config.arch, replace(config.train, seed=train_seed))

    design = np.column_stack([train.X, train.z_obs, np.ones(len(train))])
    coef, *_ = np.linalg.lstsq(design, train.y, rcond=None)
    lstsq_params = PredictorParams(config.arch, coef)
    z_lstsq = argmin_profile(model_profile(lstsq_params, val.X, problem))
    dense = _dense_model_profile(lstsq_params, val.X, problem)
    assert res.z_star == z_lstsq == argmin_profile(dense)


def _count_grid_passes(monkeypatch):
    """The shape of the actions Z at each _grid_pass call: a (1, K) row for a
    pass over the grid, an (n, 1) column for the predictive loss's paired rows."""
    import predopt.predictor

    calls = []
    kernel = predopt.predictor._grid_pass

    def counting(arch, w, X, Z, *args, **kwargs):
        calls.append(Z.shape)
        return kernel(arch, w, X, Z, *args, **kwargs)

    monkeypatch.setattr(predopt.predictor, "_grid_pass", counting)
    return calls


MLP1 = Architecture("mlp1", 2, hidden_units=4)
LINEAR = Architecture("linear", 2)
PRICING = {"kind": "pricing", "cost_params": {"capacity": 50.0}}


# the weights of a fit that reads no profile: omega at alpha 0 and no task term
WEIGHTS_OFF = WeightConfig(alpha=0.0, beta=20.0, tau=0.5, task_term_enabled=False)


@pytest.mark.parametrize(
    "fit, arch, world, weights, passes_per_iter, final_passes, paired_per_iter",
    [
        pytest.param(two_stage_fit, MLP1, {}, None, 0, 1, 1, id="two_stage_fit-0"),
        pytest.param(simpo_fit, MLP1, {}, None, 1, 1, 1, id="simpo_fit-1"),
        pytest.param(simpo_fit, MLP1, {}, WEIGHTS_OFF, 0, 1, 1, id="simpo_fit-0-weights-off"),
        # a linear fit takes the problem's separable kernel throughout, and
        # its full-batch predictive loss the moments of the training rows
        pytest.param(
            two_stage_fit, LINEAR, {}, None, 0, 0, 0, id="two_stage_fit-0-linear-newsvendor"
        ),
        pytest.param(simpo_fit, LINEAR, {}, None, 0, 0, 0, id="simpo_fit-0-linear-newsvendor"),
        pytest.param(
            two_stage_fit, LINEAR, PRICING, None, 0, 0, 0, id="two_stage_fit-0-linear-pricing"
        ),
        pytest.param(simpo_fit, LINEAR, PRICING, None, 0, 0, 0, id="simpo_fit-0-linear-pricing"),
    ],
)
def test_grid_passes_per_fit(
    monkeypatch, fit, arch, world, weights, passes_per_iter, final_passes, paired_per_iter
):
    # simpo needs one pass per iteration, unless no term reads the profile;
    # two-stage none; both one more for the final decision, unless the
    # problem's kernel serves the model
    model = _world(**world)
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=0)
    n = 12
    calls = _count_grid_passes(monkeypatch)
    cfg = _config(max_iters=n, patience=n)
    assert cfg.weight_config.task_term_enabled
    if weights:
        cfg = replace(cfg, weight_config=weights)
    res = fit(problem, train, val, arch, cfg)
    assert res.iters_run == n
    assert calls.count((1, GRID.n_points)) == passes_per_iter * n + final_passes
    # and paired passes over the full batch: one per iteration, or none
    assert calls.count((len(train), 1)) == paired_per_iter * n
    assert len(calls) == calls.count((1, GRID.n_points)) + paired_per_iter * n


def test_linear_two_stage_fit_matches_closed_form_least_squares():
    # the stop rule watches F, so the weights sit about sqrt(tol) from the
    # least-squares optimum, not at machine precision
    grid = make_grid(-1.0, 1.0, 21)
    model = _world(intercept=1.0, action_effect=0.5, feature_sd=1.0)
    train, val, _ = _splits(model, 500, seed=0, grid=grid)
    cfg = _config(learning_rate=0.3, tol=1e-13, patience=10, max_iters=5000)
    res = two_stage_fit(problem_from_model(model, grid), train, val, LINEAR, cfg)
    assert res.converged and res.iters_run < cfg.max_iters
    design = np.column_stack([train.X, train.z_obs, np.ones(len(train))])
    coef, *_ = np.linalg.lstsq(design, train.y, rcond=None)
    np.testing.assert_allclose(res.params_star.weights, coef, rtol=1e-6, atol=0)


# --- aborts and the batch path ----------------------------------------------------


def _poison_on_call(monkeypatch, name, call, poison):
    """Replace predopt.training.<name> with a wrapper whose `call`-th result
    is poison(result)."""
    import predopt.training

    real = getattr(predopt.training, name)
    calls = []

    def wrapper(*args):
        calls.append(1)
        out = real(*args)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(predopt.training, name, wrapper)


def _nan_profile(out):
    values, grad_at = out
    return np.full_like(values, np.nan), grad_at


ABORT_SITES = [
    pytest.param(
        simpo_fit, "_profile", 3, _nan_profile, {},
        "non-finite model cost profile at iteration 3; reduce the learning rate", 3,
        id="iteration-profile",
    ),
    pytest.param(
        two_stage_fit, "_profile", 1, _nan_profile, {},
        "non-finite model cost profile at iteration 7; reduce the learning rate", 7,
        id="final-profile",
    ),
    pytest.param(
        two_stage_fit, "_batch_loss_and_grad", 2, lambda out: (float("nan"), out[1]), {},
        "non-finite loss or gradient at iteration 2 (pred=nan, task=0.0); "
        "reduce the learning rate", 2,
        id="loss-or-gradient",
    ),
    pytest.param(
        two_stage_fit, "_batch_loss_and_grad", 4, lambda out: (out[0], np.full_like(out[1], 1e308)),
        {"learning_rate": 10.0},
        "non-finite weights after the step at iteration 4; reduce the learning rate", 4,
        id="weights-after-step",
    ),
]


@pytest.mark.parametrize("fit, name, call, poison, overrides, message, iteration", ABORT_SITES)
def test_every_abort_site_names_its_iteration(
    monkeypatch, fit, name, call, poison, overrides, message, iteration
):
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=0)
    cfg = _config(**{"max_iters": 7, "patience": 7, **overrides})
    _poison_on_call(monkeypatch, name, call, poison)
    with pytest.raises(TrainingError) as err, np.errstate(over="ignore"):
        fit(problem, train, val, LINEAR, cfg)
    assert str(err.value) == message
    assert err.value.iteration == iteration


@pytest.mark.parametrize("fit", [simpo_fit, two_stage_fit])
@pytest.mark.parametrize("arch", [LINEAR, MLP1], ids=["linear", "mlp1"])
def test_full_batch_fit_steps_on_the_split_itself(monkeypatch, fit, arch):
    # a linear model's moments are formed once, from the split's own columns,
    # and every step reads them; an mlp1 model steps on those columns themselves
    import predopt.training

    real_full_batch = predopt.training._full_batch
    real_loss = predopt.training._batch_loss_and_grad
    formed, batches = [], []

    def spy_full_batch(*args):  # (arch, X, Z, Y)
        formed.append((args[1:], real_full_batch(*args)))
        return formed[-1][1]

    def spy_loss(arch, w, batch):
        batches.append(batch)
        return real_loss(arch, w, batch)

    monkeypatch.setattr(predopt.training, "_full_batch", spy_full_batch)
    monkeypatch.setattr(predopt.training, "_batch_loss_and_grad", spy_loss)
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=0)
    fit(problem, train, val, arch, _config(max_iters=3, patience=3))
    assert len(formed) == 1 and len(batches) == 3
    (X, Z, Y), batch = formed[0]
    assert X is train.X and Z is train.z_obs and Y is train.y
    assert all(b is batch for b in batches)
    if arch is LINEAR:
        assert isinstance(batch, _Moments)
    else:
        assert [id(column) for column in batch] == [id(X), id(Z), id(Y)]


# --- memory -----------------------------------------------------------------------

MLP16 = Architecture("mlp1", 2, hidden_units=16)


@pytest.mark.parametrize(
    "overrides, stop",
    [
        pytest.param({"max_iters": 3}, "cap", id="task-on-cap"),
        pytest.param({"max_iters": 50, "patience": 1, "tol": 1.0}, "stall", id="task-on-stall"),
        # a joint fit (alpha > 0) profiles every iteration and never takes the gradient
        pytest.param(
            {"max_iters": 3, "weight_config": WeightConfig(2.0, 20.0, 0.5, task_term_enabled=False)},
            "cap",
            id="task-off-cap",
        ),
    ],
)
def test_an_mlp1_fit_holds_one_activation_tensor(overrides, stop):
    # each grid pass allocates its (m_val, K, h) activations, and the fit frees
    # them before the next pass, the final decision pass included; the half
    # tensor on top is headroom for the (m_val, K) cost arrays (1/16 of a
    # tensor each at h = 16) and what does not grow with the tensor
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 2000, seed=0)
    cfg = _config(**overrides)
    simpo_fit(problem, train, val, MLP16, replace(cfg, max_iters=1))  # numpy's first-call caches
    fits = []
    peak = _traced_peak(lambda: fits.append(simpo_fit(problem, train, val, MLP16, cfg)))
    assert (fits[0].iters_run == cfg.max_iters) == (stop == "cap")
    assert peak <= 1.5 * len(val) * GRID.n_points * MLP16.hidden_units * 8


@pytest.mark.parametrize("fit", [simpo_fit, two_stage_fit], ids=["simpo", "two_stage"])
def test_an_mlp1_fit_leaves_no_thread(fit):
    # its profile passes run on a thread pool that lives for the fit alone,
    # an aborted fit's included
    model = _world()
    problem = problem_from_model(model, GRID)
    train, val, _ = _splits(model, 200, seed=0)
    before = threading.active_count()
    result = fit(problem, train, val, MLP16, _config(max_iters=3))
    assert result.iters_run == 3 and threading.active_count() == before
    with pytest.raises(TrainingError), np.errstate(over="ignore", invalid="ignore"):
        fit(problem, train, val, MLP16, _config(learning_rate=1e300, max_iters=3))
    assert threading.active_count() == before


@pytest.mark.parametrize("size", [1, 4, 129])
def test_all_finite_is_numpys_isfinite_all(size):
    # the loop's check on the gradient and the weights, for every kind of non-finite value
    rng = np.random.default_rng(size)
    for bad in (None, np.nan, np.inf, -np.inf):
        for at in {0, size - 1}:
            x = rng.normal(0.0, 1e300, size)
            if bad is not None:
                x[at] = bad
            assert _all_finite(x) is bool(np.isfinite(x).all())
    assert _all_finite(np.array([np.finfo(float).max, -np.finfo(float).max, 5e-324]))
