import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predopt.core import (
    Dataset,
    ValidationError,
    WeightConfig,
    make_grid,
    save_dataset_csv,
    split_dataset,
)
from predopt.evaluation import derive_seeds
from predopt.objective import (
    CostProfile,
    action_distribution,
    empirical_profile,
    gamma_weight,
    model_profile,
    omega_weight,
)
from predopt.predictor import (
    Architecture,
    PredictorParams,
    init_params,
    loss_and_grad,
    predict_batch,
    predict_on_grid,
    task_grad,
)
from predopt.problems import (
    TrueModel,
    _problem,
    cost_draws,
    gen_dataset,
    newsvendor_problem,
    oracle_expected_cost,
    world_draws,
)
from predopt.training import TrainConfig


def test_make_grid_unit_spacing():
    g = make_grid(0, 10, 11)
    assert np.array_equal(g.points, np.arange(11.0))
    assert g.points[0] == 0.0 and g.points[-1] == 10.0


def test_make_grid_two_points():
    g = make_grid(0, 1, 2)
    assert np.array_equal(g.points, [0.0, 1.0])


def test_make_grid_negative_range():
    # direct evaluation of points[k] = z_min + k*(z_max - z_min)/(n-1)
    g = make_grid(-5, 5, 5)
    assert np.array_equal(g.points, [-5.0, -2.5, 0.0, 2.5, 5.0])


@pytest.mark.parametrize(
    "bad", [(1, 1, 5), (2, 1, 5), (0, 1, 1), (0, 1, 0), (-1e308, 1e308, 5)]
)
def test_make_grid_rejects_bad_inputs(bad):
    with pytest.raises(ValidationError, match="z_min|n_points"):
        make_grid(*bad)


def test_equal_grids_compare_and_hash_equal():
    # the points are derived from (z_min, z_max, n_points), so they take no
    # part in == or hash, where an array's == has no single truth value
    a, b = make_grid(0, 20, 201), make_grid(0.0, 20.0, 201)
    assert a == b and hash(a) == hash(b)
    assert a != make_grid(0, 20, 101) and a != make_grid(0, 10, 201)


# The 1e-12*range spacing bound is only attainable while the grid's absolute
# positions are within ~500x of its width (beyond that, one ulp of the
# position already exceeds the bound), so the domain scales offset and width
# together.
@given(
    scale=st.floats(1e-3, 1e6, allow_nan=False),
    offset=st.floats(-100.0, 100.0, allow_nan=False),
    rel_width=st.floats(0.5, 2.0, allow_nan=False),
    n=st.integers(2, 500),
)
@settings(max_examples=200, deadline=None)
def test_grid_spacing_and_endpoints(scale, offset, rel_width, n):
    z_min = scale * offset
    width = scale * rel_width
    g = make_grid(z_min, z_min + width, n)
    assert g.points[0] == g.z_min
    assert g.points[-1] <= np.nextafter(g.z_max, np.inf)
    assert g.points[-1] >= np.nextafter(g.z_max, -np.inf)
    gaps = np.diff(g.points)
    assert np.max(np.abs(gaps - g.step)) <= 1e-12 * width


def _toy_dataset(n, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        X=rng.normal(size=(n, d)),
        z_obs=rng.uniform(0, 10, size=n),
        y=rng.normal(size=n),
    )


@given(
    minimum=st.floats(-1e6, 1e6, allow_nan=False),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_best_takes_the_first_action_of_a_flat_minimum(minimum, data):
    # a minimum that is flat up to rounding: the stretch's values differ from
    # each other by at most 8 ulps, and every other value sits clearly above
    n = data.draw(st.integers(2, 60))
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    scale = max(1.0, abs(minimum))
    above = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    ulps = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    values = minimum + scale * np.array(above)
    values[start:stop] = minimum + np.array(ulps[start:stop]) * np.spacing(minimum)
    grid = make_grid(0.0, 1.0, n)
    assert grid.best(values) == (grid.points[start], values[start])


def test_split_sizes_floor():
    tr, va, te = split_dataset(_toy_dataset(10), 0.6, 0.2, seed=7)
    assert (len(tr), len(va), len(te)) == (6, 2, 2)


def test_split_rejects_empty_val():
    with pytest.raises(ValidationError):
        split_dataset(_toy_dataset(5), 0.8, 0.1, seed=0)


def test_split_deterministic():
    data = _toy_dataset(23)
    a = split_dataset(data, 0.5, 0.25, seed=11)
    b = split_dataset(data, 0.5, 0.25, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x.X, y.X)
        assert np.array_equal(x.z_obs, y.z_obs)
        assert np.array_equal(x.y, y.y)


@given(n=st.integers(6, 200), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_split_partitions_input(n, seed):
    data = _toy_dataset(n, d=2, seed=1)
    tr, va, te = split_dataset(data, 0.5, 0.25, seed=seed)
    assert len(tr) + len(va) + len(te) == n
    merged = np.concatenate([tr.y, va.y, te.y])
    assert np.array_equal(np.sort(merged), np.sort(data.y))
    # rows stay intact: every (x, z, y) row of each split appears in the input
    all_rows = {tuple(row) for row in np.column_stack([data.X, data.z_obs, data.y])}
    for part in (tr, va, te):
        for row in np.column_stack([part.X, part.z_obs, part.y]):
            assert tuple(row) in all_rows


def test_dataset_must_be_nonempty():
    with pytest.raises(ValidationError):
        Dataset(X=np.zeros((0, 2)), z_obs=np.zeros(0), y=np.zeros(0))


@pytest.mark.parametrize("column", ["X", "z_obs", "y"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_dataset_rejects_a_non_finite_value_by_column(column, bad):
    data = _toy_dataset(4)
    values = {"X": data.X.copy(), "z_obs": data.z_obs.copy(), "y": data.y.copy()}
    values[column][-1] = bad
    with pytest.raises(ValidationError, match=f"^dataset column {column} must be finite$"):
        Dataset(**values)


def test_dataset_is_readonly():
    data = _toy_dataset(4)
    with pytest.raises(ValueError):
        data.y[0] = 99.0


@pytest.mark.parametrize(
    "problem",
    [
        newsvendor_problem(make_grid(0, 10, 11), c_h=1.0, c_s=3.0),
        _problem("pricing", make_grid(0, 10, 11), {"capacity": 5.0}),
    ],
    ids=["newsvendor", "pricing"],
)
def test_predictive_loss_zero_at_truth(problem):
    rng = np.random.default_rng(3)
    params = PredictorParams(Architecture("linear", 2), rng.normal(scale=5, size=4))
    X, Z = rng.normal(size=(1000, 2)), rng.uniform(0, 10, size=1000)
    y = predict_batch(params, X, Z)
    ones = np.ones(1000)
    loss, grad = loss_and_grad(params, X, Z, y, ones, problem)
    assert loss == 0.0 and np.all(grad == 0.0)
    other = y + np.random.default_rng(4).normal(size=1000)
    assert loss_and_grad(params, X, Z, other, ones, problem)[0] > 0.0


def test_dataset_csv_round_trip(tmp_path):
    data = _toy_dataset(17, d=2, seed=5)
    path = tmp_path / "data.csv"
    save_dataset_csv(data, path)
    text = path.read_bytes()
    assert text.startswith(b"x0,x1,z_obs,y\n")
    assert b"\r" not in text
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, :2], data.X)
    assert np.array_equal(back[:, 2], data.z_obs)
    assert np.array_equal(back[:, 3], data.y)


NAN, INF = float("nan"), float("inf")
_WORLD = dict(
    kind="newsvendor",
    base_weights=(2.0, -1.0),
    intercept=10.0,
    action_effect=0.9,
    nonlinearity=0.0,
    noise_sd=1.0,
    feature_sd=1.0,
    cost_params={"c_h": 1.0, "c_s": 3.0},
    logging={"policy": "biased", "center": 5.0, "width": 5.0},
)


_PRICING = {"kind": "pricing", "cost_params": {"capacity": 5.0}}


def _train(**kw):
    weights = WeightConfig(alpha=2.0, beta=20.0, tau=0.5)
    return TrainConfig(weight_config=weights, **{"learning_rate": 1e-3, "max_iters": 500, **kw})


def _world(**kw):
    return TrueModel(**{**_WORLD, **kw})


def _split(**kw):
    return split_dataset(_toy_dataset(10), **{"train_frac": 0.6, "val_frac": 0.2, "seed": 0, **kw})


# a model, its problem and two rows for the predictor and objective entry points
_PARAMS = init_params(Architecture("mlp1", 2, 3), 0)
_PROBLEM = newsvendor_problem(make_grid(0, 10, 11), 1.0, 3.0)
_ROWS = np.ones((2, 2))
_ROW_NAN = np.array([[1.0, 1.0], [0.5, NAN]])
_LOSS = dict(
    params=_PARAMS, X=_ROWS, Z=[1.0, 2.0], Y=[3.0, 4.0], weights=[1.0, 1.0], problem=_PROBLEM
)
_TASK = dict(
    params=_PARAMS, X=_ROW_NAN, grid=_PROBLEM.grid, action_probs=np.full(11, 1 / 11),
    problem=_PROBLEM,
)

# (constructor, bad keyword arguments, the field the error must name)
NON_FINITE = [
    pytest.param(
        WeightConfig, {"alpha": NAN, "beta": NAN, "tau": 0.5}, "alpha", id="WeightConfig.alpha"
    ),
    pytest.param(
        WeightConfig, {"alpha": 2.0, "beta": INF, "tau": 0.5}, "beta", id="WeightConfig.beta"
    ),
    pytest.param(
        WeightConfig, {"alpha": 2.0, "beta": 20.0, "tau": INF}, "tau", id="WeightConfig.tau"
    ),
    pytest.param(_train, {"learning_rate": INF}, "learning_rate", id="TrainConfig.learning_rate"),
    pytest.param(_train, {"tol": INF}, "tol", id="TrainConfig.tol"),
    pytest.param(_world, {"intercept": NAN}, "intercept", id="TrueModel.intercept"),
    pytest.param(_world, {"action_effect": INF}, "action_effect", id="TrueModel.action_effect"),
    pytest.param(_world, {"nonlinearity": NAN}, "nonlinearity", id="TrueModel.nonlinearity"),
    pytest.param(_world, {"noise_sd": INF}, "noise_sd", id="TrueModel.noise_sd"),
    pytest.param(_world, {"feature_sd": INF}, "feature_sd", id="TrueModel.feature_sd"),
    pytest.param(
        _world, {"base_weights": (2.0, NAN)}, "base_weights[1]", id="TrueModel.base_weights"
    ),
    pytest.param(
        _world, {"cost_params": {"c_h": NAN, "c_s": 3.0}}, "cost_params['c_h']", id="TrueModel.c_h"
    ),
    pytest.param(
        _world, {"cost_params": {"c_h": 1.0, "c_s": INF}}, "cost_params['c_s']", id="TrueModel.c_s"
    ),
    pytest.param(
        _world,
        {"logging": {"policy": "biased", "center": NAN, "width": 5.0}},
        "logging['center']",
        id="TrueModel.logging.center",
    ),
    pytest.param(
        newsvendor_problem,
        {"grid": make_grid(0, 10, 11), "c_h": NAN, "c_s": 3.0},
        "cost_params['c_h']",
        id="newsvendor_problem.c_h",
    ),
    pytest.param(
        newsvendor_problem,
        {"grid": make_grid(0, 10, 11), "c_h": 1.0, "c_s": INF},
        "cost_params['c_s']",
        id="newsvendor_problem.c_s",
    ),
    pytest.param(
        oracle_expected_cost,
        {"model": _world(), "z": NAN, "n_mc": 5, "seed": 0},
        "z",
        id="oracle_expected_cost.z_nan",
    ),
    pytest.param(
        oracle_expected_cost,
        {"model": _world(), "z": INF, "n_mc": 5, "seed": 0},
        "z",
        id="oracle_expected_cost.z_inf",
    ),
    *(
        pytest.param(
            cost_draws, {"model": _world(**world), "z": z, "u": np.zeros(4)}, "z",
            id=f"cost_draws.{kind}.z_{name}",
        )
        for kind, world in [("newsvendor", {}), ("pricing", _PRICING)]
        for name, z in [("nan", NAN), ("inf", INF), ("-inf", -INF)]
    ),
    pytest.param(_split, {"train_frac": NAN}, "train_frac", id="split_dataset.train_frac"),
    pytest.param(_split, {"val_frac": NAN}, "val_frac", id="split_dataset.val_frac"),
    pytest.param(
        action_distribution,
        {"profile": CostProfile(make_grid(0, 10, 11), np.zeros(11), "model"), "tau": INF},
        "tau",
        id="action_distribution.tau",
    ),
    pytest.param(
        action_distribution,
        {"profile": CostProfile(make_grid(0, 10, 11), np.zeros(11), "model"), "tau": True},
        "tau",
        id="action_distribution.tau_bool",
    ),
    pytest.param(
        omega_weight,
        {
            "probs": np.full(11, 1 / 11),
            "grid": make_grid(0, 10, 11),
            "z_star_train": 2.0,
            "alpha": NAN,
        },
        "alpha",
        id="omega_weight.alpha",
    ),
    pytest.param(
        gamma_weight,
        {"z_star_train": 2.0, "z_star_test": 2.0, "beta": INF, "grid": make_grid(0, 10, 11)},
        "beta",
        id="gamma_weight.beta",
    ),
    pytest.param(
        predict_batch, {"params": _PARAMS, "X": _ROW_NAN, "Z": [1.0, 2.0]}, "inputs",
        id="predict_batch.X",
    ),
    pytest.param(
        predict_batch, {"params": _PARAMS, "X": _ROWS, "Z": [1.0, INF]}, "Z", id="predict_batch.Z"
    ),
    pytest.param(
        predict_on_grid, {"params": _PARAMS, "X": _ROWS, "points": [0.0, NAN]}, "points",
        id="predict_on_grid.points",
    ),
    pytest.param(loss_and_grad, _LOSS | {"X": _ROW_NAN}, "inputs", id="loss_and_grad.X"),
    pytest.param(loss_and_grad, _LOSS | {"Z": [NAN, 2.0]}, "Z", id="loss_and_grad.Z"),
    pytest.param(loss_and_grad, _LOSS | {"Y": [3.0, NAN]}, "Y", id="loss_and_grad.Y"),
    pytest.param(task_grad, _TASK, "inputs", id="task_grad.X"),
    pytest.param(
        model_profile, {"params": _PARAMS, "inputs": _ROW_NAN, "problem": _PROBLEM}, "inputs",
        id="model_profile.inputs",
    ),
    pytest.param(
        empirical_profile, {"train_labels": [3.0, INF], "problem": _PROBLEM}, "train_labels",
        id="empirical_profile.train_labels",
    ),
]


@pytest.mark.parametrize("build, kwargs, field", NON_FINITE)
def test_non_finite_value_is_rejected_by_name(build, kwargs, field):
    with pytest.raises(ValidationError) as err:
        build(**kwargs)
    assert str(err.value).startswith(f"{field} must be a finite number")


# (function, its other keyword arguments, the seed argument it checks)
SEEDED = [
    (gen_dataset, {"model": _world(), "n": 5, "grid": make_grid(0, 10, 11)}, "seed"),
    (world_draws, {"model": _world(), "n_mc": 5}, "seed"),
    (split_dataset, {"data": _toy_dataset(10), "train_frac": 0.6, "val_frac": 0.2}, "seed"),
    (init_params, {"arch": Architecture("mlp1", 2, 3)}, "seed"),
    (derive_seeds, {}, "run_seed"),
]
BAD_BY_NAME = [
    pytest.param(build, {**kwargs, name: bad}, name, id=f"{build.__name__}.{name}={bad!r}")
    for build, kwargs, name in SEEDED
    for bad in (-1, 2.5, True)
] + [
    pytest.param(
        WeightConfig,
        {"alpha": 2.0, "beta": 3.0, "tau": 1.0, "task_term_enabled": "false"},
        "task_term_enabled",
        id="WeightConfig.task_term_enabled",
    )
]


@pytest.mark.parametrize("build, kwargs, name", BAD_BY_NAME)
def test_a_bad_seed_or_flag_is_rejected_by_name(build, kwargs, name):
    bad = re.escape(repr(kwargs[name]))
    with pytest.raises(ValidationError, match=f"^{name} must be .+, got {bad}$"):
        build(**kwargs)


@pytest.mark.parametrize("key", ["max_iters", "patience", "batch_size"])
@pytest.mark.parametrize("bad", [2.5, True, 3.0, "3"])
def test_train_config_rejects_a_non_integer_size_by_name(key, bad):
    with pytest.raises(ValidationError, match=f"^{key} must be an integer, got {bad!r}$"):
        _train(**{key: bad})


def test_train_config_takes_numpy_integers_as_ints():
    cfg = _train(max_iters=np.int64(7), patience=np.int32(3), batch_size=np.uint8(0))
    assert (cfg.max_iters, cfg.patience, cfg.batch_size) == (7, 3, 0)
    assert all(type(v) is int for v in (cfg.max_iters, cfg.patience, cfg.batch_size))
