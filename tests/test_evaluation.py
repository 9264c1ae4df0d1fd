import json
import math
import threading
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from predopt import evaluation, problems
from predopt.cli import load_config, main
from predopt.core import ValidationError, WeightConfig, make_grid
from predopt.evaluation import (
    METHOD_ORDER,
    ExperimentConfig,
    _mean_and_se,
    _run_seed,
    _score,
    compare_methods,
    derive_seeds,
    evaluate_decision,
    write_results_csv,
)
from predopt.objective import empirical_profile
from predopt.predictor import Architecture
from predopt.problems import (
    _BLOCK,
    TrueModel,
    _draw_world,
    _oracle,
    _problem,
    cost_draws,
    gen_dataset,
    mean_outcome,
    newsvendor_problem,
    oracle_action,
    problem_from_model,
    world_draws,
)
from predopt.training import TrainConfig, TrainingError

ROOT = Path(__file__).parents[1]
GRID = make_grid(0.0, 20.0, 101)


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


def _config(**overrides):
    kwargs = dict(
        weight_config=WeightConfig(alpha=2.0, beta=20.0, tau=0.5),
        learning_rate=3e-3,
        max_iters=40,
        tol=1e-9,
        patience=10,
        seed=0,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def _experiment(model, train, **overrides):
    kwargs = dict(
        model_spec=model,
        grid=GRID,
        arch=Architecture("linear", 2),
        train=train,
        train_frac=0.6,
        val_frac=0.2,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_derive_seeds_stable_and_distinct():
    a = derive_seeds(7)
    assert a == derive_seeds(7)
    assert len(set(a)) == 4
    assert a != derive_seeds(8)


def test_oracle_action_has_zero_regret():
    model = _world()
    action, cost = oracle_action(model, GRID, n_mc=5000, seed=3)
    expected, regret = evaluate_decision(model, action, GRID, n_mc=5000, seed=3)
    assert regret == 0.0
    assert expected == cost


def test_other_actions_have_nonnegative_regret():
    model = _world()
    rng = np.random.default_rng(0)
    for z in rng.choice(GRID.points, size=10, replace=False):
        _, regret = evaluate_decision(model, float(z), GRID, n_mc=3000, seed=4)
        assert regret >= 0.0


def test_constant_world_regret_arithmetic():
    # demand pinned at 7 with symmetric unit costs: stocking 9 costs 2, optimum 0
    model = _world(
        intercept=7.0,
        action_effect=0.0,
        base_weights=(0.0, 0.0),
        noise_sd=1e-12,
        feature_sd=1e-12,
        cost_params={"c_h": 1.0, "c_s": 1.0},
    )
    grid = make_grid(0.0, 10.0, 11)
    cost, regret = evaluate_decision(model, 9.0, grid, n_mc=500, seed=5)
    assert cost == pytest.approx(2.0, abs=1e-9)
    assert regret == pytest.approx(2.0, abs=1e-9)


def test_evaluate_decision_rejects_off_grid_action():
    with pytest.raises(ValidationError):
        evaluate_decision(_world(), 3.14159, GRID, n_mc=100, seed=0)


def test_evaluate_decision_scores_the_grid_point_an_action_matched():
    # within 1e-9 * width of a grid point, an action is scored as that point, bit
    # for bit: the oracle's, and one far from it
    config = load_config(ROOT / "configs" / "compare_default.json")
    model, grid, mc_seed = config.model_spec, config.grid, derive_seeds(0)[3]
    best, _ = oracle_action(model, grid, 20_000, mc_seed)
    for point in (best, float(grid.points[0])):
        want = evaluate_decision(model, point, grid, 20_000, mc_seed)
        for nudged in (point + 1e-9, point - 1e-9):
            got = evaluate_decision(model, nudged, grid, 20_000, mc_seed)
            assert [x.hex() for x in got] == [x.hex() for x in want], nudged


def test_experiment_rejects_a_model_of_another_feature_dim():
    sizes = {"n_seeds": 1, "n_samples": 120, "n_mc": 2000, "seed": 0}
    with pytest.raises(ValidationError, match="^arch.feature_dim must equal the world's") as err:
        _experiment(_world(), _config(), arch=Architecture("linear", 3), **sizes)
    assert str(err.value).endswith("feature_dim 2, got 3")


@pytest.mark.parametrize("key", ["n_samples", "n_mc", "n_seeds", "seed"])
@pytest.mark.parametrize("bad", [2.5, True])
def test_experiment_rejects_a_non_integer_size_by_name(key, bad):
    sizes = {"n_seeds": 1, "n_samples": 120, "n_mc": 2000, "seed": 0, key: bad}
    with pytest.raises(ValidationError, match=f"^{key} must be an integer, got {bad!r}$"):
        _experiment(_world(), _config(), **sizes)


def test_compare_methods_row_count_and_order():
    model = _world()
    reports = compare_methods(
        _experiment(model, _config(), n_seeds=1, n_samples=120, n_mc=2000, seed=0)
    )
    assert [r.method for r in reports] == list(METHOD_ORDER)
    assert all(r.seed == 0 for r in reports)
    assert all(r.problem == "newsvendor" for r in reports)


def test_compare_methods_oracle_rows_zero_regret():
    model = _world()
    reports = compare_methods(
        _experiment(model, _config(), n_seeds=3, n_samples=120, n_mc=1500, seed=5)
    )
    assert len(reports) == 9
    oracle_rows = [r for r in reports if r.method == "oracle"]
    assert len(oracle_rows) == 3
    assert all(r.regret == 0.0 for r in oracle_rows)
    assert all(math.isnan(r.pred_mse) for r in oracle_rows)
    trained = [r for r in reports if r.method != "oracle"]
    assert all(r.regret >= 0.0 for r in trained)
    assert all(np.isfinite(r.pred_mse) for r in trained)
    assert all(r.iters_run >= 1 for r in trained)
    # every row of a seed is scored from one shared scan of the seed's MC stream
    for r in reports:
        mc_seed = derive_seeds(r.seed)[3]
        if r.method == "oracle":
            assert (r.chosen_action, r.expected_cost) == oracle_action(model, GRID, 1500, mc_seed)
        else:
            assert (r.expected_cost, r.regret) == evaluate_decision(
                model, r.chosen_action, GRID, 1500, mc_seed
            )


def test_evaluate_decision_rejects_zero_draws():
    with pytest.raises(ValidationError, match="n_mc"):
        evaluate_decision(_world(), 10.0, GRID, n_mc=0, seed=0)


def test_compare_methods_deterministic_csv(tmp_path):
    model = _world()
    kwargs = dict(n_seeds=2, n_samples=100, n_mc=1000, seed=1)
    a = compare_methods(_experiment(model, _config(), **kwargs))
    b = compare_methods(_experiment(model, _config(), **kwargs))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a, pa)
    write_results_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0]
    assert header == "method,seed,problem,chosen_action,expected_cost,regret,pred_mse,iters_run,wall_ms"


def test_compare_methods_parallel_matches_serial(tmp_path):
    model = _world()
    kwargs = dict(n_seeds=3, n_samples=90, n_mc=800, seed=2)
    serial = compare_methods(_experiment(model, _config(), **kwargs), jobs=1)
    parallel = compare_methods(_experiment(model, _config(), **kwargs), jobs=3)
    pa, pb = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_results_csv(serial, pa)
    write_results_csv(parallel, pb)
    assert pa.read_bytes() == pb.read_bytes()
    order = [(seed, method) for seed in (2, 3, 4) for method in METHOD_ORDER]
    assert [(r.seed, r.method) for r in serial] == order
    assert [(r.seed, r.method) for r in parallel] == order


def test_compare_methods_starts_at_most_one_worker_per_seed(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    experiment = _experiment(
        _world(), _config(max_iters=5), n_seeds=2, n_samples=80, n_mc=500, seed=3
    )
    serial = compare_methods(experiment)
    # compare_methods imports the pool only when it starts workers, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    pooled = compare_methods(experiment, jobs=10**6)
    assert started == [2]
    assert list(map(repr, pooled)) == list(map(repr, serial))
    for jobs in (0, -1):
        with pytest.raises(ValidationError, match="jobs"):
            compare_methods(experiment, jobs=jobs)
    assert started == [2]


_SIZES_EXPERIMENT = _experiment(
    _world(), _config(max_iters=5), n_seeds=1, n_samples=80, n_mc=500, seed=3
)


# sizes given through the Python API, which the config reader's JSON types do
# not guard: each is a ValidationError naming its field, and a numpy integer passes
@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: make_grid(0, 1, math.nan), "n_points", id="grid-n_points-nan"),
        pytest.param(lambda: make_grid(0, 1, math.inf), "n_points", id="grid-n_points-inf"),
        pytest.param(lambda: make_grid(0, 1, None), "n_points", id="grid-n_points-None"),
        pytest.param(lambda: make_grid(0, 1, 2.5), "n_points", id="grid-n_points-2.5"),
        pytest.param(lambda: make_grid("a", 1, 3), "z_min", id="grid-z_min-str"),
        pytest.param(lambda: make_grid(None, 1, 3), "z_min", id="grid-z_min-None"),
        pytest.param(lambda: make_grid(0, "b", 3), "z_max", id="grid-z_max-str"),
        pytest.param(lambda: gen_dataset(_world(), 2.5, GRID, 0), "n", id="gen_dataset-n-2.5"),
        pytest.param(lambda: gen_dataset(_world(), True, GRID, 0), "n", id="gen_dataset-n-True"),
        pytest.param(lambda: world_draws(_world(), 2.5, 0), "n_mc", id="world_draws-n_mc-2.5"),
        pytest.param(lambda: world_draws(_world(), True, 0), "n_mc", id="world_draws-n_mc-True"),
        pytest.param(
            lambda: compare_methods(_SIZES_EXPERIMENT, jobs=1.5), "jobs", id="compare-jobs-1.5"
        ),
        pytest.param(
            lambda: compare_methods(_SIZES_EXPERIMENT, jobs="2"), "jobs", id="compare-jobs-str"
        ),
    ],
)
def test_api_sizes_are_checked_by_name(call, field):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        call()


def test_api_sizes_take_numpy_integers():
    assert make_grid(0, 1, np.int64(3)).n_points == 3
    assert len(gen_dataset(_world(), np.int64(5), GRID, 0)) == 5
    assert world_draws(_world(), np.int32(7), 0).shape == (7,)
    assert len(compare_methods(_SIZES_EXPERIMENT, jobs=np.int64(1))) == 3


def test_results_csv_float_format(tmp_path):
    model = _world()
    reports = compare_methods(
        _experiment(model, _config(max_iters=5), n_seeds=1, n_samples=80, n_mc=500, seed=3)
    )
    path = tmp_path / "res.csv"
    write_results_csv(reports, path)
    text = path.read_text()
    assert "\r" not in text
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    # floats round-trip at 17 significant digits
    for row, rep in zip(rows, reports):
        assert float(row[4]) == pytest.approx(rep.expected_cost, rel=1e-15, nan_ok=True)
        assert row[8] == "0"  # timing normalized for reproducibility


def test_fit_abort_recorded_as_failed_row_not_crash():
    model = _world()
    with np.errstate(over="ignore"):
        reports = compare_methods(
            _experiment(
                model,
                _config(learning_rate=1e9, max_iters=100, patience=100),
                n_seeds=1,
                n_samples=80,
                n_mc=500,
                seed=0,
            )
        )
    assert [r.method for r in reports] == list(METHOD_ORDER)
    for r in reports:
        if r.method == "oracle":
            assert r.regret == 0.0
        else:
            for value in (r.chosen_action, r.expected_cost, r.regret, r.pred_mse):
                assert math.isnan(value)
            assert r.iters_run >= 1  # the iteration the abort was raised at


def test_one_aborted_fit_leaves_the_other_rows_as_they_were(monkeypatch):
    config = _experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=2000, seed=0)
    want = compare_methods(config)

    def aborts(*args):
        raise TrainingError("non-finite loss at iteration 7", iteration=7)

    monkeypatch.setitem(evaluation._FITS, "simpo", aborts)
    got = compare_methods(config)
    assert [r.method for r in got] == ["simpo", "two_stage", "oracle"]
    simpo = got[0]
    for value in (simpo.chosen_action, simpo.expected_cost, simpo.regret, simpo.pred_mse):
        assert math.isnan(value)
    assert simpo.iters_run == 7
    assert repr(got[1:]) == repr(want[1:])


def test_no_fit_result_is_alive_when_a_decision_is_scored(monkeypatch):
    # weak references to the fits' own results, not a scan of every live
    # object: other test modules keep TrainResults of their own alive. The
    # draws and the oracle overlap the fits; scoring a decision that is not
    # the oracle's makes the second array of n_mc after them.
    refs, scans = [], []

    def keeping_a_ref(fit):
        def run(*args):
            result = fit(*args)
            refs.append(weakref.ref(result))
            return result

        return run

    for method, fit in list(evaluation._FITS.items()):
        monkeypatch.setitem(evaluation._FITS, method, keeping_a_ref(fit))

    def checked_score(*args):
        scans.append([ref() is None for ref in refs])
        return _score(*args)

    monkeypatch.setattr(evaluation, "_score", checked_score)
    config = _experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=1000, seed=0)
    decisions = {r.chosen_action for r in _run_seed(config, 0)[:-1]}  # each scored once
    assert scans == [[True] * len(evaluation._FITS)] * len(decisions)


def test_the_world_is_drawn_on_another_thread_while_the_first_fit_runs(monkeypatch):
    started, seen = threading.Event(), {}

    def draw_world(*args):
        seen["draw_thread"] = threading.get_ident()
        started.set()
        return _draw_world(*args)

    method, fit = next(iter(evaluation._FITS.items()))

    def first_fit(*args):
        result = fit(*args)
        # a serial draw after the fits would leave this to time out
        seen["started_before_return"] = started.wait(timeout=10)
        seen["fit_thread"] = threading.get_ident()
        return result

    monkeypatch.setattr(evaluation, "_draw_world", draw_world)
    monkeypatch.setitem(evaluation._FITS, method, first_fit)
    _run_seed(_experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=1000, seed=0), 0)
    assert seen["started_before_return"]
    assert seen["draw_thread"] != seen["fit_thread"] == threading.get_ident()


def test_the_oracle_is_scanned_on_the_draw_thread_while_the_first_fit_runs(monkeypatch):
    drawn, scanned, seen = threading.Event(), threading.Event(), {}

    def draw_world(*args):
        seen["draw_thread"] = threading.get_ident()
        drawn.set()
        return _draw_world(*args)

    def oracle(*args):
        seen["scan_thread"] = threading.get_ident()
        seen["drawn_before_scan"] = drawn.is_set()
        scanned.set()
        return _oracle(*args)

    method, fit = next(iter(evaluation._FITS.items()))

    def first_fit(*args):
        result = fit(*args)
        # a serial scan after the fits would leave this to time out
        seen["scanned_before_return"] = scanned.wait(timeout=10)
        seen["fit_thread"] = threading.get_ident()
        return result

    monkeypatch.setattr(evaluation, "_draw_world", draw_world)
    monkeypatch.setattr(evaluation, "_oracle", oracle)
    monkeypatch.setitem(evaluation._FITS, method, first_fit)
    _run_seed(_experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=1000, seed=0), 0)
    assert seen["scanned_before_return"] and seen["drawn_before_scan"]
    assert seen["scan_thread"] == seen["draw_thread"] != seen["fit_thread"]
    assert seen["fit_thread"] == threading.get_ident()


@pytest.mark.parametrize("kind", ["newsvendor", "pricing"])
def test_the_oracle_row_is_a_serial_oracle_to_the_bit(kind):
    # across block edges, from the buffer allocated beside u on the seed's thread
    n_mc = 2 * _BLOCK + 3
    params = {"c_h": 1.0, "c_s": 3.0} if kind == "newsvendor" else {"capacity": 15.0}
    model = _world(kind=kind, cost_params=params)
    config = _experiment(model, _config(), n_seeds=1, n_samples=120, n_mc=n_mc, seed=0)
    row = _run_seed(config, 4)[-1]
    u = world_draws(model, n_mc, derive_seeds(4)[3])
    want = _oracle(model, problem_from_model(model, GRID), u)
    assert row.method == "oracle"
    assert [row.chosen_action.hex(), row.expected_cost.hex()] == [x.hex() for x in want]


@pytest.mark.parametrize("failing", ["_draw_world", "_oracle"], ids=["draws", "scan"])
def test_an_error_in_the_draws_is_raised_and_leaves_no_thread(
    monkeypatch, tmp_path, capsys, failing
):
    # raised on the draw thread, by the draws or by the oracle scan after them,
    # and raised again by _run_seed once both fits have run
    raised = MemoryError("Unable to allocate 80.0 GiB")
    fits_run = []

    def no_memory(*args):
        raise raised

    def counted(fit):
        def run(*args):
            fits_run.append(True)
            return fit(*args)

        return run

    monkeypatch.setattr(evaluation, failing, no_memory)
    for method, fit in list(evaluation._FITS.items()):
        monkeypatch.setitem(evaluation._FITS, method, counted(fit))
    before = threading.active_count()
    config = _experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=1000, seed=0)
    with pytest.raises(MemoryError) as err:
        _run_seed(config, 0)
    assert err.value is raised
    assert len(fits_run) == len(evaluation._FITS)
    assert threading.active_count() == before

    blob = json.loads((ROOT / "configs" / "pricing_demo.json").read_text())
    blob["eval"]["n_seeds"], blob["train"]["max_iters"] = 1, 20
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    out = tmp_path / "results.csv"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()
    assert threading.active_count() == before


def _reference_score(model, action, best_costs, u):
    """_score as a plain expression, with fresh arrays for the outcomes u + m(z),
    the costs, their differences and std."""
    e, q = model.action_effect, model.nonlinearity
    z = float(action)
    y = u + (0.0 + e * z + q * e * z * z)
    costs_at_action = problem_from_model(model, GRID).task_cost(z, y)
    diffs = costs_at_action - best_costs
    regret = float(diffs.mean())
    n_mc = len(u)
    se = float(diffs.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    if abs(regret) <= 3.0 * se:
        regret = 0.0
    return float(costs_at_action.mean()), regret


# the last two cross block edges in the blocked subtraction of the oracle's costs
@pytest.mark.parametrize("n_mc", [1, 2, 10**5, _BLOCK + 1, 3 * _BLOCK + 7])
def test_score_gives_the_reference_bits(n_mc):
    model = _world(nonlinearity=-0.02)
    u = world_draws(model, n_mc, seed=4)
    oracle = _oracle(model, problem_from_model(model, GRID), u)
    best_costs = cost_draws(model, oracle[0], u)
    saved = u.tobytes()
    clamped = set()
    for action in GRID.points:
        got = _score(model, action, oracle, u)
        want = _reference_score(model, action, best_costs, u)
        assert [x.hex() for x in got] == [x.hex() for x in want], action
        clamped.add(got[1] == 0.0)
    assert u.tobytes() == saved
    assert clamped == {True, False}  # actions inside and outside the 3-SE clamp


@pytest.mark.parametrize("n", [1, 2, 3, 10**5])
def test_mean_and_se_is_numpys_mean_and_std_to_the_bit(n):
    rng = np.random.default_rng(n)
    for x in (rng.normal(3.0, 2.0, n), rng.exponential(size=n) * 1e6, np.full(n, 0.1)):
        want = (float(x.mean()), float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
        got = _mean_and_se(x.copy())
        assert [v.hex() for v in got] == [v.hex() for v in want]


# --- memory -----------------------------------------------------------------------


def _traced_peak(fn, *args) -> int:
    """The most bytes fn(*args) held at once beyond what was held when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["pricing_demo", "compare_default"], ids=["pricing", "newsvendor"])
def test_one_seed_holds_at_most_two_arrays_of_n_mc(name):
    # the world draws u and one working array, for every kind; the half array on
    # top is headroom for the blocks (0.07 of an array each at n_mc = 1e6) and
    # what does not grow with n_mc
    n_mc = 1_000_000
    config = replace(load_config(ROOT / "configs" / f"{name}.json"), n_mc=n_mc)
    _run_seed(replace(config, n_mc=1), 0)  # first calls allocate numpy's own caches
    assert _traced_peak(_run_seed, config, 0) <= 2.5 * 8 * n_mc
    model, grid, mc_seed = config.model_spec, config.grid, derive_seeds(0)[3]
    action = float(grid.points[0])
    assert action != oracle_action(model, grid, n_mc, mc_seed)[0]
    assert _traced_peak(evaluate_decision, model, action, grid, n_mc, mc_seed) <= 2.5 * 8 * n_mc


def test_world_draws_holds_u_and_one_block_of_features():
    # u and one (_BLOCK, 6) block of features, 0.39 of an array at n_mc = 1e6
    n_mc = 1_000_000
    model = _world(base_weights=(2.0, -1.0, 0.5, 0.3, -0.2, 1.0))
    world_draws(model, 2, 0)
    assert _traced_peak(world_draws, model, n_mc, 0) <= 1.5 * 8 * n_mc


def _prescribed(fit, action):
    """A fit that chooses `action`: fit's result with its z_star replaced."""
    return lambda *args: replace(fit(*args), z_star=action)


def test_each_distinct_decision_is_costed_once_per_seed(monkeypatch):
    # a seed costs n_mc draws for the oracle and 2 * n_mc for each distinct
    # decision that is not the oracle's; the subtraction's blocks count too
    n_mc = _BLOCK + 1
    config = _experiment(_world(), _config(), n_seeds=1, n_samples=120, n_mc=n_mc, seed=0)
    oracle = _run_seed(config, 0)[-1]
    other = float(GRID.points[0])
    assert other != oracle.chosen_action
    fit, costed = evaluation._FITS["two_stage"], []

    def counted(model, z, u, out=None):
        costed.append(len(u))
        return cost_draws(model, z, u, out)

    monkeypatch.setattr(problems, "cost_draws", counted)
    monkeypatch.setattr(evaluation, "cost_draws", counted)
    for action, passes in ((oracle.chosen_action, 1), (other, 3)):
        costed.clear()
        for method in list(evaluation._FITS):
            monkeypatch.setitem(evaluation._FITS, method, _prescribed(fit, action))
        reports = _run_seed(config, 0)
        assert sum(costed) == passes * n_mc
        first, second, got_oracle = reports
        assert repr(got_oracle) == repr(oracle)
        assert repr(replace(first, method="")) == repr(replace(second, method=""))
        assert first.chosen_action == action
        assert (first.regret == 0.0) is (action == oracle.chosen_action)


@pytest.mark.parametrize(
    "build",
    [
        partial(newsvendor_problem, c_h=1.0, c_s=3.0),
        partial(_problem, "pricing", cost_params={"capacity": 12.0}),
    ],
    ids=["newsvendor", "pricing"],
)
def test_empirical_profile_forms_no_cost_matrix(build):
    # one sorted copy of the n labels, not a (K, n) cost matrix
    labels = np.random.default_rng(0).normal(10.0, 2.0, size=200_000)
    problem = build(make_grid(0.0, 20.0, 201))
    assert _traced_peak(empirical_profile, labels, problem) <= 3 * 8 * labels.size


def test_pred_mse_two_stage_not_worse_on_well_specified_world():
    # the pure-loss trainer should fit the data at least as well as the joint
    # one in most seeds (harness consistency check)
    model = _world()
    reports = compare_methods(
        _experiment(
            model,
            _config(max_iters=400, learning_rate=5e-3),
            n_seeds=10,
            n_samples=300,
            n_mc=500,
            seed=7,
        )
    )
    by_seed = {}
    for r in reports:
        by_seed.setdefault(r.seed, {})[r.method] = r
    wins = sum(
        1
        for rows in by_seed.values()
        if rows["two_stage"].pred_mse <= rows["simpo"].pred_mse + 1e-9
    )
    assert wins >= 8


# --- the closed-form expected cost as an independent oracle reference ---------
#
# The outcome at action z is Y ~ N(mu(z), s^2), with mu(z) = intercept + e*z +
# q*e*z^2 and s^2 = noise_sd^2 + feature_sd^2 * |base_weights|^2, so both costs
# have closed-form expectations through E[(Y - a)+] = (mu - a) Phi((mu - a)/s)
# + s phi((mu - a)/s).

_PHI = np.vectorize(lambda u: 0.5 * (1.0 + math.erf(u / math.sqrt(2.0))), otypes=[float])


def _expected_excess(mu, a, s):
    """E[(Y - a)+] for Y ~ N(mu, s^2)."""
    u = (mu - a) / s
    return (mu - a) * _PHI(u) + s * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _outcome_moments(model, z):
    """mu(z) and s of the outcome Y ~ N(mu(z), s^2) at actions z."""
    z = np.asarray(z, dtype=float)
    e, q = model.action_effect, model.nonlinearity
    mu = model.intercept + e * z + q * e * z * z
    s = math.sqrt(model.noise_sd**2 + model.feature_sd**2 * sum(w * w for w in model.base_weights))
    return mu, s


def _exact_expected_cost(model, z):
    z = np.asarray(z, dtype=float)
    mu, s = _outcome_moments(model, z)
    params = model.cost_params
    if model.kind == "newsvendor":
        c_h, c_s = params["c_h"], params["c_s"]
        return (c_h + c_s) * _expected_excess(mu, z, s) - c_h * (mu - z)
    capacity = params["capacity"]
    return -z * (_expected_excess(mu, 0.0, s) - _expected_excess(mu, capacity, s))


SHIPPED = sorted(p.name for p in (ROOT / "configs").glob("*.json"))


def _capacity_binds():
    # no shipped world lets the capacity bind; at capacity 4 the exact optimum
    # is z = 4.0, where about half the draws sell the full capacity
    config = load_config(ROOT / "configs" / "pricing_demo.json")
    return replace(config, model_spec=replace(config.model_spec, cost_params={"capacity": 4.0}))


CLOSED_FORM_CASES = {name: partial(load_config, ROOT / "configs" / name) for name in SHIPPED}
CLOSED_FORM_CASES["pricing_demo.json-capacity-4"] = _capacity_binds


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_monte_carlo_oracle_matches_the_closed_form(name):
    # each config with its own n_mc and MC seed: every Monte Carlo value lies
    # within 5 standard errors of the exact one (the largest |z| seen is 2.71)
    config = CLOSED_FORM_CASES[name]()
    model, grid, n_mc = config.model_spec, config.grid, config.n_mc
    mc_seed = derive_seeds(config.seed)[3]
    u = world_draws(model, n_mc, mc_seed)
    exact = _exact_expected_cost(model, grid.points)
    draws_at = [cost_draws(model, float(z), u) for z in grid.points]
    se = np.array([d.std(ddof=1) for d in draws_at]) / math.sqrt(n_mc)
    # the oracle's scan: the one kernel call that problems._oracle makes
    shifts = mean_outcome(model, 0.0, grid.points)
    profile = problem_from_model(model, grid).separable_kernel(u, shifts)[0]
    # Where every draw sells the full capacity, the draws' cost is -z * capacity
    # with a zero se, and the closed form differs from it by the tail below
    # the capacity that no draw reached: fewer than one draw is expected there.
    full = np.zeros(grid.n_points, dtype=bool)
    if model.kind == "pricing":
        capacity = model.cost_params["capacity"]
        full = np.array([z > 0 and np.all(d == -z * capacity) for z, d in zip(grid.points, draws_at)])
        mu, s = _outcome_moments(model, grid.points[full])
        assert np.all(n_mc * _PHI((capacity - mu) / s) < 1.0)
        assert np.allclose(profile[full], -grid.points[full] * capacity, rtol=1e-12, atol=1e-12)
    # a zero se is an action whose cost is the same on every draw (price 0)
    off = np.abs(profile - exact)[~full]
    assert np.all(off <= 5.0 * se[~full] + 1e-12 * np.abs(exact).max())

    action, _cost = oracle_action(model, grid, n_mc, mc_seed)
    best = int(np.argmin(exact))
    assert abs(action - grid.points[best]) <= grid.step * (1.0 + 1e-9)

    k_action = grid.index_of(action)
    for k in np.linspace(0, grid.n_points - 1, 5).astype(int):
        _cost, regret = evaluate_decision(model, float(grid.points[k]), grid, n_mc, mc_seed)
        diffs = draws_at[k] - draws_at[k_action]
        se_regret = diffs.std(ddof=1) / math.sqrt(n_mc)
        assert regret == 0.0 or abs(regret - (exact[k] - exact[best])) <= 5.0 * se_regret
