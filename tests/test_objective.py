import numpy as np
import pytest

from predopt.core import ValidationError, WeightConfig, make_grid, split_dataset
from predopt.objective import (
    CostProfile,
    action_distribution,
    argmin_profile,
    empirical_profile,
    gamma_weight,
    model_profile,
    omega_weight,
)
from predopt.predictor import Architecture, PredictorParams, init_params, predict_batch
from predopt.problems import TrueModel, gen_dataset, newsvendor_problem, problem_from_model
from predopt.training import TrainConfig, simpo_fit, two_stage_fit

GRID = make_grid(0.0, 20.0, 201)


def _profile(values, grid=None):
    grid = grid or make_grid(0.0, float(len(values) - 1), len(values))
    return CostProfile(grid, np.asarray(values, dtype=float), "empirical")


# --- empirical profile ------------------------------------------------------


def test_empirical_profile_zero_cost_at_constant_labels():
    grid = make_grid(0.0, 10.0, 11)
    problem = newsvendor_problem(grid, c_h=1.0, c_s=1.0)
    prof = empirical_profile(np.full(40, 5.0), problem)
    assert prof.source == "empirical"
    k = np.argmin(prof.values)
    assert grid.points[k] == 5.0
    assert prof.values[k] == 0.0


def test_empirical_profile_single_label_absolute_cost():
    grid = make_grid(0.0, 10.0, 21)
    from predopt.problems import Problem

    # |z - y|: one knot at the action, slope -1 below it and 1 above
    problem = Problem(grid, lambda z: ((z,), (-1.0, 1.0), 0.0), "abs")
    prof = empirical_profile([3.0], problem)
    np.testing.assert_allclose(prof.values, np.abs(grid.points - 3.0))


def test_empirical_profile_recovers_newsvendor_quantile():
    # independent oracle: the argmin of the SAA profile is the c_s/(c_h+c_s)
    # sample quantile, which for N(10, 2^2) converges to 10 + 2*0.6745
    rng = np.random.default_rng(42)
    labels = rng.normal(10.0, 2.0, size=10000)
    problem = newsvendor_problem(GRID, c_h=1.0, c_s=3.0)
    prof = empirical_profile(labels, problem)
    zhat = argmin_profile(prof)
    sample_q = np.quantile(labels, 0.75)
    assert abs(zhat - sample_q) <= GRID.step + 1e-12
    assert abs(zhat - 11.349) <= 2 * GRID.step


def test_empirical_profile_rejects_empty():
    problem = newsvendor_problem(GRID, 1.0, 1.0)
    with pytest.raises(ValidationError):
        empirical_profile([], problem)


# --- model profile ----------------------------------------------------------


def test_model_profile_zero_params():
    problem = newsvendor_problem(GRID, c_h=1.0, c_s=3.0)
    params = init_params(Architecture("linear", 2), 0)
    prof = model_profile(params, np.random.default_rng(0).normal(size=(7, 2)), problem)
    np.testing.assert_allclose(prof.values, problem.task_cost(GRID.points, 0.0))
    assert prof.source == "model"


def test_model_profile_perfect_tracking():
    grid = make_grid(0.0, 10.0, 11)
    from predopt.problems import Problem

    # |z - y|: one knot at the action, slope -1 below it and 1 above
    problem = Problem(grid, lambda z: ((z,), (-1.0, 1.0), 0.0), "abs")
    # w_x = 0, w_z = 1, b = 0: prediction equals the action everywhere
    params = PredictorParams(Architecture("linear", 1), np.array([0.0, 1.0, 0.0]))
    prof = model_profile(params, np.array([[4.2]]), problem)
    np.testing.assert_allclose(prof.values, 0.0)


def test_model_profile_matches_double_loop():
    problem = newsvendor_problem(GRID, c_h=1.0, c_s=3.0)
    rng = np.random.default_rng(1)
    arch = Architecture("mlp1", feature_dim=3, hidden_units=5)
    params = PredictorParams(arch, rng.normal(scale=0.5, size=arch.n_weights))
    X = rng.normal(size=(50, 3))
    prof = model_profile(params, X, problem)
    # brute-force reimplementation, one scalar prediction at a time
    expected = np.zeros(GRID.n_points)
    for k, z in enumerate(GRID.points):
        costs = [
            float(problem.task_cost(z, predict_batch(params, X[j : j + 1], [z])[0]))
            for j in range(50)
        ]
        expected[k] = np.mean(costs)
    np.testing.assert_allclose(prof.values, expected, rtol=1e-12)


# --- argmin -----------------------------------------------------------------


def test_argmin_unique_minimum():
    assert argmin_profile(_profile([3.0, 1.0, 2.0])) == 1.0


def test_argmin_tie_breaks_small():
    assert argmin_profile(_profile([1.0, 1.0, 2.0])) == 0.0


def test_argmin_boundary():
    assert argmin_profile(_profile([5.0, 4.0, 3.0, 2.0])) == 3.0


def test_argmin_matches_exhaustive_scan_and_shift_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vals = rng.normal(size=31)
        prof = _profile(vals)
        zhat = argmin_profile(prof)
        ks = [k for k in range(31) if vals[k] == vals.min()]
        assert zhat == prof.grid.points[min(ks)]
        shifted = _profile(vals + 17.3)
        assert argmin_profile(shifted) == zhat


def test_argmin_invariant_under_positive_scaling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.uniform(1.0, 5.0, size=17)
        for c in (0.01, 1.0, 250.0):
            assert argmin_profile(_profile(c * vals)) == argmin_profile(_profile(vals))


# --- action distribution ----------------------------------------------------


def test_action_distribution_uniform_for_constant_profile():
    p = action_distribution(_profile(np.full(9, 2.5)), tau=0.7)
    np.testing.assert_allclose(p, 1.0 / 9)


def test_action_distribution_hand_values():
    # normalizer 1 + e^-1 + e^-2
    p = action_distribution(_profile([1.0, 2.0, 3.0]), tau=1.0)
    np.testing.assert_allclose(p, [0.66524, 0.24473, 0.09003], atol=5e-6)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_action_distribution_sharp_tau():
    p = action_distribution(_profile([1.0, 2.0]), tau=0.01)
    assert p[0] == pytest.approx(1.0, abs=1e-40)
    assert p[1] < 1e-40


def test_action_distribution_rejects_bad_tau():
    with pytest.raises(ValidationError):
        action_distribution(_profile([1.0, 2.0]), tau=0.0)


def test_action_distribution_no_overflow_on_large_values():
    p = action_distribution(_profile([1e300, 0.0, 1e300]), tau=1.0)
    assert np.isfinite(p).all()
    assert p[1] == pytest.approx(1.0)


def test_soft_min_limits():
    rng = np.random.default_rng(4)
    for _ in range(50):
        vals = rng.normal(scale=5.0, size=41)
        prof = _profile(vals)
        order = np.sort(vals)
        gap = order[1] - order[0]
        if gap <= 0:
            continue
        p_sharp = action_distribution(prof, tau=gap / 51)
        assert p_sharp[np.argmin(vals)] >= 1.0 - 1e-9
        spread = vals.max() - vals.min()
        p_flat = action_distribution(prof, tau=1e6 * spread)
        assert np.max(np.abs(p_flat - 1.0 / 41)) < 1e-4


def test_expected_value_within_profile_range():
    rng = np.random.default_rng(5)
    for _ in range(50):
        vals = rng.normal(scale=3.0, size=23)
        prof = _profile(vals)
        for tau in (0.05, 0.5, 5.0, 500.0):
            p = action_distribution(prof, tau)
            expectation = p @ vals
            assert vals.min() - 1e-12 <= expectation <= vals.max() + 1e-12


# --- omega / gamma ----------------------------------------------------------


def _one_hot(k, n):
    p = np.zeros(n)
    p[k] = 1.0
    return p


def test_omega_zero_distance():
    grid = make_grid(0.0, 10.0, 11)
    probs = _one_hot(4, 11)
    assert omega_weight(probs, grid, z_star_train=grid.points[4], alpha=5.0) == 1.0


def test_omega_zero_alpha():
    grid = make_grid(0.0, 10.0, 11)
    probs = np.full(11, 1.0 / 11)
    assert omega_weight(probs, grid, z_star_train=3.0, alpha=0.0) == 1.0


def test_omega_hand_value():
    grid = make_grid(0.0, 10.0, 11)
    probs = np.zeros(11)
    probs[0] = probs[10] = 0.5
    assert omega_weight(probs, grid, z_star_train=0.0, alpha=2.0) == pytest.approx(2.0)


@pytest.mark.parametrize("scale", [1.01, float("nan")])
def test_omega_rejects_probs_that_do_not_sum_to_one(scale):
    grid = make_grid(0.0, 10.0, 11)
    with pytest.raises(ValidationError, match="probs must sum to 1"):
        omega_weight(np.full(11, 1.0 / 11) * scale, grid, z_star_train=3.0, alpha=1.0)


@pytest.mark.parametrize(
    "probs, message",
    [
        (np.full(10, 0.1), "probs length must match the grid, got 10"),
        (np.full(12, 1.0 / 12), "probs length must match the grid, got 12"),
        (np.eye(11)[0] * 2.0 - np.eye(11)[1], "probs must sum to 1 .* every entry >= 0"),
    ],
    ids=["short", "long", "negative-entry"],
)
def test_omega_rejects_probs_of_another_length_or_a_negative_entry(probs, message):
    grid = make_grid(0.0, 10.0, 11)
    with pytest.raises(ValidationError, match=message):
        omega_weight(probs, grid, z_star_train=3.0, alpha=1.0)


def test_omega_nondecreasing_under_one_hot_shift():
    grid = make_grid(0.0, 10.0, 21)
    z_star = grid.points[6]
    last = -np.inf
    order = np.argsort(np.abs(grid.points - z_star), kind="stable")
    for k in order:
        w = omega_weight(_one_hot(k, 21), grid, z_star, alpha=1.7)
        assert w >= 1.0
        assert w >= last - 1e-15
        last = w


def test_gamma_equal_anchors_and_zero_beta():
    grid = make_grid(0.0, 10.0, 11)
    assert gamma_weight(4.0, 4.0, beta=3.0, grid=grid) == 1.0
    assert gamma_weight(1.0, 9.0, beta=0.0, grid=grid) == 1.0


def test_gamma_hand_value():
    grid = make_grid(0.0, 10.0, 11)
    assert gamma_weight(2.0, 7.0, beta=1.0, grid=grid) == pytest.approx(
        np.exp(-0.5), rel=1e-12
    )


def test_gamma_strictly_decreasing_in_anchor_distance():
    grid = make_grid(0.0, 10.0, 101)
    gaps = np.linspace(0.0, 10.0, 25)
    vals = [gamma_weight(0.0, g, beta=2.0, grid=grid) for g in gaps]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- joint objective (composed per iteration by the trainer) -----------------


def _fit_rows(fit, task_term_enabled=True):
    model = TrueModel(
        kind="newsvendor",
        base_weights=(2.0, -1.0),
        intercept=16.0,
        action_effect=0.9,
        nonlinearity=-0.04,
        noise_sd=1.0,
        feature_sd=1.5,
        cost_params={"c_h": 1.0, "c_s": 3.0},
        logging={"policy": "uniform"},
    )
    problem = problem_from_model(model, GRID)
    train, val, _ = split_dataset(gen_dataset(model, 200, GRID, 5), 0.6, 0.2, 6)
    wc = WeightConfig(alpha=2.0, beta=20.0, tau=0.5, task_term_enabled=task_term_enabled)
    config = TrainConfig(weight_config=wc, learning_rate=3e-3, max_iters=20, seed=0)
    return fit(problem, train, val, Architecture("linear", 2), config).history


def test_joint_objective_zero():
    # task term switched off: it is recorded as exactly 0 and adds nothing to F
    rows = _fit_rows(simpo_fit, task_term_enabled=False)
    assert rows
    for row in rows:
        assert row.task_term == 0.0
        assert row.total == row.pred_term * row.omega


def test_joint_objective_two_stage_reduction():
    # two-stage: unit weights, no task term, so F is the predictive loss itself
    rows = _fit_rows(two_stage_fit)
    assert rows
    for row in rows:
        assert (row.omega, row.gamma, row.task_term) == (1.0, 1.0, 0.0)
        assert row.total == row.pred_term
