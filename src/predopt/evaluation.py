"""Regret evaluation against the oracle and the multi-seed comparison harness.

All methods within one seed share a single Monte Carlo stream (common random
numbers), so regret differences between methods carry no MC noise and the
oracle's own regret is exactly zero.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from itertools import repeat

import numpy as np

from .core import ActionGrid, ValidationError, _require_int, _split_sizes, _write_csv
from .core import split_dataset
from .predictor import Architecture, predict_batch
from .problems import (
    TrueModel,
    _blocks,
    _draw_world,
    _logging_probs,
    _oracle,
    _scratch_size,
    cost_draws,
    gen_dataset,
    problem_from_model,
    world_draws,
)
from .training import _FITS, TrainConfig, TrainingError

__all__ = [
    "ExperimentConfig",
    "DecisionReport",
    "METHOD_ORDER",
    "evaluate_decision",
    "compare_methods",
    "write_results_csv",
    "derive_seeds",
]

METHOD_ORDER = (*_FITS, "oracle")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the world, grid, split, model, training and evaluation settings, seed."""

    model_spec: TrueModel
    grid: ActionGrid
    n_samples: int
    train_frac: float
    val_frac: float
    arch: Architecture
    train: TrainConfig
    n_mc: int
    n_seeds: int
    seed: int

    def __post_init__(self):
        for name, least in (("n_samples", 1), ("n_mc", 1), ("n_seeds", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), least))
        if self.arch.feature_dim != self.model_spec.feature_dim:
            raise ValidationError(
                f"arch.feature_dim must equal the world's feature_dim "
                f"{self.model_spec.feature_dim}, got {self.arch.feature_dim}"
            )
        _split_sizes(self.n_samples, self.train_frac, self.val_frac)
        _logging_probs(self.model_spec, self.grid)  # the logging policy puts mass on the grid
        for name in ("train_frac", "val_frac"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class DecisionReport:
    """One row of the results CSV; its fields are the CSV's columns, in order."""

    method: str
    seed: int
    problem: str
    chosen_action: float
    expected_cost: float
    regret: float
    pred_mse: float
    iters_run: int
    # Never measured: reruns of the same experiment must write byte-identical CSVs.
    wall_ms: float = 0.0


RESULTS_COLUMNS = tuple(f.name for f in fields(DecisionReport))


def derive_seeds(run_seed: int) -> tuple[int, int, int, int]:
    """Per-purpose sub-seeds (data, split, train, mc) for one run.

    Hashed through SeedSequence so e.g. the MC stream never replays the
    training-data draws.
    """
    state = np.random.SeedSequence(_require_int("run_seed", run_seed, 0)).generate_state(4)
    return tuple(int(s) for s in state)


def evaluate_decision(
    model: TrueModel, action: float, grid: ActionGrid, n_mc: int, seed: int
) -> tuple[float, float]:
    """True expected cost of `action` and its regret vs the oracle optimum.

    `action` is taken as the grid point within 1e-9 * width of it. Both sides
    use the same MC draws, so the oracle action gets regret exactly 0 and
    every other grid action gets regret >= 0. Regret within three MC standard
    errors of 0 is clamped to 0. Scored as _run_seed scores a decision.
    """
    point = grid.points[grid.index_of(action)]
    if not abs(point - action) <= 1e-9 * max(1.0, grid.width):
        raise ValidationError(f"action {action} is not a grid point")
    u = world_draws(model, n_mc, seed)
    return _score(model, point, _oracle(model, problem_from_model(model, grid), u), u)


def _score(model, action, oracle, u) -> tuple[float, float]:
    """evaluate_decision's cost and regret, given the world draws u and the
    oracle's (action, expected cost) under them. The oracle action takes its
    cost and regret 0.0 with no pass over u. Any other action takes one working
    array of n_mc: its per-draw costs, then, in place, their differences from
    the oracle action's, which are recomputed block by block."""
    best_action, best_cost = oracle
    if action == best_action:
        return best_cost, 0.0
    work = cost_draws(model, float(action), u)
    cost = float(work.mean())
    for rows in _blocks(len(work)):
        work[rows] -= cost_draws(model, best_action, u[rows])
    regret, se = _mean_and_se(work)
    return cost, (0.0 if abs(regret) <= 3.0 * se else regret)


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """x.mean() and its standard error x.std(ddof=1) / sqrt(n), 0.0 for n = 1.
    The centred squares overwrite x: numpy's own steps for std, so the same bits."""
    n = len(x)
    mean = x.mean()
    if n == 1:
        return float(mean), 0.0
    squares = np.square(np.subtract(x, mean, out=x), out=x)
    return float(mean), float(np.sqrt(squares.sum() / (n - 1)) / np.sqrt(n))


def _seed_setup(config: ExperimentConfig, run_seed: int):
    """The per-seed recipe compare, train and evaluate share: the problem, the
    (train, val, test) split, the train config with its derived seed and the MC seed."""
    data_seed, split_seed, train_seed, mc_seed = derive_seeds(run_seed)
    model, grid = config.model_spec, config.grid
    data = gen_dataset(model, config.n_samples, grid, data_seed)
    splits = split_dataset(data, config.train_frac, config.val_frac, split_seed)
    return problem_from_model(model, grid), splits, replace(config.train, seed=train_seed), mc_seed


def _pred_mse(params, test) -> float:
    resid = test.y - predict_batch(params, test.X, test.z_obs)
    return float(np.mean(resid * resid))


def _fit_row(fit, problem, train, val, test, arch, cfg) -> tuple[float, float, int]:
    """One fit's (chosen action, pred_mse, iters_run), or (nan, nan, the abort's
    iteration) if it aborts. Its TrainResult, history included, dies here."""
    try:
        result = fit(problem, train, val, arch, cfg)
    except TrainingError as err:
        return float("nan"), float("nan"), err.iteration
    return result.z_star, _pred_mse(result.params_star, test), result.iters_run


def _world_and_oracle(u, work, model, problem, mc_seed) -> tuple[float, float]:
    """Draw the world into u through work, then scan and cost its oracle in work."""
    _draw_world(u, work, model, mc_seed)
    return _oracle(model, problem, u, work[: len(u) + 1])


def _run_seed(config: ExperimentConfig, run_seed: int) -> list[DecisionReport]:
    """One seed's worth of work: generate, split, fit both methods, keeping
    only each fit's row values, then score each distinct decision once, and
    the oracle row, from one set of world draws and one oracle profile scan.
    The draws and the oracle depend on the MC seed alone, so a second thread
    draws u, through the working array as scratch, then scans and costs the
    oracle in that array, while the fits run here; an error there is raised
    here after the fits. Both arrays are allocated on this thread: blocks
    another thread allocated would stay in its arena once freed. At most two
    arrays of n_mc (or, for a small n_mc, a working array of one block of
    features) plus one block are held at once: the working array dies with
    that thread's task, before a decision is scored in a new one."""
    from concurrent.futures import ThreadPoolExecutor  # only here: it pulls in logging

    model = config.model_spec
    problem, (train, val, test), cfg, mc_seed = _seed_setup(config, run_seed)
    u = np.empty(config.n_mc)
    with ThreadPoolExecutor(max_workers=1) as pool:
        work = np.empty(max(config.n_mc + 1, _scratch_size(config.n_mc, model)))
        scanned = pool.submit(_world_and_oracle, u, work, model, problem, mc_seed)
        del work  # the task holds the one reference, and drops it when it ends
        rows = [
            (method, *_fit_row(fit, problem, train, val, test, config.arch, cfg))
            for method, fit in _FITS.items()
        ]
        oracle = scanned.result()

    nan = float("nan")
    scores = {}
    reports = []
    for method, action, pred_mse, iters in rows:
        if not np.isnan(action) and action not in scores:
            scores[action] = _score(model, action, oracle, u)
        cost, regret = scores.get(action, (nan, nan))
        reports.append(
            DecisionReport(method, run_seed, problem.name, action, cost, regret, pred_mse, iters)
        )
    reports.append(DecisionReport("oracle", run_seed, problem.name, *oracle, 0.0, nan, 0))
    return reports


def compare_methods(config: ExperimentConfig, jobs: int = 1) -> list[DecisionReport]:
    """Run simpo and two_stage on identical splits for seeds config.seed to
    config.seed + config.n_seeds - 1 and report both against the oracle. Rows
    come back ordered by seed, then by method in METHOD_ORDER, however many
    workers ran them: map keeps the seeds' order. Each seed gets at most one
    worker process; with a single worker the seeds run in this process."""
    jobs = _require_int("jobs", jobs, 1)
    workers = min(jobs, config.n_seeds)
    seeds = range(config.seed, config.seed + config.n_seeds)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_seed, repeat(config), seeds))
    else:
        chunks = map(_run_seed, repeat(config), seeds)
    return [r for chunk in chunks for r in chunk]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_results_csv(reports, path) -> None:
    """Results CSV: one column per DecisionReport field, floats to 17 significant digits."""
    _write_csv(path, RESULTS_COLUMNS, (map(_fmt, astuple(r)) for r in reports))
