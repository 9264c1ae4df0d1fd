"""Regret evaluation against the oracle and the multi-seed comparison harness.

All methods within one seed share a single Monte Carlo stream (common random
numbers), so regret differences between methods carry no MC noise and the
oracle's own regret is exactly zero.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .core import ActionGrid, ValidationError, split_dataset
from .predictor import Architecture, predict_batch
from .problems import (
    TrueModel,
    cost_draws,
    gen_dataset,
    oracle_profile,
    problem_from_model,
    world_draws,
)
from .training import TrainConfig, TrainingError, simpo_fit, two_stage_fit

__all__ = [
    "DecisionReport",
    "METHOD_ORDER",
    "evaluate_decision",
    "compare_methods",
    "write_results_csv",
    "derive_seeds",
]

METHOD_ORDER = ("simpo", "two_stage", "oracle")


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
    state = np.random.SeedSequence(run_seed).generate_state(4)
    return tuple(int(s) for s in state)


def evaluate_decision(
    model: TrueModel, action: float, grid: ActionGrid, n_mc: int, seed: int
) -> tuple[float, float]:
    """True expected cost of `action` and its regret vs the oracle optimum.

    Both sides use the same MC draws, so the oracle action gets regret exactly
    0 and every other grid action gets regret >= 0. Regret within three MC
    standard errors of 0 is clamped to 0.
    """
    base, eps = world_draws(model, n_mc, seed)
    return _score(model, action, grid, base, eps, oracle_profile(model, grid, base, eps))


def _score(model, action, grid, base, eps, values) -> tuple[float, float]:
    """evaluate_decision's cost and regret, given the draws and their oracle profile."""
    points = grid.points
    if not np.any(np.isclose(points, action, rtol=0.0, atol=1e-9 * max(1.0, grid.width))):
        raise ValidationError(f"action {action} is not a grid point")
    costs_at_action = cost_draws(model, float(action), base, eps)
    k_best = int(np.argmin(values))
    diffs = costs_at_action - cost_draws(model, float(points[k_best]), base, eps)
    regret = float(diffs.mean())
    n_mc = len(eps)
    se = float(diffs.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    if abs(regret) <= 3.0 * se:
        regret = 0.0
    return float(costs_at_action.mean()), regret


def _seed_setup(model, grid, config, run_seed, n_samples, train_frac, val_frac):
    """The per-seed recipe compare, train and evaluate share: the problem, the
    (train, val, test) split, `config` with its derived seed and the MC seed."""
    data_seed, split_seed, train_seed, mc_seed = derive_seeds(run_seed)
    data = gen_dataset(model, n_samples, grid, data_seed)
    splits = split_dataset(data, train_frac, val_frac, split_seed)
    return problem_from_model(model, grid), splits, replace(config, seed=train_seed), mc_seed


def _pred_mse(params, test) -> float:
    resid = test.y - predict_batch(params, test.X, test.z_obs)
    return float(np.mean(resid * resid))


def _failed_report(method: str, seed: int, problem_name: str, iters: int):
    nan = float("nan")
    return DecisionReport(method, seed, problem_name, nan, nan, nan, nan, iters)


def _run_seed(args) -> list[DecisionReport]:
    """One seed's worth of work: generate, split, fit both methods, then score
    both decisions and the oracle row from one set of world draws and one
    oracle profile scan.

    Takes a plain-data tuple so it can cross a process boundary.
    """
    (model, grid, arch, config, run_seed, n_samples, train_frac, val_frac, n_mc) = args
    problem, (train, val, test), cfg, mc_seed = _seed_setup(
        model, grid, config, run_seed, n_samples, train_frac, val_frac
    )

    fits = []
    for method, fit in (("simpo", simpo_fit), ("two_stage", two_stage_fit)):
        try:
            fits.append((method, fit(problem, train, val, arch, cfg)))
        except TrainingError as err:
            fits.append((method, err))

    base, eps = world_draws(model, n_mc, mc_seed)
    values = oracle_profile(model, grid, base, eps)
    k_best = int(np.argmin(values))

    reports = []
    for method, result in fits:
        if isinstance(result, TrainingError):
            reports.append(_failed_report(method, run_seed, problem.name, result.iteration))
            continue
        cost, regret = _score(model, result.z_star, grid, base, eps, values)
        reports.append(
            DecisionReport(
                method=method,
                seed=run_seed,
                problem=problem.name,
                chosen_action=result.z_star,
                expected_cost=cost,
                regret=regret,
                pred_mse=_pred_mse(result.params_star, test),
                iters_run=result.iters_run,
            )
        )
    reports.append(
        DecisionReport(
            method="oracle",
            seed=run_seed,
            problem=problem.name,
            chosen_action=float(grid.points[k_best]),
            expected_cost=float(values[k_best]),
            regret=0.0,
            pred_mse=float("nan"),
            iters_run=0,
        )
    )
    return reports


def compare_methods(
    model: TrueModel,
    grid: ActionGrid,
    arch: Architecture,
    config: TrainConfig,
    n_seeds: int,
    *,
    n_samples: int,
    train_frac: float,
    val_frac: float,
    n_mc: int,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[DecisionReport]:
    """Run simpo and two_stage on identical splits for each seed and report
    both against the oracle. Rows come back ordered by seed, then by method in
    METHOD_ORDER, however many workers ran them: map keeps the seeds' order."""
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    work = [
        (model, grid, arch, config, base_seed + i, n_samples, train_frac, val_frac, n_mc)
        for i in range(n_seeds)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_seed, work))
    else:
        chunks = [_run_seed(w) for w in work]
    return [r for chunk in chunks for r in chunk]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_results_csv(reports, path) -> None:
    """Results CSV: one column per DecisionReport field, floats to 17 significant digits."""
    lines = [",".join(RESULTS_COLUMNS)]
    lines += [",".join(_fmt(v) for v in astuple(r)) for r in reports]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
