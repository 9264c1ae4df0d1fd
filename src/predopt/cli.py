"""Command-line entry point: generate / train / evaluate / compare.

One JSON config fully determines an experiment. Its keys are the fields of
the dataclasses it builds, in the sections that _LAYOUT gives, and a field
without a default is a required key. Parsing is strict: unknown keys are
rejected by name (and line, when it can be located in the file). The config
and the checkpoint are both read and checked by core._read_json, and every
output file is written by core._write_atomic.

Every command takes --config, --out and --seed, and argparse dispatches to
its cmd_* function by keyword once main has checked --out. Bad input is a
core.ValidationError here as in the library, and the methods are training's fits.
Exit codes: 0 success, 2 usage, config, checkpoint or file-system error or
arrays too large to allocate, 3 training abort.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass, replace

import numpy as np

from .core import ActionGrid, ValidationError, WeightConfig, make_grid, save_dataset_csv
from .core import _JSON_TYPES, _json_keys, _read_json, _write_atomic
from .evaluation import (
    METHOD_ORDER,
    ExperimentConfig,
    _seed_setup,
    compare_methods,
    derive_seeds,
    evaluate_decision,
    write_results_csv,
)
from .objective import argmin_profile, model_profile
from .predictor import Architecture, load_checkpoint, save_checkpoint
from .problems import _PARAM_SCHEMAS, TrueModel, gen_dataset
from .training import _FITS, TrainConfig, TrainingError, save_history_csv

__all__ = ["main", "load_config"]

# Where each class's fields sit in the file, as a dotted section ("" is the top
# level), and the fields that sit elsewhere; None keeps a field out of the file.
_LAYOUT = {
    "TrueModel": "problem",
    "ActionGrid": "problem.grid",
    "Architecture": "model",
    "Architecture.feature_dim": None,  # the length of problem.base_weights
    "TrainConfig": "train",
    "TrainConfig.seed": None,  # the top-level seed
    "WeightConfig": "train.weights",
    "ExperimentConfig": "eval",
    "ExperimentConfig.n_samples": "problem",
    "ExperimentConfig.train_frac": "problem",
    "ExperimentConfig.val_frac": "problem",
    "ExperimentConfig.seed": "",
}


def _build_schema() -> dict:
    """key -> (required, expected type(s)) from the dataclass fields; a nested
    dict holds a section's own schema, from problems for the kind's and policy's keys."""
    # Optional and empty; kept so configs that carry "io": {} still load.
    schema = {"io": (False, {})}
    for cls in (TrueModel, ActionGrid, Architecture, TrainConfig, WeightConfig, ExperimentConfig):
        for name, required, hint in _json_keys(cls):
            where = _LAYOUT.get(f"{cls.__name__}.{name}", _LAYOUT[cls.__name__])
            if where is None or is_dataclass(hint):
                continue  # a dataclass field is the section of its class
            node = schema
            for section in filter(None, where.split(".")):
                node = node.setdefault(section, (True, {}))[1]
            node[name] = (required, _PARAM_SCHEMAS.get(name) or _JSON_TYPES[hint])
    return schema


_SCHEMA = _build_schema()


def load_config(path) -> ExperimentConfig:
    blob = _read_json(path, _SCHEMA, "config")
    # config keys are field names: each section builds its class by keyword, with its defaults
    problem = dict(blob["problem"])
    grid = problem.pop("grid")
    split = {key: problem.pop(key) for key in ("n_samples", "train_frac", "val_frac")}
    train = dict(blob["train"])
    weights = train.pop("weights")
    model = TrueModel(**problem)
    return ExperimentConfig(
        model_spec=model,
        grid=make_grid(**grid),
        arch=Architecture(feature_dim=model.feature_dim, **blob["model"]),
        train=TrainConfig(weight_config=WeightConfig(**weights), seed=blob["seed"], **train),
        seed=blob["seed"],
        **split,
        **blob["eval"],
    )


def cmd_generate(config: ExperimentConfig, out: str) -> int:
    data_seed, _, _, _ = derive_seeds(config.seed)
    data = gen_dataset(config.model_spec, config.n_samples, config.grid, data_seed)
    save_dataset_csv(data, out)
    meta = {"model": asdict(config.model_spec), "seed": config.seed, "data_seed": data_seed}
    sidecar = os.path.splitext(out)[0] + ".meta.json"
    _write_atomic(sidecar, json.dumps(meta, indent=2) + "\n")
    print(f"wrote {len(data)} samples to {out}")
    return 0


def _fit_once(config: ExperimentConfig, method: str):
    problem, (train, val, _test), cfg, _mc_seed = _seed_setup(config, config.seed)
    return _FITS[method](problem, train, val, config.arch, cfg)


@contextmanager
def _output_path(out: str, is_dir: bool):
    """Check that --out names a directory when `is_dir`, else a file (not "", a directory,
    nor ending in a separator); create its directory and missing parents before any
    compute, and remove the directories this created if the command raises."""
    if not out or not is_dir and (os.path.isdir(out) or not os.path.basename(out)):
        what = "a directory" if is_dir else "a file, not a directory"
        raise OSError(errno.EINVAL, f"output path must name {what}", out)
    path = os.path.abspath(out) if is_dir else os.path.dirname(os.path.abspath(out))
    top = None  # the outermost directory this call creates
    probe = path
    while not os.path.lexists(probe):
        top, probe = probe, os.path.dirname(probe)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        if top is not None:
            shutil.rmtree(top, ignore_errors=True)
        raise


def cmd_train(config: ExperimentConfig, method: str, out: str) -> int:
    method = method.replace("-", "_")  # the command line spells the method names with "-"
    result = _fit_once(config, method)
    save_checkpoint(result.params_star, os.path.join(out, "checkpoint.json"))
    save_history_csv(result.history, os.path.join(out, "training_log.csv"))
    summary = {
        "method": method,
        "z_star": result.z_star,
        "g_star": result.g_star,
        "converged": result.converged,
        "iters_run": result.iters_run,
    }
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    print(
        f"{method}: z_star={result.z_star:g} g_star={result.g_star:g} "
        f"iters={result.iters_run} converged={result.converged}"
    )
    return 0


def _describe(arch: Architecture) -> str:
    hidden = f", hidden_units={arch.hidden_units}" if arch.hidden_units else ""
    return f"{arch.kind} (feature_dim={arch.feature_dim}{hidden})"


def cmd_evaluate(config: ExperimentConfig, checkpoint: str, out: str) -> int:
    params = load_checkpoint(checkpoint)
    if params.architecture != config.arch:
        raise ValidationError(
            f"checkpoint {checkpoint} holds a {_describe(params.architecture)} model, "
            f"but the config describes a {_describe(config.arch)} model"
        )
    problem, (_train, val, _test), _cfg, mc_seed = _seed_setup(config, config.seed)
    profile = model_profile(params, val.X, problem)
    action = argmin_profile(profile)
    cost, regret = evaluate_decision(config.model_spec, action, config.grid, config.n_mc, mc_seed)
    report = {"chosen_action": action, "expected_cost": cost, "regret": regret}
    _write_atomic(out, json.dumps(report, indent=2) + "\n")
    print(f"action={action:g} expected_cost={cost:g} regret={regret:g}")
    return 0


def cmd_compare(config: ExperimentConfig, out: str, jobs: int) -> int:
    reports = compare_methods(config, jobs)
    write_results_csv(reports, out)
    print(f"{'method':<10} {'mean_regret':>12} {'mean_cost':>12} {'seeds':>6}")
    for method in METHOD_ORDER:
        rows = [r for r in reports if r.method == method]
        regrets = np.array([r.regret for r in rows])
        costs = np.array([r.expected_cost for r in rows])
        ok = np.isfinite(regrets)
        mean_regret = float(regrets[ok].mean()) if ok.any() else float("nan")
        mean_cost = float(costs[ok].mean()) if ok.any() else float("nan")
        print(f"{method:<10} {mean_regret:>12.5g} {mean_cost:>12.5g} {ok.sum():>6}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predopt",
        description="Joint prediction-and-optimization experiments on synthetic decision problems.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True)
    shared.add_argument("--out", required=True, help="output file (train: output directory)")
    shared.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("generate", cmd_generate, "write a dataset CSV plus a provenance sidecar"),
        ("train", cmd_train, "fit one method and write checkpoint/log/summary"),
        ("evaluate", cmd_evaluate, "score a saved checkpoint's decision against the oracle"),
        ("compare", cmd_compare, "run the multi-seed method comparison"),
    ):
        sub.add_parser(name, parents=[shared], help=text).set_defaults(run=run)
    methods = [method.replace("_", "-") for method in _FITS]
    sub.choices["train"].add_argument("--method", required=True, choices=methods)
    sub.choices["evaluate"].add_argument("--checkpoint", required=True)
    sub.choices["compare"].add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    run, config_path, seed = args.pop("run"), args.pop("config"), args.pop("seed")
    try:
        config = load_config(config_path)
        if seed is not None:
            config = replace(config, seed=seed)
        with _output_path(args["out"], run is cmd_train):
            return run(config, **args)
    except (ValidationError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
