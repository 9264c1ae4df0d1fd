"""Command-line entry point: generate / train / evaluate / compare.

One JSON config fully determines an experiment. Its keys are the fields of
the dataclasses it builds, in the sections that _LAYOUT gives, and a field
without a default is a required key. Parsing is strict: unknown keys are
rejected by name (and line, when it can be located in the file).
Exit codes: 0 success, 2 usage, config, checkpoint or file-system error or
arrays too large to allocate, 3 training abort.
All output files are written to a temporary name and atomically renamed.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .core import ActionGrid, ValidationError, WeightConfig, make_grid, save_dataset_csv
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
from .problems import TrueModel, gen_dataset
from .training import TrainConfig, TrainingError, save_history_csv, simpo_fit, two_stage_fit

__all__ = ["main", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """A config file failed strict validation."""


_NUMBER = (int, float)
# The largest value of an int key; numpy's conversion of a larger size overflows.
_INT_MAX = 2**31 - 1
# The JSON type(s) a key takes, by the annotation of its dataclass field
_JSON_TYPES = {str: str, int: int, bool: bool, float: _NUMBER, tuple: list}
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
# Objects whose keys depend on the problem kind or logging policy; TrueModel checks which
_OBJECTS = {
    "cost_params": {
        "c_h": (False, _NUMBER),
        "c_s": (False, _NUMBER),
        "capacity": (False, _NUMBER),
    },
    "logging": {
        "policy": (True, str),
        "center": (False, _NUMBER),
        "width": (False, _NUMBER),
    },
}


def _build_schema() -> dict:
    """key -> (required, expected type(s)) from the dataclass fields; a nested
    dict holds a section's own schema."""
    # Optional and empty; kept so configs that carry "io": {} still load.
    schema = {"io": (False, {})}
    for cls in (TrueModel, ActionGrid, Architecture, TrainConfig, WeightConfig, ExperimentConfig):
        hints = get_type_hints(cls)
        for f in fields(cls):
            where = _LAYOUT.get(f"{cls.__name__}.{f.name}", _LAYOUT[cls.__name__])
            if where is None or not f.init or is_dataclass(hints[f.name]):
                continue  # a dataclass field is the section of its class
            node = schema
            for section in filter(None, where.split(".")):
                node = node.setdefault(section, (True, {}))[1]
            required = f.default is MISSING and f.default_factory is MISSING
            expected = _OBJECTS[f.name] if f.name in _OBJECTS else _JSON_TYPES[hints[f.name]]
            node[f.name] = (required, expected)
    return schema


_SCHEMA = _build_schema()


def _find_line(raw_text: str, key: str):
    needle = f'"{key}"'
    for lineno, line in enumerate(raw_text.split("\n"), start=1):
        if needle in line:
            return lineno
    return None


def _check_keys(blob: dict, schema: dict, raw_text: str, path: str = "") -> None:
    for key, value in blob.items():
        where = f"{path}{key}"
        if key not in schema:
            lineno = _find_line(raw_text, key)
            at = f" (line {lineno})" if lineno else ""
            raise ConfigError(f"unknown config key '{where}'{at}")
        _required, expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{where}' must be an object")
            _check_keys(value, expected, raw_text, path=where + ".")
        else:
            if expected is int and isinstance(value, bool):
                raise ConfigError(f"config key '{where}' must be an integer")
            if not isinstance(value, expected):
                raise ConfigError(f"config key '{where}' has the wrong type")
            if expected is int and value > _INT_MAX:
                raise ConfigError(f"config key '{where}' must be <= {_INT_MAX}")
            if expected in (_NUMBER, list):
                numbers = value if isinstance(value, list) else [value]
                if not all(isinstance(v, _NUMBER) and not isinstance(v, bool) for v in numbers):
                    raise ConfigError(f"config key '{where}' must be numeric")
                try:
                    finite = all(math.isfinite(v) for v in numbers)
                except OverflowError:  # an integer literal too large for a float
                    finite = False
                if not finite:
                    raise ConfigError(f"config key '{where}' must be finite")
    for key, (required, _expected) in schema.items():
        if required and key not in blob:
            raise ConfigError(f"missing config key '{path}{key}'")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw_text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        blob = json.loads(raw_text)
    except ValueError as err:  # a JSONDecodeError, or an integer with too many digits
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _check_keys(blob, _SCHEMA, raw_text)

    # config keys are field names: each section builds its class by keyword, with its defaults
    problem = dict(blob["problem"])
    grid = problem.pop("grid")
    split = {key: problem.pop(key) for key in ("n_samples", "train_frac", "val_frac")}
    train = dict(blob["train"])
    weights = train.pop("weights")
    try:
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
    except ValidationError as err:
        raise ConfigError(str(err)) from err


def _atomic_via_tmp(path, writer) -> None:
    """Run writer(tmp_path) next to `path`, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text: str) -> None:
    def writer(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write(text)

    _atomic_via_tmp(path, writer)


def _sidecar_path(out_path: str) -> str:
    stem, _ext = os.path.splitext(out_path)
    return stem + ".meta.json"


def cmd_generate(config: ExperimentConfig, out_path: str) -> int:
    data_seed, _, _, _ = derive_seeds(config.seed)
    data = gen_dataset(config.model_spec, config.n_samples, config.grid, data_seed)
    _atomic_via_tmp(out_path, lambda tmp: save_dataset_csv(data, tmp))
    meta = {"model": asdict(config.model_spec), "seed": config.seed, "data_seed": data_seed}
    _atomic_write_text(_sidecar_path(out_path), json.dumps(meta, indent=2) + "\n")
    print(f"wrote {len(data)} samples to {out_path}")
    return 0


def _fit_once(config: ExperimentConfig, method: str):
    problem, (train, val, _test), cfg, _mc_seed = _seed_setup(config, config.seed)
    fit = simpo_fit if method == "simpo" else two_stage_fit
    return fit(problem, train, val, config.arch, cfg)


@contextmanager
def _output_dir(path):
    """Create directory `path` and its missing parents before the body runs,
    so an unusable output path fails before any compute; if the body raises,
    remove the directories this created."""
    path = os.path.abspath(path)
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


def cmd_train(config: ExperimentConfig, method: str, run_dir: str) -> int:
    with _output_dir(run_dir):
        result = _fit_once(config, method)
    _atomic_via_tmp(
        os.path.join(run_dir, "checkpoint.json"),
        lambda tmp: save_checkpoint(result.params_star, tmp),
    )
    _atomic_via_tmp(
        os.path.join(run_dir, "training_log.csv"),
        lambda tmp: save_history_csv(result.history, tmp),
    )
    summary = {
        "method": method,
        "z_star": result.z_star,
        "g_star": result.g_star,
        "converged": result.converged,
        "iters_run": result.iters_run,
    }
    _atomic_write_text(
        os.path.join(run_dir, "summary.json"), json.dumps(summary, indent=2) + "\n"
    )
    print(
        f"{method}: z_star={result.z_star:g} g_star={result.g_star:g} "
        f"iters={result.iters_run} converged={result.converged}"
    )
    return 0


def _describe(arch: Architecture) -> str:
    hidden = f", hidden_units={arch.hidden_units}" if arch.kind == "mlp1" else ""
    return f"{arch.kind} (feature_dim={arch.feature_dim}{hidden})"


def cmd_evaluate(config: ExperimentConfig, checkpoint_path: str, out_path: str) -> int:
    params = load_checkpoint(checkpoint_path)
    if params.architecture != config.arch:
        raise ConfigError(
            f"checkpoint {checkpoint_path} holds a {_describe(params.architecture)} model, "
            f"but the config describes a {_describe(config.arch)} model"
        )
    problem, (_train, val, _test), _cfg, mc_seed = _seed_setup(config, config.seed)
    profile = model_profile(params, val.X, config.grid, problem)
    action = argmin_profile(profile)
    cost, regret = evaluate_decision(config.model_spec, action, config.grid, config.n_mc, mc_seed)
    report = {"chosen_action": action, "expected_cost": cost, "regret": regret}
    _atomic_write_text(out_path, json.dumps(report, indent=2) + "\n")
    print(f"action={action:g} expected_cost={cost:g} regret={regret:g}")
    return 0


def cmd_compare(config: ExperimentConfig, out_path: str, jobs: int) -> int:
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", out_path)
    with _output_dir(os.path.dirname(os.path.abspath(out_path))):
        reports = compare_methods(config, jobs)
    _atomic_via_tmp(out_path, lambda tmp: write_results_csv(reports, tmp))
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
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a dataset CSV plus a provenance sidecar")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")

    train = sub.add_parser("train", help="fit one method and write checkpoint/log/summary")
    train.add_argument("--config", required=True)
    train.add_argument("--method", required=True, choices=["simpo", "two-stage"])
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("evaluate", help="score a saved checkpoint's decision against the oracle")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--seed", type=int, default=None)

    cmp_ = sub.add_parser("compare", help="run the multi-seed method comparison")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--jobs", type=int, default=1)
    cmp_.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.command == "generate":
            return cmd_generate(config, args.out)
        if args.command == "train":
            method = "simpo" if args.method == "simpo" else "two_stage"
            return cmd_train(config, method, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.checkpoint, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out, args.jobs)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ValidationError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
