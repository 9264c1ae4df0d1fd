import contextlib
import copy
import hashlib
import io
import json
import os
import re
import stat
import tempfile
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predopt.cli import _SCHEMA, load_config, main
from predopt.core import ValidationError
from predopt.evaluation import ExperimentConfig, write_results_csv
from predopt.predictor import Architecture, PredictorParams, save_checkpoint
from test_golden import GOLDEN, INTEGER_LITERALS

ROOT = Path(__file__).parents[1]

SMALL_CONFIG = {
    "seed": 3,
    "problem": {
        "kind": "newsvendor",
        "base_weights": [2.0, -1.0],
        "intercept": 12.0,
        "action_effect": 0.0,
        "nonlinearity": 0.0,
        "noise_sd": 1.0,
        "feature_sd": 1.0,
        "cost_params": {"c_h": 1.0, "c_s": 3.0},
        "logging": {"policy": "uniform"},
        "grid": {"z_min": 0.0, "z_max": 20.0, "n_points": 41},
        "n_samples": 100,
        "train_frac": 0.6,
        "val_frac": 0.2,
    },
    "model": {"kind": "linear"},
    "train": {
        "learning_rate": 0.004,
        "batch_size": 0,
        "max_iters": 60,
        "tol": 1e-9,
        "patience": 20,
        "weights": {"alpha": 1.0, "beta": 20.0, "tau": 1.0, "task_term_enabled": True},
    },
    "eval": {"n_mc": 2000, "n_seeds": 2},
    "io": {},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG, indent=2))
    return path


def _write(tmp_path, blob, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob, indent=2))
    return path


def _parent(blob, key):
    """The object that holds dotted `key` in `blob`, and the key's last name."""
    *parents, leaf = key.split(".")
    for name in parents:
        blob = blob[name]
    return blob, leaf


def _schema_keys(schema=_SCHEMA, prefix=""):
    """(dotted key, required, expected type) of every key the loader accepts,
    sections included."""
    for key, (required, expected) in schema.items():
        yield prefix + key, required, expected
        if isinstance(expected, dict):
            yield from _schema_keys(expected, prefix + key + ".")


# --- config parsing ------------------------------------------------------------


def test_load_config_round_trip(config_path, tmp_path):
    cfg = load_config(config_path)
    assert cfg.model_spec.kind == "newsvendor"
    assert cfg.grid.n_points == 41
    assert cfg.train.weight_config.alpha == 1.0
    assert cfg.n_seeds == 2

    # integer literals for float keys, and every optional key left out
    blob = copy.deepcopy(SMALL_CONFIG)
    problem = blob["problem"]
    problem.update(base_weights=[2, -1], intercept=12, noise_sd=1, feature_sd=1, action_effect=0)
    problem["grid"].update(z_min=0, z_max=20)
    blob["train"]["learning_rate"] = 1
    blob["train"]["weights"] = {"alpha": 1, "beta": 20, "tau": 1}
    for key in ("batch_size", "tol", "patience"):
        del blob["train"][key]
    del blob["io"]
    cfg = load_config(_write(tmp_path, blob))
    assert cfg.train.batch_size == 0 and cfg.train.tol == 1e-6 and cfg.train.patience == 10
    assert cfg.train.weight_config.task_term_enabled is True
    assert cfg.arch.hidden_units == 0
    assert cfg.seed == cfg.train.seed == 3
    m, w = cfg.model_spec, cfg.train.weight_config
    floats = [m.intercept, m.action_effect, m.nonlinearity, m.noise_sd, m.feature_sd, *m.base_weights]
    floats += [cfg.grid.z_min, cfg.grid.z_max, cfg.train_frac, cfg.val_frac]
    floats += [cfg.train.learning_rate, cfg.train.tol, w.alpha, w.beta, w.tau]
    assert all(type(v) is float for v in floats)
    assert (m.intercept, w.beta, cfg.train.learning_rate) == (12.0, 20.0, 1.0)


def test_every_shipped_config_loads():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert paths
    for path in paths:
        blob = json.loads(path.read_text())
        cfg = load_config(path)
        assert cfg.seed == cfg.train.seed == blob["seed"], path.name
        assert cfg.model_spec.kind == blob["problem"]["kind"], path.name
        assert cfg.n_seeds == blob["eval"]["n_seeds"], path.name


def _loaded_fields(value, name):
    """(dotted field name, type name, repr) of every leaf field of a loaded config."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _loaded_fields(getattr(value, f.name), f"{name}.{f.name}")
    else:
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        yield name, type(value).__name__, repr(shown)


# The load result of every shipped config, benchmark workload and test config,
# compared field by field, value by value and type by type. Fields are sorted
# by name, so reordering a dataclass's fields leaves the hash alone.
LOADED = {
    "configs/compare_default.json":
        "ee7c35a1126e5b3272a7249f4769eb78b7e266d70bef9133fa4eaee7c298cf2f",
    "configs/newsvendor_wellspec.json":
        "d6ea8c0513ad4e7d795088bcb5d7888cf7339e26e76916075416f1a4a68a6df3",
    "configs/pricing_demo.json":
        "b76f68c1a9e74014477ad0c86b462f7f6455ddee43d9bedcf7fe89f5be1826b9",
    "perfbench/workloads/newsvendor_linear.json":
        "d7a7b8dbd77b74bfea515052a2c984d6876f46570c6da2ac188afe2b054ee4c8",
    "perfbench/workloads/newsvendor_mlp1.json":
        "e927d21ba851dddfa156b6f672907adef70ca9e0c8cf61cbe627f41fd7e50712",
    "perfbench/workloads/pricing_oracle.json":
        "b5c349b202d2f9e7269d820cd7fb13ef3def4b1884db8f11f1dd4c0d6f428442",
    "SMALL_CONFIG":
        "7b6821db10bca566836ec09a7fa569ec704e09822b496b25b53361d66e1cb155",
    "golden-newsvendor_linear":
        "dfd488b73a5b7a0020effff20ae5b2938a7486f4277190ef3d8a9c51f64d91ef",
    "golden-newsvendor_mlp1":
        "f9d5420ead4b322a3c07fbf7c48e5bc75817f71ee8ca8e2afc947a268ad075ee",
    "golden-pricing":
        "c564ffb57826985d8c535f92d2fc69bbb9a3d8f973187c422b471f5beb1193d8",
    "golden-integer_literals":
        "cbbf6dfdbfbbbbf267974232a9c5e3b92cb16cb11bddd716dc80044a7db17203",
}
_TEST_CONFIGS = {
    "SMALL_CONFIG": SMALL_CONFIG,
    "golden-integer_literals": INTEGER_LITERALS,
    **{f"golden-{p.id}": p.values[0] for p in GOLDEN},
}


@pytest.mark.parametrize("name, sha256", LOADED.items(), ids=list(LOADED))
def test_load_result_is_pinned(tmp_path, name, sha256):
    path = ROOT / name if name.endswith(".json") else _write(tmp_path, _TEST_CONFIGS[name])
    rows = sorted(_loaded_fields(load_config(path), "config"))
    text = "\n".join(" ".join(row) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256, text


@pytest.mark.parametrize("name", ["compare_default", "newsvendor_wellspec", "pricing_demo"])
def test_a_config_loaded_twice_is_equal(name):
    # the grid compares by its fields, not by its points array
    path = ROOT / "configs" / f"{name}.json"
    assert load_config(path) == load_config(path)


@pytest.mark.parametrize("name", ["compare_default", "newsvendor_wellspec", "pricing_demo"])
def test_a_config_loaded_twice_hashes_equal(name):
    # the world's cost_params and logging dicts compare, but stay out of the hash
    path = ROOT / "configs" / f"{name}.json"
    first, second = load_config(path), load_config(path)
    assert hash(first) == hash(second)
    assert hash(first.model_spec) == hash(second.model_spec)
    assert {first: name}[second] == name


def test_unknown_key_rejected_with_name_and_line(tmp_path, capsys):
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["train"]["weights"]["alpah"] = 2.0
    del blob["train"]["weights"]["alpha"]
    path = _write(tmp_path, blob)
    rc = main(["compare", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpah" in err


@pytest.mark.parametrize("key", ["seed", "train.learning_rate", "train.weights"])
def test_repeated_key_rejected_with_name(tmp_path, capsys, key):
    # json.loads keeps the last of two equal keys, so a key given twice would
    # load one of its values without a word; a leaf and a section alike
    parent, leaf = _parent(SMALL_CONFIG, key)
    text = json.dumps(SMALL_CONFIG)
    again = f'"{leaf}": {json.dumps(parent[leaf])}, "{leaf}": '
    path = tmp_path / "cfg.json"
    path.write_text(text.replace(f'"{leaf}": ', again, 1))
    rc = main(["compare", "--config", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert f"config key '{leaf}' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_unknown_top_level_key_rejected(tmp_path):
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["problems"] = {}
    with pytest.raises(ValidationError, match="problems"):
        load_config(_write(tmp_path, blob))


# Every required key: a key is required exactly when its dataclass field has no default.
REQUIRED = [
    "seed",
    "problem",
    "problem.kind",
    "problem.base_weights",
    "problem.intercept",
    "problem.action_effect",
    "problem.nonlinearity",
    "problem.noise_sd",
    "problem.feature_sd",
    "problem.cost_params",
    "problem.logging",
    "problem.logging.policy",
    "problem.grid",
    "problem.grid.z_min",
    "problem.grid.z_max",
    "problem.grid.n_points",
    "problem.n_samples",
    "problem.train_frac",
    "problem.val_frac",
    "model",
    "model.kind",
    "train",
    "train.learning_rate",
    "train.max_iters",
    "train.weights",
    "train.weights.alpha",
    "train.weights.beta",
    "train.weights.tau",
    "eval",
    "eval.n_mc",
    "eval.n_seeds",
]
# (optional key, where its value lands in ExperimentConfig, the default, as the README writes it)
OPTIONAL = [
    ("model.hidden_units", "arch.hidden_units", 0, "0"),
    ("train.batch_size", "train.batch_size", 0, "0"),
    ("train.tol", "train.tol", 1e-6, "1e-6"),
    ("train.patience", "train.patience", 10, "10"),
    ("train.weights.task_term_enabled", "train.weight_config.task_term_enabled", True, "true"),
]
# Optional keys without a default: `io` is always empty, and which of the others
# a world needs depends on its kind or logging policy
NO_DEFAULT = [
    "io",
    "problem.cost_params.c_h",
    "problem.cost_params.c_s",
    "problem.cost_params.capacity",
    "problem.logging.center",
    "problem.logging.width",
]


@pytest.mark.parametrize("key", REQUIRED)
def test_missing_required_key_rejected(tmp_path, key):
    blob = copy.deepcopy(SMALL_CONFIG)
    section, leaf = _parent(blob, key)
    del section[leaf]
    with pytest.raises(ValidationError) as err:
        load_config(_write(tmp_path, blob))
    assert str(err.value) == f"missing config key '{key}'"


@pytest.mark.parametrize("key, field, default, text", OPTIONAL, ids=[o[0] for o in OPTIONAL])
def test_missing_optional_key_loads_its_default(tmp_path, key, field, default, text):
    blob = copy.deepcopy(SMALL_CONFIG)
    section, leaf = _parent(blob, key)
    section.pop(leaf, None)
    value = load_config(_write(tmp_path, blob))
    for name in field.split("."):
        value = getattr(value, name)
    assert value == default and type(value) is type(default)
    readme = (ROOT / "README.md").read_text()
    assert re.search(rf"`{leaf}`[^`]*optional[^`]*default `{re.escape(text)}`", readme), key


def test_every_key_is_pinned_required_or_optional():
    keys = {key: required for key, required, _expected in _schema_keys()}
    assert {key for key, required in keys.items() if required} == set(REQUIRED)
    assert set(keys) == set(REQUIRED) | {o[0] for o in OPTIONAL} | set(NO_DEFAULT)


def test_readme_config_reference_names_every_key():
    readme = (ROOT / "README.md").read_text()
    reference = readme.split("### Config reference")[1].split("\n### ")[0]
    names = {key.rsplit(".", 1)[-1] for key, _required, _expected in _schema_keys()}
    assert sorted(name for name in names if f"`{name}`" not in reference) == []


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"seed": }')
    rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    # Python refuses to convert an integer literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"seed": ' + "9" * 5000 + "}")
    rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, expect",
    [
        pytest.param(b'{"seed": "\xff"}', "cannot read config", id="not-utf8"),
        # deeper than the interpreter's recursion limit
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "is not valid JSON", id="too-deep"),
    ],
)
def test_unparsable_config_exits_2(tmp_path, capsys, content, expect):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    out = tmp_path / "new" / "run"
    assert main(["train", "--config", str(path), "--method", "simpo", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and expect in err
    assert not (tmp_path / "new").exists()
    assert list(tmp_path.rglob(".tmp-*")) == []


def test_unknown_key_line_follows_the_dotted_path(tmp_path):
    # a seed inside train: the line reported is its own, not the top-level seed's
    lines = (ROOT / "configs" / "compare_default.json").read_text().split("\n")
    train = next(i for i, line in enumerate(lines) if line.startswith('  "train"'))
    lines.insert(train + 1, '    "seed": 3,')
    path = tmp_path / "cfg.json"
    path.write_text("\n".join(lines))
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == f"unknown config key 'train.seed' (line {train + 2})"


NAN = float("nan")

# (dotted config key, bad value, the whole error message): unknown, degenerate,
# of the wrong type, non-numeric, non-finite or too large; JSON as read by
# Python may carry NaN and Infinity
FINITE = "config key '{}' must be finite"
TOO_LARGE = "config key '{}' must be <= 2147483647"
BAD_VALUES = [
    pytest.param(
        "problem.grid.n_points", 1, "grid needs an integer n_points >= 2, got 1",
        id="problem.grid.n_points",
    ),
    pytest.param("train.weights.alpha", NAN, FINITE, id="train.weights.alpha"),
    pytest.param("train.weights.beta", NAN, FINITE, id="train.weights.beta"),
    pytest.param("problem.base_weights", [2.0, NAN], FINITE, id="problem.base_weights"),
    pytest.param(
        "problem.base_weights", ["a"], "config key '{}' must be numeric",
        id="problem.base_weights-text",
    ),
    pytest.param("problem.intercept", NAN, FINITE, id="problem.intercept"),
    pytest.param("problem.action_effect", NAN, FINITE, id="problem.action_effect"),
    pytest.param("problem.nonlinearity", NAN, FINITE, id="problem.nonlinearity"),
    pytest.param("problem.cost_params.c_h", NAN, FINITE, id="problem.cost_params.c_h"),
    pytest.param("problem.cost_params.c_s", float("inf"), FINITE, id="problem.cost_params.c_s"),
    pytest.param("train.weights.tau", 10**400, FINITE, id="train.weights.tau-huge-int"),
    pytest.param(
        "problem.base_weights", [2.0, 10**400], FINITE, id="problem.base_weights-huge-int"
    ),
    pytest.param("eval.n_mc", 0, "n_mc must be >= 1, got 0", id="eval.n_mc"),
    pytest.param("seed", -1, "seed must be >= 0, got -1", id="seed"),
    pytest.param("problem.n_samples", 0, "n_samples must be >= 1, got 0", id="problem.n_samples"),
    pytest.param(
        "problem.grid.n_points", 10**400, TOO_LARGE, id="problem.grid.n_points-huge-int"
    ),
    pytest.param("problem.n_samples", 10**400, TOO_LARGE, id="problem.n_samples-huge-int"),
    pytest.param("eval.n_mc", 10**400, TOO_LARGE, id="eval.n_mc-huge-int"),
    pytest.param("train.max_iters", 2**31, TOO_LARGE, id="train.max_iters-2**31"),
    pytest.param(
        "problem.train_frac", -1, "train_frac must be > 0, got -1.0",
        id="problem.train_frac-negative",
    ),
    pytest.param(
        "problem.val_frac", 0, "val_frac must be > 0, got 0.0", id="problem.val_frac-zero"
    ),
    pytest.param(
        "problem.val_frac", 0.5, "train_frac + val_frac must be < 1, got 1.1",
        id="problem.val_frac-sum-1",
    ),
    pytest.param(
        "problem.cost_params.capacity", 5.0, "newsvendor does not use cost_params key 'capacity'",
        id="problem.cost_params.capacity-newsvendor",
    ),
    pytest.param(
        "model.hidden_units", -7, "linear does not use hidden_units, got -7",
        id="model.hidden_units-linear",
    ),
    pytest.param(
        "problem.logging.center", 5.0, "uniform logging does not use key 'center'",
        id="problem.logging.center-uniform",
    ),
    pytest.param(
        "train.weights.alpah", 2.0, "unknown config key '{}' (line 44)",
        id="train.weights.alpah-unknown",
    ),
    pytest.param(
        "train.weights", 1, "config key '{}' must be an object", id="train.weights-not-an-object"
    ),
    pytest.param("model.kind", 1, "config key '{}' has the wrong type", id="model.kind-wrong-type"),
    pytest.param(
        "problem.grid.n_points", 2.5, "config key '{}' has the wrong type",
        id="problem.grid.n_points-float",
    ),
    pytest.param(
        "train.max_iters", True, "config key '{}' must be an integer", id="train.max_iters-bool"
    ),
]


@pytest.mark.parametrize("key, value, message", BAD_VALUES)
def test_bad_value_is_config_error(tmp_path, capsys, key, value, message):
    blob = copy.deepcopy(SMALL_CONFIG)
    section, leaf = _parent(blob, key)
    section[leaf] = value
    path = _write(tmp_path, blob)
    message = message.format(key)
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == message
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "compare"])
def test_negative_seed_flag_exits_2(config_path, tmp_path, capsys, command):
    extra = {"train": ["--method", "simpo"], "evaluate": ["--checkpoint", str(tmp_path / "c.json")]}
    out = tmp_path / "new" / "out"
    argv = [command, "--config", str(config_path), "--out", str(out), "--seed", "-1"]
    assert main(argv + extra.get(command, [])) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "compare"])
def test_empty_split_exits_2_at_load(tmp_path, capsys, command):
    # 4 samples split 0.6 / 0.2 give sizes (2, 0, 2): every command rejects
    # the config when it loads, generate included, and names the split keys
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["problem"]["n_samples"] = 4
    path = _write(tmp_path, blob)
    extra = {"train": ["--method", "simpo"], "evaluate": ["--checkpoint", str(tmp_path / "c.json")]}
    out = tmp_path / "new" / "out"
    assert main([command, "--config", str(path), "--out", str(out)] + extra.get(command, [])) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("n_samples", "train_frac", "val_frac")), err
    assert "(2, 0, 2)" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "command", ["generate", "train simpo", "train two-stage", "evaluate", "compare"]
)
def test_labels_that_overflow_exit_2(tmp_path, capsys, command):
    # finite config values whose outcomes overflow to inf: every command
    # refuses the generated data by name, and leaves nothing behind
    command, *method = command.split()
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["problem"].update(base_weights=[1e308, 1e308], feature_sd=10)
    path = _write(tmp_path, blob)
    ckpt = tmp_path / "c.json"
    save_checkpoint(PredictorParams(Architecture("linear", 2), np.zeros(4)), ckpt)
    extra = {"train": ["--method", *method], "evaluate": ["--checkpoint", str(ckpt)]}
    out = tmp_path / "new" / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([command, "--config", str(path), "--out", str(out)] + extra.get(command, []))
    assert code == 2
    assert capsys.readouterr().err == "error: dataset column y must be finite\n"
    assert not (tmp_path / "new").exists()


NO_MASS = "biased logging puts no mass on the grid; widen it or move the center"


def _off_grid_logging(tmp_path):
    """The shipped default config with biased logging centred far off its grid."""
    blob = json.loads((ROOT / "configs" / "compare_default.json").read_text())
    blob["problem"]["logging"] = {"policy": "biased", "center": 100.0, "width": 1.0}
    return _write(tmp_path, blob)


def test_biased_logging_off_the_grid_is_config_error_at_load(tmp_path):
    with pytest.raises(ValidationError) as err:
        load_config(_off_grid_logging(tmp_path))
    assert str(err.value) == NO_MASS


def test_generate_with_biased_logging_off_the_grid_exits_2_and_writes_nothing(tmp_path, capsys):
    path = _off_grid_logging(tmp_path)
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "data.csv")]) == 2
    assert capsys.readouterr().err == f"error: {NO_MASS}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


# Every key the loader accepts that holds no keys of its own takes each of
# these values in turn, in SMALL_CONFIG.
FUZZ_VALUES = [None, "x", True, [], {}, -1, 0, 1, 2.5, NAN, 1e308, 10**400]
LEAF_KEYS = [
    key for key, _, expected in _schema_keys() if not isinstance(expected, dict) or not expected
]


@pytest.mark.parametrize("key", LEAF_KEYS)
def test_any_leaf_value_exits_0_2_or_3(tmp_path, key):
    # the documented exit codes hold for every value: nothing escapes main, a
    # failed run leaves no temporary file or directory behind, and a value
    # rejected at load time is rejected by name
    for i, value in enumerate(FUZZ_VALUES):
        blob = copy.deepcopy(SMALL_CONFIG)
        blob["train"]["max_iters"] = 5
        section, leaf = _parent(blob, key)
        section[leaf] = value
        case = tmp_path / str(i)
        case.mkdir()
        path = _write(case, blob)
        argv = ["train", "--config", str(path), "--method", "simpo", "--out", str(case / "new" / "run")]
        with np.errstate(all="ignore"):
            rc = main(argv)
        assert rc in (0, 2, 3), (value, rc)
        if rc != 0:
            assert os.listdir(case) == [path.name], value
        try:
            load_config(path)
        except ValidationError as err:
            assert leaf in str(err), (value, str(err))


def test_missing_method_flag_exits_2(config_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


# --- generate -------------------------------------------------------------------


def test_generate_writes_csv_and_sidecar(config_path, tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 101  # header + n_samples
    assert lines[0] == "x0,x1,z_obs,y"
    meta = json.loads((tmp_path / "data.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["model"]["kind"] == "newsvendor"


def test_generate_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--config", str(config_path), "--out", str(out1)])
    main(["generate", "--config", str(config_path), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.meta.json").read_text().replace("a.csv", "b.csv") == (
        tmp_path / "b.meta.json"
    ).read_text().replace("b.csv", "b.csv")


def test_seed_override_changes_data(config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["generate", "--config", str(config_path), "--out", str(out1)])
    main(["generate", "--config", str(config_path), "--out", str(out2), "--seed", "99"])
    assert out1.read_bytes() != out2.read_bytes()


def test_no_temp_files_left_behind(config_path, tmp_path):
    main(["generate", "--config", str(config_path), "--out", str(tmp_path / "d.csv")])
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_output_files_follow_the_umask(config_path, tmp_path, umask):
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert main(["generate", "--config", str(config_path), "--out", str(out / "d.csv")]) == 0
        argv = ["train", "--config", str(config_path), "--method", "simpo"]
        assert main(argv + ["--out", str(out / "run")]) == 0
        write_results_csv([], out / "library.csv")  # a writer called from Python, not the CLI
    finally:
        os.umask(previous)
    modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*.*")}
    names = ["d.csv", "d.meta.json", "library.csv"]
    names += [f"run/{name}" for name in ("checkpoint.json", "training_log.csv", "summary.json")]
    assert modes == dict.fromkeys(names, 0o666 & ~umask)


# --- train ----------------------------------------------------------------------


def test_train_two_stage_zero_noise_matches_grid_oracle(tmp_path):
    # no noise and no action effect: the fitted linear model reproduces the
    # outcome map, so the summary decision must match the oracle grid scan
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["problem"]["noise_sd"] = 1e-9
    blob["problem"]["n_samples"] = 400
    blob["train"]["max_iters"] = 4000
    blob["train"]["learning_rate"] = 0.004
    path = _write(tmp_path, blob)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--method", "two-stage", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())

    from predopt.cli import load_config
    from predopt.problems import oracle_action

    cfg = load_config(path)
    z_or, _ = oracle_action(cfg.model_spec, cfg.grid, n_mc=100000, seed=7)
    assert abs(summary["z_star"] - z_or) <= 2 * cfg.grid.step + 1e-12
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "iter,F,pred_term,task_term,omega,gamma,z_star_test"
    assert len(log_lines) == summary["iters_run"] + 1
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert len(ckpt["weights"]) == 4  # d + 2


def test_train_simpo_reduction_matches_two_stage(config_path, tmp_path):
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["train"]["weights"] = {
        "alpha": 0.0,
        "beta": 20.0,
        "tau": 1.0,
        "task_term_enabled": False,
    }
    path = _write(tmp_path, blob)
    out_a, out_b = tmp_path / "simpo", tmp_path / "two_stage"
    assert main(["train", "--config", str(path), "--method", "simpo", "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(path), "--method", "two-stage", "--out", str(out_b)]) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    assert sa["z_star"] == sb["z_star"]
    assert sa["g_star"] == sb["g_star"]
    assert sa["iters_run"] == sb["iters_run"]
    ca = json.loads((out_a / "checkpoint.json").read_text())
    cb = json.loads((out_b / "checkpoint.json").read_text())
    assert ca["weights"] == cb["weights"]


@pytest.mark.parametrize("method", ["simpo", "two-stage"])
def test_train_mlp1_leaves_no_thread(tmp_path, method):
    # the fit's thread pool ends with the fit, before train writes its files
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["model"] = {"kind": "mlp1", "hidden_units": 8}
    blob["train"]["max_iters"] = 5
    path = _write(tmp_path, blob)
    before = threading.active_count()
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--method", method, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["iters_run"] == 5
    assert threading.active_count() == before


def test_train_abort_exits_3(tmp_path, capsys):
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["train"]["learning_rate"] = 1e9
    blob["train"]["max_iters"] = 200
    blob["train"]["patience"] = 200
    path = _write(tmp_path, blob)
    with np.errstate(over="ignore"):
        rc = main(["train", "--config", str(path), "--method", "two-stage", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


def test_train_abort_removes_the_directories_it_created(tmp_path):
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["train"]["learning_rate"] = 1e307
    path = _write(tmp_path, blob)
    (tmp_path / "keep").mkdir()
    out = tmp_path / "keep" / "new" / "run"
    with np.errstate(over="ignore"):
        assert main(["train", "--config", str(path), "--method", "simpo", "--out", str(out)]) == 3
    assert (tmp_path / "keep").is_dir() and list((tmp_path / "keep").iterdir()) == []


def _diverging_config(tmp_path):
    # the first step overflows the weights to inf
    blob = copy.deepcopy(SMALL_CONFIG)
    blob["train"]["learning_rate"] = 1e307
    blob["train"]["max_iters"] = 5
    return _write(tmp_path, blob)


def test_train_diverging_step_exits_3(tmp_path, capsys):
    path = _diverging_config(tmp_path)
    with np.errstate(over="ignore"):
        argv = ["train", "--config", str(path), "--method", "two-stage", "--out", str(tmp_path / "o")]
        rc = main(argv)
    assert rc == 3
    assert "non-finite weights after the step at iteration 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_with_rising_F_is_not_converged(tmp_path, capsys):
    # F grows about 8x per iteration: the tolerance stop ends the fit after
    # `patience` iterations without improvement, but not as converged
    blob = copy.deepcopy(INTEGER_LITERALS)
    blob["train"]["learning_rate"] = 0.02
    blob["train"]["max_iters"] = 400
    path = _write(tmp_path, blob)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--method", "simpo", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("iters=21 converged=False\n")
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["iters_run"], summary["converged"]) == (21, False)
    log = (out / "training_log.csv").read_text().splitlines()[1:]
    F = [float(line.split(",")[1]) for line in log]
    assert all(b > a for a, b in zip(F, F[1:]))


@pytest.mark.parametrize("command", ["train", "compare"])
def test_out_of_memory_exits_2_and_leaves_nothing(
    config_path, tmp_path, capsys, monkeypatch, command
):
    # a config whose arrays cannot be allocated; never allocate them for real
    import predopt.training

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 80.0 GiB")

    monkeypatch.setattr(predopt.training, "init_params", no_memory)
    out = tmp_path / "new" / "out"
    extra = ["--method", "simpo"] if command == "train" else []
    assert main([command, "--config", str(config_path), "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "new").exists()


def test_compare_diverging_step_records_failed_fits(tmp_path):
    path = _diverging_config(tmp_path)
    out = tmp_path / "r.csv"
    with np.errstate(over="ignore"):
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * SMALL_CONFIG["eval"]["n_seeds"]
    for row in rows:
        if row[0] == "oracle":
            assert float(row[5]) == 0.0
        else:
            # a failed fit: no decision, and the iteration it stopped at
            assert row[3:7] == ["nan"] * 4 and row[7] == "1"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_compare_rejects_jobs_below_1(config_path, tmp_path, capsys, jobs):
    out = tmp_path / "results" / "r.csv"
    argv = ["compare", "--config", str(config_path), "--out", str(out), "--jobs", jobs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "jobs" in err
    assert not (tmp_path / "results").exists()


# --- evaluate -------------------------------------------------------------------


def test_evaluate_checkpoint(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", str(config_path), "--method", "two-stage", "--out", str(out)])
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--config",
            str(config_path),
            "--checkpoint",
            str(out / "checkpoint.json"),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"chosen_action", "expected_cost", "regret"}
    assert report["regret"] >= 0.0


# --- compare --------------------------------------------------------------------


def test_train_then_evaluate_matches_compare_rows(config_path, tmp_path):
    # train, evaluate and compare share one per-seed recipe, so a seed's
    # decision and its score agree bit for bit across the three commands
    results = tmp_path / "r.csv"
    assert main(["compare", "--config", str(config_path), "--out", str(results)]) == 0
    rows = [ln.split(",") for ln in results.read_text().splitlines()[1:]]
    checked = 0
    for method, flag in (("simpo", "simpo"), ("two_stage", "two-stage")):
        for row in (r for r in rows if r[0] == method):
            run, seed = tmp_path / f"{method}-{row[1]}", ["--seed", row[1]]
            argv = ["train", "--config", str(config_path), "--method", flag, "--out", str(run)]
            assert main(argv + seed) == 0
            assert main(_evaluate_argv(config_path, tmp_path, run / "checkpoint.json") + seed) == 0
            got = json.loads((tmp_path / "report.json").read_text())
            want = [float(v).hex() for v in row[3:6]]
            assert [got[k].hex() for k in ("chosen_action", "expected_cost", "regret")] == want
            checked += 1
    assert checked == 2 * SMALL_CONFIG["eval"]["n_seeds"]


def test_compare_rows_and_determinism(config_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["compare", "--config", str(config_path), "--out", str(out1)]) == 0
    table = capsys.readouterr().out
    assert "oracle" in table and "simpo" in table and "two_stage" in table
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 3 * SMALL_CONFIG["eval"]["n_seeds"]
    assert main(["compare", "--config", str(config_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    oracle_rows = [ln for ln in lines[1:] if ln.startswith("oracle")]
    for row in oracle_rows:
        assert float(row.split(",")[5]) == 0.0


# --- checkpoint and file-system errors -------------------------------------------------


def _evaluate_argv(config_path, tmp_path, checkpoint):
    report = tmp_path / "report.json"
    return [
        "evaluate", "--config", str(config_path), "--checkpoint", str(checkpoint), "--out", str(report)
    ]


def _failing_run(kind, config_path, tmp_path):
    """Arguments of one command that must fail, and the text stderr must hold."""
    ckpt = tmp_path / "ckpt.json"
    if kind == "no-architecture":
        ckpt.write_text(json.dumps({"weights": [0.0] * 4}))
        return _evaluate_argv(config_path, tmp_path, ckpt), "'architecture'"
    if kind == "feature-dim-mismatch":
        arch = {"kind": "linear", "feature_dim": 3}
        ckpt.write_text(json.dumps({"architecture": arch, "weights": [0.0] * 5}))
        return _evaluate_argv(config_path, tmp_path, ckpt), "feature_dim=3"
    if kind == "linear-with-hidden-units":
        arch = {"kind": "linear", "feature_dim": 2, "hidden_units": 3}
        ckpt.write_text(json.dumps({"architecture": arch, "weights": [0.0] * 4}))
        return _evaluate_argv(config_path, tmp_path, ckpt), "linear does not use hidden_units"
    if kind == "activation-not-tanh":
        arch = {"kind": "mlp1", "feature_dim": 2, "hidden_units": 1, "activation": "relu"}
        ckpt.write_text(json.dumps({"architecture": arch, "weights": [0.0] * 6}))
        expect = "unknown checkpoint key 'architecture.activation' (line 1)"
        return _evaluate_argv(config_path, tmp_path, ckpt), expect
    if kind == "missing-checkpoint":
        return _evaluate_argv(config_path, tmp_path, ckpt), str(ckpt)
    linear = '{"architecture": {"kind": "linear", "feature_dim": 2}, "weights": '
    if kind == "checkpoint-not-utf8":
        ckpt.write_bytes(linear.encode() + b'[0, 0, 0, "\xff"]}')
        return _evaluate_argv(config_path, tmp_path, ckpt), str(ckpt)
    if kind == "checkpoint-too-deep":
        # deeper than the interpreter's recursion limit
        ckpt.write_text(linear + "[" * 100_000 + "]" * 100_000 + "}")
        return _evaluate_argv(config_path, tmp_path, ckpt), str(ckpt)
    if kind == "checkpoint-weights-repeated":
        ckpt.write_text(linear + '[0, 0, 0, 0], "weights": [1, 1, 1, 1]}')
        return _evaluate_argv(config_path, tmp_path, ckpt), "checkpoint key 'weights' is given twice"
    if kind == "checkpoint-weight-too-large":
        # an integer literal too large for a float
        ckpt.write_text(linear + "[0, 0, 0, 1" + "0" * 400 + "]}")
        expect = "checkpoint key 'weights' must be finite"
        return _evaluate_argv(config_path, tmp_path, ckpt), expect
    if kind == "compare-out-is-a-directory":
        return ["compare", "--config", str(config_path), "--out", str(tmp_path)], str(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    if kind == "out-is-a-file":
        argv = ["train", "--config", str(config_path), "--method", "two-stage", "--out", str(taken)]
        return argv, str(taken)
    if kind == "train-out-is-empty":
        argv = ["train", "--config", str(config_path), "--method", "two-stage", "--out", ""]
        return argv, "must name a directory: ''"
    # a file's path that names no file, or whose parent is a file, for each
    # command that writes one
    command, _, case = kind.partition("-")
    sep = str(tmp_path / "results") + os.sep
    out, expect = {
        "out-is-empty": ("", "not a directory: ''"),
        "out-ends-in-a-separator": (sep, f"not a directory: {sep!r}"),
        "parent-is-a-file": (str(taken / "results.csv"), str(taken)),
    }[case]
    if command == "evaluate":
        save_checkpoint(CHECKPOINT, ckpt)
        return _evaluate_argv(config_path, tmp_path, ckpt)[:-1] + [out], expect
    return [command, "--config", str(config_path), "--out", out], expect


@pytest.mark.parametrize(
    "kind",
    [
        "no-architecture",
        "feature-dim-mismatch",
        "linear-with-hidden-units",
        "activation-not-tanh",
        "missing-checkpoint",
        "checkpoint-not-utf8",
        "checkpoint-too-deep",
        "checkpoint-weight-too-large",
        "checkpoint-weights-repeated",
        "out-is-a-file",
        "train-out-is-empty",
        "compare-parent-is-a-file",
        "compare-out-is-a-directory",
        "compare-out-is-empty",
        "compare-out-ends-in-a-separator",
        "generate-parent-is-a-file",
        "generate-out-is-empty",
        "generate-out-ends-in-a-separator",
        "evaluate-parent-is-a-file",
        "evaluate-out-is-empty",
        "evaluate-out-ends-in-a-separator",
    ],
)
def test_checkpoint_and_output_errors_exit_2(config_path, tmp_path, capsys, monkeypatch, kind):
    import predopt.cli

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    # an unusable output path must fail before any fit, draw or evaluation runs
    for name in ("_fit_once", "compare_methods", "gen_dataset", "model_profile", "evaluate_decision"):
        monkeypatch.setattr(predopt.cli, name, no_compute)
    argv, expect = _failing_run(kind, config_path, tmp_path)
    # run from a subdirectory, so the .tmp-* check below covers the parent of the working directory
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expect in err
    assert not (tmp_path / "report.json").exists()
    assert list(tmp_path.rglob(".tmp-*")) == []


# --- mutated files ----------------------------------------------------------------

# Up to three byte edits of a valid file: replace, insert or delete one byte.
# Three edits lengthen an integer by at most three digits, so SMALL_CONFIG's
# grid, the one array allocated at load, stays under 10**5 points.
# The bytes are JSON's own, and one that is never valid UTF-8.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 10**6),
        st.sampled_from(b'0123456789-+.eE"{}[],: \nantrufl\xff'),
    ),
    min_size=1,
    max_size=3,
)
FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _mutate(data: bytes, edits) -> bytes:
    for op, at, byte in edits:
        at %= len(data)
        data = data[:at] + bytes([byte]) * (op != "delete") + data[at + (op != "insert") :]
    return data


@FUZZ
@given(edits=EDITS)
def test_mutated_config_loads_or_is_config_error(edits):
    # load_config only: a mutated config never reaches a fit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(_mutate(json.dumps(SMALL_CONFIG, indent=2).encode(), edits))
        try:
            assert isinstance(load_config(path), ExperimentConfig)
        except ValidationError:
            pass


CHECKPOINT = PredictorParams(Architecture("linear", 2), [2.0, -1.0, 0.25, 12.0])


@FUZZ
@given(edits=EDITS)
def test_mutated_checkpoint_evaluates_or_exits_2(edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = _write(root, SMALL_CONFIG)
        ckpt = root / "ckpt.json"
        save_checkpoint(CHECKPOINT, ckpt)
        ckpt.write_bytes(_mutate(ckpt.read_bytes(), edits))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                rc = main(_evaluate_argv(config, root, ckpt))
        assert rc in (0, 2), err.getvalue()
        assert (rc == 2) == err.getvalue().startswith("error: ")
        assert (root / "report.json").exists() == (rc == 0)
        assert list(root.rglob(".tmp-*")) == []
