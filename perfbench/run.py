"""Benchmark of `predopt compare`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload newsvendor_linear --seed 0 --seconds 30 --trace 0

Each workload is a config file in perfbench/workloads/, in the package's own
config schema. One run calls the real entry point,
``predopt.cli.main(["compare", ...])``, in this process with BLAS pinned to
one thread, again and again with the same seed for as many whole calls as
fit in `--seconds` (at least MIN_CALLS). Every results CSV is checked; see
`check_results`.

With ``--trace 0`` the run reports the end-to-end metrics declared in
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced calls
and reports the per-layer metrics, named after the predopt modules; see
spans.py for how calls are traced. The last line of standard output is the
result as JSON; the line before it records the machine and the SHA-256 of
the results CSV.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the OpenBLAS build may start up to 64 threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH_DIR / "workloads"
WORKLOADS = ("newsvendor_linear", "newsvendor_mlp1", "pricing_oracle")
METHODS = ("simpo", "two_stage")
MIN_CALLS = 2  # so every run compares two results CSVs byte for byte
SETUP_REPEATS = 7
SETUP_SNIPPET = "import sys; from predopt.cli import load_config; load_config(sys.argv[1])"

FIT_SPANS = ("training.simpo_fit", "training.two_stage_fit")
LAYERS = ("cli", "core", "evaluation", "training", "objective", "predictor", "problems")
# (span name, defining module, attribute). Two attributes may share a span.
TRACE_TARGETS = (
    ("cli.load_config", "cli", "load_config"),
    ("evaluation.compare_methods", "evaluation", "compare_methods"),
    ("evaluation.evaluate_decision", "evaluation", "evaluate_decision"),
    ("evaluation.write_results_csv", "evaluation", "write_results_csv"),
    ("training.simpo_fit", "training", "simpo_fit"),
    ("training.two_stage_fit", "training", "two_stage_fit"),
    ("objective.model_profile", "objective", "model_profile"),
    ("objective.action_distribution", "objective", "action_distribution"),
    ("predictor.predict_on_grid", "predictor", "predict_on_grid"),
    ("predictor.task_grad", "predictor", "task_grad"),
    ("predictor.loss_and_grad", "predictor", "loss_and_grad"),
    ("problems.task_cost", "problems", "newsvendor_cost"),
    ("problems.task_cost", "problems", "pricing_cost"),
    ("problems.task_cost_grad_y", "problems", "newsvendor_cost_grad_y"),
    ("problems.task_cost_grad_y", "problems", "pricing_cost_grad_y"),
    ("problems.cost_draws", "problems", "cost_draws"),
    ("problems.world_draws", "problems", "world_draws"),
    ("problems.gen_dataset", "problems", "gen_dataset"),
    ("core.split_dataset", "core", "split_dataset"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def load_spec() -> dict:
    """Metric name -> unit, for the end_to_end and per_layer lists of BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from err
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def import_cli():
    """predopt.cli, imported from the checkout's sources."""
    if not (SRC / "predopt" / "cli.py").is_file():
        raise BenchError(f"no predopt sources under {SRC}; run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from predopt import cli

    return cli


def grid_points(cfg: dict) -> list[float]:
    g = cfg["problem"]["grid"]
    n = g["n_points"]
    return [g["z_min"] + (g["z_max"] - g["z_min"]) * k / (n - 1) for k in range(n)]


def _on_grid(action: float, points: list[float]) -> bool:
    tol = 1e-9 * max(1.0, points[-1] - points[0])
    return min(abs(p - action) for p in points) <= tol


def check_results(text: str, reference, points, seeds):
    """Check one results CSV and count the fits that fail.

    Each seed must have exactly one simpo, two_stage and oracle row; the
    oracle's regret must be exactly 0 and its cost finite and nonzero; every
    regret finite and >= 0; every chosen_action a grid point. A fit fails
    when its own row or its seed's oracle row fails. When `reference` is
    given, the CSV must equal it byte for byte, or every fit fails.

    Returns (attempted fits, failed fits, {method: [(regret, cost ratio)]})
    with the cost ratio 1 + regret / |oracle cost| for each passing fit.
    """
    attempted = len(METHODS) * len(seeds)
    if reference is not None and text != reference:
        return attempted, attempted, {}
    rows = {}
    try:
        for row in csv.DictReader(io.StringIO(text)):
            rows.setdefault((int(row["seed"]), row["method"]), []).append(row)
    except (KeyError, TypeError, ValueError):
        return attempted, attempted, {}
    if any(seed not in seeds or m not in METHODS + ("oracle",) for seed, m in rows):
        return attempted, attempted, {}

    def parse(key):
        found = rows.get(key, [])
        if len(found) != 1:
            return None
        try:
            action = float(found[0]["chosen_action"])
            regret = float(found[0]["regret"])
            cost = float(found[0]["expected_cost"])
        except (KeyError, TypeError, ValueError):
            return None
        ok = math.isfinite(regret) and regret >= 0 and math.isfinite(cost)
        return (action, regret, cost) if ok and _on_grid(action, points) else None

    failed = 0
    outcomes = {m: [] for m in METHODS}
    for seed in seeds:
        oracle = parse((seed, "oracle"))
        if oracle is None or oracle[1] != 0.0 or oracle[2] == 0.0:
            failed += len(METHODS)
            continue
        for method in METHODS:
            fit = parse((seed, method))
            if fit is None:
                failed += 1
            else:
                outcomes[method].append((fit[1], 1.0 + fit[1] / abs(oracle[2])))
    return attempted, failed, outcomes


def total_iters(text: str) -> dict:
    """Training iterations per method, summed over the seeds of one results CSV."""
    iters = dict.fromkeys(METHODS, 0)
    for row in csv.DictReader(io.StringIO(text)):
        if row.get("method") in iters:
            iters[row["method"]] += int(row.get("iters_run") or 0)
    return iters


def measure_setup(config_path: Path) -> float:
    """Median time for a fresh interpreter to import predopt and load the config.

    No timeout: with one, subprocess polls for the child's exit in steps of
    up to 50 ms, which would show in the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_compare(cli, config_path: Path, seed: int, out: Path, tracer=None):
    """One `compare` call; returns (results CSV text or "" on failure, wall seconds)."""
    argv = ["compare", "--config", str(config_path), "--out", str(out), "--seed", str(seed)]
    argv += ["--jobs", "1"]
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        main = cli.main
        if tracer is not None:
            stack.enter_context(tracer.installed(TRACE_TARGETS))
            main = tracer.wrap("cli.main", cli.main)
        t0 = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is counted as failed fits, not a benchmark error
            traceback.print_exc()
            code = None
        wall = perf_counter() - t0
    if code != 0 or not out.is_file():
        print(f"compare exited with {code!r}", file=sys.stderr)
        return "", wall
    return out.read_bytes().decode(), wall


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_metrics(tracer: Tracer, n_calls: int, cfg: dict, iters: dict) -> tuple[dict, list]:
    """Per-layer values for one compare call (averaged over the traced calls),
    and the exact call counts that differ from those predopt made when this
    benchmark was written. A refactor that changes them is reported as a
    mismatch, not a failure."""
    stats = {name: [v / n_calls for v in st] for name, st in tracer.stats.items()}
    scoped = {key: n / n_calls for key, n in tracer.scoped.items()}

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    p = cfg["problem"]
    n_seeds = cfg["eval"]["n_seeds"]
    n_points = p["grid"]["n_points"]
    m_val = math.floor(p["n_samples"] * p["val_frac"])
    hidden = cfg["model"].get("hidden_units", 0) if cfg["model"]["kind"] == "mlp1" else 0
    task_on = cfg["train"]["weights"].get("task_term_enabled", True)
    pog = "predictor.predict_on_grid"
    pog_simpo = scoped.get(("training.simpo_fit", pog), 0)
    profiles_two_stage = scoped.get(("training.two_stage_fit", "objective.model_profile"), 0)

    values = {
        "training.simpo.iters": iters["simpo"],
        "training.two_stage.iters": iters["two_stage"],
        "training.simpo.ms_per_iter": 1e3 * _ratio(secs("training.simpo_fit"), iters["simpo"]),
        "training.two_stage.ms_per_iter": 1e3
        * _ratio(secs("training.two_stage_fit"), iters["two_stage"]),
        "training.simpo_fit.s": secs("training.simpo_fit"),
        "training.two_stage_fit.s": secs("training.two_stage_fit"),
        "objective.model_profile.calls": calls("objective.model_profile"),
        "objective.model_profile.s": secs("objective.model_profile"),
        "objective.model_profile.self_s": self_s("objective.model_profile"),
        "objective.model_profile.useful_ratio.two_stage": _ratio(
            n_seeds, profiles_two_stage, empty=1.0
        ),
        "objective.action_distribution.s": secs("objective.action_distribution"),
        pog + ".calls": calls(pog),
        pog + ".s": secs(pog),
        pog + ".calls_per_iter.simpo": _ratio(pog_simpo, iters["simpo"]),
        "predictor.task_grad.calls": calls("predictor.task_grad"),
        "predictor.task_grad.s": secs("predictor.task_grad"),
        "predictor.task_grad.self_s": self_s("predictor.task_grad"),
        "predictor.loss_and_grad.calls": calls("predictor.loss_and_grad"),
        "predictor.loss_and_grad.s": secs("predictor.loss_and_grad"),
        # Computed, not measured: m*K (linear) or m*K*h (mlp1) float64 cells.
        "predictor.computed_mb_per_iter": _ratio(
            pog_simpo * m_val * n_points * max(hidden, 1) * 8 / 1e6, iters["simpo"]
        ),
        "problems.task_cost.calls": calls("problems.task_cost"),
        "problems.task_cost.s": secs("problems.task_cost"),
        "problems.task_cost_grad_y.calls": calls("problems.task_cost_grad_y"),
        "problems.task_cost_grad_y.s": secs("problems.task_cost_grad_y"),
        "problems.cost_draws.calls": calls("problems.cost_draws"),
        "problems.cost_draws.s": secs("problems.cost_draws"),
        "problems.world_draws.calls": calls("problems.world_draws"),
        "problems.gen_dataset.s": secs("problems.gen_dataset"),
        "evaluation.evaluate_decision.calls": calls("evaluation.evaluate_decision"),
        "evaluation.evaluate_decision.s": secs("evaluation.evaluate_decision"),
        # Every oracle profile scan starts from its own world draws.
        "evaluation.oracle_scans_per_seed": calls("problems.world_draws") / n_seeds,
        "evaluation.oracle_useful_ratio": _ratio(
            n_seeds, calls("problems.world_draws"), empty=1.0
        ),
        "evaluation.write_results_csv.s": secs("evaluation.write_results_csv"),
        "core.split_dataset.s": secs("core.split_dataset"),
        "cli.load_config.s": secs("cli.load_config"),
        "trace.self_sum_s": sum(st[2] for st in stats.values()),
        "trace.missing_names": len(tracer.missing),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            st[2] for name, st in stats.items() if name.split(".")[0] == layer
        )

    expected = {
        "problems.cost_draws.calls": ((3 * n_points + 4) * n_seeds, calls("problems.cost_draws")),
        "problems.world_draws.calls": (3 * n_seeds, calls("problems.world_draws")),
        # Without the task term a simpo iteration predicts on the grid once.
        "predict_on_grid calls in simpo fits": (
            (1 + task_on) * iters["simpo"] + n_seeds,
            pog_simpo,
        ),
        "predict_on_grid calls in two-stage fits": (
            iters["two_stage"] + n_seeds,
            scoped.get(("training.two_stage_fit", pog), 0),
        ),
    }
    mismatches = [
        f"{what}: expected {want}, traced {got:g}"
        for what, (want, got) in expected.items()
        if got != want
    ]
    values["trace.count_mismatches"] = len(mismatches)
    return values, mismatches


def run_workload(config_path: Path, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result fields, metric values, info)."""
    cli = import_cli()
    cfg = json.loads(config_path.read_text())
    points = grid_points(cfg)
    seeds = range(seed, seed + cfg["eval"]["n_seeds"])
    values = {} if trace else {"setup_s": measure_setup(config_path)}

    tracer = Tracer(scopes=FIT_SPANS) if trace else None
    walls, traced_walls = [], []
    reference = None
    attempted = failed = 0
    start = perf_counter()
    round_s = 0.0  # the last round's time predicts the next one's
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        while (
            len(walls) + len(traced_walls) < MIN_CALLS
            or perf_counter() - start + round_s <= seconds
        ):
            round_start = perf_counter()
            for use_tracer in (None, tracer) if trace else (None,):
                out = Path(tmp) / f"results-{len(walls) + len(traced_walls)}.csv"
                text, wall = run_compare(cli, config_path, seed, out, use_tracer)
                (walls if use_tracer is None else traced_walls).append(wall)
                a, f, outcomes = check_results(text, reference, points, seeds)
                attempted += a
                failed += f
                if reference is None:
                    reference, first = text, outcomes
            round_s = perf_counter() - round_start

    info = {
        "calls": len(walls) + len(traced_walls),
        "results_csv_sha256": hashlib.sha256(reference.encode()).hexdigest(),
        "mean_regret": {
            m: _ratio(sum(r for r, _ in first.get(m, [])), len(first.get(m, []))) for m in METHODS
        },
        "wall_s": walls,
    }
    if trace:
        values.update(
            {
                "trace.untraced_wall_s": statistics.median(walls),
                "trace.overhead_share": statistics.median(traced_walls) / statistics.median(walls)
                - 1.0,
            }
        )
        layer_values, mismatches = layer_metrics(
            tracer, len(traced_walls), cfg, total_iters(reference)
        )
        values.update(layer_values)
        info.update(
            traced_wall_s=traced_walls,
            missing_names=sorted(tracer.missing),
            count_mismatches=mismatches,
        )
    else:
        values["wall_s"] = statistics.median(walls)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_share"] = 1.0 - failed / attempted
        for method in METHODS:
            ratios = [c for _, c in first.get(method, [])]
            values[f"cost_ratio_{method}"] = statistics.mean(ratios) if ratios else None
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}, values, info


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas.get('openblas configuration', blas.get('version'))}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = load_spec()["per_layer" if args.trace else "end_to_end"]
        result, values, info = run_workload(
            WORKLOAD_DIR / f"{args.workload}.json", args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    differ = set(units) ^ set(values)
    if differ:
        raise RuntimeError(f"declared and computed metrics differ: {sorted(differ)}")
    info.update(workload=args.workload, seed=args.seed, machine=machine())
    print(json.dumps(info))
    result["metrics"] = {name: {"value": values[name], "unit": u} for name, u in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
