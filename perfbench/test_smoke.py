"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench

Each workload runs with 3 iterations, 1 seed and 500 Monte Carlo draws, in
both modes. The test checks that every metric declared in BENCHMARK.json is
printed with its unit, that the traced call counts match the code, and that
a corrupted results CSV is counted as failed fits.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


@pytest.fixture
def scratch():
    """A throwaway directory inside the checkout, which the benchmark ignores."""
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        yield Path(tmp)


@pytest.fixture
def tiny_workloads(scratch, monkeypatch):
    for workload in run.WORKLOADS:
        cfg = json.loads((run.WORKLOAD_DIR / f"{workload}.json").read_text())
        cfg["train"]["max_iters"] = 3
        cfg["eval"]["n_mc"] = 500
        cfg["eval"]["n_seeds"] = 1
        (scratch / f"{workload}.json").write_text(json.dumps(cfg))
    monkeypatch.setattr(run, "WORKLOAD_DIR", scratch)
    return scratch


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tiny_workloads, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _last_json_line(capsys.readouterr().out)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_CALLS
    declared = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name

    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["trace.missing_names"] == 0
        assert values["trace.count_mismatches"] == 0
        assert values["evaluation.oracle_scans_per_seed"] == 3
        if workload == "pricing_oracle":
            assert values["predictor.task_grad.calls"] == 0
        else:
            assert values["predictor.task_grad.calls"] > 0
    else:
        assert values["ok_share"] == 1.0


def _rewrite(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]) if rows else [], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _set(method, column, value):
    def edit(rows):
        for row in rows:
            if row["method"] == method:
                row[column] = value

    return edit


def _drop(method):
    def edit(rows):
        rows[:] = [row for row in rows if row["method"] != method]

    return edit


@pytest.mark.parametrize(
    "edit, failed",
    [
        (lambda rows: None, 0),
        (_set("simpo", "chosen_action", "0.05"), 1),
        (_set("two_stage", "regret", "-0.5"), 1),
        (_set("simpo", "regret", "nan"), 1),
        (_set("oracle", "regret", "0.001"), 2),
        (_drop("oracle"), 2),
        (_drop("two_stage"), 1),
        (lambda rows: rows.append(dict(rows[0])), 1),
    ],
)
def test_corrupted_csv_counts_as_failed_fits(edit, failed, tiny_workloads):
    cli = run.import_cli()
    config = tiny_workloads / "newsvendor_linear.json"
    cfg = json.loads(config.read_text())
    text, _wall = run.run_compare(cli, config, 3, tiny_workloads / "results.csv")
    points, seeds = run.grid_points(cfg), range(3, 4)

    assert run.check_results(_rewrite(text, edit), None, points, seeds)[:2] == (2, failed)


def test_csv_that_differs_from_the_first_repetition_fails_every_fit(tiny_workloads):
    cli = run.import_cli()
    config = tiny_workloads / "newsvendor_linear.json"
    text, _wall = run.run_compare(cli, config, 3, tiny_workloads / "results.csv")
    points = run.grid_points(json.loads(config.read_text()))

    assert run.check_results(text, text, points, range(3, 4))[:2] == (2, 0)
    assert run.check_results(text + "\n", text, points, range(3, 4))[:2] == (2, 2)


def test_fails_without_a_result_outside_a_checkout(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(
        run.BENCH_DIR, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0]]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=scratch,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
