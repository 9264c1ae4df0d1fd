"""tools/bench_pairs.py's verdict per metric, on synthetic pairs: no run is made."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # median 1.0, spread 0.02
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]  # median 1.0, spread 0.4


def _pairs(parent, change, name="wall_s"):
    return [
        {"parent": {"values": {name: p}}, "change": {"values": {name: c}}}
        for p, c in zip(parent, change)
    ]


def _verdict(parent, change, better="lower", bound=0.25):
    return bench_pairs.summarise(_pairs(parent, change), {"wall_s": (better, bound)})["wall_s"]


CASES = {
    # 10 of 10 wins, and a gap of 0.2 against a spread of 0.02
    "better": (PARENT, [p - 0.2 for p in PARENT], "lower", "better"),
    # 9 of 10 wins is enough
    "better-9-of-10": (PARENT, [p - 0.2 for p in PARENT[:9]] + [1.5], "lower", "better"),
    # 8 of 10 wins is not
    "8-of-10": (PARENT, [p - 0.2 for p in PARENT[:8]] + [1.5, 1.5], "lower", "within bound"),
    # every pair won, by less than the parent's spread
    "gap-inside-the-spread": (PARENT, [p - 0.001 for p in PARENT], "lower", "within bound"),
    # 30% slower against a bound of 25%
    "worse": (PARENT, [p * 1.3 for p in PARENT], "lower", "worse"),
    # 20% slower is inside the bound
    "slower-within-bound": (PARENT, [p * 1.2 for p in PARENT], "lower", "within bound"),
    # the parent spreads over 40% of its median, wider than the bound
    "unresolved": (WIDE, list(reversed(WIDE)), "lower", "unresolved"),
    # a metric where higher is better, 30% lower
    "worse-higher-is-better": (PARENT, [p * 0.7 for p in PARENT], "higher", "worse"),
    "better-higher-is-better": (PARENT, [p + 0.2 for p in PARENT], "higher", "better"),
}


@pytest.mark.parametrize("parent, change, better, verdict", CASES.values(), ids=CASES)
def test_summarise_gives_the_verdict(monkeypatch, parent, change, better, verdict):
    def no_run(*args, **kwargs):
        raise AssertionError("summarise started a process")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    got = _verdict(parent, change, better)
    assert got["verdict"] == verdict
    assert got["bound"] == 0.25


def test_summarise_keeps_the_sides_and_the_wins():
    got = _verdict(PARENT, [p - 0.2 for p in PARENT[:9]] + [1.5])
    assert got["change_wins"] == 9
    assert got["parent"] == {"median": 1.0, "q1": 0.99, "q3": 1.01}
    assert set(got["change"]) == {"median", "q1", "q3"}


def test_summarise_skips_a_metric_with_a_missing_value():
    pairs = _pairs(PARENT, [None] + PARENT[1:])
    assert bench_pairs.summarise(pairs, {"wall_s": ("lower", 0.25)}) == {}


def _run(sha="a", correct=True):
    return {"values": {"wall_s": 1.0}, "correct": correct, "results_csv_sha256": sha}


CHECKS = {
    "all-equal": ([("a", "a")] * 3, [], {"incorrect_runs": 0, "csv_identical": True}),
    "one-change-csv-differs": (
        [("a", "a"), ("a", "b"), ("a", "a")], [], {"incorrect_runs": 0, "csv_identical": False}
    ),
    "one-parent-csv-differs": (
        [("b", "a"), ("a", "a")], [], {"incorrect_runs": 0, "csv_identical": False}
    ),
    "incorrect-runs-counted": (
        [("a", "a")] * 3,
        [(0, "parent"), (2, "change")],
        {"incorrect_runs": 2, "csv_identical": True},
    ),
}


@pytest.mark.parametrize("shas, incorrect, want", CHECKS.values(), ids=CHECKS)
def test_checks_count_incorrect_runs_and_compare_the_csvs(shas, incorrect, want):
    pairs = [{"parent": _run(p), "change": _run(c)} for p, c in shas]
    for i, side in incorrect:
        pairs[i][side]["correct"] = False
    assert bench_pairs.checks(pairs) == want


def test_each_workload_summary_carries_the_checks(monkeypatch, tmp_path):
    # main records each run's correctness and CSV hash and summarises them,
    # here from synthetic runs: no process is started
    def no_run(*args, **kwargs):
        raise AssertionError("a process was started")

    def fake_run(checkout, workload, seed, seconds):
        sha = "b" if workload == "newsvendor_mlp1" and checkout.name == "change" else "a"
        return _run(sha) | {"machine": {"nproc": 2, "loadavg": [0.5, 0.5, 0.5]}}

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    (tmp_path / "parent").mkdir()
    change = tmp_path / "change"
    change.mkdir()
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(change), "--pairs", "2"]
    argv += ["--run", "newsvendor_linear:1", "--run", "newsvendor_mlp1:1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    blob = json.loads(out.read_text())
    got = {run["workload"]: run["summary"] for run in blob["runs"]}
    assert got["newsvendor_linear"]["csv_identical"] is True
    assert got["newsvendor_mlp1"]["csv_identical"] is False
    assert all(summary["incorrect_runs"] == 0 for summary in got.values())
    run = blob["runs"][0]["pairs"][0]["parent"]
    assert run["correct"] is True and run["results_csv_sha256"] == "a"
    assert blob["machine"] == {"nproc": 2}
