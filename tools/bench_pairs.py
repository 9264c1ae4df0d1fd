"""Alternating paired runs of perfbench/run.py from two checkouts, summarised in one JSON file.

Run from any directory, with a checkout of the parent commit and one of the
change (each a directory that holds perfbench/run.py and src/):

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --run pricing_oracle:2 --run pricing_oracle:5 --pairs 10 --out BENCH.json

Each `--run WORKLOAD:SEED` is run as `--pairs` pairs of
`perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0`, one
process for the parent and one for the change per pair, one after the other.
The side that goes first alternates from pair to pair, so a drift in the
machine's load falls on both sides alike. For each end-to-end metric the file
holds every pair's value, each side's median and quartiles, and the number of
pairs the change won (strictly better, in the metric's declared direction).
It records the machine line of the first run, and the load average of each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `checkout`: its machine line and its metrics' values."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {
        "values": {name: metric["value"] for name, metric in result["metrics"].items()},
        "correct": result["correct"],
        "machine": info["machine"],
    }


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [p[side]["values"][name] for p in pairs] for side in SIDES}
        if any(v is None for vs in sides.values() for v in vs):
            continue
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {side: quartiles(vs) for side, vs in sides.items()}
        summary[name]["change_wins"] = wins
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs, machine = [], None
    for item in args.run:
        workload, _, seed = item.partition(":")
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(checkouts[side], workload, int(seed), args.seconds)
                    for side in order}
            pairs.append({side: pair[side] for side in SIDES})
            walls = ", ".join(f"{side} {pair[side]['values']['wall_s']:.3f}" for side in SIDES)
            print(f"{item} pair {i + 1}/{args.pairs}: wall_s {walls}", file=sys.stderr)
        machine = machine or dict(pairs[0]["parent"]["machine"])
        for pair in pairs:
            for run in pair.values():
                run["loadavg"] = run.pop("machine")["loadavg"]
        summary = summarise(pairs, better)
        runs.append({"workload": workload, "seed": int(seed), "summary": summary, "pairs": pairs})
    del machine["loadavg"]
    blob = {"command": "perfbench/run.py --trace 0", "seconds": args.seconds, "machine": machine}
    blob["runs"] = runs
    args.out.write_text(json.dumps(blob, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
