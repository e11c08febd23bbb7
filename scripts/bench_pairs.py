#!/usr/bin/env python3
"""Run alternated parent/change pairs of one benchmark workload and summarise them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload progression_doc --seeds 2400-2409 --seconds 40

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed, the parent first on even pairs (counting from 0) and the change
first on odd ones, so that a drift of the host's speed falls on both
sides alike.  Each checkout runs its own perfbench and its own package.
The last stdout line of a run is its result object and the line before
it the report, whose "gauge_s" samples time a fixed piece of work on the
host; a run that exits non-zero stops the script.

stdout gets one JSON object in the per-workload shape of the committed
BENCH_*.json files: "runs" holds every result, each with the median of
its run's gauge samples as "gauge_median_s", so that a pair whose two
sides ran at different host speeds shows; and "summary" maps each metric
of BENCHMARK.json that every run reports to the quartiles of either side
(q1, median and q3 by the inclusive method), the pairs the change won by
the metric's "better" direction, and the change of the median in
percent.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Each metric's name and its "better" direction, "higher" or "lower"."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def _quartiles(values: list[float]) -> list[float]:
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """The per-metric summary of runs paired by seed, one of each side a seed."""
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = list(by_seed.values())
    if len(pairs) < 2 or any(set(pair) != set(SIDES) for pair in pairs):
        raise ValueError("need two or more seeds, each run once on either side")
    summary = {}
    for name, better in directions.items():
        if not all(name in pair[side] for pair in pairs for side in SIDES):
            continue
        parent, change = ([pair[side][name]["value"] for pair in pairs] for side in SIDES)
        sign = 1 if better == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_q1_median_q3": _quartiles(parent),
            "change_q1_median_q3": _quartiles(change),
            "change_better_pairs": f"{won}/{len(pairs)}",
            "median_change_pct": round((after - before) / before * 100, 2) if before else None,
        }
    return summary


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One perfbench run in `checkout`: its result object, and the median of its gauge samples."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}, seed {seed}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    report, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return result, statistics.median(report["gauge_s"])


def _seeds(text: str) -> list[int]:
    """"2400-2409" or "1,5,9" as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help='"2400-2409" or "1,5,9"')
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result, gauge = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            runs.append({"workload": args.workload, "seed": seed, "side": side,
                         "gauge_median_s": gauge, "result": result})
            print(f"{args.workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr)
    directions = metric_directions(json.loads(BENCHMARK.read_text()))
    print(json.dumps({"summary": summarize(runs, directions), "runs": runs}, indent=2))


if __name__ == "__main__":
    main()
