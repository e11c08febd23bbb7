import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"content_s_per_s": "higher", "op_s.p50": "lower", "failed_ops": "lower"}


def _run(seed, side, line):
    """A run record around one canned result line of perfbench/run.py."""
    return {"workload": "w", "seed": seed, "side": side, "result": json.loads(line)}


def _line(rate, p50, failed=0):
    metrics = {
        "content_s_per_s": {"value": rate, "unit": "s/s"},
        "op_s.p50": {"value": p50, "unit": "s"},
        "failed_ops": {"value": failed, "unit": "count"},
    }
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})


CANNED = [
    _run(1, "parent", _line(100.0, 0.010)),
    _run(1, "change", _line(120.0, 0.009)),
    _run(2, "change", _line(110.0, 0.012)),
    _run(2, "parent", _line(90.0, 0.011)),
    _run(3, "parent", _line(110.0, 0.008)),
    _run(3, "change", _line(100.0, 0.007)),
    _run(4, "change", _line(140.0, 0.010)),
    _run(4, "parent", _line(120.0, 0.010)),
]


def test_summary_of_canned_runs():
    summary = bench_pairs.summarize(CANNED, DIRECTIONS)
    assert summary["content_s_per_s"] == {
        "parent_q1_median_q3": [97.5, 105.0, 112.5],
        "change_q1_median_q3": [107.5, 115.0, 125.0],
        "change_better_pairs": "3/4",
        "median_change_pct": 9.52,
    }
    # Lower is better: seed 2 lost, seed 4 tied, and a tie is not a win.
    assert summary["op_s.p50"]["change_better_pairs"] == "2/4"
    assert summary["op_s.p50"]["median_change_pct"] == -5.0
    assert summary["failed_ops"]["median_change_pct"] is None


def test_metrics_missing_from_a_run_are_left_out():
    runs = [dict(run, result=json.loads(json.dumps(run["result"]))) for run in CANNED]
    del runs[5]["result"]["metrics"]["op_s.p50"]
    assert set(bench_pairs.summarize(runs, DIRECTIONS)) == {"content_s_per_s", "failed_ops"}


@pytest.mark.parametrize("runs", [CANNED[:2], CANNED[:3]], ids=["one-seed", "one-side"])
def test_unpaired_runs_are_refused(runs):
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs, DIRECTIONS)


@pytest.mark.parametrize("name", ["BENCH_15.json", "BENCH_24.json"])
def test_committed_summaries_are_reproduced(name):
    directions = bench_pairs.metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    committed = json.loads((ROOT / name).read_text())["workloads"]
    for workload in committed.values():
        assert bench_pairs.summarize(workload["runs"], directions) == workload["summary"]


def test_seed_ranges_and_lists():
    assert bench_pairs._seeds("2400-2403") == [2400, 2401, 2402, 2403]
    assert bench_pairs._seeds("5,1,9") == [5, 1, 9]


def test_each_run_keeps_its_gauge_median(monkeypatch, capsys):
    """Runs alternate sides by seed, and each record keeps the median of its run's gauge."""
    gauges = {"parent-dir": [0.03, 0.028, 0.029], "change-dir": [0.047, 0.045, 0.046, 0.048]}
    calls = []

    def fake_run(command, cwd, capture_output, text):
        seed = int(command[command.index("--seed") + 1])
        calls.append((cwd, seed))
        report = json.dumps({"workload": "w", "seed": seed, "gauge_s": gauges[cwd]})
        rate = 100.0 if cwd == "parent-dir" else 110.0
        stdout = "\n".join([report, _line(rate + seed, 0.01)]) + "\n"
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.main(["--parent", "parent-dir", "--change", "change-dir", "--workload", "w",
                      "--seeds", "1-2", "--seconds", "1"])
    assert calls == [("parent-dir", 1), ("change-dir", 1), ("change-dir", 2), ("parent-dir", 2)]
    out = json.loads(capsys.readouterr().out)
    assert [(run["seed"], run["side"], run["gauge_median_s"]) for run in out["runs"]] == [
        (1, "parent", 0.029), (1, "change", 0.0465), (2, "change", 0.0465), (2, "parent", 0.029)
    ]
    assert out["summary"]["content_s_per_s"]["change_better_pairs"] == "2/2"
