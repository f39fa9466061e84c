"""tools/bench_pairs.py's summary of paired benchmark runs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def _run(seed, side, values, attempted=100, failed=0, correct=True, exit=0, workload="w"):
    metrics = {name: {"value": value} for name, value in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": seed, "side": side, "exit": exit, "result": result}


def _pairs(parent, change, name="ms"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [_run(seed, "parent", {name: p}), _run(seed, "change", {name: c})]
    return runs


def test_wins_count_pairs_the_change_beat_and_ties_count_for_neither():
    runs = _pairs([10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 9.5])
    summary = bench_pairs.summarize(runs, [LOWER], "w")["metrics"]["ms"]
    assert summary["change_wins"] == 2 and summary["pairs"] == 4
    rate = [
        {**run, "result": {**run["result"], "metrics": {"rate": run["result"]["metrics"]["ms"]}}}
        for run in runs
    ]
    summary = bench_pairs.summarize(rate, [HIGHER], "w")["metrics"]["rate"]
    assert summary["change_wins"] == 1  # higher is better: only the 11.0 pair


@pytest.mark.parametrize(
    "change, gain",
    [
        ([8.0] * 9 + [12.0], True),  # 9 of 10 pairs, median 2 below against an IQR of 1
        ([8.0] * 8 + [12.0] * 2, False),  # 8 of 10 pairs
        ([9.8] * 10, False),  # 10 of 10 pairs, but the margin is inside the parent's IQR
    ],
)
def test_gain_needs_nine_pairs_in_ten_and_a_margin_above_the_parent_iqr(change, gain):
    parent = [9.5, 10.5] * 5  # median 10, quartiles 9.5 and 10.5
    summary = bench_pairs.summarize(_pairs(parent, change), [LOWER], "w")["metrics"]["ms"]
    assert summary["parent"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert summary["gain"] is gain


@pytest.mark.parametrize(
    "metric, change, worse",
    [
        (LOWER, 12.4, False),
        (LOWER, 12.6, True),  # more than 25% above the parent's median of 10
        (LOWER, 5.0, False),
        (HIGHER, 7.6, False),
        (HIGHER, 7.4, True),  # more than 25% below it
        (HIGHER, 20.0, False),
    ],
)
def test_worse_than_bound_is_a_median_past_the_bound_in_the_worse_direction(metric, change, worse):
    runs = _pairs([10.0] * 4, [change] * 4, name=metric["name"])
    summary = bench_pairs.summarize(runs, [metric], "w")["metrics"][metric["name"]]
    assert summary["worse_than_bound"] is worse


def test_a_run_without_a_result_is_skipped_and_reported():
    runs = _pairs([10.0, 10.0, 10.0], [9.0, 9.0, 9.0])
    runs[3] = {**runs[3], "exit": 2, "result": None}  # seed 2's change run
    runs.append(_run(9, "parent", {"ms": 1.0}, workload="other"))  # another workload
    summary = bench_pairs.summarize(runs, [LOWER], "w")
    assert summary["metrics"]["ms"]["pairs"] == 2
    assert summary["sides"]["change"]["bad_runs"] == [{"seed": 2, "exit": 2}]
    assert summary["sides"]["parent"]["bad_runs"] == []


def test_failed_share_sums_failures_over_attempts_per_side():
    runs = [
        _run(1, "parent", {"ms": 1.0}, attempted=100, failed=0),
        _run(1, "change", {"ms": 1.0}, attempted=100, failed=3, correct=False, exit=1),
        _run(2, "parent", {"ms": 1.0}, attempted=300, failed=0),
        _run(2, "change", {"ms": 1.0}, attempted=300, failed=1),
    ]
    sides = bench_pairs.summarize(runs, [LOWER], "w")["sides"]
    assert sides["parent"]["failed_share"] == 0.0 and sides["parent"]["bad_runs"] == []
    assert sides["change"]["failed"] == 4 and sides["change"]["attempted"] == 400
    assert sides["change"]["failed_share"] == 4 / 400
    assert sides["change"]["bad_runs"] == [{"seed": 1, "exit": 1}]
