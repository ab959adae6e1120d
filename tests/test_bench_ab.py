"""tools/bench_ab.py's parsing and summary, on canned bench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"points_per_s": "higher", "setup_s": "lower"}


def _stdout(points_per_s, setup_s, correct=True, failed=0):
    summary = {"workload": "w", "seed": 1, "machine": {"nproc": 2, "git_sha": "unknown"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "points_per_s": {"value": points_per_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }}
    return "\n".join([
        json.dumps(summary),
        f"{'points_per_s':40s} {points_per_s:14.6g} 1/s",
        "CHECK FAILED: something" if not correct else "FINDING: nothing",
        json.dumps(result),
    ]) + "\n"


def test_parse_output_takes_the_machine_block_and_the_last_result_line():
    machine, result = bench_ab.parse_output(_stdout(250.0, 0.4))
    assert machine == {"nproc": 2, "git_sha": "unknown"}
    assert result["correct"] is True
    assert result["metrics"]["points_per_s"]["value"] == 250.0


def test_output_without_a_result_is_an_incorrect_run():
    machine, result = bench_ab.parse_output("Traceback (most recent call last):\n")
    assert machine is None
    assert result == {"correct": False, "failed": None, "metrics": {}}


def test_seed_range_and_alternating_order():
    assert bench_ab.parse_seeds("41-45") == [41, 42, 43, 44, 45]
    assert bench_ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_ab.parse_seeds("9-3")
    assert bench_ab.run_order(3) == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_spreads_and_wins():
    canned = {  # seed -> (parent, change) as (points_per_s, setup_s)
        1: ((260.0, 0.40), (600.0, 0.41)),
        2: ((290.0, 0.38), (570.0, 0.38)),
        3: ((270.0, 0.39), (250.0, 0.35)),
        4: ((280.0, 0.42), (640.0, 0.36)),
        5: ((275.0, 0.37), (610.0, 0.39)),
    }
    runs = []
    for seed, sides in canned.items():
        for side, (pps, setup) in zip(("parent", "change"), sides):
            _, result = bench_ab.parse_output(_stdout(pps, setup, failed=seed == 3))
            runs.append({"workload": "w", "seed": seed, "side": side, "result": result})
    runs.append({"workload": "v", "seed": 1, "side": "parent",
                 "result": bench_ab.parse_output("")[1]})
    summary = bench_ab.summarize(runs, BETTER)
    w = summary["w"]
    assert w["points_per_s"]["parent"] == {
        "median": 275.0, "q1": 270.0, "q3": 280.0, "runs": 5}
    assert w["points_per_s"]["change"] == {
        "median": 600.0, "q1": 570.0, "q3": 610.0, "runs": 5}
    assert w["change_wins"] == {"points_per_s": "4 of 5", "setup_s": "2 of 5"}
    assert w["all_correct"] is True
    assert w["failed"] == 2
    v = summary["v"]
    assert v["all_correct"] is False
    assert v["points_per_s"]["parent"]["runs"] == 0
    assert v["change_wins"]["points_per_s"] == "0 of 0"
