"""tools/bench_ab.py's parsing and summary, on canned bench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _stdout(points_per_s, setup_s, correct=True, failed=0, timing=None):
    summary = {"workload": "w", "seed": 1, "machine": {"nproc": 2, "git_sha": "unknown"},
               "passes": 2, **(timing or {})}
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


def _result(stdout):
    return bench_ab.outcome(0, stdout, "")[1]["result"]


def test_parse_output_takes_the_machine_block_and_the_last_result_line():
    machine, fields = bench_ab.outcome(0, _stdout(250.0, 0.4), "")
    result = fields["result"]
    assert machine == {"nproc": 2, "git_sha": "unknown"}
    assert result["correct"] is True
    assert result["metrics"]["points_per_s"]["value"] == 250.0


def test_output_without_a_result_is_an_incorrect_run():
    machine, fields = bench_ab.outcome(0, "Traceback (most recent call last):\n", "")
    result = fields["result"]
    assert machine is None
    assert result == {"correct": False, "failed": None, "metrics": {}}


def test_a_run_keeps_its_exit_code_and_last_stderr_line():
    machine, fields = bench_ab.outcome(0, _stdout(250.0, 0.4), "")
    assert machine == {"nproc": 2, "git_sha": "unknown"}
    assert fields["exit_code"] == 0 and fields["stderr_tail"] is None
    assert fields["result"]["correct"] is True
    crash = "Traceback (most recent call last):\n  File \"run.py\"\nMemoryError\n\n"
    machine, fields = bench_ab.outcome(-9, "", crash)
    assert machine is None
    assert fields == {"exit_code": -9, "stderr_tail": "MemoryError",
                      "result": {"correct": False, "failed": None, "metrics": {}}}


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
            result = _result(_stdout(pps, setup, failed=seed == 3))
            runs.append({"workload": "w", "seed": seed, "side": side, "result": result})
    runs.append({"workload": "v", "seed": 1, "side": "parent",
                 "result": _result("")})
    summary = bench_ab.summarize(runs, END_TO_END)
    w = summary["w"]
    assert w["points_per_s"]["parent"] == {
        "median": 275.0, "q1": 270.0, "q3": 280.0, "runs": 5}
    assert w["points_per_s"]["change"] == {
        "median": 600.0, "q1": 570.0, "q3": 610.0, "runs": 5}
    assert w["change_wins"] == {"points_per_s": "4 of 5", "setup_s": "2 of 5"}
    assert w["verdicts"] == {"points_per_s": "held", "setup_s": "held"}
    assert w["all_correct"] is True
    assert w["failed"] == 2
    v = summary["v"]
    assert v["all_correct"] is False
    assert v["points_per_s"]["parent"]["runs"] == 0
    assert v["change_wins"]["points_per_s"] == "0 of 0"
    assert v["verdicts"] == {"points_per_s": None, "setup_s": None}


def _pairs(workload, parent, change):
    """Runs of one workload, a pair per seed: (points_per_s, setup_s) lists."""
    runs = []
    for seed, sides in enumerate(zip(zip(*parent), zip(*change))):
        for side, (pps, setup) in zip(("parent", "change"), sides):
            result = _result(_stdout(pps, setup))
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "result": result})
    return runs


def test_verdicts_on_synthetic_runs():
    base_pps = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
    base_setup = [0.30 + 0.01 * i for i in range(10)]  # median 0.345, IQR 0.045
    wide_pps = [60.0 + 10.0 * i for i in range(10)]  # median 105, IQR 45
    runs = [
        # setup_s 3x lower in every pair; points_per_s 30% lower.
        *_pairs("a", (base_pps, base_setup),
                ([0.7 * v for v in base_pps], [v / 3 for v in base_setup])),
        # Nine of ten pairs won but by 0.001 s, inside the parent's IQR;
        # points_per_s 20% lower, inside the 25% bound.
        *_pairs("b", (base_pps, base_setup),
                ([0.8 * v for v in base_pps],
                 [v - 0.001 for v in base_setup[:9]] + [1.0])),
        # The parent's points_per_s IQR is 43% of its median, wider than
        # the 25% bound: equal medians cannot show the metric held.
        *_pairs("c", (wide_pps, base_setup), (wide_pps, base_setup)),
    ]
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["a"]["change_wins"] == {"points_per_s": "0 of 10",
                                           "setup_s": "10 of 10"}
    assert summary["a"]["verdicts"] == {"points_per_s": "worse", "setup_s": "gain"}
    assert summary["b"]["change_wins"]["setup_s"] == "9 of 10"
    assert summary["b"]["verdicts"] == {"points_per_s": "held", "setup_s": "held"}
    assert summary["c"]["verdicts"] == {"points_per_s": "unresolved", "setup_s": "held"}


@pytest.mark.parametrize("won, change_median, bound, separated, expected", [
    (9, 0.70, 0.25, False, "gain"),   # 9 of 10, 0.30 apart against an IQR of 0.20
    (10, 0.85, 0.25, False, "held"),  # every pair, but 0.15 apart: inside the IQR
    (8, 0.50, 0.25, False, "held"),   # far apart, 8 of 10
    (0, 1.26, 0.25, False, "worse"),  # 26% behind the parent's median, bound 25%
    (0, 1.24, 0.25, False, "held"),
    # The parent's IQR (20% of its median) is wider than a 15% bound ...
    (10, 0.85, 0.15, False, "unresolved"),
    (0, 1.10, 0.15, False, "unresolved"),
    (0, 1.16, 0.15, False, "worse"),  # ... which a larger loss still exceeds,
    (10, 0.85, 0.15, True, "held"),  # ... unless every change run beat every parent run
], ids=["gain", "inside-iqr", "eight-of-ten", "worse", "within-bound",
        "wide-better", "wide-worse", "wide-beyond-bound", "wide-separated"])
def test_verdict_thresholds(won, change_median, bound, separated, expected):
    spread = {"parent": {"median": 1.0, "q1": 0.9, "q3": 1.1},
              "change": {"median": change_median}}
    assert bench_ab.verdict(spread, won, 10, -1.0, bound, separated) == expected


def test_runs_keep_their_timing_and_the_summary_adds_set_up_plus_first_pass():
    def times(setup, first):
        return {"wall_s": [first, 1.0, 2.0], "speed_factor": [1.0, 1.0, 1.0],
                "setup_wall_s": [setup + 1.0, setup, setup - 1.0]}

    _, fields = bench_ab.outcome(0, _stdout(1.0, 0.4, timing=times(0.25, 0.125)), "")
    assert fields["timing"] == {"setup_wall_s": 0.25, "first_pass_wall_s": 0.125,
                                "median_pass_wall_s": 1.0, "passes": 3}
    assert bench_ab.cold_start(fields["timing"]) == 0.375
    runs = []
    for seed in range(4):
        # The change moves 0.125 s of set-up into a first pass 0.375 s longer.
        sides = {"parent": _stdout(1.0, 0.4, timing=times(0.25 + seed, 0.125)),
                 "change": _stdout(1.0, 0.3, timing=times(0.125 + seed, 0.5))}
        if seed == 3:
            sides["change"] = ""  # a crashed run has no timing
        for side, stdout in sides.items():
            _, fields = bench_ab.outcome(0, stdout, "")
            runs.append({"workload": "w", "seed": seed, "side": side, **fields})
    block = bench_ab.summarize(runs, END_TO_END)["w"]
    assert block["setup_s"]["change"]["median"] == 0.3
    assert block["setup_plus_first_pass_s"] == {
        "parent": {"median": 1.875, "q1": 1.125, "q3": 2.625, "runs": 4},
        "change": {"median": 1.625, "q1": 1.125, "q3": 2.125, "runs": 3},
        "change_wins": "0 of 3",
    }


def test_workloads_default_to_all_the_change_declares(tmp_path, monkeypatch):
    declared = {"run_seconds": 3, "end_to_end": END_TO_END,
                "workloads": [{"name": "b"}, {"name": "a"}]}
    ran = []

    def export(sha):
        tree = tmp_path / sha
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(declared))
        return tree

    def run(tree, workload, seed, seconds):
        ran.append((tree.name, workload, seed, seconds))
        return bench_ab.outcome(0, _stdout(1.0, 0.4), "")

    monkeypatch.setattr(bench_ab, "_sha", lambda rev: rev)
    monkeypatch.setattr(bench_ab, "_export", export)
    monkeypatch.setattr(bench_ab, "_run", run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "p", "--change", "c", "--seeds", "5", "--out", str(out)]
    assert bench_ab.main(argv) == 0
    assert ran == [("p", "b", 5, 3), ("c", "b", 5, 3), ("p", "a", 5, 3), ("c", "a", 5, 3)]
    doc = json.loads(out.read_text())
    assert doc["pairs"] == {"b": "seeds 5-5", "a": "seeds 5-5"}
    assert list(doc["summary"]) == ["b", "a"]
    ran.clear()
    assert bench_ab.main([*argv, "--workloads", "a"]) == 0
    assert [workload for _, workload, _, _ in ran] == ["a", "a"]
