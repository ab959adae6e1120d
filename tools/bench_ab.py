"""Alternating parent/change runs of the benchmark, written as one BENCH_<n>.json.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --workloads design-grid eav-distance --seeds 41-50 --out BENCH_17.json

Each revision is exported with ``git archive`` into ``.bench_build/<sha>``
(an export, not a worktree, so nothing is registered in the repository) and
runs its own ``bench/run.py --trace 0`` for the ``run_seconds`` that the
change's ``BENCHMARK.json`` declares.  Each workload runs one pair per seed
of ``--seeds``, that seed on both sides; the side that runs first
alternates, the parent first in each workload's first pair.  The file holds
every run's result line and, per workload and end-to-end metric, each side's
median and quartiles and the number of pairs the change won (ties count for
neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"41-50"`` -> [41, ..., 50]; a single ``"7"`` -> [7]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_order(pairs: int) -> list[tuple[str, str]]:
    """Sides in running order for each pair: parent first in the first pair."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def parse_output(stdout: str) -> tuple[dict | None, dict]:
    """(machine block, result) from one ``bench/run.py`` standard output.

    The result is the last line, a JSON object with ``correct``, ``failed``
    and ``metrics``; output without one is recorded as an incorrect run.
    """
    machine, result = None, {"correct": False, "failed": None, "metrics": {}}
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "machine" in obj:
            machine = obj["machine"]
        elif "metrics" in obj:
            result = obj
    return machine, result


def _spread(values: list[float]) -> dict:
    if len(values) < 2:  # quartiles need two values; none or one is its own
        q1 = median = q3 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: each metric's spread on both sides, and the change's wins.

    ``runs`` holds ``{"workload", "seed", "side", "result"}`` entries;
    ``better`` maps each end-to-end metric to "higher" or "lower".  A pair is
    the two sides' runs of one workload and seed.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        block = {}
        wins = {}
        for metric, direction in better.items():
            block[metric] = {
                side: _spread([r["result"]["metrics"][metric]["value"] for r in mine
                               if r["side"] == side and metric in r["result"]["metrics"]])
                for side in SIDES
            }
            pairs = [p for p in by_pair.values()
                     if all(metric in p.get(side, {}) for side in SIDES)]
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(1 for p in pairs if sign * (
                p["change"][metric]["value"] - p["parent"][metric]["value"]) > 0)
            wins[metric] = f"{won} of {len(pairs)}"
        block["all_correct"] = all(r["result"]["correct"] for r in mine)
        block["failed"] = sum(r["result"]["failed"] or 0 for r in mine)
        block["change_wins"] = wins
        summary[workload] = block
    return summary


def _sha(rev: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _export(sha: str) -> Path:
    dest = BUILD / sha
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def _run(tree: Path, workload: str, seed: int, seconds: float):
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree,
    )
    return parse_output(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help="seed range a-b, one pair per seed")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--what", help="what the runs measure, for the file's 'what'",
                        default="Alternating parent/change runs of bench/run.py.")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    shas = {"parent": _sha(args.parent), "change": _sha(args.change)}
    trees = {side: _export(sha) for side, sha in shas.items()}
    try:
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = declared["run_seconds"]
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        runs, machine = [], None
        for workload in args.workloads:
            for seed, sides in zip(seeds, run_order(len(seeds))):
                for side in sides:
                    seen, result = _run(trees[side], workload, seed, seconds)
                    machine = machine or seen
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "result": result})
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {json.dumps(values)}",
                          file=sys.stderr)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    doc = {
        "what": args.what,
        "command": shlex.join(["python3", "tools/bench_ab.py", *argv]),
        "parent": shas["parent"],
        "change": shas["change"],
        "pairs": {w: f"seeds {seeds[0]}-{seeds[-1]}" for w in args.workloads},
        "order": "alternating within each workload's pairs, parent first in the first "
                 f"pair; each run is bench/run.py --trace 0 for {seconds} s",
        # bench/run.py cannot read a SHA in an export; both are recorded above.
        "machine": {k: v for k, v in (machine or {}).items() if k != "git_sha"},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
