"""Alternating parent/change runs of the benchmark, written as one BENCH_<n>.json.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --workloads design-grid eav-distance --seeds 41-50 --out BENCH_17.json

Each revision is exported with ``git archive`` into ``.bench_build/<sha>``
(an export, not a worktree, so nothing is registered in the repository) and
runs its own ``bench/run.py --trace 0`` for the ``run_seconds`` that the
change's ``BENCHMARK.json`` declares.  Without ``--workloads``, every
workload that file declares runs, in its order.  Each workload runs one
pair per seed of ``--seeds``, that seed on both sides; the side that runs
first alternates, the parent first in each workload's first pair.  The
file holds every run's result line and, per workload and end-to-end metric,
each side's median and quartiles, the number of pairs the change won (ties
count for neither side) and a verdict (see :func:`verdict`).  Each run
keeps its exit code, the last line of its standard error and its wall
times (see :func:`timing`) beside its result line.  Per workload the
summary also gives the set-up plus the first timed pass (see
:func:`cold_start`), where a one-time cost that moved out of ``setup_s``
shows.
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


def outcome(exit_code: int, stdout: str, stderr: str) -> tuple[dict | None, dict]:
    """(machine block, ``runs`` entry fields) of one finished ``bench/run.py``.

    The fields hold the run's exit code, its result and the last line it
    wrote to standard error besides, so a crashed run names its cause, and
    its :func:`timing` when it printed the times.  The result is the last
    standard-output line, a JSON object with ``correct``, ``failed`` and
    ``metrics``; output without one is recorded as an incorrect run.
    """
    summary, result = {}, {"correct": False, "failed": None, "metrics": {}}
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "machine" in obj:
            summary = obj
        elif "metrics" in obj:
            result = obj
    lines = stderr.rstrip().splitlines()
    tail = lines[-1] if lines else None
    fields = {"exit_code": exit_code, "stderr_tail": tail, "result": result}
    if "wall_s" in summary and "setup_wall_s" in summary:
        fields["timing"] = timing(summary)
    return summary.get("machine"), fields


def timing(summary: dict) -> dict:
    """Wall times, in seconds, from ``bench/run.py``'s summary line: the
    median set-up probe, the first timed pass, the median pass and the
    number of passes.  The end-to-end metrics are medians, so a one-time
    cost that lands in the first pass shows only here."""
    walls = summary["wall_s"]
    return {"setup_wall_s": statistics.median(summary["setup_wall_s"]),
            "first_pass_wall_s": walls[0],
            "median_pass_wall_s": statistics.median(walls), "passes": len(walls)}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:  # quartiles need two values; none or one is its own
        q1 = median = q3 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def verdict(spread: dict, won: int, pairs: int, sign: float, bound: float,
            separated: bool):
    """"gain", "worse", "unresolved" or "held" for one metric's two sides;
    None without runs.

    A gain is at least nine tenths of the pairs won with the medians apart
    by more than the parent's interquartile range, in the change's favour.
    Worse is the change's median behind the parent's by more than ``bound``
    times the parent's median.  Otherwise a parent interquartile range wider
    than that bound leaves the metric unresolved, since the runs cannot show
    that it stayed within the bound, unless every change run beat every
    parent run (``separated``).  ``sign`` is +1 where higher is better.
    """
    parent, change = spread["parent"], spread["change"]
    if parent["median"] is None or change["median"] is None:
        return None
    ahead = sign * (change["median"] - parent["median"])
    noise = parent["q3"] - parent["q1"]
    allowed = bound * abs(parent["median"])
    if pairs and 10 * won >= 9 * pairs and ahead > noise:
        return "gain"
    if -ahead > allowed:
        return "worse"
    if noise > allowed and not separated:
        return "unresolved"
    return "held"


def cold_start(times: dict) -> float:
    """Set-up plus the first timed pass of one run's :func:`timing`.  A
    one-time cost that moved from set-up into the first pass leaves this
    sum where it was."""
    return times["setup_wall_s"] + times["first_pass_wall_s"]


def _wins(pairs: list[dict], sign: float) -> int:
    """Pairs (``{"parent": value, "change": value}``) the change won."""
    return sum(1 for p in pairs if sign * (p["change"] - p["parent"]) > 0)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each metric's spread on both sides, the change's wins and
    the verdict, and the same spreads and wins of :func:`cold_start`.

    ``runs`` holds ``{"workload", "seed", "side", "result"}`` entries, and
    ``timing`` where the run printed it; ``end_to_end`` is
    ``BENCHMARK.json``'s list of metrics, each with its ``name``, ``better``
    ("higher" or "lower") and ``bound``.  A pair is the two sides' runs of
    one workload and seed.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]

        def paired(value):
            """Per seed, each side's ``value(run)``; None leaves a side out."""
            by_seed = {}
            for r in mine:
                v = value(r)
                if v is not None:
                    by_seed.setdefault(r["seed"], {})[r["side"]] = v
            return by_seed

        block = {}
        wins = {}
        verdicts = {}
        for declared in end_to_end:
            metric = declared["name"]
            sign = 1.0 if declared["better"] == "higher" else -1.0
            by_seed = paired(lambda r: r["result"]["metrics"].get(metric, {}).get("value"))
            sides = {side: [p[side] for p in by_seed.values() if side in p]
                     for side in SIDES}
            block[metric] = {side: _spread(sides[side]) for side in SIDES}
            pairs = [p for p in by_seed.values() if len(p) == 2]
            won = _wins(pairs, sign)
            wins[metric] = f"{won} of {len(pairs)}"
            separated = all(sign * (c - p) > 0
                            for c in sides["change"] for p in sides["parent"])
            verdicts[metric] = verdict(
                block[metric], won, len(pairs), sign, declared["bound"], separated)
        block["all_correct"] = all(r["result"]["correct"] for r in mine)
        block["failed"] = sum(r["result"]["failed"] or 0 for r in mine)
        block["change_wins"] = wins
        block["verdicts"] = verdicts
        by_seed = paired(lambda r: cold_start(r["timing"]) if "timing" in r else None)
        pairs = [p for p in by_seed.values() if len(p) == 2]
        block["setup_plus_first_pass_s"] = {
            **{side: _spread([p[side] for p in by_seed.values() if side in p])
               for side in SIDES},
            "change_wins": f"{_wins(pairs, -1.0)} of {len(pairs)}",
        }
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
    return outcome(done.returncode, done.stdout, done.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--workloads", nargs="+",
                        help="workloads to run (default: all the change declares)")
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
        workloads = args.workloads or [w["name"] for w in declared["workloads"]]
        runs, machine = [], None
        for workload in workloads:
            for seed, sides in zip(seeds, run_order(len(seeds))):
                for side in sides:
                    seen, fields = _run(trees[side], workload, seed, seconds)
                    machine = machine or seen
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 **fields})
                    metrics = fields["result"]["metrics"]
                    values = {k: v["value"] for k, v in metrics.items()}
                    print(f"{workload} seed {seed} {side}: exit {fields['exit_code']} "
                          f"{json.dumps(values)}", file=sys.stderr)
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)

    doc = {
        "what": args.what,
        "command": shlex.join(["python3", "tools/bench_ab.py", *argv]),
        "parent": shas["parent"],
        "change": shas["change"],
        "pairs": {w: f"seeds {seeds[0]}-{seeds[-1]}" for w in workloads},
        "order": "alternating within each workload's pairs, parent first in the first "
                 f"pair; each run is bench/run.py --trace 0 for {seconds} s",
        # bench/run.py cannot read a SHA in an export; both are recorded above.
        "machine": {k: v for k, v in (machine or {}).items() if k != "git_sha"},
        "summary": summarize(runs, declared["end_to_end"]),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
