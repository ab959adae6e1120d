"""ris-sop benchmark: sweep throughput, Monte Carlo time to a 1% interval,
and a traced per-module breakdown.

Run from anywhere; the package is imported from the ``src/`` directory next
to this one:

    python3 bench/run.py --workload design-grid --seed 1 --seconds 12 --trace 0

Every workload goes through ``cli.run_sweep`` plus ``cli.emit_csv``, the path
``ris-sop sweep`` takes.  With ``--trace 0`` the sweep is repeated untraced
for ``--seconds`` (at least twice) and the end-to-end metrics are printed; with
``--trace 1`` the same untraced passes are followed by one traced pass, the
per-layer metrics are printed and the spans are written to
``.bench_out/trace-<workload>-<seed>.jsonl``.  Outputs are checked in every
run; the last line of standard output is one JSON object, and the exit code
is 1 when a correctness or determinism check fails.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; the set-up probes inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-up probes per run; the median is reported.
SETUP_PROBES = 5
#: Wilson interval z, as ``ris_sop.mcsim`` uses it.
WILSON_Z = 1.959963984540054
#: Speed calibration: a fixed pure-Python loop, timed in thread CPU time
#: every CAL_PERIOD_S while the run measures.  CAL_REF_S is the loop's time
#: on an uncontended core of the host the baseline was taken on (NOTES.md).
CAL_STEPS = 20_000
CAL_PERIOD_S = 0.05
CAL_REF_S = 0.75e-3
#: Sanity bound on OUS Monte Carlo against the exact-Q quadrature.  The
#: physical-vs-model gap at N=64 reaches +56% (0 dB, M=8), so this catches
#: a broken kernel, not a model mismatch.
MC_MODEL_FACTOR = 2.0


@dataclasses.dataclass(frozen=True)
class Workload:
    doc: dict
    workers: int


WORKLOADS = {
    # Multinomial term sums dominate: one M=16 point costs ~123 ms, so the
    # 26 M=16 points take ~83% of the sweep; mcsim does no work here.
    "design-grid": Workload(
        doc={
            "sweep": {
                "gamma0_db": list(range(-10, 55, 5)),
                "n_elements": [64, 256],
                "n_users": [1, 3, 8, 16],
            },
            "schemes": ["OUS"],
            "evaluators": ["closed", "asymptotic", "quad_exact", "quad_approx"],
        },
        workers=1,
    ),
    # Quadrature refinement dominates, including the two M=1, N=256,
    # d_re=38 m points that stall in cancellation for seconds each.
    # d_re >= 40 m is left out for cost (see NOTES.md).
    "eav-distance": Workload(
        doc={
            "sweep": {
                "gamma0_db": [-10, 0],
                "n_elements": [64, 256],
                "n_users": [1, 3],
                "d_re": [10, 20, 30, 34, 38],
            },
            "schemes": ["OUS"],
            "evaluators": ["closed", "quad_exact", "quad_approx"],
        },
        workers=1,
    ),
    # Plain single-threaded OUS Monte Carlo; the chunk kernel does the work.
    "mc-ous": Workload(
        doc={
            "base": {"n_elements": 64, "n_users": 3},
            "sweep": {"gamma0_db": [0, 20, 40]},
            "schemes": ["OUS"],
            "evaluators": ["mc"],
            "mc_trials": 300_000,
        },
        workers=1,
    ),
    # NOMA pair plus OUS on two sweep threads: complex fading, worst-user
    # selection, the power grid and two passes per point.
    "noma-2w": Workload(
        doc={
            "base": {"n_elements": 64},
            "sweep": {"gamma0_db": [0, 20], "n_users": [3, 8]},
            "schemes": ["OUS", "NOMA_BU", "NOMA_WU"],
            "evaluators": ["mc"],
            "mc_trials": 61_000,
        },
        workers=2,
    ),
}

_ANALYTIC_COLUMNS = {
    "closed": "sop_closed",
    "asymptotic": "sop_asym",
    "quad_exact": "sop_quad_exact",
    "quad_approx": "sop_quad_approx",
}
_VALUE_COLUMNS = tuple(_ANALYTIC_COLUMNS.values()) + (
    "sop_mc", "sop_mc_ci_low", "sop_mc_ci_high")


def _import_package():
    """Import ris_sop from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "ris_sop" / "__init__.py").is_file():
        print(f"error: no ris_sop package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ris_sop

    if Path(ris_sop.__file__).resolve().parent != SRC / "ris_sop":
        print(f"error: ris_sop imported from {ris_sop.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def machine_block() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD's commit, read from .git in this checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


class SpeedSampler:
    """Samples the CPU speed other tenants of the host leave to this process.

    A side thread times CAL_STEPS additions in thread CPU time, which grows
    when the host slows this CPU down but not while this thread waits, and
    which this process's own work on the other core does not change
    measurably.  ``factor`` turns a wall time into seconds at the reference
    speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic end, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.is_set():
            start = time.thread_time()
            total = 0
            for i in range(CAL_STEPS):
                total += i
            self.samples.append((time.monotonic(), time.thread_time() - start))
            self._stop.wait(CAL_PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the median sample taken in [start, end]."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:  # an interval shorter than the period: nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return CAL_REF_S / statistics.median(inside)


def measure_setup(doc: str) -> list[tuple[float, float]]:
    """(start, end) monotonic times from a fresh interpreter to a parsed SweepSpec."""
    probe = BENCH_DIR / "setup_probe.py"
    intervals = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), doc],
            capture_output=True, text=True, timeout=60, check=True,
        )
        intervals.append((start, float(done.stdout.strip().splitlines()[-1])))
    return intervals


def one_pass(spec, workers: int):
    """One ``ris-sop sweep``: (rows, csv text, (start, end) monotonic)."""
    from ris_sop import cli

    start = time.monotonic()
    rows = cli.run_sweep(spec, workers=workers)
    text = cli.emit_csv(rows)
    return rows, text, (start, time.monotonic())


def timed_passes(spec, workers: int, seconds: float):
    """Repeat the sweep until ``seconds`` have passed, and at least twice.

    Two passes at least, so that every run compares the CSV of two passes
    with the same seed and reports a median over more than one pass.
    """
    intervals, texts = [], []
    start = time.monotonic()
    while len(intervals) < 2 or time.monotonic() - start < seconds:
        rows, text, interval = one_pass(spec, workers)
        intervals.append(interval)
        texts.append(text)
    return rows, texts, intervals


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


def _half_width(row) -> float:
    return 0.5 * (row.sop_mc_ci_high - row.sop_mc_ci_low)


def _points(spec, rows):
    per_point = len(spec.schemes)
    for i in range(0, len(rows), per_point):
        yield {row.scheme: row for row in rows[i:i + per_point]}


def call_counts(spec, rows) -> tuple[int, int]:
    """(evaluator calls attempted, calls that raised) in one sweep.

    A call that raised leaves its column empty; the MC columns of the NOMA
    rows come from one shared ``estimate_noma_pair`` call per point.
    """
    analytic = [e for e in spec.evaluators if e != "mc"]
    attempted = failed = 0
    for point in _points(spec, rows):
        ous = point.get("OUS")
        if ous is not None:
            for name in analytic:
                attempted += 1
                failed += getattr(ous, _ANALYTIC_COLUMNS[name]) is None
        if "mc" in spec.evaluators:
            if ous is not None:
                attempted += 1
                failed += ous.sop_mc is None
            noma = [r for s, r in point.items() if s != "OUS"]
            if noma:
                attempted += 1
                failed += noma[0].sop_mc is None
    return attempted, failed


def check_rows(spec, rows) -> tuple[list[str], list[str]]:
    """Range, tier A/B and Monte Carlo interval checks.

    Returns (misses, findings): a miss fails the run, a finding is a known
    rounding defect of the program that is printed but does not.
    """
    from ris_sop.cli import SOP_FLOOR

    misses, findings = [], []
    analytic = [_ANALYTIC_COLUMNS[e] for e in spec.evaluators if e != "mc"]
    for row in rows:
        where = (f"{row.scheme} @ {row.gamma0_db} dB N={row.n_elements} "
                 f"M={row.n_users} d_re={row.d_re}")
        expected = (analytic if row.scheme == "OUS" else []) + (
            ["sop_mc"] if "mc" in spec.evaluators else [])
        missing = [c for c in expected if getattr(row, c) is None]
        if bool(missing) != bool(row.error):
            misses.append(f"{where}: error {row.error!r} with missing {missing}")
        for column in _VALUE_COLUMNS:
            value = getattr(row, column)
            if value is not None and not 0.0 <= value <= 1.0:
                misses.append(f"{where}: {column}={value!r} outside [0, 1]")

        closed, approx, exact = row.sop_closed, row.sop_quad_approx, row.sop_quad_exact
        if closed is not None and approx is not None:
            # Tier A.  The absolute floor is the float64 rounding of the
            # closed form's 1 - total, an alternating sum whose binomial
            # weights add up to ~2^M (see NOTES.md).  A value below
            # SOP_FLOOR is printed as 0.0, so a 0.0 only has to sit next to
            # a value that small.
            floor = max(1e-15, 2.0**row.n_users * sys.float_info.epsilon)
            tier_a = abs(closed - approx) <= 1e-6 * approx + floor
            if min(closed, approx) == 0.0:
                tier_a = max(closed, approx) <= SOP_FLOOR * (1 + 2e-6) + floor
            if not tier_a:
                misses.append(f"{where}: tier A closed={closed!r} quad_approx={approx!r}")
        if approx is not None and exact is not None and exact >= 1e-5:
            if abs(approx - exact) / exact > 0.05:
                misses.append(f"{where}: tier B quad_approx={approx!r} quad_exact={exact!r}")

        if row.sop_mc is not None:
            lo, hi = row.sop_mc_ci_low, row.sop_mc_ci_high
            if not lo <= row.sop_mc <= hi:
                # At sop_hat = 1 the Wilson upper bound can round to one ulp
                # below 1.0 (NOTES.md); report that as a finding, not a miss.
                slack = 4 * sys.float_info.epsilon
                if lo - slack <= row.sop_mc <= hi + slack:
                    findings.append(f"{where}: sop_mc={row.sop_mc!r} outside "
                                    f"[{lo!r}, {hi!r}] by rounding")
                else:
                    misses.append(f"{where}: sop_mc outside its own interval")
            if row.scheme in ("OUS", "NOMA_BU") and row.sop_mc == 0.0:
                misses.append(f"{where}: no outage in {row.mc_trials} trials")

    for point in _points(spec, rows):
        ous, bu = point.get("OUS"), point.get("NOMA_BU")
        if ous is None or bu is None or ous.sop_mc is None or bu.sop_mc is None:
            continue
        # Statistical: OUS and NOMA draw the user links from different streams.
        if bu.sop_mc < ous.sop_mc - (_half_width(ous) + _half_width(bu)):
            misses.append(f"NOMA_BU {bu.sop_mc!r} below OUS {ous.sop_mc!r} "
                          f"beyond both intervals @ {ous.gamma0_db} dB M={ous.n_users}")
    return misses, findings


def check_mc_against_model(spec, rows) -> list[str]:
    """OUS Monte Carlo within a factor MC_MODEL_FACTOR of exact-Q quadrature."""
    from ris_sop.cli import AXES
    from ris_sop.quadrature import sop_quad_exact_q

    misses = []
    for row in rows:
        if row.scheme != "OUS" or row.sop_mc is None:
            continue
        cfg = dataclasses.replace(spec.base, **{a: getattr(row, a) for a in AXES})
        model = sop_quad_exact_q(cfg).value
        if not model / MC_MODEL_FACTOR <= row.sop_mc <= model * MC_MODEL_FACTOR:
            misses.append(f"OUS MC {row.sop_mc!r} vs quad_exact {model!r} "
                          f"@ {row.gamma0_db} dB M={row.n_users}")
    return misses


def _interval_rows(rows):
    """Monte Carlo rows with 0 < outages < trials."""
    return [r for r in rows if r.sop_mc is not None and 0.0 < r.sop_mc < 1.0]


def interval_factor(rows) -> float:
    """max (half_width / sop_hat / 0.01)^2 over ``_interval_rows``.

    Projects a pass's wall time to the time at which every such row's 95%
    interval is 1% of its estimate.  A sweep without Monte Carlo rows is at
    quadrature tolerance after one pass, so its factor is 1.
    """
    return max(((_half_width(r) / r.sop_mc / 0.01) ** 2 for r in _interval_rows(rows)),
               default=1.0)


def rel_var_per_slot(rows) -> float:
    """max trials * (stderr / sop_hat)^2 over ``_interval_rows``."""
    return max((r.mc_trials * (_half_width(r) / WILSON_Z / r.sop_mc) ** 2
                for r in _interval_rows(rows)), default=0.0)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _median_ms(fn, repeats: int = 21) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from ris_sop import cli

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    wl = WORKLOADS[workload]
    doc = json.dumps(dict(wl.doc, seed=seed))
    spec = cli.parse_config(doc)
    n_points = math.prod(len(values) for _, values in spec.axes)
    machine = machine_block()

    with SpeedSampler() as sampler:
        setup = [] if trace else measure_setup(doc)
        rows, texts, passes = timed_passes(spec, wl.workers, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [end - start for start, end in passes]
    factors = [sampler.factor(start, end) for start, end in passes]
    # End-to-end times are seconds at the reference CPU speed (NOTES.md).
    ref_walls = [w * f for w, f in zip(walls, factors)]
    ref_setup = [(end - start) * sampler.factor(start, end) for start, end in setup]

    misses, findings = check_rows(spec, rows)
    misses += check_mc_against_model(spec, rows)
    if any(text != texts[0] for text in texts):
        misses.append("CSV differs between passes with the same seed")
    if wl.workers > 1:
        _, single, _ = one_pass(spec, 1)
        if single != texts[0]:
            misses.append(f"CSV at workers={wl.workers} differs from workers=1")

    attempted, failed = call_counts(spec, rows)
    attempted *= len(walls)
    failed *= len(walls)
    wall = statistics.median(walls)
    summary = {"passes": len(walls), "points": n_points, "workers": wl.workers,
               "failed_frac": failed / attempted, "evaluator_calls": attempted,
               "wall_s": walls, "speed_factor": factors}

    if trace:
        from tracing import SpanIndex, Tracer, installed, layer_metrics

        tracer = Tracer()
        with installed(tracer):
            _, traced_text, (start, end) = one_pass(spec, wl.workers)
        traced_wall = end - start
        if traced_text != texts[0]:
            misses.append("traced CSV differs from the untraced CSV")
        index = SpanIndex(tracer.spans)
        values, notes = layer_metrics(index, traced_wall, wl.workers)
        values["cli.parse_config_ms"] = _median_ms(lambda: cli.parse_config(doc))
        values["cli.emit_csv_ms"] = _median_ms(lambda: cli.emit_csv(rows))
        values["mcsim.rel_var_per_slot"] = rel_var_per_slot(rows)
        values["trace_overhead"] = traced_wall / wall
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
        index.dump(trace_path, {
            "workload": workload, "seed": seed, "machine": machine,
            "traced_wall_s": traced_wall, "untraced_wall_s": wall,
            "metrics": values, "notes": notes, **summary,
        })
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        units = per_layer
    else:
        notes = {}
        values = {
            "setup_s": statistics.median(ref_setup),
            "points_per_s": statistics.median(n_points / w for w in ref_walls),
            "s_to_1pct": statistics.median(ref_walls) * interval_factor(rows),
            "peak_rss_mb": peak_rss_mb,
        }
        summary["setup_wall_s"] = [end - start for start, end in setup]
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    print(json.dumps({"workload": workload, "seed": seed, "machine": machine, **summary}))
    for finding in findings:
        print(f"FINDING: {finding}")
    for miss in misses:
        print(f"CHECK FAILED: {miss}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]:8s} {notes.get(name, '')}")
    print(f"{'failed_frac':40s} {summary['failed_frac']:14.6g} "
          f"({failed} of {attempted} evaluator calls)")
    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if not misses else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    _import_package()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
