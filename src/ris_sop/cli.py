"""Experiment runner: JSON sweep configs in, deterministic CSV tables out.

The CLI has three subcommands: ``sweep`` evaluates a parameter grid with any
subset of the evaluators, ``validate`` checks a config document, prints its
canonical form and reports the Monte Carlo work it asks for, and ``oracle``
runs the two-tier quadrature cross-checks that certify the closed form at
the configured grid points.

All state flows through the config document, except that ``sweep --trials``
and ``--seed`` override its ``mc_trials`` and ``seed`` keys; environment
variables are deliberately not consulted.  A sweep's CSV output is
byte-identical for a given spec and seed irrespective of worker count.

Every evaluator, Monte Carlo included, is one ``ROUTES`` entry, which names
the schemes it serves, plus the ``SweepRow`` columns its cells fill.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import reprlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Callable

from .analytic import sop_closed_form
from .asymptotic import sop_asymptotic
from .errors import PACKAGE_ERRORS, ConfigError, ContractError
from .mcsim import (_MAX_VARIATES, SCHEMES, McEstimate, _estimates, _pass,
                    _usable_cpus, estimate_sop)
from .mcsim import estimate_noma_pair  # noqa: F401 - bench/tracing.py wraps this name
from .quadrature import sop_quad_approx_q, sop_quad_exact_q
from .sysmodel import SystemConfig

AXES = ("gamma0_db", "n_elements", "n_users", "d_sr", "d_rd", "d_re", "r_th")
_MAX_GRID = 1_000_000
#: Probabilities below quadrature/MC resolution are reported as exact zero.
SOP_FLOOR = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description; every spec, hand-built or parsed, checks its
    fields and stores its axes, schemes and evaluators in canonical order.

    ``axes`` holds (name, values) pairs over distinct ``AXES`` names, each
    with a non-empty list of values that ``base`` accepts; a value is stored
    as the field stores it (a float field as float).  No axes sweeps the base
    point alone, stored as a one-value ``gamma0_db`` axis.  Every scheme needs
    a requested evaluator whose ``ROUTES`` entry serves it.
    """

    base: SystemConfig
    axes: tuple[tuple[str, tuple], ...]
    schemes: tuple[str, ...]
    evaluators: tuple[str, ...]
    mc_trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "axes", self._checked_axes())
        for field, known in (("schemes", SCHEMES), ("evaluators", EVALUATORS)):
            given = getattr(self, field)
            if not isinstance(given, (list, tuple)) or not given:
                raise ConfigError(f"{field!r} must be a non-empty list")
            for name in given:  # `in` a tuple: an unhashable name is unknown
                if name not in known:
                    what = f"unknown {field[:-1]} {name!r}"
                    raise ConfigError(f"{what}; expected subset of {known}")
            object.__setattr__(self, field, tuple(n for n in known if n in given))
        served = {s for name in self.evaluators for s in ROUTES[name].schemes}
        for scheme in self.schemes:
            if scheme not in served:
                servers = ", ".join(
                    repr(name) for name, r in ROUTES.items() if scheme in r.schemes)
                raise ConfigError(f"no requested evaluator serves scheme {scheme!r}; "
                                  f"only {servers} does")
        trials, seed = self.mc_trials, self.seed
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
            raise ConfigError(f"mc_trials must be a positive integer, got {trials!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        per_slot = _work(self)[2]
        if per_slot * trials > _MAX_VARIATES:
            raise ConfigError(f"Monte Carlo draws {per_slot} variates per slot summed "
                              f"over the grid x {trials} trials = {per_slot * trials} "
                              f"variates, cap is {_MAX_VARIATES}")

    def _checked_axes(self) -> tuple[tuple[str, tuple], ...]:
        given = {}
        for name, values in self.axes:
            if name not in AXES:  # `in` a tuple: an unhashable name is unknown
                raise ConfigError(f"unknown key {name!r} in 'sweep'")
            if name in given:
                raise ConfigError(f"sweep axis {name!r} given twice")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep axis {name!r} must be a non-empty list")
            given[name] = values
        grid_size = math.prod(map(len, given.values()))
        if grid_size > _MAX_GRID:
            raise ConfigError(f"grid has {grid_size} points, cap is {_MAX_GRID}")
        axes = []
        for name in AXES:  # canonical axis order, leftmost slowest
            if name not in given:
                continue
            # Every SystemConfig check is per field, so checking each axis
            # value alone against the base checks every grid point; the
            # checked config hands back the value as stored.
            checked = []
            for value in given[name]:
                try:
                    point = dataclasses.replace(self.base, **{name: value})
                except ValueError as exc:
                    where = f"sweep axis {name!r} value {reprlib.repr(value)}"
                    raise ConfigError(f"invalid {where}: {exc}") from exc
                checked.append(getattr(point, name))
            axes.append((name, tuple(checked)))
        return tuple(axes) or (("gamma0_db", (self.base.gamma0_db,)),)

    def to_json(self) -> str:
        """Canonical JSON form; parsing it back yields an equal spec."""
        doc = {
            "base": dataclasses.asdict(self.base),
            "sweep": {name: list(values) for name, values in self.axes},
            "schemes": list(self.schemes),
            "evaluators": list(self.evaluators),
            "mc_trials": self.mc_trials,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2)


@dataclass
class SweepRow:
    """One (grid point, scheme) result row; None marks an absent value."""

    gamma0_db: float
    n_elements: int
    n_users: int
    d_sr: float
    d_rd: float
    d_re: float
    r_th: float
    scheme: str
    sop_closed: float | None = None
    sop_asym: float | None = None
    sop_quad_exact: float | None = None
    sop_quad_approx: float | None = None
    sop_mc: float | None = None
    sop_mc_ci_low: float | None = None
    sop_mc_ci_high: float | None = None
    mc_trials: int | None = None
    seed: int | None = None
    error: str | None = None


#: CSV columns: every SweepRow field in declaration order except ``error``.
_CSV_FIELDS = tuple(f for f in dataclasses.fields(SweepRow) if f.name != "error")
CSV_HEADER = ",".join(f.name for f in _CSV_FIELDS)


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def parse_config(document: str) -> SweepSpec:
    """Parse and validate a JSON sweep document, filling defaults.

    An empty object yields the default single-point sweep.  Unknown keys are
    rejected by name; malformed JSON is reported with line and column.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(
        doc, {"base", "sweep", "schemes", "evaluators", "mc_trials", "seed"}, "config"
    )

    base_doc = doc.get("base", {})
    if not isinstance(base_doc, dict):
        raise ConfigError("'base' must be an object")
    field_names = [f.name for f in dataclasses.fields(SystemConfig)]
    _reject_unknown(base_doc, set(field_names), "'base'")
    sweep_doc = doc.get("sweep", {})
    if not isinstance(sweep_doc, dict):
        raise ConfigError("'sweep' must be an object mapping axis -> values")
    try:
        base = SystemConfig(**base_doc)
    except ValueError as exc:
        raise ConfigError(f"invalid base configuration: {exc}") from exc
    return SweepSpec(
        base=base,
        axes=tuple(sweep_doc.items()),
        schemes=doc.get("schemes", ["OUS"]),
        evaluators=doc.get("evaluators", EVALUATORS),
        mc_trials=doc.get("mc_trials", 100_000),
        seed=doc.get("seed", 1),
    )


_MASK64 = (1 << 64) - 1


def _mix_seed(seed: int, index: int) -> int:
    # splitmix64 step: decorrelates per-point substreams from the sweep seed.
    x = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _floor(value: float) -> float:
    return 0.0 if value < SOP_FLOOR else value


def _grid_points(spec: SweepSpec):
    names = [name for name, _ in spec.axes]
    for combo in product(*(values for _, values in spec.axes)):
        yield dataclasses.replace(spec.base, **dict(zip(names, combo)))


@dataclass(frozen=True)
class Route:
    """One evaluator.  ``run(spec, cfg, seed, executor=None)`` maps each scheme
    it serves to that scheme's own result object at ``cfg``, or to the
    exception that stopped it; a route that runs Monte Carlo chunks runs them
    on ``executor`` when one is given.  ``cells(result, seed)`` is the
    ``SweepRow`` fields a result fills, and ``value(result)`` its SOP before
    the floor."""

    schemes: tuple[str, ...]
    run: Callable[..., dict]
    cells: Callable[[object, int], dict]
    value: Callable[[object], float]

    def ous_sop(self, spec: SweepSpec, cfg: SystemConfig, seed: int) -> float:
        """The OUS SOP at ``cfg``; the exception that stopped it is raised."""
        result = self.run(spec, cfg, seed)["OUS"]
        if isinstance(result, Exception):
            raise result
        return self.value(result)


def _caught(evaluate, *args, **kwargs):
    try:
        return evaluate(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - recorded per row
        return exc


def _analytic(column: str, evaluate, attr: str) -> Route:
    """An analytic route: it serves OUS alone, and the ``attr`` of
    ``evaluate(cfg)``'s result is the SOP that fills ``column``."""
    value = attrgetter(attr)
    return Route(("OUS",),
                 lambda spec, cfg, seed, executor=None: {"OUS": _caught(evaluate, cfg)},
                 lambda result, seed: {column: _floor(value(result))}, value)


def _mc_pass(schemes, n: int, m: int) -> tuple[tuple[str, ...], Exception | None]:
    """The schemes a point at N = ``n``, M = ``m`` runs one Monte Carlo pass
    for, and the refusal every other row records: the pass ``mcsim`` chooses
    for ``schemes``, or, without a NOMA pair (M = 1), OUS alone when asked."""
    try:
        _pass(schemes, n, m)
    except ContractError as exc:
        return ("OUS",) if "OUS" in schemes else (), exc
    return schemes, None


def _run_mc(spec: SweepSpec, cfg: SystemConfig, seed: int, executor=None) -> dict:
    """The point's one Monte Carlo pass (see :func:`_mc_pass`), its chunks on
    ``executor``: the OUS estimator for OUS alone, else the pass ``mcsim``
    chooses, which counts OUS on the NOMA draws (so NOMA_BU >= OUS exactly)."""
    run, refusal = _mc_pass(spec.schemes, cfg.n_elements, cfg.n_users)
    results = dict.fromkeys(spec.schemes, refusal)
    if run == ("OUS",):
        results["OUS"] = _caught(
            estimate_sop, cfg, "OUS", spec.mc_trials, seed, executor=executor)
    elif run:
        try:
            return _estimates(cfg, run, spec.mc_trials, seed, executor=executor)
        except Exception as exc:  # noqa: BLE001 - recorded per row
            return dict.fromkeys(spec.schemes, exc)
    return results


def _work(spec: SweepSpec) -> tuple[int, int, int]:
    """(grid points, Monte Carlo slots, variates per slot summed over the
    grid) of a sweep of ``spec``, counted from the spec alone; each point's
    pass is the one ``_run_mc`` runs."""
    axes = dict(spec.axes)
    points = math.prod(map(len, axes.values()))
    ns = axes.get("n_elements", (spec.base.n_elements,))
    ms = axes.get("n_users", (spec.base.n_users,))
    repeats = points // (len(ns) * len(ms))  # grid points per (N, M) pair
    passes = per_slot = 0
    if "mc" in spec.evaluators:
        for n, m in product(ns, ms):
            run, _ = _mc_pass(spec.schemes, n, m)
            if run:
                per_slot += repeats * _pass(run, n, m)[2]
                passes += repeats
    return points, passes * spec.mc_trials, per_slot


def _mc_cells(est: McEstimate, seed: int) -> dict:
    return {
        "sop_mc": _floor(est.sop_hat),
        "sop_mc_ci_low": _floor(est.ci_low),
        "sop_mc_ci_high": _floor(est.ci_high),
        "mc_trials": est.trials,
        "seed": seed,
    }


#: Evaluator -> Route: the one place that decides which evaluator serves which
#: scheme.  Each entry looks its functions up in this module at call time, so
#: a patched name is seen.
ROUTES = {
    "closed": _analytic("sop_closed", lambda cfg: sop_closed_form(cfg), "value"),
    "asymptotic": _analytic(
        "sop_asym", lambda cfg: sop_asymptotic(cfg), "sop_simplified"),
    "quad_exact": _analytic(
        "sop_quad_exact", lambda cfg: sop_quad_exact_q(cfg), "value"),
    "quad_approx": _analytic(
        "sop_quad_approx", lambda cfg: sop_quad_approx_q(cfg), "value"),
    "mc": Route(SCHEMES, _run_mc, _mc_cells, attrgetter("sop_hat")),
}
EVALUATORS = tuple(ROUTES)


def _evaluate_point(
    spec: SweepSpec, index: int, cfg: SystemConfig, *, executor: ThreadPoolExecutor
) -> list[SweepRow]:
    point_seed = _mix_seed(spec.seed, index)
    cells: dict[str, dict] = {scheme: {} for scheme in spec.schemes}
    errors: dict[str, list[str]] = {scheme: [] for scheme in spec.schemes}
    for name in spec.evaluators:
        route = ROUTES[name]
        if set(route.schemes).isdisjoint(spec.schemes):
            continue  # it serves none of the requested schemes
        results = route.run(spec, cfg, point_seed, executor=executor)
        for scheme in spec.schemes:
            result = results.get(scheme)
            if isinstance(result, Exception):
                errors[scheme].append(f"{name}: {result}")
            elif result is not None:
                cells[scheme].update(route.cells(result, point_seed))
    axes = {axis: getattr(cfg, axis) for axis in AXES}
    return [
        SweepRow(scheme=s, **axes, **cells[s], error="; ".join(errors[s]) or None)
        for s in spec.schemes
    ]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid; rows come back in grid-major order.

    Per-row evaluator failures are recorded on the row and the sweep keeps
    going.  Results are deterministic for a given spec regardless of
    ``workers``.  ``workers`` threads evaluate whole points, and every Monte
    Carlo chunk of every point runs on one pool sized to the usable CPUs, so
    at most that many chunk kernels run at once at any ``workers``.  Both
    pools live for this call only (see ``mcsim._per_chunk`` on forking).  An
    exception that escapes a point, Ctrl-C included, stops the sweep once
    the points already running finish: ``map``'s iterator cancels the queued
    ones, and the chunk pool outlives the point threads, so those points can
    still finish.
    """
    points = list(_grid_points(spec))
    with ThreadPoolExecutor(_usable_cpus()) as chunks:
        evaluate = partial(_evaluate_point, spec, executor=chunks)
        if workers <= 1:
            nested = list(map(evaluate, range(len(points)), points))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                nested = list(pool.map(evaluate, range(len(points)), points))
    return [row for group in nested for row in group]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def emit_csv(table: list[SweepRow]) -> str:
    """Render the result table; shortest round-trip decimals, empty nulls."""
    lines = [CSV_HEADER]
    for row in table:
        lines.append(",".join(_fmt(getattr(row, f.name)) for f in _CSV_FIELDS))
    return "\n".join(lines) + "\n"


#: Oracle tiers, (route, reference, agrees(value, ref)): closed form vs fitted-Q
#: quadrature; fitted vs exact Q only where exact >= 1e-5 (a NaN exact: skipped).
_ORACLE_CHECKS = (
    ("closed", "quad_approx", lambda v, ref: abs(v - ref) <= 1e-6 * abs(ref) + 1e-15),
    ("quad_approx", "quad_exact",
     lambda v, ref: not ref >= 1e-5 or abs(v - ref) / ref <= 0.05),
)
_ORACLE_ROUTES = tuple(dict.fromkeys(name for c in _ORACLE_CHECKS for name in c[:2]))


def _run_oracle(spec: SweepSpec) -> int:
    """Two-tier cross-check: closed form vs both quadrature routes.

    A point whose evaluation raises a package error is reported as a FAIL
    row naming the exception, and the remaining points still run.
    """
    failures = 0
    for index, cfg in enumerate(_grid_points(spec)):
        where = (
            f"point {index} gamma0_db={cfg.gamma0_db} N={cfg.n_elements} "
            f"M={cfg.n_users}"
        )
        seed = _mix_seed(spec.seed, index)
        try:
            values = {
                name: ROUTES[name].ous_sop(spec, cfg, seed) for name in _ORACLE_ROUTES}
        except PACKAGE_ERRORS as exc:
            failures += 1
            print(f"{where}: {type(exc).__name__}: {exc} -> FAIL")
            continue
        ok = all(agrees(values[route], values[ref])
                 for route, ref, agrees in _ORACLE_CHECKS)
        failures += 0 if ok else 1
        shown = " ".join(f"{name}={value:.6e}" for name, value in values.items())
        print(f"{where}: {shown} -> {'PASS' if ok else 'FAIL'}")
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} points)"
    print(f"oracle: {verdict}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ris-sop",
        description="Secrecy outage sweeps for the RIS-aided multi-user downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)

    p_val = sub.add_parser("validate", help="check a config document")
    p_val.add_argument("--config", required=True)

    p_oracle = sub.add_parser("oracle", help="run the quadrature cross-checks")
    p_oracle.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = parse_config(fh.read())
        if args.command == "sweep":
            overrides = {"mc_trials": args.trials, "seed": args.seed}
            spec = dataclasses.replace(
                spec, **{k: v for k, v in overrides.items() if v is not None}
            )
            # Fail before the grid runs, not after; append mode truncates
            # nothing, so an existing file keeps its contents until then.
            open(args.out, "a", encoding="utf-8").close()
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(spec.to_json())
        points, slots, per_slot = _work(spec)
        print(f"work: {points} grid points, {slots} Monte Carlo slots, {per_slot} "
              f"variates per slot summed over the grid, "
              f"{per_slot * spec.mc_trials} in all", file=sys.stderr)
        return 0

    if args.command == "oracle":
        return _run_oracle(spec)

    table = run_sweep(spec, workers=max(1, args.workers))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_csv(table))
    n_errors = sum(1 for row in table if row.error)
    for row in table:
        if row.error:
            print(f"row error ({row.scheme} @ {row.gamma0_db} dB): {row.error}",
                  file=sys.stderr)
    return 0 if n_errors == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
