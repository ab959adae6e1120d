"""Experiment runner: JSON sweep configs in, deterministic CSV tables out.

The CLI has three subcommands: ``sweep`` evaluates a parameter grid with any
subset of the evaluators, ``validate`` checks a config document and prints
its canonical form, and ``oracle`` runs the two-tier quadrature cross-checks
that certify the closed form at the configured grid points.

All state flows through the config document (environment variables are
deliberately not consulted), and a sweep's CSV output is byte-identical for
a given spec and seed irrespective of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

from .analytic import sop_closed_form
from .asymptotic import sop_asymptotic
from .errors import PACKAGE_ERRORS, ConfigError
from .mcsim import SCHEMES, estimate_noma_pair, estimate_sop
from .quadrature import sop_quad_approx_q, sop_quad_exact_q
from .sysmodel import SystemConfig

AXES = ("gamma0_db", "n_elements", "n_users", "d_sr", "d_rd", "d_re", "r_th")
EVALUATORS = ("closed", "asymptotic", "quad_exact", "quad_approx", "mc")
_INT_FIELDS = {"n_elements", "n_users"}
_MAX_GRID = 1_000_000
#: Probabilities below quadrature/MC resolution are reported as exact zero.
SOP_FLOOR = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep description: base point, axes, schemes, evaluators."""

    base: SystemConfig
    axes: tuple[tuple[str, tuple], ...]
    schemes: tuple[str, ...]
    evaluators: tuple[str, ...]
    mc_trials: int
    seed: int

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
_PARSERS = {"int": int, "str": str}


def _parse_field(field: dataclasses.Field, text: str):
    if text == "" and field.default is None:
        return None
    # Annotations are strings here ("float", "int | None", ...).
    return _PARSERS.get(field.type.split(" |")[0], float)(text)


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _coerce(name: str, value):
    if name in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{name}: a {value.bit_length()}-bit integer leaves the float64 range"
        ) from None


def _check_trials(value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"mc_trials must be a positive integer, got {value!r}")
    return value


def _check_seed(value):
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {value!r}")
    return value


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
    _reject_unknown(sweep_doc, set(AXES), "'sweep'")
    axes = []
    grid_size = 1
    for name in AXES:  # canonical axis order, leftmost slowest
        if name not in sweep_doc:
            continue
        values = sweep_doc[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {name!r} must be a non-empty list")
        axes.append((name, tuple(_coerce(name, v) for v in values)))
        grid_size *= len(values)
    if grid_size > _MAX_GRID:
        raise ConfigError(f"grid has {grid_size} points, cap is {_MAX_GRID}")
    where = "base configuration"
    try:
        base = SystemConfig(
            **{k: _coerce(k, v) for k, v in base_doc.items()}
        )
        # Every SystemConfig check is per field, so checking each axis value
        # alone against the base checks every grid point.
        for name, values in axes:
            for value in values:
                where = f"sweep axis {name!r} value {value!r}"
                dataclasses.replace(base, **{name: value})
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    axes = axes or [("gamma0_db", (base.gamma0_db,))]

    schemes_doc = doc.get("schemes", ["OUS"])
    if not isinstance(schemes_doc, list) or not schemes_doc:
        raise ConfigError("'schemes' must be a non-empty list")
    for s in schemes_doc:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}; expected subset of {SCHEMES}")
    schemes = tuple(s for s in SCHEMES if s in schemes_doc)

    evals_doc = doc.get("evaluators", list(EVALUATORS))
    if not isinstance(evals_doc, list) or not evals_doc:
        raise ConfigError("'evaluators' must be a non-empty list")
    for e in evals_doc:
        if e not in EVALUATORS:
            raise ConfigError(f"unknown evaluator {e!r}; expected subset of {EVALUATORS}")
    evaluators = tuple(e for e in EVALUATORS if e in evals_doc)

    return SweepSpec(
        base=base,
        axes=tuple(axes),
        schemes=schemes,
        evaluators=evaluators,
        mc_trials=_check_trials(doc.get("mc_trials", 100_000)),
        seed=_check_seed(doc.get("seed", 1)),
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


def _evaluate_point(spec: SweepSpec, index: int, cfg: SystemConfig) -> list[SweepRow]:
    rows = []
    point_seed = _mix_seed(spec.seed, index)
    mc_results: dict[str, object] = {}
    errors: dict[str, list[str]] = {s: [] for s in spec.schemes}
    if "mc" in spec.evaluators:
        if "OUS" in spec.schemes:
            try:
                mc_results["OUS"] = estimate_sop(
                    cfg, "OUS", spec.mc_trials, point_seed, mode="physical"
                )
            except Exception as exc:  # noqa: BLE001 - recorded per row
                errors["OUS"].append(f"mc: {exc}")
        if "NOMA_BU" in spec.schemes or "NOMA_WU" in spec.schemes:
            try:
                bu, wu = estimate_noma_pair(cfg, spec.mc_trials, point_seed)
                mc_results["NOMA_BU"] = bu
                mc_results["NOMA_WU"] = wu
            except Exception as exc:  # noqa: BLE001
                for s in ("NOMA_BU", "NOMA_WU"):
                    if s in errors:
                        errors[s].append(f"mc: {exc}")

    analytic_cols: dict[str, float] = {}
    if "OUS" in spec.schemes:
        for name, column, fn in (
            ("closed", "sop_closed", lambda: sop_closed_form(cfg).value),
            ("asymptotic", "sop_asym", lambda: sop_asymptotic(cfg).sop_simplified),
            ("quad_exact", "sop_quad_exact", lambda: sop_quad_exact_q(cfg).value),
            ("quad_approx", "sop_quad_approx", lambda: sop_quad_approx_q(cfg).value),
        ):
            if name not in spec.evaluators:
                continue
            try:
                analytic_cols[column] = _floor(fn())
            except Exception as exc:  # noqa: BLE001
                errors["OUS"].append(f"{name}: {exc}")

    for scheme in spec.schemes:
        row = SweepRow(
            scheme=scheme,
            **{axis: getattr(cfg, axis) for axis in AXES},
            **(analytic_cols if scheme == "OUS" else {}),
        )
        est = mc_results.get(scheme)
        if est is not None:
            row.sop_mc = _floor(est.sop_hat)
            row.sop_mc_ci_low = _floor(est.ci_low)
            row.sop_mc_ci_high = _floor(est.ci_high)
            row.mc_trials = est.trials
            row.seed = point_seed
        row.error = "; ".join(errors[scheme]) or None
        rows.append(row)
    return rows


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid; rows come back in grid-major order.

    Per-row evaluator failures are recorded on the row and the sweep keeps
    going.  Results are deterministic for a given spec regardless of
    ``workers``.
    """
    points = list(_grid_points(spec))
    if workers <= 1:
        nested = [_evaluate_point(spec, i, cfg) for i, cfg in enumerate(points)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_evaluate_point, spec, i, cfg)
                for i, cfg in enumerate(points)
            ]
            nested = [f.result() for f in futures]
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


def parse_csv(text: str) -> list[SweepRow]:
    """Inverse of :func:`emit_csv` (the error column is not serialized)."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ConfigError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_CSV_FIELDS):
            raise ConfigError(
                f"expected {len(_CSV_FIELDS)} fields, got {len(parts)}"
            )
        rows.append(SweepRow(**{
            f.name: _parse_field(f, part) for f, part in zip(_CSV_FIELDS, parts)
        }))
    return rows


def _run_oracle(spec: SweepSpec, out=None) -> int:
    """Two-tier cross-check: closed form vs both quadrature routes.

    A point whose evaluation raises a package error is reported as a FAIL
    row naming the exception, and the remaining points still run.
    """
    out = sys.stdout if out is None else out
    failures = 0
    for index, cfg in enumerate(_grid_points(spec)):
        where = (
            f"point {index} gamma0_db={cfg.gamma0_db} N={cfg.n_elements} "
            f"M={cfg.n_users}"
        )
        try:
            closed = sop_closed_form(cfg).value
            approx = sop_quad_approx_q(cfg).value
            exact = sop_quad_exact_q(cfg).value
        except PACKAGE_ERRORS as exc:
            failures += 1
            print(f"{where}: {type(exc).__name__}: {exc} -> FAIL", file=out)
            continue
        tier_a = abs(closed - approx) <= 1e-6 * abs(approx) + 1e-15
        tier_b = True
        if exact >= 1e-5:
            tier_b = abs(approx - exact) / exact <= 0.05
        ok = tier_a and tier_b
        failures += 0 if ok else 1
        print(
            f"{where}: closed={closed:.6e} quad_approx={approx:.6e} "
            f"quad_exact={exact:.6e} -> {'PASS' if ok else 'FAIL'}",
            file=out,
        )
    print(
        f"oracle: {'PASS' if failures == 0 else f'FAIL ({failures} points)'}",
        file=out,
    )
    return 0 if failures == 0 else 1


def _load_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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
        spec = _load_spec(args.config)
        if args.command == "sweep" and args.trials is not None:
            spec = dataclasses.replace(spec, mc_trials=_check_trials(args.trials))
        if args.command == "sweep" and args.seed is not None:
            spec = dataclasses.replace(spec, seed=_check_seed(args.seed))
        if args.command == "sweep":
            # Fail before the grid runs, not after; append mode truncates
            # nothing, so an existing file keeps its contents until then.
            open(args.out, "a", encoding="utf-8").close()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(spec.to_json())
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
