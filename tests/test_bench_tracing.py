"""The benchmark's tracer wraps package functions by module attribute name,
so a rename or deletion under ``src/`` must not leave one of them dangling,
and the sweep must call each evaluator through the name the tracer wraps."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ris_sop.cli import parse_config, run_sweep

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(tracing):
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_a_traced_sweep_point_calls_each_evaluator_once(tracing):
    sweep = parse_config(
        '{"evaluators": ["closed", "asymptotic", "quad_exact", "quad_approx"]}'
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        run_sweep(sweep)
    index = tracing.SpanIndex(tracer.spans)
    for name in ("sop_closed_form", "sop_asymptotic", "sop_quad_exact_q",
                 "sop_quad_approx_q", "_evaluate_point"):
        assert index.count(f"ris_sop.cli.{name}") == 1, name


def test_a_traced_monte_carlo_sweep_calls_the_ous_estimator_once_per_point(tracing):
    # The benchmark's mcsim.estimate_ms reads these spans: the mc route must
    # look estimate_sop up in ris_sop.cli when it runs, not when it is built.
    sweep = parse_config(
        '{"sweep": {"gamma0_db": [0, 10, 20]}, "evaluators": ["mc"], "mc_trials": 200}'
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        run_sweep(sweep)
    index = tracing.SpanIndex(tracer.spans)
    assert index.count("ris_sop.cli.estimate_sop") == 3
    assert index.count("ris_sop.cli._evaluate_point") == 3


def _chunk_spans(tracing, schemes):
    """(OUS, NOMA) chunk-kernel spans of a traced two-point Monte Carlo sweep
    of ``schemes`` at 40,000 trials: three chunks per point."""
    sweep = parse_config(json.dumps({
        "sweep": {"gamma0_db": [0, 20]}, "schemes": schemes, "evaluators": ["mc"],
        "mc_trials": 40_000,
    }))
    with tracing.installed(tracing.Tracer()) as tracer:
        run_sweep(sweep)
    index = tracing.SpanIndex(tracer.spans)
    return (index.count("ris_sop.mcsim._ous_chunk"),
            index.count("ris_sop.mcsim._noma_chunk"))


def test_a_traced_paired_sweep_records_one_noma_span_per_chunk(tracing):
    # The pass table must look its kernels up when a pass runs, or the
    # benchmark's wrappers see no chunk.
    assert _chunk_spans(tracing, ["OUS", "NOMA_BU"]) == (0, 6)


def test_a_traced_ous_sweep_records_one_ous_span_per_chunk(tracing):
    assert _chunk_spans(tracing, ["OUS"]) == (6, 0)


def _unused_reimports():
    """(module, name) for each name an ``# noqa: F401`` import under ``src/``
    binds: a name kept in a module only so that something outside uses it."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        names = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names
        ]
        if names:
            parts = path.relative_to(ROOT / "src").with_suffix("").parts
            module = importlib.import_module(
                ".".join(part for part in parts if part != "__init__"))
            found += [(module, name) for name in names]
    return found


def test_every_unused_reimport_is_a_trace_target(tracing):
    # The bench-only names live in TARGETS, so they go when the bench stops
    # wrapping them.
    targets = {(module, attr) for module, attr, _ in tracing.TARGETS}
    found = _unused_reimports()
    assert found
    for module, name in found:
        assert (module, name) in targets, f"{module.__name__}.{name}"
