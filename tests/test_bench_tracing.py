"""The benchmark's tracer wraps package functions by module attribute name,
so a rename or deletion under ``src/`` must not leave one of them dangling,
and the sweep must call each evaluator through the name the tracer wraps."""

import importlib.util
import sys
from pathlib import Path

from ris_sop.cli import parse_config, run_sweep

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_a_traced_sweep_point_calls_each_evaluator_once(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sweep = parse_config(
        '{"evaluators": ["closed", "asymptotic", "quad_exact", "quad_approx"]}'
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        run_sweep(sweep)
    index = tracing.SpanIndex(tracer.spans)
    for name in ("sop_closed_form", "sop_asymptotic", "sop_quad_exact_q",
                 "sop_quad_approx_q", "_evaluate_point"):
        assert index.count(f"ris_sop.cli.{name}") == 1, name
