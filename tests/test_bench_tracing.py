"""The benchmark's tracer wraps package functions by module attribute name,
so a rename or deletion under ``src/`` must not leave one of them dangling,
and the sweep must call each evaluator through the name the tracer wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ris_sop.cli import parse_config, run_sweep

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
