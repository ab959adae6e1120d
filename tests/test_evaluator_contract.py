"""Every analytic evaluator, anywhere in the validated configuration domain,
returns a probability in [0, 1] or raises a package error, and every
quadrature call converges within its subdivision budget."""

from hypothesis import given, settings, strategies as st

from ris_sop import quadrature
from ris_sop.analytic import sop_closed_form
from ris_sop.asymptotic import sop_asymptotic, sop_asymptotic_closed
from ris_sop.errors import PACKAGE_ERRORS
from ris_sop.quadrature import (
    SOP_MAX_SUBDIVISIONS,
    integrate_semi_infinite,
    sop_quad_approx_q,
    sop_quad_asymptotic,
    sop_quad_exact_q,
)
from ris_sop.sysmodel import SystemConfig

EVALUATORS = {
    "closed": lambda cfg: [sop_closed_form(cfg).value],
    "asymptotic": lambda cfg: [
        sop_asymptotic(cfg).sop_simplified, sop_asymptotic_closed(cfg)
    ],
    "quad_exact": lambda cfg: [sop_quad_exact_q(cfg).value],
    "quad_approx": lambda cfg: [sop_quad_approx_q(cfg).value],
    "quad_asymptotic": lambda cfg: [sop_quad_asymptotic(cfg).value],
}

configs = st.builds(
    SystemConfig,
    gamma0_db=st.floats(-60.0, 150.0),
    n_elements=st.integers(1, 65536),
    n_users=st.integers(1, 16),
    r_th=st.floats(0.01, 8.0),
    d_re=st.floats(1.0, 500.0),
)


@settings(derandomize=True, deadline=2000, max_examples=100)
@given(cfg=configs)
def test_evaluators_return_a_probability_or_a_package_error(cfg):
    subdivisions = []  # one entry per quadrature call that converged
    original = integrate_semi_infinite

    def counted(spec, lambda_scale):
        res = original(spec, lambda_scale)
        subdivisions.append(res.subdivisions)
        return res

    quadrature.integrate_semi_infinite = counted
    try:
        for name, evaluate in EVALUATORS.items():
            try:
                values = evaluate(cfg)
            except PACKAGE_ERRORS:
                continue
            assert all(0.0 <= v <= 1.0 for v in values), (name, values)
    finally:
        quadrature.integrate_semi_infinite = original
    assert len(subdivisions) == 3, "a quadrature call raised"
    assert max(subdivisions) <= SOP_MAX_SUBDIVISIONS
