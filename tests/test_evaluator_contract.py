"""Every analytic evaluator, anywhere in the validated configuration domain,
returns a probability in [0, 1] or raises a package error, with no numpy
warning on the way; every quadrature call converges within its subdivision
budget, and the closed form agrees with the fitted-Q quadrature it evaluates
analytically."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ris_sop import quadrature
from ris_sop.asymptotic import sop_asymptotic_closed
from ris_sop.cli import ROUTES
from ris_sop.errors import PACKAGE_ERRORS, DomainError
from ris_sop.quadrature import (
    SOP_MAX_SUBDIVISIONS,
    integrate_semi_infinite,
    sop_quad_asymptotic,
)
from ris_sop.sysmodel import SystemConfig, derive_clt_params

# The sweep's routes plus the two that only this contract exercises.
EVALUATORS = {
    **{name: sop for name, (_column, sop) in ROUTES.items()},
    "asymptotic_closed": sop_asymptotic_closed,
    "quad_asymptotic": lambda cfg: sop_quad_asymptotic(cfg).value,
}

# Every SystemConfig field is drawn; r_th reaches 1023, just under the
# 2^r_th overflow that rho_of refuses.
configs = st.builds(
    SystemConfig,
    gamma0_db=st.floats(-60.0, 150.0),
    n_elements=st.integers(1, 65536),
    n_users=st.integers(1, 16),
    r_th=st.floats(0.01, 1023.0),
    d_sr=st.floats(1e-3, 1e4),
    d_rd=st.floats(1e-3, 1e4),
    d_re=st.floats(1.0, 500.0),
    z0=st.floats(-50.0, 150.0),
    upsilon=st.floats(0.5, 8.0),
)


@settings(derandomize=True, deadline=2000, max_examples=100)
@given(cfg=configs)
# The term-sum saturation level rounded to -1.6e-322 here before its clip.
@example(
    cfg=SystemConfig(
        n_elements=3, n_users=6, r_th=0.5, d_re=275.0, gamma0_db=0.0
    )
)
# The path-gain ratio (d_re / d_rd)^upsilon overflowed to a bare OverflowError.
@example(cfg=SystemConfig(d_re=1e300))
@example(cfg=SystemConfig(d_rd=1e-300))
# The fully reduced saturation level formed 2 pi rho N p.k in one product,
# which overflowed to inf at a finite rho and made the level NaN.
@example(cfg=SystemConfig(r_th=1013.0))
# mu_d was finite but mu_d**2, in the terms and the quadrature's breakpoints,
# raised a bare OverflowError.
@example(cfg=SystemConfig(d_sr=10**-42.5, d_rd=10**-42.5))
# The fitted CDF's negative dip near zero amplitude carried all of the
# exponential weight, and the fitted-Q quadrature returned -4.6e-4.
@example(
    cfg=SystemConfig(n_elements=1, n_users=1, d_sr=1.0, d_rd=1.0, gamma0_db=100.0)
)
# rho * x and the Q fit's z * z overflowed to inf at the far nodes, and numpy
# printed "overflow encountered in multiply" from all three quadratures.
@example(
    cfg=SystemConfig(
        n_elements=153, n_users=7, d_sr=9854.5, d_rd=2.00001, d_re=304.2,
        z0=87.7, upsilon=2.76, gamma0_db=145.8, r_th=1023.0,
    )
)
# Products in the term arithmetic underflowed to 0, and both term-sum routes
# raised a bare ZeroDivisionError.
@example(
    cfg=SystemConfig(
        gamma0_db=102.9, n_elements=65536, r_th=1.697, d_sr=1.54e38, d_rd=2.56e42,
        d_re=1.6e17, z0=181.6, upsilon=3.747,
    )
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluators_return_a_probability_or_a_package_error(cfg):
    subdivisions = []  # one entry per quadrature call that converged
    original = integrate_semi_infinite

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        subdivisions.append(res.subdivisions)
        return res

    quadrature.integrate_semi_infinite = counted
    try:
        returned = {}
        for name, evaluate in EVALUATORS.items():
            try:
                value = evaluate(cfg)
            except PACKAGE_ERRORS:
                continue
            assert 0.0 <= value <= 1.0, (name, value)
            returned[name] = value
    finally:
        quadrature.integrate_semi_infinite = original
    try:
        derive_clt_params(cfg)
        quadratures = 3
    except DomainError:  # every quadrature route stops before integrating
        quadratures = 0
    assert len(subdivisions) == quadratures, "a quadrature call raised"
    assert max(subdivisions, default=0) <= SOP_MAX_SUBDIVISIONS
    if "closed" in returned and "quad_approx" in returned:
        closed, approx = returned["closed"], returned["quad_approx"]
        gap = abs(closed - approx)
        assert gap <= 1e-6 * approx + 1e-15, (closed, approx)
        # The closed form's head cancels in its binomial sum where the fitted
        # CDF at zero amplitude, the fit's own error, is small next to
        # |1 - xi|.  Below N = 16 that reaches larger SOPs (1.7e-8 relative
        # at N=1, M=16, d_re=200 m, 60 dB, SOP 2.4e-17); from N = 16 only
        # SOPs below ~1e-50 (6.1e-3 relative at N=16, M=16, d_re=500 m,
        # r_th=0.01, 130 dB, SOP 2.4e-114).
        if cfg.n_elements >= 16 and approx >= 1e-40:
            assert gap <= 1e-8 * approx, (closed, approx)
