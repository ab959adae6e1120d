import math

import mpmath
import numpy as np
import pytest

from ris_sop import quadrature
from ris_sop.errors import AccuracyError, DomainError, EvaluationError
from ris_sop.quadrature import (
    SOP_MAX_SUBDIVISIONS,
    QuadResult,
    integrate_semi_infinite,
    sop_quad_approx_q,
    sop_quad_asymptotic,
    sop_quad_exact_q,
)
from ris_sop.specfun import Q_APPROX, q_approx3, q_exact
from ris_sop.sysmodel import SystemConfig, derive_clt_params

LAM = 2.7


def _pdf(x, lam=LAM):
    return np.exp(-x / lam) / lam


# Regression constants pinned from the first verified run of the exact-Q
# quadrature on the default geometry (N=64, M=3).
EXACT_Q_GRID = {
    0.0: 0.0779771487803603,
    10.0: 0.0062086867849483664,
    20.0: 0.004820620603896455,
    30.0: 0.0047001668250056215,
    40.0: 0.0046882882420711805,
}


class TestIntegrator:
    def test_density_normalizes(self):
        res = integrate_semi_infinite(_pdf, LAM)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_unit_bounded_integrand(self):
        res = integrate_semi_infinite(lambda x: np.ones_like(x) * _pdf(x), LAM)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_mean_identity(self):
        res = integrate_semi_infinite(lambda x: x * _pdf(x), LAM)
        assert res.value == pytest.approx(LAM, rel=1e-10)

    def test_against_scipy(self):
        from scipy.integrate import quad

        def f(x):
            return np.cos(x) ** 2 * _pdf(x)

        res = integrate_semi_infinite(f, LAM)
        ref, _ = quad(lambda x: float(f(np.asarray(x))), 0, np.inf, limit=400)
        assert res.value == pytest.approx(ref, rel=1e-9)

    def test_truncation_doubling_insensitive(self):
        base = integrate_semi_infinite(_pdf, LAM)
        wide = integrate_semi_infinite(_pdf, LAM, upper=70.0 * LAM)
        assert wide.value == pytest.approx(base.value, rel=1e-10)

    def test_error_bound_holds_against_mpmath(self):
        def f(x):
            return np.sqrt(x + 0.1) * _pdf(x)

        res = integrate_semi_infinite(f, LAM)
        with mpmath.workdps(40):
            lam = mpmath.mpf(LAM)
            ref = mpmath.quad(
                lambda x: mpmath.sqrt(x + mpmath.mpf("0.1")) * mpmath.exp(-x / lam) / lam,
                [0, lam, 10 * lam, mpmath.inf],
            )
        assert abs(res.value - float(ref)) <= res.error

    def test_breakpoint_handles_kink(self):
        kink = 1.7

        def f(x):
            return np.where(x < kink, x, 2 * kink - 0.5 * x).clip(min=0) * _pdf(x)

        with_bp = integrate_semi_infinite(f, LAM, breakpoints=(kink,))
        without = integrate_semi_infinite(f, LAM)
        assert with_bp.value == pytest.approx(without.value, rel=1e-8)
        assert with_bp.subdivisions <= without.subdivisions

    def test_lower_bound_offset(self):
        res = integrate_semi_infinite(_pdf, LAM, lower=LAM)
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_finite_upper(self):
        res = integrate_semi_infinite(_pdf, LAM, upper=LAM)
        assert res.value == pytest.approx(1 - math.exp(-1.0), rel=1e-10)

    @pytest.mark.parametrize("lower, upper", [(LAM, LAM), (2 * LAM, LAM), (0.0, 0.0)])
    def test_an_empty_range_is_zero_without_a_call(self, lower, upper):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        res = integrate_semi_infinite(f, LAM, lower=lower, upper=upper)
        assert res == QuadResult(0.0, 0.0, 0)
        assert calls == []

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(_pdf, LAM, lower=-1.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"lambda_scale": math.nan}, "lambda_scale must be positive and finite"),
            ({"lambda_scale": math.inf}, "lambda_scale must be positive and finite"),
            ({"lower": math.nan}, "lower bound must be finite"),
            ({"upper": math.nan}, "upper bound must be finite"),
            ({"upper": math.inf}, "upper=None integrates to the exponential cut-off"),
        ],
        ids=["lambda-nan", "lambda-inf", "lower-nan", "upper-nan", "upper-inf"],
    )
    def test_non_finite_arguments_refused(self, kwargs, match):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        with pytest.raises(DomainError, match=match):
            integrate_semi_infinite(f, **{"lambda_scale": 1.0, **kwargs})
        assert calls == []

    @pytest.mark.parametrize("scale,extensions", [(1.0, 0), (1e-20, 1)])
    def test_one_integrand_call_per_span_and_split(self, scale, extensions):
        # At 1e-20 the tail bound exp(-35) exceeds the tolerance, so the
        # cut-off moves out once and that span is a second presplit call.
        sizes = []

        def f(x):
            sizes.append(x.size)
            return scale * _pdf(x)

        res = integrate_semi_infinite(f, LAM)
        assert res.subdivisions == 1
        assert len(sizes) == 1 + extensions + res.subdivisions
        assert all(size % 15 == 0 for size in sizes)
        # The presplit span holds several panels; a split holds two.
        assert sizes[0] > 15 and sizes[-1] == 30

    def test_stall_raises_with_best_estimate(self, monkeypatch):
        def jagged(x):
            return (1.0 + np.sin(200.0 * x)) * _pdf(x)

        monkeypatch.setattr(quadrature, "SOP_MAX_SUBDIVISIONS", 3)
        with pytest.raises(AccuracyError) as exc:
            integrate_semi_infinite(jagged, LAM)
        assert math.isfinite(exc.value.value)
        assert exc.value.error > 0


class TestSopQuadratures:
    def test_no_power_limit(self):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=-60.0)
        assert sop_quad_exact_q(cfg).value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("gamma0_db,expected", sorted(EXACT_Q_GRID.items()))
    def test_frozen_reference_grid(self, gamma0_db, expected):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=gamma0_db)
        assert sop_quad_exact_q(cfg).value == pytest.approx(expected, rel=1e-9)

    def test_single_user_against_model_mc(self):
        # Direct two-dimensional Monte Carlo of the same statistical model:
        # truncated-Gaussian aggregate amplitude, exponential eavesdropper.
        cfg = SystemConfig(n_elements=64, n_users=1, gamma0_db=20.0)
        p = derive_clt_params(cfg)
        rng = np.random.default_rng(321)
        n = 4_000_000
        a = p.mu_d + p.sigma_d * rng.standard_normal(n)
        a = a[a > 0.0]
        ge = rng.exponential(p.lambda_e, size=a.size)
        hat = np.mean(p.gamma0 * a**2 < p.rho * ge + (p.rho - 1.0))
        se = math.sqrt(hat * (1 - hat) / a.size)
        ref = sop_quad_exact_q(cfg).value
        assert abs(hat - ref) < 3 * se

    def test_asymptotic_route_matches_exact_at_high_snr(self):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=80.0)
        asym = sop_quad_asymptotic(cfg).value
        exact = sop_quad_exact_q(cfg).value
        assert abs(asym - exact) / exact < 0.01

    def test_asymptotic_route_breaks_at_low_snr(self):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=0.0, r_th=4.0)
        asym = sop_quad_asymptotic(cfg).value
        exact = sop_quad_exact_q(cfg).value
        assert abs(asym - exact) / exact > 0.10

    def test_asymptotic_route_matches_saturation_sum(self):
        from ris_sop.asymptotic import sop_asymptotic

        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=80.0)
        asym_quad = sop_quad_asymptotic(cfg).value
        asym_sum = sop_asymptotic(cfg).sop_simplified
        assert abs(asym_quad - asym_sum) / asym_quad < 0.10

    def test_error_estimates_reported(self):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=20.0)
        res = sop_quad_exact_q(cfg)
        assert 0.0 < res.error < 1e-9 * res.value * 10
        assert 0 <= res.subdivisions <= quadrature.SOP_MAX_SUBDIVISIONS

    @pytest.mark.parametrize("n_users, value", [(1, "-4.596"), (3, "-4.06")])
    def test_negative_fitted_integral_raises(self, n_users, value):
        # At N=1 the fitted CDF is about -1.5e-3 at zero amplitude, and at
        # 100 dB all of the exponential weight falls there.
        cfg = SystemConfig(
            n_elements=1, n_users=n_users, d_sr=1.0, d_rd=1.0, gamma0_db=100.0
        )
        with pytest.raises(EvaluationError, match=f"negative: {value}"):
            sop_quad_approx_q(cfg)
        assert sop_quad_exact_q(cfg).value > 0.0


def _mp_q_exact(z):
    return mpmath.erfc(z / mpmath.sqrt(2)) / 2


def _mp_q_approx(z):
    s = sum(
        mpmath.mpf(w) / 2 * mpmath.exp(-mpmath.mpf(p) * z * z / 2)
        for w, p in zip(Q_APPROX.w, Q_APPROX.p)
    )
    return s if z >= 0 else 1 - s


def _mp_sop(cfg: SystemConfig, q) -> float:
    """The SOP integral at 40 digits, with 1 - xi Q(z) formed as written.

    xi = 1 / Q(-mu_d / sigma_d) with the exact Q on both routes, as the
    package derives it; only the CDF's Q(z) is ``q``.
    """
    p = derive_clt_params(cfg)
    with mpmath.workdps(40):
        mu, sigma, lam, g0, rho = (
            mpmath.mpf(v) for v in (p.mu_d, p.sigma_d, p.lambda_e, p.gamma0, p.rho)
        )
        xi = 1 / _mp_q_exact(-mu / sigma)

        def f(x):
            z = (mpmath.sqrt((rho * x + rho - 1) / g0) - mu) / sigma
            return (1 - xi * q(z)) ** cfg.n_users * mpmath.exp(-x / lam) / lam

        alpha = (mu**2 * g0 - (rho - 1)) / rho
        cuts = {mpmath.mpf(0), *(lam * k for k in (1, 5, 20, 40, 80))}
        if alpha > 0:
            cuts.add(alpha)
        return float(mpmath.quad(f, sorted(cuts) + [mpmath.inf]))


class TestTransitionLayer:
    # Large N with a close eavesdropper: the CDF climbs from ~0 to ~1 over a
    # layer just past alpha about 7% of alpha wide.  With only alpha as a
    # breakpoint no Kronrod node landed in it, and both routes converged on
    # values 1.7e-3 (first case) and 8.5e-4 (second) off, with a ~1e-11
    # error estimate.
    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(
                n_elements=26343, n_users=8, d_re=3.470315220467713,
                gamma0_db=-1.4249368341234288, r_th=4.042837759719358,
            ),
            SystemConfig(
                n_elements=30718, n_users=15, d_re=1.84, gamma0_db=66.37, r_th=2.27
            ),
        ],
        ids=["N26343-M8", "N30718-M15"],
    )
    @pytest.mark.parametrize(
        "route,mp_q",
        [(sop_quad_exact_q, _mp_q_exact), (sop_quad_approx_q, _mp_q_approx)],
        ids=["exact_q", "approx_q"],
    )
    def test_matches_mpmath(self, cfg, route, mp_q):
        assert route(cfg).value == pytest.approx(_mp_sop(cfg, mp_q), rel=1e-9, abs=0.0)


class TestDeepTail:
    # N=256, M=1, eavesdropper at 38 m: SOP ~1.9e-9 at -10 dB and ~1e-15 at
    # 0 dB, where the CDF 1 - xi Q(z) sits at z ~ -6 over most of the range.
    @pytest.mark.parametrize("gamma0_db", [-10.0, 0.0])
    @pytest.mark.parametrize(
        "route,mp_q",
        [(sop_quad_exact_q, _mp_q_exact), (sop_quad_approx_q, _mp_q_approx)],
        ids=["exact_q", "approx_q"],
    )
    def test_matches_mpmath_within_budget(self, gamma0_db, route, mp_q, monkeypatch):
        counts = []

        def counted(*args, **kwargs):
            res = integrate_semi_infinite(*args, **kwargs)
            counts.append(res.subdivisions)
            return res

        monkeypatch.setattr(quadrature, "integrate_semi_infinite", counted)
        cfg = SystemConfig(n_elements=256, n_users=1, d_re=38.0, gamma0_db=gamma0_db)
        value = route(cfg).value
        assert value == pytest.approx(_mp_sop(cfg, mp_q), rel=1e-8, abs=0.0)
        assert counts and max(counts) <= 64

    @pytest.mark.parametrize("q", [q_exact, q_approx3])
    def test_q_reflection(self, q):
        # The quadrature forms the CDF through Q(-z) = 1 - Q(z).
        z = np.linspace(-40.0, 40.0, 160_001)
        z = z[z != 0.0]
        assert np.max(np.abs(q(-z) - (1.0 - q(z)))) <= 2 * np.finfo(float).eps

    def test_stall_raises_within_budget(self, monkeypatch):
        def noisy_q(z):
            return q_exact(z) + 1e-6 * np.cos(1e12 * z)

        calls = []
        panels = []
        batch = quadrature._panels

        def counted(*args, **kwargs):
            calls.append(kwargs["breakpoints"])
            return integrate_semi_infinite(*args, **kwargs)

        def counted_panels(g, bounds):
            panels.append(len(bounds) - 1)
            return batch(g, bounds)

        monkeypatch.setattr(quadrature, "integrate_semi_infinite", counted)
        monkeypatch.setattr(quadrature, "_panels", counted_panels)
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=20.0)
        with pytest.raises(AccuracyError):
            quadrature._sop_quad(derive_clt_params(cfg), cfg.n_users, noisy_q)
        # add_span presplits each gap between panel edges into <= 8 panels;
        # each split then costs two panels.
        [breakpoints] = calls
        initial = 8 * (len(breakpoints) + 1)
        assert sum(panels) <= 2 * SOP_MAX_SUBDIVISIONS + initial
