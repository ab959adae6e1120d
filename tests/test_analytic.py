import math

import numpy as np
import pytest

from ris_sop.analytic import (
    i_plus_term,
    j_plus_term,
    order_sums,
    sop_closed_form,
)
from ris_sop.errors import CapacityError, ContractError
from ris_sop.quadrature import (
    integrate_semi_infinite,
    sop_quad_approx_q,
    sop_quad_exact_q,
)
from ris_sop.specfun import Q_APPROX, multinomial_set, q_exact
from ris_sop.sysmodel import SystemConfig, derive_clt_params

# Oracle constants pinned from adaptive quadrature of the defining integrals
# at the default geometry, N=64.
J_TERM_FROZEN = 0.017296741376473485  # m=1, k=(1,0,0), 10 dB
I_TERM_FROZEN = 0.0017216612267891723  # m=2, k=(1,1,0), 20 dB
I_PLUS3_FROZEN = 0.0002205050955341155  # m=3, 30 dB


def _params(gamma0_db, n=64, m=3, **kw):
    return derive_clt_params(
        SystemConfig(n_elements=n, n_users=m, gamma0_db=gamma0_db, **kw)
    )


def _term(m, k_tuple):
    (k,) = [t for t in multinomial_set(m) if t.k == k_tuple]
    return k


def _sigma_mk(k, params):
    return math.sqrt(params.sigma2_d / k.p_dot_k)


def _chi(x, params, sigma):
    return (np.sqrt((params.rho - 1 + params.rho * x) / params.gamma0) - params.mu_d) / sigma


def _term_integrand(params, sigma):
    def f(x):
        return (
            0.5
            * np.exp(-0.5 * _chi(x, params, sigma) ** 2)
            * np.exp(-x / params.lambda_e)
            / params.lambda_e
        )

    return f


def _powered_integrand(params, m, mirrored=False):
    def f(x):
        chi = _chi(x, params, params.sigma_d)
        s = sum(
            (w / 2) * np.exp(-0.5 * p * chi**2)
            for w, p in zip(Q_APPROX.w, Q_APPROX.p)
        )
        body = (1.0 - s) ** m if mirrored else s**m
        return body * np.exp(-x / params.lambda_e) / params.lambda_e

    return f


# An integral over [alpha, inf) or [0, alpha] is the [0, inf) integral of the
# integrand masked to that range, with alpha passed as a breakpoint so that
# it is a panel edge and no node falls on the mask's jump.
def _tail(f, alpha):
    return lambda x: np.where(x > alpha, f(x), 0.0)


def _head(f, alpha):
    return lambda x: np.where(x < alpha, f(x), 0.0)


class TestJPlusTerm:
    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 25.0, 40.0])
    @pytest.mark.parametrize("k_spec", [(1, (1, 0, 0)), (2, (0, 1, 1)), (3, (1, 1, 1))])
    def test_matches_defining_integral(self, gamma0_db, k_spec):
        m, kt = k_spec
        params = _params(gamma0_db)
        k = _term(m, kt)
        alpha = params.branch_point()
        oracle = integrate_semi_infinite(
            _term_integrand(params, _sigma_mk(k, params)),
            params.lambda_e,
            breakpoints=(alpha,) if alpha > 0 else (),
        )
        assert j_plus_term(k, params) == pytest.approx(oracle.value, rel=1e-8)

    def test_frozen_regression(self):
        params = _params(10.0)
        k = _term(1, (1, 0, 0))
        assert j_plus_term(k, params) == pytest.approx(J_TERM_FROZEN, rel=1e-8)

    def test_vanishes_at_huge_threshold(self):
        params = _params(10.0, r_th=40.0)
        k = _term(1, (1, 0, 0))
        assert j_plus_term(k, params) < 1e-12


class TestIPlusTerm:
    @pytest.mark.parametrize("gamma0_db", [10.0, 20.0, 35.0])
    def test_matches_defining_integral(self, gamma0_db):
        params = _params(gamma0_db)
        k = _term(2, (1, 1, 0))
        alpha = params.branch_point()
        oracle = integrate_semi_infinite(
            _tail(_term_integrand(params, _sigma_mk(k, params)), alpha),
            params.lambda_e,
            breakpoints=(alpha,),
        )
        assert i_plus_term(k, params) == pytest.approx(oracle.value, rel=1e-8)

    def test_frozen_regression(self):
        params = _params(20.0)
        k = _term(2, (1, 1, 0))
        assert i_plus_term(k, params) == pytest.approx(I_TERM_FROZEN, rel=1e-8)

    def test_requires_positive_alpha(self):
        params = _params(-10.0)  # mu^2 gamma0 < rho - 1
        k = _term(1, (1, 0, 0))
        assert params.branch_point() < 0
        with pytest.raises(ContractError):
            i_plus_term(k, params)

    def test_meets_j_term_at_domain_coincidence(self):
        # gamma0 a hair above the branch point: alpha -> 0+, domains coincide
        probe = derive_clt_params(SystemConfig(n_elements=64, n_users=3, gamma0_db=0.0))
        g_star = (probe.rho - 1.0) / probe.mu_d**2
        cfg = SystemConfig(
            n_elements=64, n_users=3,
            gamma0_db=10 * math.log10(g_star * (1 + 1e-9)),
        )
        params = derive_clt_params(cfg)
        k = _term(1, (1, 0, 0))
        assert params.branch_point() > 0
        assert i_plus_term(k, params) == pytest.approx(
            j_plus_term(k, params), rel=1e-6
        )


class TestOrderLevelSums:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_j_plus_matches_quadrature(self, m):
        params = _params(10.0)
        alpha = (params.mu_d**2 * params.gamma0 - (params.rho - 1)) / params.rho
        oracle = integrate_semi_infinite(
            _powered_integrand(params, m), params.lambda_e, breakpoints=(alpha,)
        )
        assert order_sums(m, params)[0][-1] == pytest.approx(oracle.value, rel=1e-8)

    def test_j_plus_exact_q_gap_small_on_single_branch(self):
        # Replacing the fitted Q by the exact one quantifies the fit error
        # alone; on the single-branch side it stays within a few tenths of
        # a percent here, far inside the 5% budget.
        params = _params(-3.0)
        assert params.mu_d**2 * params.gamma0 <= params.rho - 1.0

        def exact_integrand(x):
            return (
                q_exact(_chi(x, params, params.sigma_d))
                * np.exp(-x / params.lambda_e)
                / params.lambda_e
            )

        oracle = integrate_semi_infinite(exact_integrand, params.lambda_e)
        assert order_sums(1, params)[0][-1] == pytest.approx(oracle.value, rel=0.05)

    def test_point_mass_limit(self):
        # Far-away eavesdropper: its SNR collapses to a point mass at zero,
        # so the integral degenerates to the integrand at the origin.
        params = _params(10.0, d_re=1e6)
        chi0 = float(_chi(np.asarray(0.0), params, params.sigma_d))
        s0 = sum(
            (w / 2) * math.exp(-0.5 * p * chi0**2)
            for w, p in zip(Q_APPROX.w, Q_APPROX.p)
        )
        for m in (1, 2):
            assert order_sums(m, params)[0][-1] == pytest.approx(s0**m, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_i_plus_matches_quadrature_and_is_dominated(self, m):
        params = _params(30.0)
        alpha = (params.mu_d**2 * params.gamma0 - (params.rho - 1)) / params.rho
        oracle = integrate_semi_infinite(
            _tail(_powered_integrand(params, m), alpha),
            params.lambda_e,
            breakpoints=(alpha,),
        )
        j_val, val = (s[-1] for s in order_sums(m, params))
        assert val == pytest.approx(oracle.value, rel=1e-8)
        assert val <= j_val

    def test_i_plus_frozen_regression(self):
        assert order_sums(3, _params(30.0))[1][-1] == pytest.approx(
            I_PLUS3_FROZEN, rel=1e-8
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_head_matches_quadrature(self, m):
        # J+(m) - I+(m) is the order-m integral over [0, alpha], the head
        # the closed form assembles.
        params = _params(10.0)
        alpha = params.branch_point()
        oracle = integrate_semi_infinite(
            _head(_powered_integrand(params, m), alpha),
            params.lambda_e,
            breakpoints=(alpha,),
        )
        j_val, t_val = (s[-1] for s in order_sums(m, params))
        assert j_val - t_val == pytest.approx(oracle.value, rel=1e-8)

    def test_tail_is_full_range_without_a_branch_point(self):
        params = _params(-10.0)
        assert params.branch_point() < 0
        for m in (1, 2, 3):
            j_val, t_val = (s[-1] for s in order_sums(m, params))
            assert t_val == j_val


class TestSopClosedForm:
    def test_single_user_collapse(self):
        # One user: SOP = 1 - xi * (tail integral of the fitted Q + head
        # integral of its mirrored branch over [0, alpha]).
        cfg = SystemConfig(n_elements=64, n_users=1, gamma0_db=15.0)
        params = derive_clt_params(cfg)
        alpha = params.branch_point()
        head = integrate_semi_infinite(
            _head(_powered_integrand(params, 1, mirrored=True), alpha),
            params.lambda_e,
            breakpoints=(alpha,),
        )
        xi = params.truncation()[0]
        direct = 1.0 - xi * (order_sums(1, params)[1][-1] + head.value)
        assert sop_closed_form(cfg).value == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("gamma0_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_matches_fitted_q_quadrature(self, gamma0_db):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=gamma0_db)
        closed = sop_closed_form(cfg).value
        oracle = sop_quad_approx_q(cfg).value
        assert closed == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 40.0])
    def test_within_model_budget_of_exact_q(self, gamma0_db):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=gamma0_db)
        closed = sop_closed_form(cfg).value
        exact = sop_quad_exact_q(cfg).value
        if exact >= 1e-5:
            assert abs(closed - exact) / exact <= 0.05

    def test_no_power_limit(self):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=-60.0)
        assert sop_closed_form(cfg).value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,m", [(16, 1), (4, 3)])
    def test_branch_boundary_continuity(self, n, m):
        probe = derive_clt_params(SystemConfig(n_elements=n, n_users=m, gamma0_db=0.0))
        g_star = (probe.rho - 1.0) / probe.mu_d**2
        vals = []
        for eps in (-1e-6, 1e-6):
            cfg = SystemConfig(
                n_elements=n, n_users=m,
                gamma0_db=10 * math.log10(g_star * (1 + eps)),
            )
            vals.append(sop_closed_form(cfg).value)
        assert abs(vals[1] - vals[0]) <= 1e-6

    def test_monotone_in_transmit_snr(self):
        vals = [
            sop_closed_form(SystemConfig(n_elements=64, n_users=3, gamma0_db=g)).value
            for g in np.arange(-10.0, 60.1, 2.5)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_users_elements_threshold(self):
        by_m = [
            sop_closed_form(SystemConfig(n_elements=64, n_users=m, gamma0_db=20.0)).value
            for m in (1, 2, 3, 4, 5, 6)
        ]
        assert all(b < a for a, b in zip(by_m, by_m[1:]))
        by_n = [
            sop_closed_form(SystemConfig(n_elements=n, n_users=3, gamma0_db=20.0)).value
            for n in (32, 64, 128, 256)
        ]
        assert all(b < a for a, b in zip(by_n, by_n[1:]))
        by_r = [
            sop_closed_form(
                SystemConfig(n_elements=64, n_users=3, gamma0_db=20.0, r_th=r)
            ).value
            for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(by_r, by_r[1:]))

    def test_bounded_with_tiny_clamp(self):
        for g in (-10.0, 0.0, 20.0, 40.0, 60.0):
            res = sop_closed_form(SystemConfig(n_elements=64, n_users=3, gamma0_db=g))
            assert 0.0 <= res.value <= 1.0
            assert res.clamp_amount <= 1e-6

    def test_user_cap(self):
        with pytest.raises(CapacityError):
            sop_closed_form(SystemConfig(n_elements=64, n_users=17))
