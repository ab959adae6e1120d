import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ris_sop import sysmodel
from ris_sop.analytic import sop_closed_form
from ris_sop.asymptotic import sop_asymptotic
from ris_sop.errors import DomainError
from ris_sop.mcsim import estimate_sop
from ris_sop.quadrature import sop_quad_approx_q, sop_quad_asymptotic, sop_quad_exact_q
from ris_sop.sysmodel import (
    SystemConfig,
    derive_clt_params,
    path_loss_linear,
    rho_of,
)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_linear(1.0, 42.0, 3.5) == pytest.approx(10**4.2, rel=1e-14)

    def test_default_geometry(self):
        expected = 10 ** ((42.0 - 35.0 * math.log10(45.0)) / 10.0)
        got = path_loss_linear(45.0, 42.0, 3.5)
        assert got == pytest.approx(expected, rel=1e-14, abs=0)
        assert got == pytest.approx(2.593e-2, rel=1e-3)

    def test_zero_db_crossing(self):
        # z0 = 10 * upsilon * log10(d) exactly at d=10, z0=20, upsilon=2
        assert path_loss_linear(10.0, 20.0, 2.0) == 1.0

    @given(st.floats(0.5, 1e4), st.floats(1.0, 2e4))
    def test_strictly_decreasing(self, d, bump):
        lo = path_loss_linear(d, 42.0, 3.5)
        hi = path_loss_linear(d + bump, 42.0, 3.5)
        assert hi < lo

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DomainError):
            path_loss_linear(0.0, 42.0, 3.5)
        with pytest.raises(DomainError):
            path_loss_linear(-3.0, 42.0, 3.5)


class TestRhoOf:
    def test_unit_threshold(self):
        assert rho_of(1.0) == 2.0

    def test_power_of_two(self):
        assert rho_of(3.0) == 8.0

    def test_limit_from_above(self):
        rho = rho_of(1e-12)
        assert 1.0 < rho < 1.0 + 1e-11

    @pytest.mark.parametrize("r_th", [1024.0, 2000.0])
    def test_out_of_range_threshold_names_r_th(self, r_th):
        with pytest.raises(DomainError, match="r_th"):
            rho_of(r_th)
        with pytest.raises(DomainError, match="r_th"):
            derive_clt_params(SystemConfig(r_th=r_th))


def test_overflowing_amplitude_square_names_mu_d():
    # The gains and mu_d itself are finite; the square the terms take is not.
    with pytest.raises(DomainError, match="mu_d"):
        derive_clt_params(SystemConfig(d_sr=10**-42.5, d_rd=10**-42.5))


def _unit_gain_config(n, m=3, gamma0_db=0.0):
    # z0 = 0 at d = 1 m makes every linear gain exactly 1.
    return SystemConfig(
        n_elements=n,
        n_users=m,
        d_sr=1.0,
        d_rd=1.0,
        d_re=1.0,
        z0=0.0,
        upsilon=3.5,
        gamma0_db=gamma0_db,
    )


class TestDeriveCltParams:
    def test_unit_gain_moments(self):
        p = derive_clt_params(_unit_gain_config(64))
        assert p.mu_d == pytest.approx(16 * math.pi, rel=1e-15, abs=0)
        assert p.sigma2_d == pytest.approx(4 * (16 - math.pi**2), rel=1e-15, abs=0)

    def test_xi_saturates_quickly(self):
        p = derive_clt_params(_unit_gain_config(64))
        # mu_d / sigma_d = sqrt(N) * pi / sqrt(16 - pi^2) ~ 10.15 at N=64
        assert p.mu_d / p.sigma_d == pytest.approx(
            math.sqrt(64) * math.pi / math.sqrt(16 - math.pi**2), rel=1e-13
        )
        assert abs(p.truncation()[0] - 1.0) < 1e-15

    def test_unit_lambda(self):
        p = derive_clt_params(_unit_gain_config(1, m=1, gamma0_db=0.0))
        assert p.lambda_e == 1.0

    def test_exact_scaling_in_n(self):
        base = derive_clt_params(SystemConfig(n_elements=50))
        double = derive_clt_params(SystemConfig(n_elements=100))
        assert double.mu_d == 2 * base.mu_d
        assert double.sigma2_d == 2 * base.sigma2_d
        assert double.lambda_e == 2 * base.lambda_e

    def test_scaling_in_transmit_snr(self):
        base = derive_clt_params(SystemConfig(gamma0_db=17.0))
        double = derive_clt_params(
            SystemConfig(gamma0_db=17.0 + 10 * math.log10(2.0))
        )
        # dB round trip costs a couple of ulps, nothing more
        assert double.lambda_e == pytest.approx(2 * base.lambda_e, rel=1e-13)
        assert double.mu_d == base.mu_d

    def test_xi_monotone_to_one(self):
        xis = [derive_clt_params(SystemConfig(n_elements=n)).truncation()[0] for n in
               (4, 8, 16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(xis, xis[1:]))
        assert all(x > 0.5 and x <= max(xis) for x in xis)
        for n, xi in zip((16, 32, 64, 128), xis[2:]):
            assert abs(xi - 1.0) < 1e-6, f"xi at N={n}"

    @pytest.mark.parametrize("n, bits", [
        (1, "0x1.1d284152a3e16p+0"), (2, "0x1.09a9cdcf44dd4p+0"),
        (4, "0x1.016fb7a017d2ap+0"), (8, "0x1.000ae3117dd65p+0"),
        (16, "0x1.0000033ea1762p+0"), (32, "0x1.000000000063dp+0"),
    ])
    def test_xi_bits(self, n, bits):
        # Pinned from xi when it was derived with the other statistics; it
        # does not depend on the outage threshold's offset.
        p = derive_clt_params(SystemConfig(n_elements=n))
        assert p.truncation()[0].hex() == bits
        assert replace(p, offset=0.0).truncation() == p.truncation()

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256, 4096])
    def test_xi_complement_keeps_relative_accuracy(self, n):
        # 1 - xi = -Q(z) / Q(-z), z = mu_d / sigma_d: ~-7e-24 at N=64, far
        # below the rounding of 1 - xi formed from xi.
        p = derive_clt_params(SystemConfig(n_elements=n))
        with mpmath.workdps(40):
            z = mpmath.mpf(p.mu_d) / mpmath.sqrt(mpmath.mpf(p.sigma2_d))
            expected = float(-mpmath.ncdf(-z) / mpmath.ncdf(z))
        assert p.truncation()[1] == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("route, calls", [
        (sop_closed_form, 1),
        (sop_quad_exact_q, 1),
        (sop_quad_approx_q, 1),
        (sop_quad_asymptotic, 1),
        (sop_asymptotic, 0),
        (lambda cfg: estimate_sop(cfg, "OUS", 1000, 1, "physical"), 0),
    ])
    def test_one_tail_evaluation_per_route_call(self, route, calls, monkeypatch):
        # xi and 1 - xi come from one log Q(-mu_d / sigma_d); the high-SNR
        # level and Monte Carlo read neither.
        seen, log_q = [], sysmodel.log_q
        monkeypatch.setattr(sysmodel, "log_q", lambda x: seen.append(x) or log_q(x))
        route(SystemConfig(n_elements=8, n_users=3))
        assert len(seen) == calls

    def test_rho_always_above_one(self):
        p = derive_clt_params(SystemConfig(r_th=0.01))
        assert p.rho > 1.0


class TestSystemConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_elements": 0},
            {"n_users": 0},
            {"d_sr": 0.0},
            {"d_rd": -1.0},
            {"d_re": 0.0},
            {"r_th": 0.0},
            {"upsilon": 0.0},
            {"r_th": float("nan")},
            {"d_re": float("inf")},
            {"gamma0_db": float("nan")},
            {"z0": float("-inf")},
            {"n_users": 2.5},
            {"n_users": 3.0},
            {"n_elements": 64.0},
            {"n_elements": "64"},
            {"n_users": True},
            {"n_elements": 10**400},
            {"n_users": 2**1024 - 1},  # rounds up to 2^1024 as a float
            {"d_sr": True},
            {"d_rd": "45"},
            {"gamma0_db": None},
            {"z0": 10**400},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"z0": 10**400}, "z0: a 1329-bit integer leaves the float64 range"),
            ({"d_sr": True}, "d_sr must be a number, got True"),
            ({"gamma0_db": None}, "gamma0_db must be a number, got None"),
            ({"d_sr": "45"}, "d_sr must be a number, got '45'"),
            ({"n_users": 3.0}, "n_users must be an integer, got 3.0"),
        ],
    )
    def test_type_and_range_errors_name_the_field(self, kwargs, message):
        with pytest.raises(DomainError) as info:
            SystemConfig(**kwargs)
        assert str(info.value) == message

    def test_stores_each_field_as_its_declared_type(self):
        cfg = SystemConfig(n_elements=np.int64(64), d_sr=45, gamma0_db=np.float32(20))
        assert type(SystemConfig(d_sr=45).d_sr) is float
        assert type(cfg.n_elements) is int and type(cfg.gamma0_db) is float
        assert cfg == SystemConfig()

    def test_accepts_numpy_integers(self):
        cfg = SystemConfig(n_elements=np.int64(64), n_users=np.int32(3))
        assert derive_clt_params(cfg) == derive_clt_params(SystemConfig())

    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.r_th == 1.0
        assert (cfg.d_sr, cfg.d_rd, cfg.d_re) == (45.0, 45.0, 30.0)
        assert (cfg.z0, cfg.upsilon) == (42.0, 3.5)
