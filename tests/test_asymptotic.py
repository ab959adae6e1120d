import math

import numpy as np
import pytest

from ris_sop.analytic import i_plus_term, sop_closed_form
from ris_sop.asymptotic import (
    i_plus_term_asym,
    j_plus_term_asym,
    sop_asymptotic,
    sop_asymptotic_closed,
)
from ris_sop.errors import DomainError
from ris_sop.quadrature import integrate_semi_infinite
from ris_sop.specfun import multinomial_set
from ris_sop.sysmodel import CltParams, SystemConfig, derive_clt_params


def _cfgv(gamma0_db=60.0, n=64, m=3, **kw):
    return SystemConfig(n_elements=n, n_users=m, gamma0_db=gamma0_db, **kw)


def _term(m, kt):
    (k,) = [t for t in multinomial_set(m) if t.k == kt]
    return k


class TestAsymptoticTerms:
    @pytest.mark.parametrize("kt,m", [((1, 0, 0), 1), ((1, 1, 0), 2), ((0, 2, 1), 3)])
    def test_matches_high_snr_integral(self, kt, m):
        params = derive_clt_params(_cfgv(40.0))
        k = _term(m, kt)
        lower = params.mu_d**2 * params.gamma0 / params.rho
        sigma_mk = math.sqrt(params.sigma2_d / k.p_dot_k)

        def integrand(x):
            chi = (np.sqrt(params.rho * x / params.gamma0) - params.mu_d) / sigma_mk
            return 0.5 * np.exp(-0.5 * chi**2) * np.exp(-x / params.lambda_e) / params.lambda_e

        # The integral over [lower, inf), as the [0, inf) integral of the
        # integrand masked to that range with its edge as a panel boundary.
        oracle = integrate_semi_infinite(
            lambda x: np.where(x > lower, integrand(x), 0.0),
            params.lambda_e,
            breakpoints=(lower,),
        )
        assert i_plus_term_asym(k, params) == pytest.approx(oracle.value, rel=1e-8)

    def test_agrees_with_finite_snr_term_when_saturated(self):
        params = derive_clt_params(_cfgv(60.0))
        k = _term(1, (1, 0, 0))
        full = i_plus_term(k, params)
        asym = i_plus_term_asym(k, params)
        assert abs(asym - full) / full <= 0.01

    def test_vanishes_with_power_at_fixed_eavesdropper(self):
        # lambda_e pinned while the transmit SNR grows: both bracket terms die.
        base = derive_clt_params(_cfgv(20.0))
        vals = []
        for g0 in (10.0, 100.0, 400.0, 1000.0):
            params = CltParams(
                mu_d=base.mu_d,
                sigma2_d=base.sigma2_d,
                lambda_e=5.0,
                gamma0=g0,
                rho=base.rho,
                zeta_sr=base.zeta_sr,
                zeta_rd=base.zeta_rd,
                zeta_re=base.zeta_re,
                offset=base.offset,
            )
            k = _term(1, (1, 0, 0))
            vals.append(i_plus_term_asym(k, params))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-40

    def test_j_variant_dominates_i_variant(self):
        params = derive_clt_params(_cfgv(60.0))
        k = _term(2, (1, 1, 0))
        assert j_plus_term_asym(k, params) >= i_plus_term_asym(k, params)


class TestSopAsymptotic:
    def test_headline_term_invariant_to_power(self):
        # The eavesdropper's mean SNR scales with the transmit SNR, so the
        # decay exponent is a pure geometry quantity: bit-identical results.
        p1s = {sop_asymptotic(_cfgv(g)).p1 for g in (40.0, 60.0, 80.0)}
        assert len(p1s) == 1

    def test_matches_saturated_closed_form(self):
        br = sop_asymptotic(_cfgv())
        sat = sop_closed_form(_cfgv(80.0)).value
        assert abs(br.sop_simplified - sat) / sat <= 0.10

    def test_decomposition_identity(self):
        br = sop_asymptotic(_cfgv())
        assert br.sop_simplified == pytest.approx(1.0 - br.p1 - br.p3, abs=1e-12)
        assert all(map(math.isfinite, (br.p1, br.p2, br.p3, br.sop_simplified)))

    def test_dropped_remainder_is_secondary_and_shrinks(self):
        # The discarded p2 is measured, not assumed: about 9% of p3 at three
        # users on the default geometry, decaying fast with more users.
        ratios = [
            abs(sop_asymptotic(_cfgv(m=m)).p2) / abs(sop_asymptotic(_cfgv(m=m)).p3)
            for m in (3, 4, 5, 6)
        ]
        assert ratios[0] <= 0.10
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r <= 0.03 for r in ratios[1:])

    def test_validity_warnings(self):
        assert sop_asymptotic(_cfgv(m=2)).warnings
        assert sop_asymptotic(_cfgv(n=16)).warnings
        assert not sop_asymptotic(_cfgv()).warnings


class TestSopAsymptoticClosed:
    def test_bit_identical_across_power(self):
        vals = {sop_asymptotic_closed(_cfgv(g)) for g in (20.0, 80.0)}
        assert len(vals) == 1

    def test_bit_identical_across_source_distance(self):
        vals = {sop_asymptotic_closed(_cfgv(d_sr=d)) for d in (30.0, 45.0, 60.0)}
        assert len(vals) == 1

    def test_depends_only_on_distance_ratio(self):
        a = sop_asymptotic_closed(_cfgv(d_rd=45.0, d_re=30.0))
        b = sop_asymptotic_closed(_cfgv(d_rd=90.0, d_re=60.0))
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_term_sum_route(self, n):
        closed = sop_asymptotic_closed(_cfgv(n=n))
        simplified = sop_asymptotic(_cfgv(n=n)).sop_simplified
        assert abs(closed - simplified) / simplified <= 0.15

    def test_composition_scale_for_first_unit_vector(self):
        (k,) = [t for t in multinomial_set(1) if t.k == (1, 0, 0)]
        a = ((16 - math.pi**2) / 16.0) / k.p_dot_k
        assert a == pytest.approx(0.3831497, abs=1e-7)

    def test_exponential_decay_in_elements(self):
        ns = np.array([32, 48, 64, 96, 128, 192, 256], dtype=float)
        logs = np.log([sop_asymptotic_closed(_cfgv(n=int(n))) for n in ns])
        slope, intercept = np.polyfit(ns, logs, 1)
        fit = slope * ns + intercept
        ss_res = np.sum((logs - fit) ** 2)
        ss_tot = np.sum((logs - logs.mean()) ** 2)
        assert slope < 0
        assert 1 - ss_res / ss_tot >= 0.99

    def test_strictly_decreasing_in_gain_ratio(self):
        # ratio = (d_re / d_rd)^upsilon, swept across two decades.  At N=64
        # the value crosses the 1e-12 reporting floor inside the sweep, so
        # strictness is asserted above the floor there and over the full
        # span at a small surface where everything stays resolvable.
        ratios = np.logspace(-1, 1, 25)
        d_rd = 45.0

        def sweep(n):
            return [
                sop_asymptotic_closed(
                    _cfgv(n=n, d_rd=d_rd, d_re=d_rd * r ** (1 / 3.5))
                )
                for r in ratios
            ]

        small = sweep(8)
        assert all(b < a for a, b in zip(small, small[1:]))
        big = sweep(64)
        above = [v for v in big if v > 1e-12]
        assert len(above) >= 10
        assert all(b < a for a, b in zip(above, above[1:]))
        assert all(v <= 1e-12 for v in big[len(above):])

    @pytest.mark.parametrize(
        "n,r_th", [(64, 1012.0), (64, 1013.0), (64, 1023.5), (10**6, 1000.0)]
    )
    def test_matches_term_sum_route_at_huge_threshold(self, n, r_th):
        # rho is finite but 2 pi rho N p.k is not; both routes saturate at 1.
        cfg = SystemConfig(n_elements=n, r_th=r_th)
        assert sop_asymptotic_closed(cfg) == sop_asymptotic(cfg).sop_simplified

    @pytest.mark.parametrize(
        "kw,field",
        [
            ({"r_th": 2000.0}, "r_th"),
            ({"d_re": 1e300}, "d_re"),
            ({"d_rd": 1e-300}, "d_rd"),
        ],
    )
    def test_out_of_range_inputs_raise_domain_error(self, kw, field):
        with pytest.raises(DomainError, match=field):
            sop_asymptotic_closed(_cfgv(**kw))
