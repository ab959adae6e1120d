"""The order sums' array pass reproduces the per-composition scalar loop bit for bit.

``_scalar_terms`` and ``_scalar_order_sums`` are the loop the order sums ran
before they became one array pass over the compositions, with its own scalar
``log Q`` and ``exp(a) * Q(b)``; they are the reference.  ``float.hex`` of
every order sum and every single term is compared with ``==``, and where the
reference raises, the pass must raise the same error with the same message.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from ris_sop.analytic import (
    _layout,
    i_plus_term,
    j_plus_term,
    order_sums,
    sop_closed_form,
)
from ris_sop.asymptotic import sop_asymptotic
from ris_sop.errors import CapacityError, DomainError, EvaluationError
from ris_sop.specfun import multinomial_set
from ris_sop.sysmodel import SystemConfig, derive_clt_params

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)


def _scalar_log_q(x):
    if math.isnan(x):
        raise DomainError("Q-function argument must not be NaN")
    if x >= 0:
        return float(np.log(0.5 * special.erfcx(x / _SQRT2)) - 0.5 * x * x)
    return float(np.log1p(-0.5 * special.erfc(-x / _SQRT2)))


def _scalar_exp_times_q(a, b):
    if a == -math.inf:
        return 0.0
    return float(np.exp(a + _scalar_log_q(b)))


def _require_finite(value, label, k):
    if not math.isfinite(value):
        raise EvaluationError(f"{label} lost finiteness for k={k.k}: got {value}")
    return value


def _scalar_terms(k, params, tail):
    mu, rho, lam, g0 = params.mu_d, params.rho, params.lambda_e, params.gamma0
    s2 = math.sqrt(params.sigma2_d / k.p_dot_k) ** 2
    ups = 1.0 / (2.0 * s2) + g0 / (rho * lam)
    pref = g0 / (2.0 * rho * lam * ups)
    a = params.offset / (rho * lam) - mu**2 * g0 / (2.0 * s2 * rho * lam * ups)
    coeff = mu * _SQRT_PI / (s2 * math.sqrt(ups))
    u0 = math.sqrt(params.offset / g0)
    t1 = math.exp(-((u0 - mu) ** 2) / (2.0 * s2))
    b = math.sqrt(2.0 * ups) * (u0 - mu / (2.0 * s2 * ups))
    j = _require_finite(pref * (t1 + coeff * _scalar_exp_times_q(a, b)), "j_plus_term", k)
    if not tail:
        return j, j
    t1 = math.exp(-(mu**2 * g0 - params.offset) / (rho * lam))
    b = math.sqrt(2.0) * mu * g0 / (rho * lam * math.sqrt(ups))
    i = _require_finite(pref * (t1 + coeff * _scalar_exp_times_q(a, b)), "i_plus_term", k)
    return j, i


def _scalar_order_sums(m, params):
    tail = params.branch_point() > 0
    j_sum = t_sum = 0.0
    for k in multinomial_set(m):
        j, t = _scalar_terms(k, params, tail)
        weight = k.coef * k.weight_product
        j_sum += weight * j
        t_sum += weight * t
    return j_sum, t_sum


def _loop_over_orders(outcomes):
    """What the scalar loop over orders 1..m gives, from the ``_outcome`` of
    each order: the first order's error, else every J+ and then every T."""
    for outcome in outcomes:
        if not isinstance(outcome[0], str):
            return outcome
    return tuple(j for j, _ in outcomes) + tuple(t for _, t in outcomes)


def _verdict(outcome):
    """The ``_outcome`` of ``order_sums`` where the loop gave ``outcome``: the
    same, but a zero divisor is reported as EvaluationError."""
    if outcome[0] is ZeroDivisionError:
        return EvaluationError, "order sums: " + outcome[1]
    return outcome


def _j_q_argument(k, params):
    """The reference's Q argument of J+ at composition ``k``."""
    mu, g0 = params.mu_d, params.gamma0
    s2 = math.sqrt(params.sigma2_d / k.p_dot_k) ** 2
    ups = 1.0 / (2.0 * s2) + g0 / (params.rho * params.lambda_e)
    u0 = math.sqrt(params.offset / g0)
    return math.sqrt(2.0 * ups) * (u0 - mu / (2.0 * s2 * ups))


def _outcome(fn, *args):
    """(hex of each float returned, or (exception type, message))."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:  # ZeroDivisionError included
        return type(exc), str(exc)
    floats = []
    for part in value if isinstance(value, tuple) else (value,):
        floats.extend(part if isinstance(part, list) else [part])
    return tuple(v.hex() for v in floats)


def _params(cfg, high_snr):
    params = derive_clt_params(cfg)
    return replace(params, offset=0.0) if high_snr else params


# (config, offset 0): alpha <= 0 at N=64 and -10 dB, where the J+ Q argument
# is positive; alpha > 0 with Q arguments of both signs at 5 dB; the
# high-SNR offset; the deep-tail eavesdropper of eav-distance; and two
# configs whose products leave the float64 range.
CASES = [
    (SystemConfig(n_elements=64, n_users=3, gamma0_db=-10.0), False),
    (SystemConfig(n_elements=64, n_users=16, gamma0_db=-6.0), False),
    (SystemConfig(n_elements=64, n_users=8, gamma0_db=5.0), False),
    (SystemConfig(n_elements=256, n_users=16, gamma0_db=40.0), False),
    (SystemConfig(n_elements=64, n_users=16, gamma0_db=20.0), True),
    (SystemConfig(n_elements=256, n_users=1, gamma0_db=0.0, d_re=38.0), False),
    (SystemConfig(r_th=1013.0), False),
    (SystemConfig(d_sr=10**-42.5, d_rd=10**-42.5), False),
    # A zero divisor: the loop raises ZeroDivisionError, as float division
    # does, and order_sums reports it as EvaluationError.
    (SystemConfig(gamma0_db=102.9, n_elements=65536, r_th=1.697, d_sr=1.54e38,
                  d_rd=2.56e42, d_re=1.6e17, z0=181.6, upsilon=3.747), False),
    # (0, 0, 1) loses finiteness before a later composition divides by zero.
    (SystemConfig(gamma0_db=100.3077460054368, n_elements=2, n_users=5,
                  r_th=62.89905048273554, d_sr=18532736.347831443,
                  d_rd=9582679711404.31, d_re=2.0488284852498356e22,
                  z0=-31.473693890643347, upsilon=6.828123366200866), False),
]


def test_cases_cover_both_branches_and_both_q_signs():
    alphas, signs = set(), set()
    for cfg, high_snr in CASES[:6]:
        params = _params(cfg, high_snr)
        alphas.add(params.branch_point() > 0)
        for order in range(1, cfg.n_users + 1):
            signs.update(_j_q_argument(k, params) >= 0 for k in multinomial_set(order))
    assert alphas == {False, True}
    assert signs == {False, True}


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
# Distances and reference losses far past any physical geometry, where the
# derived statistics sit near the float64 range's ends.
extreme_configs = st.builds(
    SystemConfig,
    gamma0_db=st.floats(-60.0, 150.0),
    n_elements=st.integers(1, 65536),
    n_users=st.integers(1, 16),
    r_th=st.floats(0.01, 1023.0),
    d_sr=st.floats(-45.0, 45.0).map(lambda e: 10.0**e),
    d_rd=st.floats(-45.0, 45.0).map(lambda e: 10.0**e),
    d_re=st.floats(0.0, 45.0).map(lambda e: 10.0**e),
    z0=st.floats(-300.0, 300.0),
    upsilon=st.floats(0.5, 8.0),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cfg=configs | extreme_configs, high_snr=st.booleans())
def test_order_sums_match_the_scalar_loop(cfg, high_snr):
    try:
        params = _params(cfg, high_snr)
    except DomainError:
        return
    orders = range(1, cfg.n_users + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # compared, not judged here
        per_order = [_outcome(_scalar_order_sums, order, params) for order in orders]
        for m in orders:  # the pass over orders 1..m raises the first order's error
            expected = _loop_over_orders(per_order[:m])
            assert _outcome(order_sums, m, params) == _verdict(expected)


for _cfg, _high_snr in CASES:  # every case is an @example of the drawn test too
    test_order_sums_match_the_scalar_loop = example(cfg=_cfg, high_snr=_high_snr)(
        test_order_sums_match_the_scalar_loop
    )


@pytest.mark.parametrize("cfg,high_snr", CASES[:6])
def test_single_terms_match_the_scalar_terms(cfg, high_snr):
    params = _params(cfg, high_snr)
    tail = params.branch_point() > 0
    for order in range(1, cfg.n_users + 1):
        for k in multinomial_set(order):
            j_ref, i_ref = _scalar_terms(k, params, tail)
            assert j_plus_term(k, params).hex() == j_ref.hex()
            if tail:
                assert i_plus_term(k, params).hex() == i_ref.hex()


class TestErrorPath:
    def _params(self):
        # mu_d / sigma_d = 5e307 puts the J+ coefficient mu sqrt(2 pi p) /
        # sigma_d past the float64 range at p.k = 4 only: composition (0, 1, 0)
        # of order 1, after (0, 0, 1) at p.k = 4/3 stays finite.
        params = derive_clt_params(SystemConfig())
        return replace(params, mu_d=1e154, sigma2_d=4e-308, gamma0=1.0, rho=2.0,
                       lambda_e=1.0, offset=1.0)

    def test_names_the_first_composition_that_lost_finiteness(self):
        params = self._params()
        with pytest.raises(EvaluationError) as ref:
            _scalar_order_sums(1, params)
        with pytest.raises(EvaluationError) as got:
            order_sums(1, params)
        assert str(got.value) == str(ref.value)
        message = "j_plus_term lost finiteness for k=(0, 1, 0): got "
        assert str(got.value).startswith(message)
        first = multinomial_set(1)[0]
        assert first.k == (0, 0, 1)
        assert math.isfinite(j_plus_term(first, params))
        with pytest.raises(EvaluationError, match=r"j_plus_term .* k=\(0, 1, 0\)"):
            j_plus_term(multinomial_set(1)[1], params)

    @pytest.mark.parametrize("changes", [
        # mu_d^2 gamma0 underflows to 0 and so does its divisor: 0 / 0.
        dict(mu_d=3.4e-177, sigma2_d=2.4e-134, lambda_e=5.5e-266, gamma0=0.0054,
             rho=8.4, offset=88.8),
        # mu_d^2 gamma0 overflows to inf and its divisor underflows: inf / 0,
        # which numpy turns into an exponent of -inf and a finite term.
        dict(mu_d=3.1e96, sigma2_d=5.1e-215, lambda_e=3.0e172, gamma0=4.3e175,
             rho=1.6e-254, offset=1.25),
    ])
    def test_a_zero_divisor_raises_whatever_it_divides(self, changes):
        params = replace(derive_clt_params(SystemConfig()), **changes)
        raised = (ZeroDivisionError, "float division by zero")
        verdict = (EvaluationError, "order sums: float division by zero")
        assert _outcome(_scalar_order_sums, 1, params) == raised
        assert _outcome(order_sums, 1, params) == verdict
        assert _outcome(order_sums, 2, params) == verdict
        assert _outcome(j_plus_term, multinomial_set(1)[0], params) == raised

    @pytest.mark.parametrize("route", [sop_closed_form, sop_asymptotic])
    def test_both_routes_give_the_order_sums_verdict(self, route):
        cfg, high_snr = CASES[8]  # the terms' divisors underflow to 0
        assert not high_snr
        with pytest.raises(EvaluationError) as got:
            route(cfg)
        assert str(got.value) == "order sums: float division by zero"
        assert type(got.value.__cause__) is ZeroDivisionError

    def test_orders_outside_the_table_are_refused(self):
        params = derive_clt_params(SystemConfig())
        with pytest.raises(DomainError, match="expansion order must be >= 1, got 0"):
            order_sums(0, params)
        with pytest.raises(CapacityError, match="expansion order 17 exceeds cap 16"):
            order_sums(17, params)

    def test_a_nan_q_argument_raises_domain_error(self):
        params = replace(self._params(), sigma2_d=math.nan)
        with pytest.raises(DomainError, match="must not be NaN"):
            _scalar_order_sums(1, params)
        with pytest.raises(DomainError, match="must not be NaN"):
            order_sums(1, params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cfg", [
        # The terms' products overflow to inf.
        SystemConfig(r_th=1013.0),
        # The J+ Q argument reaches 1e190, and log Q squares it.
        SystemConfig(r_th=1000.0, gamma0_db=-60.0, d_sr=1e4, d_rd=1e4, z0=-50.0,
                     upsilon=8.0),
    ])
    def test_overflow_stays_silent_as_for_floats(self, cfg):
        assert sop_closed_form(cfg).value == 1.0
        assert sop_asymptotic(cfg).sop_simplified == 1.0


class TestLayout:
    def test_lays_out_every_order_as_multinomial_set(self):
        table = _layout(16)
        assert table is _layout(16)
        for m in range(1, 17):
            terms = multinomial_set(m)
            row = slice(1, 1 + len(terms))
            assert table.weight[m - 1, row].tolist() == [
                t.coef * t.weight_product for t in terms
            ]
            assert table.p_dot_k[table.gather[m - 1, row]].tolist() == [
                t.p_dot_k for t in terms
            ]
            assert not table.weight[m - 1, 1 + len(terms):].any()
            # The table for orders 1..m lists their distinct values first.
            p_dot_k = _layout(m).p_dot_k.tolist()
            assert p_dot_k == table.p_dot_k[: len(p_dot_k)].tolist()
        assert len(table.p_dot_k) == len(set(table.p_dot_k.tolist())) == 208

    def test_arrays_are_read_only(self):
        table = _layout(16)
        for arr in table:
            with pytest.raises(ValueError):
                arr.flat[0] = 0
