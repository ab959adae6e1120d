"""Closed-form secrecy outage probability of the opportunistic scheduler.

The SOP integral factors, after a multinomial expansion of the powered
three-exponential Q approximation, into elementary terms of the form
``exp(.) + coeff * exp(.) * Q(.)``.  The exponents routinely exceed +-700
across a wide transmit-SNR sweep, so every term is assembled in log domain
and recombined through :func:`ris_sop.specfun.exp_times_q`; a naive
evaluation overflows long before the interesting operating points.

The outer integral splits where the Q-function argument changes sign, so
that a small SOP is never ``1 - total`` with ``total`` near 1.  Each
composition's full-range and tail terms share their constants, so
:func:`order_sums` evaluates both in one pass over the compositions.

The terms and order sums read the outage threshold's offset from
``CltParams.offset``, ``rho - 1`` as derived.  At offset 0 they are the
high-SNR terms of :mod:`ris_sop.asymptotic`, exactly as the paper derives
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, ContractError, EvaluationError
from .specfun import (
    ORDER_CAP, MultinomialTerm, exp_times_q, multinomial_set, signed_binom,
)
from .sysmodel import CltParams, SystemConfig, derive_clt_params

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class SopResult:
    """Closed-form SOP, clipped into [0, 1].

    ``clamp_amount`` is how far the raw expression strayed outside [0, 1]
    before the clip, so callers can see it rather than have it hidden.
    """

    value: float
    clamp_amount: float


def _require_finite(value: float, label: str, k: MultinomialTerm) -> float:
    if not math.isfinite(value):
        raise EvaluationError(f"{label} lost finiteness for k={k.k}: got {value}")
    return value


def _terms(k: MultinomialTerm, params: CltParams, tail: bool) -> tuple[float, float]:
    """Full-range term J+ and tail term I+ of composition ``k``.

    J+ is (1/2) * integral over x in [0, inf) of exp(-chi_k(x)^2 / 2) *
    exppdf(x), chi_k the composition-scaled Q argument at threshold
    ``rho * x + params.offset``; I+ is the same over [alpha, inf), evaluated
    only with ``tail`` (alpha > 0) and otherwise returned as J+.  Both share
    ``s2`` = sigma_d^2 / (sum_i k_i p_i), ``ups`` = 1/(2 s2) + gamma0 /
    (rho lambda_e), the prefactor, the exponent ``a`` and its coefficient.
    """
    mu, rho, lam, g0 = params.mu_d, params.rho, params.lambda_e, params.gamma0
    # Squared from its root, not divided alone: sweeps reproduce bit for bit.
    s2 = math.sqrt(params.sigma2_d / k.p_dot_k) ** 2
    ups = 1.0 / (2.0 * s2) + g0 / (rho * lam)
    pref = g0 / (2.0 * rho * lam * ups)
    a = params.offset / (rho * lam) - mu**2 * g0 / (2.0 * s2 * rho * lam * ups)
    coeff = mu * _SQRT_PI / (s2 * math.sqrt(ups))
    u0 = math.sqrt(params.offset / g0)
    t1 = math.exp(-((u0 - mu) ** 2) / (2.0 * s2))
    b = math.sqrt(2.0 * ups) * (u0 - mu / (2.0 * s2 * ups))
    j = _require_finite(pref * (t1 + coeff * exp_times_q(a, b)), "j_plus_term", k)
    if not tail:
        return j, j
    t1 = math.exp(-(mu**2 * g0 - params.offset) / (rho * lam))
    b = math.sqrt(2.0) * mu * g0 / (rho * lam * math.sqrt(ups))
    return j, _require_finite(pref * (t1 + coeff * exp_times_q(a, b)), "i_plus_term", k)


def j_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the full-range outage integral J+."""
    return _terms(k, params, tail=False)[0]


def i_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the tail integral I+ over [alpha, inf).

    Only meaningful on the branch with alpha > 0; at alpha -> 0 the value
    meets j_plus_term because the integration domains coincide.
    """
    alpha = params.branch_point()
    if alpha <= 0:
        raise ContractError(f"i_plus_term requires alpha > 0, got alpha={alpha}")
    return _terms(k, params, tail=True)[1]


def order_sums(m: int, params: CltParams) -> tuple[float, float]:
    """Order-m integrals (J+(m), T(m)) via the multinomial expansion.

    J+(m) runs over [0, inf) and T(m) over [max(alpha, 0), inf): I+(m) when
    alpha > 0, else J+(m).  Both sum left to right in composition order.
    """
    tail = params.branch_point() > 0
    j_sum = t_sum = 0.0
    for k in multinomial_set(m):
        j, t = _terms(k, params, tail)
        weight = k.coef * k.weight_product
        j_sum += weight * j
        t_sum += weight * t
    return j_sum, t_sum


def sop_closed_form(cfg: SystemConfig) -> SopResult:
    """Closed-form SOP of the best-user scheduler.

    Split at alpha+ = max(alpha, 0): below it the fitted CDF is
    (1 - xi) + xi * fit, with order-m integrals J+(m) - T(m); above it
    1 - xi * fit, with T(m) (J+(m) when alpha <= 0, where the head is
    exactly 0).  The result is clipped into [0, 1], the clamp surfaced.
    """
    params = derive_clt_params(cfg)
    m_users = cfg.n_users
    if m_users > ORDER_CAP:
        raise CapacityError(
            f"n_users capped at {ORDER_CAP} for the closed form, got {m_users}"
        )
    xi, xi_c = params.xi, params.xi_complement()
    orders = range(1, m_users + 1)
    sums = [order_sums(m, params) for m in orders]
    tail_mass = max(params.branch_point(), 0.0) / params.lambda_e
    head = xi_c**m_users * -math.expm1(-tail_mass) + sum(
        math.comb(m_users, m) * xi_c ** (m_users - m) * xi**m * (j - t)
        for m, (j, t) in zip(orders, sums)
    )
    tail = sum(signed_binom(m_users, m) * xi**m * t for m, (_, t) in zip(orders, sums))
    raw = head + (math.exp(-tail_mass) - tail)
    value = min(1.0, max(0.0, raw))
    return SopResult(value=value, clamp_amount=abs(value - raw))
