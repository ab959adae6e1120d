"""Closed-form secrecy outage probability of the opportunistic scheduler.

The SOP integral factors, after a multinomial expansion of the powered
three-exponential Q approximation, into elementary terms of the form
``exp(.) + coeff * exp(.) * Q(.)``.  The exponents routinely exceed +-700
across a wide transmit-SNR sweep, so every term is assembled in log domain
and recombined through :func:`ris_sop.specfun.exp_times_q`; a naive
evaluation overflows long before the interesting operating points.

The outer integral splits where the Q-function argument changes sign, so
that a small SOP is never ``1 - total`` with ``total`` near 1.

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


def _term_constants(k: MultinomialTerm, params: CltParams):
    """Constants both term integrals share at composition ``k``.

    ``s2`` is the composition-scaled amplitude variance sigma_d^2 / (sum_i
    k_i p_i), ``ups`` the combined quadratic coefficient 1/(2 s2) + gamma0 /
    (rho lambda_e), then the prefactor, the exponent ``a`` that
    :func:`exp_times_q` takes and the coefficient of that product.
    """
    mu, rho, lam, g0 = params.mu_d, params.rho, params.lambda_e, params.gamma0
    # Squared from its root, not divided alone: sweeps reproduce bit for bit.
    s2 = math.sqrt(params.sigma2_d / k.p_dot_k) ** 2
    ups = 1.0 / (2.0 * s2) + g0 / (rho * lam)
    pref = g0 / (2.0 * rho * lam * ups)
    a = params.offset / (rho * lam) - mu**2 * g0 / (2.0 * s2 * rho * lam * ups)
    coeff = mu * _SQRT_PI / (s2 * math.sqrt(ups))
    return s2, ups, pref, a, coeff


def j_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the full-range outage integral.

    Equals (1/2) * integral over x in [0, inf) of
    exp(-chi_k(x)^2 / 2) * exppdf(x), where chi_k is the composition-scaled
    Q argument at threshold ``rho * x + params.offset``; the quadrature
    oracle checks exactly this.
    """
    mu, g0 = params.mu_d, params.gamma0
    s2, ups, pref, a, coeff = _term_constants(k, params)
    u0 = math.sqrt(params.offset / g0)
    t1 = math.exp(-((u0 - mu) ** 2) / (2.0 * s2))
    b = math.sqrt(2.0 * ups) * (u0 - mu / (2.0 * s2 * ups))
    return _require_finite(pref * (t1 + coeff * exp_times_q(a, b)), "j_plus_term", k)


def i_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the tail integral over x in [alpha, inf).

    Only meaningful on the branch with alpha > 0; at alpha -> 0 the value
    meets j_plus_term because the integration domains coincide.
    """
    alpha = params.branch_point()
    if alpha <= 0:
        raise ContractError(f"i_plus_term requires alpha > 0, got alpha={alpha}")
    mu, rho, lam, g0 = params.mu_d, params.rho, params.lambda_e, params.gamma0
    _, ups, pref, a, coeff = _term_constants(k, params)
    t1 = math.exp(-(mu**2 * g0 - params.offset) / (rho * lam))
    b = math.sqrt(2.0) * mu * g0 / (rho * lam * math.sqrt(ups))
    return _require_finite(pref * (t1 + coeff * exp_times_q(a, b)), "i_plus_term", k)


def j_plus(m: int, params: CltParams) -> float:
    """Order-m full-range outage integral, via the multinomial expansion."""
    return sum(
        k.coef * k.weight_product * j_plus_term(k, params) for k in multinomial_set(m)
    )


def i_plus(m: int, params: CltParams) -> float:
    """Order-m tail integral over [alpha, inf); subset of j_plus by domain."""
    return sum(
        k.coef * k.weight_product * i_plus_term(k, params) for k in multinomial_set(m)
    )


def i_minus(m: int, params: CltParams) -> float:
    """Order-m head integral over [0, alpha] of the mirrored-branch power.

    Expressed through the binomial expansion as
    1 - exp(-alpha/lambda_e) - sum_j V(m,j) (J+(j) - I+(j)).
    """
    alpha = params.branch_point()
    if alpha <= 0:
        raise ContractError(f"i_minus requires mu^2*gamma0 > rho-1, got alpha={alpha}")
    correction = sum(
        signed_binom(m, j) * (j_plus(j, params) - i_plus(j, params))
        for j in range(1, m + 1)
    )
    return 1.0 - math.exp(-alpha / params.lambda_e) - correction


def sop_closed_form(cfg: SystemConfig) -> SopResult:
    """Closed-form SOP of the best-user scheduler.

    Split at alpha+ = max(alpha, 0): below it the fitted CDF is
    (1 - xi) + xi * fit, with order-m integrals J+(m) - I+(m); above it
    1 - xi * fit, with T(m) = I+(m) (J+(m) when alpha <= 0, where the head is
    exactly 0).  The result is clipped into [0, 1], the clamp surfaced.
    """
    params = derive_clt_params(cfg)
    m_users = cfg.n_users
    if m_users > ORDER_CAP:
        raise CapacityError(
            f"n_users capped at {ORDER_CAP} for the closed form, got {m_users}"
        )
    xi, xi_c = params.xi, params.xi_complement()
    alpha = params.branch_point()
    orders = range(1, m_users + 1)
    j_vals = [j_plus(m, params) for m in orders]
    t_vals = [i_plus(m, params) for m in orders] if alpha > 0 else j_vals
    tail_mass = max(alpha, 0.0) / params.lambda_e
    head = xi_c**m_users * -math.expm1(-tail_mass) + sum(
        math.comb(m_users, m) * xi_c ** (m_users - m) * xi**m * (j - t)
        for m, j, t in zip(orders, j_vals, t_vals)
    )
    tail = sum(signed_binom(m_users, m) * xi**m * t for m, t in zip(orders, t_vals))
    raw = head + (math.exp(-tail_mass) - tail)
    value = min(1.0, max(0.0, raw))
    return SopResult(value=value, clamp_amount=abs(value - raw))
