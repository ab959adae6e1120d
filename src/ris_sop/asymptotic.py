"""High-SNR secrecy outage: saturation level and its parameter structure.

Once the transmit SNR dwarfs both unity and the secrecy threshold, the SOP
stops depending on the transmit power entirely: every surviving exponent
collapses onto the ratio of the reflector-to-user and reflector-to-
eavesdropper path gains.  The headline decay factor is computed here in its
cancelled form ``N * pi^2 * ratio / (16 * rho)`` so that sweeping the
transmit SNR (or the source-side distance) leaves the result bit-identical,
not merely close.

Two routes are provided: a term-sum that is the closed form's order sums
at ``CltParams.offset`` 0 instead of rho - 1, and a fully reduced expression
in the basic system parameters only.  The difference between them is one
extra layer of the three-exponential Q substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analytic import i_plus_term, j_plus_term, order_sums_upto
from .errors import DomainError
from .specfun import Q_APPROX, MultinomialTerm, multinomial_set, signed_binom
from .specfun import exp_times_q  # noqa: F401 - bench/tracing.py wraps this name
from .sysmodel import CltParams, SystemConfig, derive_clt_params, rho_of

_Q16 = (16.0 - math.pi**2) / 16.0


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Saturation-level SOP with its decomposition terms.

    ``p1`` is the eavesdropper-tail mass, ``p3`` the scheduling-gain sum
    entering the SOP with a minus sign, and ``p2`` the diagnostic remainder
    that the simplified expression deliberately drops; keeping it visible
    lets tests measure, rather than assume, that it is negligible.
    ``sop_simplified`` equals 1 - p1 - p3; :func:`sop_asymptotic_closed`
    gives the fully reduced parametric form.
    """

    p1: float
    p2: float
    p3: float
    sop_simplified: float
    warnings: tuple[str, ...] = ()


def i_plus_term_asym(k: MultinomialTerm, params: CltParams) -> float:
    """High-SNR tail-integral term: :func:`i_plus_term` at offset 0."""
    return i_plus_term(k, replace(params, offset=0.0))


def j_plus_term_asym(k: MultinomialTerm, params: CltParams) -> float:
    """High-SNR full-range term: :func:`j_plus_term` at offset 0."""
    return j_plus_term(k, replace(params, offset=0.0))


def _gain_ratio(cfg: SystemConfig) -> float:
    # zeta_rd / zeta_re reduces to a pure distance ratio; the reference path
    # loss cancels, which is what makes the invariances below exact.
    try:
        ratio = (cfg.d_re / cfg.d_rd) ** cfg.upsilon
    except OverflowError:
        ratio = math.inf  # the quotient itself can overflow to inf instead
    if ratio == math.inf:
        raise DomainError(
            f"d_re, d_rd: gain ratio (d_re / d_rd)^upsilon leaves the float64 "
            f"range at d_re={cfg.d_re}, d_rd={cfg.d_rd}"
        )
    return ratio


def _validity_warnings(cfg: SystemConfig) -> tuple[str, ...]:
    notes = []
    if cfg.n_users < 3:
        notes.append(
            f"n_users={cfg.n_users}: the large-user simplification is strained"
        )
    if cfg.n_elements < 32:
        notes.append(
            f"n_elements={cfg.n_elements}: the Gaussian channel model is strained"
        )
    return tuple(notes)


def sop_asymptotic(cfg: SystemConfig) -> AsymptoticBreakdown:
    """Saturation-level SOP by the term-sum route, with diagnostics.

    The reported value is exp(-c) - p3 with
    c = N pi^2 (zeta_rd/zeta_re) / (16 rho); the dropped remainder p2 is
    computed anyway so its size relative to p3 can be checked.
    """
    params = replace(derive_clt_params(cfg), offset=0.0)
    m_users = cfg.n_users
    c = cfg.n_elements * math.pi**2 * _gain_ratio(cfg) / (16.0 * params.rho)
    p1 = -math.expm1(-c)
    # J+(m) below M is unused, but it rides in T's array pass: a separate
    # pass for J+(M) alone costs more than these elements.
    js, ts = order_sums_upto(m_users, params)
    p3 = sum(signed_binom(m_users, m) * t for m, t in enumerate(ts, 1))
    p2 = ts[-1] - js[-1]
    # Rounding can leave an underflowed level a few subnormals below 0.
    sop_simplified = max(math.exp(-c) - p3, 0.0)
    return AsymptoticBreakdown(
        p1=p1,
        p2=p2,
        p3=p3,
        sop_simplified=sop_simplified,
        warnings=_validity_warnings(cfg),
    )


def sop_asymptotic_closed(cfg: SystemConfig) -> float:
    """Saturation-level SOP in the basic system parameters only.

    Uses nothing but N, M, the secrecy threshold and the path-gain ratio, so
    the result is independent of the transmit SNR, the source-side path loss
    and the absolute node distances by construction.
    """
    n, m_users = cfg.n_elements, cfg.n_users
    rho, ratio = rho_of(cfg.r_th), _gain_ratio(cfg)
    w = Q_APPROX.w
    p = Q_APPROX.p
    c = n * math.pi**2 * ratio / (16.0 * rho)
    head = 0.0
    tail = 0.0
    for m in range(1, m_users + 1):
        v = signed_binom(m_users, m)
        for k in multinomial_set(m):
            a_k = _Q16 / k.p_dot_k
            denom = rho + 2.0 * a_k * ratio
            wgt = v * k.coef * k.weight_product
            head += wgt * a_k * ratio / denom
            # rho / denom first: 2 pi rho N p.k overflows at large finite rho.
            base = (
                wgt
                * (a_k * math.pi * ratio / (2.0 * denom))
                * math.sqrt(rho / denom)
                * math.sqrt(2.0 * math.pi * n * k.p_dot_k / (16.0 - math.pi**2))
            )
            for wi, pi in zip(w, p):
                tail += (
                    base
                    * wi
                    * math.exp(
                        -n
                        * math.pi**2
                        * ratio
                        * (0.5 + a_k * pi * ratio / rho)
                        / (8.0 * denom)
                    )
                )
    # The fitted-Q layer can push the raw expression a few units in the
    # last decades below zero once the true value underflows any physical
    # meaning; keep the probability contract.
    return max((1.0 - head) * math.exp(-c) - tail, 0.0)
