"""Closed-form secrecy outage probability of the opportunistic scheduler.

The SOP integral factors, after a multinomial expansion of the powered
three-exponential Q approximation, into elementary terms of the form
``exp(.) + coeff * exp(.) * Q(.)``.  The exponents routinely exceed +-700
across a wide transmit-SNR sweep, so every term is assembled in log domain
and recombined through :func:`ris_sop.specfun.exp_times_q`; a naive
evaluation overflows long before the interesting operating points.

The outer integral splits where the Q-function argument changes sign, so
that a small SOP is never ``1 - total`` with ``total`` near 1.
:func:`order_sums` evaluates the terms of every composition of the orders
1..M in one numpy array pass (once per distinct sum_i k_i p_i, from a table
cached per M), full range and tail side by side, and each order's sum is
one row of a single left-to-right accumulate.  Each step applies the
scalar expression elementwise in its original order, with libm ``pow`` and
``exp`` where numpy's vector loops round differently, so the sums are bit
for bit those of a scalar loop over :func:`ris_sop.specfun.multinomial_set`,
errors included, for the parameters ``derive_clt_params`` builds.  (With a
hand-built negative ``sigma2_d`` or ``lambda_e``, ``np.sqrt`` gives NaN and
the pass raises ``DomainError`` where the loop raised ``ValueError`` or
returned a value.)  :func:`order_sums` reports a zero divisor, which the loop
raised as ``ZeroDivisionError``, as ``EvaluationError`` for both routes.

The terms and order sums read the outage threshold's offset from
``CltParams.offset``, ``rho - 1`` as derived.  At offset 0 they are the
high-SNR terms of :mod:`ris_sop.asymptotic`, exactly as the paper derives
them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, EvaluationError
from .specfun import (
    MultinomialTerm, check_order, exp_times_q, multinomial_set, signed_binom,
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


# The two term legs, named as their errors name them: J+ over [0, inf) and
# I+ over [alpha, inf).
_LEGS = ("j_plus_term", "i_plus_term")


def _div(num: float, den: np.ndarray) -> np.ndarray:
    """num / den, raising at a zero divisor as float division does; numpy's
    divide flag misses 0 / 0, inf / 0 and nan / 0."""
    if not (num and math.isfinite(num)) and np.count_nonzero(den == 0):
        raise ZeroDivisionError("float division by zero")
    return num / den


def _terms(p_dot_k: np.ndarray, params: CltParams, tail: bool) -> np.ndarray:
    """Terms at each value of sum_i k_i p_i in ``p_dot_k``: row 0 holds J+,
    row 1, only with ``tail``, I+.

    J+ is (1/2) * integral over x in [0, inf) of exp(-chi_k(x)^2 / 2) *
    exppdf(x), chi_k the composition-scaled Q argument at threshold
    ``rho * x + params.offset``; I+ is the same over [alpha, inf), meaningful
    for alpha > 0.  Both share ``s2`` = sigma_d^2 / (sum_i k_i p_i), ``ups``
    = 1/(2 s2) + gamma0 / (rho lambda_e), the prefactor, the exponent ``a``
    and its coefficient.
    """
    mu, rho, lam, g0, offset = (
        params.mu_d, params.rho, params.lambda_e, params.gamma0, params.offset
    )
    rho_lam = rho * lam
    t1 = np.empty((1 + tail, len(p_dot_k)))
    b = np.empty_like(t1)
    # Each step is the scalar expression applied elementwise, in the same
    # order, so every term keeps the bits of a scalar evaluation, and fails
    # as Python floats do: overflow to inf and NaN are silent (the caller's
    # finiteness check reports a lost term), a zero divisor raises.
    # exp_times_q stays outside, with numpy's own warnings.
    try:
        with np.errstate(all="ignore", divide="raise"):
            # Squared from its root by libm pow, as Python's ``**`` squares;
            # the last bits of x * x differ.  Sweeps reproduce bit for bit.
            s2 = np.float_power(np.sqrt(params.sigma2_d / p_dot_k), 2.0)
            two_s2 = 2.0 * s2
            ups = 1.0 / two_s2 + g0 / rho_lam
            root_ups = np.sqrt(ups)
            pref = _div(g0, 2.0 * rho * lam * ups)
            a = offset / rho_lam - _div(mu**2 * g0, two_s2 * rho * lam * ups)
            coeff = _div(mu * _SQRT_PI, s2 * root_ups)
            u0 = math.sqrt(offset / g0)
            # libm exp per element: numpy's vector exp differs in last bits.
            t1[0] = [*map(math.exp, _div(-((u0 - mu) ** 2), two_s2).tolist())]
            np.multiply(np.sqrt(2.0 * ups), u0 - _div(mu, two_s2 * ups), out=b[0])
            if tail:
                t1[1] = math.exp(-(mu**2 * g0 - offset) / rho_lam)
                b[1] = _div(math.sqrt(2.0) * mu * g0, rho_lam * root_ups)
    except FloatingPointError:
        raise ZeroDivisionError("float division by zero") from None
    etq = exp_times_q(a, b)
    with np.errstate(all="ignore"):
        return pref * (t1 + coeff * etq)


def _one_term(k: MultinomialTerm, params: CltParams, tail: bool) -> float:
    """One composition's I+ with ``tail``, else its J+; J+ is checked first."""
    terms = _terms(np.array([k.p_dot_k]), params, tail)[:, 0].tolist()
    for leg, value in zip(_LEGS, terms):
        if not math.isfinite(value):
            raise EvaluationError(f"{leg} lost finiteness for k={k.k}: got {value}")
    return terms[-1]


def j_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the full-range outage integral J+."""
    return _one_term(k, params, tail=False)


def i_plus_term(k: MultinomialTerm, params: CltParams) -> float:
    """Single multinomial term of the tail integral I+ over [alpha, inf).

    Only meaningful on the branch with alpha > 0; at alpha -> 0 the value
    meets j_plus_term because the integration domains coincide.
    """
    alpha = params.branch_point()
    if alpha <= 0:
        raise ContractError(f"i_plus_term requires alpha > 0, got alpha={alpha}")
    return _one_term(k, params, tail=True)


class _Layout(NamedTuple):
    """The compositions of orders 1..M laid out for one pass.

    ``p_dot_k`` holds the distinct sums k . p in order of first appearance.
    Row m - 1 of ``gather`` and ``weight`` is order m: column 0 is left for
    the 0.0 each sum starts from, then come ``multinomial_set(m)``'s
    compositions, each as its index into ``p_dot_k`` and its
    ``coef * weight_product``, then weight 0.0 up to the widest order.
    """

    p_dot_k: np.ndarray
    gather: np.ndarray
    weight: np.ndarray


@functools.cache
def _layout(m_users: int) -> _Layout:
    index: dict[float, int] = {}
    gather = np.zeros((m_users, 1 + (m_users + 1) * (m_users + 2) // 2), dtype=np.intp)
    weight = np.zeros(gather.shape)
    for row, terms in enumerate(map(multinomial_set, range(1, m_users + 1))):
        cols = slice(1, 1 + len(terms))
        gather[row, cols] = [index.setdefault(t.p_dot_k, len(index)) for t in terms]
        weight[row, cols] = [t.coef * t.weight_product for t in terms]
    p_dot_k = np.array(list(index))
    for arr in (p_dot_k, gather, weight):
        arr.flags.writeable = False
    return _Layout(p_dot_k, gather, weight)


def order_sums(m_users: int, params: CltParams) -> tuple[list[float], list[float]]:
    """[J+(m)] and [T(m)] for each order m = 1..m_users, from one array pass.

    J+(m) runs over [0, inf) and T(m) over [max(alpha, 0), inf): I+(m) when
    alpha > 0, else J+(m).  The terms are evaluated once per distinct
    sum_i k_i p_i of the compositions and spread to them; each order's sum
    then runs left to right from 0.0 in composition order, as a float loop
    adds (``np.sum`` would pair terms and move last bits).  A failure raises
    what that loop raises, but a zero divisor, which the loop raised as
    ZeroDivisionError, is ``EvaluationError("order sums: ...")``.
    """
    check_order(m_users)
    tail = params.branch_point() > 0
    layout = _layout(m_users)
    try:
        terms = _terms(layout.p_dot_k, params, tail)
        if np.count_nonzero(np.isfinite(terms)) < terms.size:
            raise EvaluationError("a term lost finiteness")
    except (ArithmeticError, ValueError):  # DomainError and ZeroDivisionError too
        # Raise what a loop over the compositions raises: the first one to
        # fail, its J+ before its I+.
        try:
            for m in range(1, m_users + 1):
                for k in multinomial_set(m):
                    _one_term(k, params, tail=False)
                    if tail:
                        _one_term(k, params, tail=True)
            raise
        except ZeroDivisionError as exc:
            raise EvaluationError(f"order sums: {exc}") from exc
    # Finite terms times weight 0.0 give +-0.0, which leaves a sum that
    # starts from +0.0 as it is.
    weighted = terms.take(layout.gather, axis=1)  # a fancy index costs 3-5x more
    weighted *= layout.weight
    weighted[..., 0] = 0.0
    sums = np.add.accumulate(weighted, axis=-1)[..., -1]
    return sums[0].tolist(), sums[-1].tolist()


def sop_closed_form(cfg: SystemConfig) -> SopResult:
    """Closed-form SOP of the best-user scheduler.

    Split at alpha+ = max(alpha, 0): below it the fitted CDF is
    (1 - xi) + xi * fit, with order-m integrals J+(m) - T(m); above it
    1 - xi * fit, with T(m) (J+(m) when alpha <= 0, where the head is
    exactly 0).  The result is clipped into [0, 1], the clamp surfaced.
    """
    params = derive_clt_params(cfg)
    m_users = cfg.n_users
    xi, xi_c = params.truncation()
    orders = range(1, m_users + 1)
    js, ts = order_sums(m_users, params)
    tail_mass = max(params.branch_point(), 0.0) / params.lambda_e
    head = xi_c**m_users * -math.expm1(-tail_mass) + sum(
        math.comb(m_users, m) * xi_c ** (m_users - m) * xi**m * (j - t)
        for m, j, t in zip(orders, js, ts)
    )
    tail = sum(signed_binom(m_users, m) * xi**m * t for m, t in zip(orders, ts))
    raw = head + (math.exp(-tail_mass) - tail)
    value = min(1.0, max(0.0, raw))
    return SopResult(value=value, clamp_amount=abs(value - raw))
