"""Gaussian tail functions and combinatorial machinery for the outage sums.

Everything here is pure and reentrant.  The Q-function is evaluated through
the complementary error function; a log-domain variant is provided so that
products of the form ``exp(a) * Q(b)`` can be assembled without overflow even
when ``a`` runs into the thousands (which happens routinely at the extremes
of a transmit-SNR sweep).  Every Q function works elementwise on arrays, as
the quadrature integrands and the term sums need, and returns a float for a
float.  :func:`compositions` lays every multinomial composition the term sums
run over out as arrays, so that a sum over all of them is one array pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .errors import CapacityError, DomainError

_SQRT2 = math.sqrt(2.0)

# Three-exponential fit of the Gaussian tail probability: for x >= 0,
#   Q(x) ~= sum_i (w_i / 2) * exp(-p_i x^2 / 2)
# and the mirrored form 1 - (same sum) for x < 0.  The constants are exactly
# the trapezoidal rule with step pi/6 on Craig's formula
#   Q(x) = (1/pi) * int_0^{pi/2} exp(-x^2 / (2 sin^2 t)) dt,
# i.e. Q(x) ~= (1/6) [exp(-2x^2) + exp(-2x^2/3) + exp(-x^2/2) / 2]
# (cf. Chiani, Dardari & Simon, IEEE Trans. Wireless Commun., 2003).
# Worst absolute error is 1/12 at x = 0; over |x| >= 1 it peaks at 1.365e-3
# near |x| = 1.24, and it stays below 1e-3 once |x| >= 1.5.


class QApproxWeights(NamedTuple):
    w: tuple[float, float, float]
    p: tuple[float, float, float]


Q_APPROX = QApproxWeights(
    w=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0),
    p=(1.0, 4.0, 4.0 / 3.0),
)

#: Largest multinomial expansion order the term enumeration will serve.
ORDER_CAP = 16


def _asarray_checked(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.count_nonzero(np.isnan(arr)):  # cheaper than .any() on small arrays
        raise DomainError("Q-function argument must not be NaN")
    return arr


def q_exact(x):
    """Gaussian tail probability Q(x), elementwise on arrays.

    Computed as erfc(x / sqrt(2)) / 2, which keeps full relative accuracy in
    the far right tail and satisfies Q(-x) = 1 - Q(x) to float precision.
    """
    arr = _asarray_checked(x)
    out = 0.5 * _sp.erfc(arr / _SQRT2)
    return out if arr.ndim else float(out)


def _log_q_right(x):
    # x >= 0: the scaled erfc keeps full accuracy where Q(x) underflows.
    return np.log(0.5 * _sp.erfcx(x / _SQRT2)) - 0.5 * x * x


def _log_q_left(x):
    return np.log1p(-0.5 * _sp.erfc(x / -_SQRT2))  # one op less than -x / _SQRT2


def log_q(x):
    """Natural log of the Gaussian tail probability, elementwise on arrays.

    For x >= 0 the scaled complementary error function is used, so the result
    is accurate (relative error well under 1e-12) even for x up to 1e4 where
    Q(x) itself underflows.  For x < 0 the value is log1p(-Q(-x)).  A float
    gives a float, by the same operations as each array element; NaN raises
    DomainError.
    """
    if isinstance(x, float):  # sysmodel's scalar calls skip the array path
        if math.isnan(x):
            raise DomainError("Q-function argument must not be NaN")
        return float(_log_q_right(x) if x >= 0 else _log_q_left(x))
    arr = _asarray_checked(x)
    with np.errstate(over="ignore"):
        out = _log_q_array(arr)
    return out if arr.ndim else float(out)


def _log_q_array(arr: np.ndarray) -> np.ndarray:
    # Each branch sees its own half-line only, 0 elsewhere, so it computes
    # and warns about nothing the result does not keep.  Past |x| = 1.3e154
    # x * x overflows to inf and log Q is -inf, which a float computes
    # silently: callers silence numpy's overflow warning.
    return np.where(
        arr >= 0, _log_q_right(np.maximum(arr, 0.0)), _log_q_left(np.minimum(arr, 0.0))
    )


def q_approx3(x):
    """Three-exponential approximation of Q(x), elementwise on arrays.

    The branch point x = 0 belongs to the nonnegative branch, so
    q_approx3(0) = 5/12.
    """
    arr = _asarray_checked(x)
    x2 = arr * arr
    s = np.zeros_like(x2)
    for w, p in zip(Q_APPROX.w, Q_APPROX.p):
        s += (0.5 * w) * np.exp(-0.5 * p * x2)
    out = np.where(arr >= 0, s, 1.0 - s)
    return float(out) if arr.ndim == 0 else out


def exp_times_q(a, b):
    """exp(a) * Q(b) assembled in log domain, elementwise on arrays.

    0.0 wherever a = -inf, without looking at b; a NaN b elsewhere raises
    DomainError.  May give inf where the product genuinely overflows;
    callers that need finiteness must check.  Floats give a float.
    """
    a = np.asarray(a, dtype=float)
    dead = a == -math.inf
    if np.count_nonzero(dead):  # exp(-inf + log_q(0)) is the 0.0 needed
        b = np.where(dead, 0.0, b)
    b = _asarray_checked(b)
    # As for floats, a squared b past 1.3e154 and inf - inf are silent.
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = a + _log_q_array(b)
    out = np.exp(exponent)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MultinomialTerm:
    """One composition k = (k1, k2, k3) of the expansion order m.

    ``coef`` is the exact multinomial coefficient m! / (k1! k2! k3!),
    ``weight_product`` is w1^k1 w2^k2 w3^k3 / 2^(m-1), and ``p_dot_k`` is
    sum_i k_i p_i (always >= m * min(p)).
    """

    k: tuple[int, int, int]
    coef: int
    weight_product: float
    p_dot_k: float


def check_order(m: int) -> None:
    """Refuse an expansion order below 1 or above ORDER_CAP."""
    if m < 1:
        raise DomainError(f"expansion order must be >= 1, got {m}")
    if m > ORDER_CAP:
        raise CapacityError(f"expansion order {m} exceeds cap {ORDER_CAP}")


@functools.cache
def multinomial_set(m: int) -> tuple[MultinomialTerm, ...]:
    """All integer triples (k1, k2, k3) with k1+k2+k3 = m, exactly once.

    The cached tuple of (m+1)(m+2)/2 entries is built once per order.
    Coefficients are exact integers for every supported order; orders above
    ORDER_CAP are refused because the binomial prefactors of the outage sum
    grow factorially.
    """
    check_order(m)
    w1, w2, w3 = Q_APPROX.w
    p1, p2, p3 = Q_APPROX.p
    fact_m = math.factorial(m)
    half_pow = 2.0 ** (m - 1)
    terms = []
    for k1 in range(m + 1):
        for k2 in range(m - k1 + 1):
            k3 = m - k1 - k2
            coef = fact_m // (
                math.factorial(k1) * math.factorial(k2) * math.factorial(k3)
            )
            wp = (w1**k1) * (w2**k2) * (w3**k3) / half_pow
            terms.append(
                MultinomialTerm(
                    k=(k1, k2, k3),
                    coef=coef,
                    weight_product=wp,
                    p_dot_k=k1 * p1 + k2 * p2 + k3 * p3,
                )
            )
    return tuple(terms)


class Compositions(NamedTuple):
    """Every composition of the orders 1..ORDER_CAP, order by order.

    Entry i is composition ``k[i]`` with weight ``weight[i]``, its
    ``coef * weight_product`` as in :func:`multinomial_set`.  Order m holds
    entries ``starts[m - 1]`` up to ``starts[m]``, in ``multinomial_set(m)``'s
    order.  A term depends on its composition only through sum_i k_i p_i,
    which takes 208 distinct values over the 968 entries: ``p_values`` lists
    them in order of first appearance, so the values of orders 1..m come
    first, and entry i's is ``p_values[p_index[i]]``.  The arrays are
    read-only.
    """

    k: tuple[tuple[int, int, int], ...]
    weight: np.ndarray
    starts: tuple[int, ...]
    p_values: np.ndarray
    p_index: np.ndarray


@functools.cache
def compositions() -> Compositions:
    """The composition arrays, built on first use and shared."""
    orders = [multinomial_set(m) for m in range(1, ORDER_CAP + 1)]
    terms = [t for order in orders for t in order]
    p_index = {}
    for t in terms:
        p_index.setdefault(t.p_dot_k, len(p_index))
    weight, p_values, index = arrays = (
        np.array([t.coef * t.weight_product for t in terms]),
        np.array(list(p_index)),
        np.array([p_index[t.p_dot_k] for t in terms]),
    )
    for arr in arrays:
        arr.flags.writeable = False
    starts = tuple(itertools.accumulate(map(len, orders), initial=0))
    return Compositions(tuple(t.k for t in terms), weight, starts, p_values, index)


def signed_binom(x: int, y: int) -> int:
    """Alternating binomial prefactor (-1)^(y+1) * C(x, y)."""
    if y < 0 or y > x:
        raise DomainError(f"signed_binom requires 0 <= y <= x, got ({x}, {y})")
    c = math.comb(x, y)
    return c if y % 2 == 1 else -c
