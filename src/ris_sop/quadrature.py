"""Adaptive quadrature oracle for the exponential-weighted outage integrals.

This module is the numerical ground truth (under the Gaussian channel model)
that the closed forms are certified against.  The integrals all share the
shape ``int f(x) dx`` with ``f`` dominated by ``exp(-x / lambda) / lambda``,
so the driver substitutes ``x = lambda * u``, truncates where the exponential
tail mass ``exp(-u)`` drops below 1e-15 and below the relative tolerance of
the value, and refines worst-first with a 15-point Gauss-Kronrod rule until
the accumulated error estimate meets the relative tolerance.  The panels a
span is first cut into, and the two halves of each split, are evaluated with
one integrand call on all of their nodes, and one ``np.vecdot`` call forms
all of their Gauss and Kronrod sums.  That call reduces each panel's row with
the BLAS ddot a one-panel ``np.dot`` calls, so the values are bit for bit
those of one panel at a time; a matrix product ``y @ w`` rounds differently.
Every integral, the SOP quadratures and any other caller's alike, runs at
the one tolerance :data:`SOP_REL_TOL` within the one budget
:data:`SOP_MAX_SUBDIVISIONS`.  Known integrand kinks can be declared as
explicit panel boundaries, which matters for the branch-split integrands
whose derivative jumps where the Q-function argument changes sign.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError
from .specfun import q_approx3, q_exact
from .sysmodel import CltParams, SystemConfig, derive_clt_params

#: Initial truncation point of the substituted variable u = x / lambda; the
#: weight exp(-u) carries < 1e-15 of its mass beyond here.  The driver moves
#: it out further when the value is so small that this is not negligible.
TAIL_CUTOFF = 35.0

#: Refinement budget of every integral.  The integrands converge in at most
#: a few dozen subdivisions anywhere in the configuration domain, so running
#: out of it means a stall, which raises AccuracyError promptly.
SOP_MAX_SUBDIVISIONS = 4096

#: Relative tolerance of every integral.
SOP_REL_TOL = 1e-10

# 15-point Kronrod rule with embedded 7-point Gauss rule (positive nodes).
_K_NODES = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_K_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_G_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_K_NODES[:-1], _K_NODES[::-1]])  # 15 ascending
_WK = np.concatenate([_K_WEIGHTS[:-1], _K_WEIGHTS[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_G_WEIGHTS[:-1], _G_WEIGHTS[::-1]])
_W = np.stack([_WK, _WG])


class QuadResult(NamedTuple):
    """An integral's value, its error bound and the panel splits it took."""

    value: float
    error: float
    subdivisions: int


def _panels(g, bounds) -> tuple[list[float], list[float]]:
    """Kronrod values and |Kronrod - Gauss| error estimates of the panels
    between consecutive ``bounds``, from one call of ``g`` on all of their
    nodes.

    One ``vecdot`` call forms every panel's two 15-element sums.  numpy's
    vecdot loop reduces each row with the same BLAS ddot that ``np.dot`` of
    one row calls, so the sums are bit for bit those of one panel at a time;
    a matrix product (``y @ _WK``) rounds differently.
    """
    edges = np.asarray(bounds, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    y = g((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(-1, 1, 15)
    kronrod, gauss = (half[:, None] * np.vecdot(y, _W)).T
    return kronrod.tolist(), np.abs(kronrod - gauss).tolist()


def integrate_semi_infinite(
    integrand: Callable[[np.ndarray], np.ndarray],
    lambda_scale: float,
    *,
    breakpoints: tuple[float, ...] = (),
) -> QuadResult:
    """Integrate ``integrand`` over [0, inf).

    ``integrand`` is called once per span and once per split, each time on
    the nodes of several panels in one 1-D array.  It must map that array
    elementwise: a node's value may depend neither on the array's length nor
    on the other nodes.  ``lambda_scale`` is the decay scale of the
    dominating exponential; it normalizes the abscissa before adaptive
    refinement so that panels behave uniformly across transmit-SNR sweeps
    spanning 100+ dB.  ``breakpoints`` lists interior abscissae that become
    initial panel boundaries.

    The integrand must be bounded by ``exp(-x / lambda_scale) /
    lambda_scale``, so the mass past the cut-off ``u_hi`` of the substituted
    variable is at most ``exp(-u_hi)``.  The cut-off starts at
    :data:`TAIL_CUTOFF` and moves out until that bound is at most half the
    tolerance; the stopping rule and the reported error count it together
    with the panels' error estimates.  A non-finite ``lambda_scale`` raises
    DomainError.
    """
    if not 0 < lambda_scale < math.inf:
        raise DomainError(
            f"lambda_scale must be positive and finite, got {lambda_scale}"
        )
    hi = TAIL_CUTOFF

    def g(u):
        return integrand(u * lambda_scale) * lambda_scale

    cuts = [bp / lambda_scale for bp in breakpoints]
    heap: list[tuple[float, int, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    # Every key holds a unique tick, so the pop order is the keys' order.
    ticks = itertools.count()

    def add_span(start: float, end: float) -> None:
        nonlocal total, total_err
        edges = sorted({start, end, *(c for c in cuts if start < c < end)})
        # Presplit long spans so the first error estimates are already local.
        bounds = [edges[0]]
        for a, b in zip(edges, edges[1:]):
            width = b - a
            pieces = max(1, min(8, math.ceil(width / 5.0)))
            bounds += [a + width * i / pieces for i in range(1, pieces + 1)]
        for a, b, val, err in zip(bounds, bounds[1:], *_panels(g, bounds)):
            total += val
            total_err += err
            heap.append((-err, next(ticks), a, b, val, err))
        heapq.heapify(heap)

    add_span(0.0, hi)
    splits = 0
    while True:
        tol = SOP_REL_TOL * max(abs(total), 1e-300)
        tail = math.exp(-hi)
        if total_err + tail <= tol:
            break
        if tail > 0.5 * tol:
            # Move the cut-off to where the tail bound is tol / 4.  A tol
            # below the least subnormal puts it at 745.8, where exp(-u_hi)
            # is 0.0.
            new_hi = math.log(4.0) - math.log(max(tol, math.ulp(0.0)))
            add_span(hi, new_hi)
            hi = new_hi
            continue
        if splits >= SOP_MAX_SUBDIVISIONS:
            raise AccuracyError(
                f"quadrature stalled at error {total_err + tail:.3e} "
                f"for value {total:.6e}",
                value=total,
                error=total_err + tail,
            )
        # Split the worst panel: its left half replaces it, then the right joins.
        _, _, a, b, val, err = heap[0]
        mid = 0.5 * (a + b)
        (vl, vr), (el, er) = _panels(g, (a, mid, b))
        total += (vl + vr) - val
        total_err += (el + er) - err
        heapq.heapreplace(heap, (-el, next(ticks), a, mid, vl, el))
        heapq.heappush(heap, (-er, next(ticks), mid, b, vr, er))
        splits += 1
    return QuadResult(total, total_err + tail, splits)


def _sop_quad(p: CltParams, m_users: int, q) -> QuadResult:
    # SOP = int (1 - xi Q(z(x)))^M exppdf(x) dx with the scheduled user's
    # outage threshold rho * x + offset; z changes sign at the branch point.
    sigma = p.sigma_d
    xi, xi_c = p.truncation()

    def integrand(x):
        y = p.rho * x + p.offset
        # -z, as rounding is sign-symmetric: mu_d - a is -(a - mu_d) and
        # x / -lambda_e is -x / lambda_e, bit for bit.
        neg_z = (p.mu_d - np.sqrt(y / p.gamma0)) / sigma
        # The CDF 1 - xi Q(z) as (1 - xi) + xi Q(-z), which keeps its
        # relative accuracy where it is tiny (z far below 0) instead of
        # cancelling to ~7 digits.  Q(-z) = 1 - Q(z) holds for q_exact, and
        # for q_approx3 at every z but 0.  z = 0 only at the branch point,
        # a panel edge, where no Gauss-Kronrod node falls.
        cdf = (xi_c + xi * q(neg_z)) ** m_users
        return cdf * (np.exp(x / -p.lambda_e) / p.lambda_e)

    # At large N the CDF's climb over -8 < z < 8 is a few percent of alpha
    # wide and can fall between the first panels' nodes; z = 0 is alpha.
    amplitudes = [p.mu_d + z * sigma for z in (0, -1, 1, -2, 2, -4, 4, -8, 8)]
    breakpoints = tuple(
        (a**2 * p.gamma0 - p.offset) / p.rho for a in amplitudes if a > 0
    )
    # At r_th near 1023, rho * x and q_approx3's z * z overflow to inf at the
    # far nodes.  That is the right limit (z -> inf, so the CDF -> 1), not an
    # error, so the warning is silenced here, once per integral rather than
    # per integrand call; invalid and divide still warn.
    with np.errstate(over="ignore"):
        return integrate_semi_infinite(integrand, p.lambda_e, breakpoints=breakpoints)


def sop_quad_exact_q(cfg: SystemConfig) -> QuadResult:
    """Reference SOP: exact Q-function inside the scheduled-user CDF.

    This is the model-level ground truth every other route is compared to.
    """
    return _sop_quad(derive_clt_params(cfg), cfg.n_users, q_exact)


def sop_quad_approx_q(cfg: SystemConfig) -> QuadResult:
    """SOP with the three-exponential Q inside the integrand.

    Numerically integrates exactly what the closed form evaluates
    analytically, so agreement with :func:`ris_sop.analytic.sop_closed_form`
    certifies the term algebra with no approximation gap in between.  The
    fit's own error near zero amplitude can make the integral negative (N=1
    at 100 dB); EvaluationError names it instead of a clip hiding it.
    """
    res = _sop_quad(derive_clt_params(cfg), cfg.n_users, q_approx3)
    if res.value < 0:
        raise EvaluationError(f"fitted-Q SOP integral is negative: {res.value:.6e}")
    return res


def sop_quad_asymptotic(cfg: SystemConfig) -> QuadResult:
    """SOP under the high-SNR simplification of the outage threshold.

    Same integrand as :func:`sop_quad_exact_q` but at ``CltParams.offset``
    0, i.e. thresholds ``rho * x`` instead of ``rho * x + rho - 1``.  Valid
    only where SNRs dwarf unity.
    """
    params = replace(derive_clt_params(cfg), offset=0.0)
    return _sop_quad(params, cfg.n_users, q_exact)
