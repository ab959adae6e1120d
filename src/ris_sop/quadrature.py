"""Adaptive quadrature oracle for the exponential-weighted outage integrals.

This module is the numerical ground truth (under the Gaussian channel model)
that the closed forms are certified against.  The integrals all share the
shape ``int f(x) dx`` with ``f`` dominated by ``exp(-x / lambda) / lambda``,
so the driver substitutes ``x = lambda * u``, truncates where the exponential
tail mass drops below 1e-15, and refines worst-first with a 15-point
Gauss-Kronrod rule until the accumulated error estimate meets the relative
tolerance.  Known integrand kinks can be declared as explicit panel
boundaries, which matters for the branch-split integrands whose derivative
jumps where the Q-function argument changes sign.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError
from .result import SopResult
from .specfun import q_approx3, q_exact
from .sysmodel import SystemConfig, derive_clt_params

#: Truncation point of the substituted variable u = x / lambda; the weight
#: exp(-u) carries < 1e-15 of its mass beyond here.
TAIL_CUTOFF = 35.0

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


@dataclass(frozen=True)
class QuadratureSpec:
    """A semi-infinite (or truncated) integral to be driven to tolerance.

    ``integrand`` must accept an ndarray of abscissae and return the values
    elementwise.  ``upper`` of None means "integrate to the exponential
    cutoff"; ``breakpoints`` lists interior abscissae that become initial
    panel boundaries.
    """

    integrand: Callable[[np.ndarray], np.ndarray]
    lower: float = 0.0
    rel_tol: float = 1e-10
    max_subdivisions: int = 1 << 20
    upper: float | None = None
    breakpoints: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-4):
            raise DomainError(f"rel_tol must lie in (0, 1e-4], got {self.rel_tol}")
        if self.lower < 0:
            raise DomainError(f"lower bound must be >= 0, got {self.lower}")


class QuadResult(NamedTuple):
    value: float
    error: float
    subdivisions: int


def _panel(g, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = g(mid + half * _NODES)
    k = half * float(np.dot(_WK, y))
    gauss = half * float(np.dot(_WG, y))
    return k, abs(k - gauss)


def integrate_semi_infinite(spec: QuadratureSpec, lambda_scale: float) -> QuadResult:
    """Integrate ``spec.integrand`` against its exponential-tail envelope.

    ``lambda_scale`` is the decay scale of the dominating exponential; it
    normalizes the abscissa before adaptive refinement so that panels behave
    uniformly across transmit-SNR sweeps spanning 100+ dB.
    """
    if lambda_scale <= 0:
        raise DomainError(f"lambda_scale must be positive, got {lambda_scale}")
    lo = spec.lower / lambda_scale
    hi = TAIL_CUTOFF if spec.upper is None else spec.upper / lambda_scale
    if hi <= lo:
        return QuadResult(0.0, 0.0, 0)

    def g(u):
        return spec.integrand(u * lambda_scale) * lambda_scale

    cuts = {lo, hi}
    for bp in spec.breakpoints:
        ub = bp / lambda_scale
        if lo < ub < hi:
            cuts.add(ub)
    edges = sorted(cuts)
    # Presplit long spans so the first error estimates are already local.
    bounds: list[float] = [edges[0]]
    for a, b in zip(edges, edges[1:]):
        pieces = max(1, min(8, int(math.ceil((b - a) / 5.0))))
        bounds.extend(a + (b - a) * (i + 1) / pieces for i in range(pieces))

    heap: list[tuple[float, int, float, float, float, float]] = []
    total = 0.0
    total_err = 0.0
    tick = 0
    for a, b in zip(bounds, bounds[1:]):
        val, err = _panel(g, a, b)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tick, a, b, val, err))
        tick += 1

    splits = 0
    while total_err > spec.rel_tol * max(abs(total), 1e-300):
        if splits >= spec.max_subdivisions or not heap:
            raise AccuracyError(
                f"quadrature stalled at error {total_err:.3e} for value {total:.6e}",
                value=total,
                error=total_err,
            )
        _, _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        vl, el = _panel(g, a, mid)
        vr, er = _panel(g, mid, b)
        total += (vl + vr) - val
        total_err += (el + er) - err
        heapq.heappush(heap, (-el, tick, a, mid, vl, el))
        tick += 1
        heapq.heappush(heap, (-er, tick, mid, b, vr, er))
        tick += 1
        splits += 1
    return QuadResult(total, total_err, splits)


def _sop_quad(cfg: SystemConfig, q, offset: float | None, rel_tol: float) -> SopResult:
    # SOP = int (1 - xi Q(z(x)))^M exppdf(x) dx with the scheduled user's
    # outage threshold rho * x + offset; z changes sign at the branch point,
    # which becomes a panel boundary when it lies inside the range.
    p = derive_clt_params(cfg)
    m_users = cfg.n_users
    sigma = p.sigma_d
    shift = p.threshold_offset(offset)

    def integrand(x):
        y = p.rho * x + shift
        z = (np.sqrt(y / p.gamma0) - p.mu_d) / sigma
        cdf = (1.0 - p.xi * q(z)) ** m_users
        return cdf * (np.exp(-x / p.lambda_e) / p.lambda_e)

    spec = QuadratureSpec(
        integrand=integrand, rel_tol=rel_tol, breakpoints=(p.branch_point(offset),)
    )
    res = integrate_semi_infinite(spec, p.lambda_e)
    return SopResult(value=res.value, method="quadrature", error_estimate=res.error)


def sop_quad_exact_q(cfg: SystemConfig, rel_tol: float = 1e-10) -> SopResult:
    """Reference SOP: exact Q-function inside the scheduled-user CDF.

    This is the model-level ground truth every other route is compared to.
    """
    return _sop_quad(cfg, q_exact, None, rel_tol)


def sop_quad_approx_q(cfg: SystemConfig, rel_tol: float = 1e-10) -> SopResult:
    """SOP with the three-exponential Q inside the integrand.

    Numerically integrates exactly what the closed form evaluates
    analytically, so agreement with :func:`ris_sop.analytic.sop_closed_form`
    certifies the term algebra with no approximation gap in between.
    """
    return _sop_quad(cfg, q_approx3, None, rel_tol)


def sop_quad_asymptotic(cfg: SystemConfig, rel_tol: float = 1e-10) -> SopResult:
    """SOP under the high-SNR simplification of the outage threshold.

    Same integrand as :func:`sop_quad_exact_q` but with the additive
    (rho - 1) term set to 0, i.e. thresholds ``rho * x`` instead of
    ``rho * x + rho - 1``.  Valid only where SNRs dwarf unity.
    """
    return _sop_quad(cfg, q_exact, 0.0, rel_tol)
