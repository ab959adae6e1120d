"""Physical configuration and the derived channel statistics.

The configuration mirrors the usual narrowband RIS downlink setup: a source
talks to M single-antenna users through an N-element reflecting surface while
a passive eavesdropper listens.  All links are Rayleigh with log-distance
path loss.  Every other module consumes only the derived linear-domain
statistics collected in :class:`CltParams`; dB values appear at this
configuration boundary and nowhere else.

:class:`SystemConfig` is the one check of a configuration, for JSON documents
and Python callers alike: a value of the wrong type, past the float64 range,
non-finite or out of bounds raises DomainError naming its field.  The
float fields are stored as ``float`` and the integer fields as ``int``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .errors import DomainError
from .specfun import log_q


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one RIS-aided downlink scenario.

    Distances are in meters, ``z0`` is the reference path loss in dB at 1 m,
    ``upsilon`` the path-loss exponent, ``gamma0_db`` the transmit SNR in dB
    and ``r_th`` the secrecy-rate threshold in bits per channel use.
    """

    n_elements: int = 64
    n_users: int = 3
    d_sr: float = 45.0
    d_rd: float = 45.0
    d_re: float = 30.0
    z0: float = 42.0
    upsilon: float = 3.5
    gamma0_db: float = 20.0
    r_th: float = 1.0

    def __post_init__(self):
        # Stored as plain int/float, a config built from 45 or np.int64(64)
        # equals, and writes the same CSV as, the one parsed from JSON.
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            is_int = field.type == "int"
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if is_int else numbers.Real
            ):
                kind = "an integer" if is_int else "a number"
                raise DomainError(f"{name} must be {kind}, got {value!r}")
            try:
                as_float = float(value)  # as the derived statistics convert it
            except OverflowError:
                bits = int(value).bit_length()
                raise DomainError(
                    f"{name}: a {bits}-bit integer leaves the float64 range"
                ) from None
            if not math.isfinite(as_float):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, int(value) if is_int else as_float)
        if self.n_elements < 1:
            raise DomainError(f"n_elements must be >= 1, got {self.n_elements}")
        if self.n_users < 1:
            raise DomainError(f"n_users must be >= 1, got {self.n_users}")
        for name in ("d_sr", "d_rd", "d_re"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        if self.r_th <= 0:
            raise DomainError(f"r_th must be positive, got {self.r_th}")
        if self.upsilon <= 0:
            raise DomainError(f"upsilon must be positive, got {self.upsilon}")


@dataclass(frozen=True)
class CltParams:
    """Linear-domain statistics of the destination and eavesdropper SNRs.

    ``mu_d`` and ``sigma2_d`` are the mean and variance of the aggregated
    destination channel amplitude under the Gaussian (large-N) model, and
    ``lambda_e`` the mean of the exponentially distributed eavesdropper SNR.
    ``offset`` is the additive term of the outage threshold ``rho * x +
    offset``: rho - 1 at finite SNR, 0 on the high-SNR routes, which is how
    the paper obtains them.  ``xi`` and ``1 - xi`` are derived from
    ``mu_d`` and ``sigma2_d`` where they are read, by :meth:`truncation`.
    """

    mu_d: float
    sigma2_d: float
    lambda_e: float
    gamma0: float
    rho: float
    zeta_sr: float
    zeta_rd: float
    zeta_re: float
    offset: float

    @property
    def sigma_d(self) -> float:
        return math.sqrt(self.sigma2_d)

    def branch_point(self) -> float:
        """alpha = (mu_d^2 gamma0 - offset) / rho.

        The eavesdropper SNR at which the scheduled user's Q argument changes
        sign; the outage integrals split here when it is positive.
        """
        return (self.mu_d**2 * self.gamma0 - self.offset) / self.rho

    def truncation(self) -> tuple[float, float]:
        """(xi, 1 - xi) from one evaluation of log Q(-mu_d / sigma_d).

        ``xi = 1 / Q(-mu_d / sigma_d)`` makes the truncated amplitude
        distribution integrate to one, without forming 1 - Q(mu_d / sigma_d).
        ``1 - xi = -expm1(-log Q(-mu_d / sigma_d))`` avoids the cancellation of
        forming it from ``xi``: it is -Q(mu_d / sigma_d) / Q(-mu_d / sigma_d),
        negative and tiny at large N.  Only the analytic routes read these,
        so Monte Carlo never loads scipy.
        """
        log_tail = log_q(-self.mu_d / self.sigma_d)
        return math.exp(-log_tail), -math.expm1(-log_tail)


def path_loss_linear(d: float, z0: float, upsilon: float) -> float:
    """Linear channel power gain of the log-distance path loss model.

    Evaluates 10^((z0 - 10 * upsilon * log10(d)) / 10); strictly decreasing
    in the distance ``d``.
    """
    if d <= 0:
        raise DomainError(f"distance must be positive, got {d}")
    return _db_to_linear(z0 - 10.0 * upsilon * math.log10(d))


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:  # inf, as a product past the float64 range gives
        return math.inf


def rho_of(r_th: float) -> float:
    """Linear secrecy threshold 2^r_th; DomainError past the float64 range."""
    try:
        return 2.0**r_th
    except OverflowError:
        raise DomainError(
            f"r_th: linear value 2^{r_th} leaves the float64 range"
        ) from None


def derive_clt_params(cfg: SystemConfig) -> CltParams:
    """Derive every distribution parameter the evaluators need.

    The amplitude mean scales like N and the variance like N, so the ratio
    mu_d / sigma_d grows like sqrt(N) and ``xi`` converges to 1 quickly.  A
    value that overflows or underflows to 0 raises DomainError naming its
    field or statistic.
    """
    zeta_sr = path_loss_linear(cfg.d_sr, cfg.z0, cfg.upsilon)
    zeta_rd = path_loss_linear(cfg.d_rd, cfg.z0, cfg.upsilon)
    zeta_re = path_loss_linear(cfg.d_re, cfg.z0, cfg.upsilon)
    gamma0 = _db_to_linear(cfg.gamma0_db)
    pair_gain = zeta_rd * zeta_sr  # second moment of one amplitude product
    # Keep N as the final factor so doubling N scales both exactly.
    mu_d = (math.pi / 4.0) * math.sqrt(pair_gain) * cfg.n_elements
    sigma2_d = ((16.0 - math.pi**2) / 16.0) * pair_gain * cfg.n_elements
    lambda_e = (zeta_re * zeta_sr * gamma0) * cfg.n_elements
    # The terms square mu_d, the quadrature's breakpoints every amplitude up
    # to mu_d + 8 sigma_d; ``**`` raises OverflowError past the float64 range.
    amp_top = mu_d + 8.0 * math.sqrt(sigma2_d)
    for name, value in {
        "d_sr": zeta_sr, "d_rd": zeta_rd, "d_re": zeta_re, "gamma0_db": gamma0,
        "mu_d": mu_d, "sigma2_d": sigma2_d, "lambda_e": lambda_e,
        "(mu_d + 8 sigma_d)^2": amp_top * amp_top,
    }.items():  # a finite config can still give a value past the float64 range
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name}: linear value {value} leaves the float64 range")
    rho = rho_of(cfg.r_th)
    return CltParams(
        mu_d=mu_d,
        sigma2_d=sigma2_d,
        lambda_e=lambda_e,
        gamma0=gamma0,
        rho=rho,
        zeta_sr=zeta_sr,
        zeta_rd=zeta_rd,
        zeta_re=zeta_re,
        offset=rho - 1.0,
    )
