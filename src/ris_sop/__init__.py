"""Secrecy outage probability of opportunistic scheduling in RIS downlinks.

Four mutually cross-validating evaluation routes for the same quantity:

* :func:`ris_sop.analytic.sop_closed_form` - closed form,
* :func:`ris_sop.asymptotic.sop_asymptotic` - high-SNR saturation level,
* :mod:`ris_sop.quadrature` - adaptive numerical integration oracles,
* :mod:`ris_sop.mcsim` - physical Monte Carlo (includes the two-user NOMA
  scheduling benchmark).
"""

from .analytic import sop_closed_form
from .asymptotic import sop_asymptotic, sop_asymptotic_closed
from .mcsim import estimate, estimate_sop
from .sysmodel import SystemConfig

__all__ = [
    "SystemConfig",
    "estimate",
    "estimate_sop",
    "sop_asymptotic",
    "sop_asymptotic_closed",
    "sop_closed_form",
]

__version__ = "0.1.0"
