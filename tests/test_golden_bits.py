"""Bit-exact regression of the closed-form and saturation-level term sums.

Each row pins ``float.hex`` of ``sop_closed_form(cfg).value``,
``sop_asymptotic(cfg).sop_simplified`` and ``sop_asymptotic(cfg).p2`` at the
default geometry, compared with ``==``.  A refactor of the order sums or
their terms that reorders a single addition moves a last bit here, so the
CSV's byte-identity is a tested fact and not a claim.  The rows cover both
sides of the branch point (alpha <= 0 at N=64, -10 and -6 dB, and at N=256,
-15 dB), M in {1, 3, 8, 16} and N in {64, 256}.
"""

import pytest

from ris_sop.analytic import sop_closed_form
from ris_sop.asymptotic import sop_asymptotic
from ris_sop.sysmodel import SystemConfig

# (N, M, gamma0_db, closed value, saturation level, dropped remainder p2)
GOLDEN = [
    (64, 1, -10.0, "0x1.0000000000000p+0",
     "0x1.ab0779e9d3a49p-8", "-0x1.6de480ad24919p-8"),
    (64, 16, -6.0, "0x1.fffffb5dd41d0p-1",
     "0x1.a6d5812993340p-10", "-0x1.a134f7692f061p-30"),
    (256, 3, -15.0, "0x1.d8e429bab045fp-1",
     "0x1.f270e9d41f892p-30", "-0x1.84271b6b4fddbp-31"),
    (256, 16, -15.0, "0x1.592a1dd7d6b80p-1",
     "0x1.21c033fed2090p-32", "-0x1.2fa2bc097dc54p-49"),
    (64, 1, 20.0, "0x1.97c41ee6bbfdcp-7",
     "0x1.ab0779e9d3a4cp-8", "-0x1.6de480ad24916p-8"),
    (64, 3, 20.0, "0x1.3ce4c0e645be7p-8",
     "0x1.1b1cdf9c12ab9p-8", "-0x1.8feb8152e085ep-12"),
    (64, 8, 40.0, "0x1.3c037a259b882p-9",
     "0x1.3b9893e8239b0p-9", "-0x1.50a063b885116p-19"),
    (64, 16, 0.0, "0x1.b7ab451d89347p-6",
     "0x1.a6d58129933f0p-10", "-0x1.a134f7692f05ep-30"),
    (256, 1, 40.0, "0x1.a488764c2e780p-26",
     "0x1.e0193e82710d9p-29", "-0x1.687dbd55b9411p-26"),
    (256, 3, 0.0, "0x1.5da7a74681d04p-28",
     "0x1.f270e9d41f8c4p-30", "-0x1.84271b6b4fdcep-31"),
    (256, 8, 20.0, "0x1.4c53b14614479p-31",
     "0x1.47f033a2131c0p-31", "-0x1.07cac32201c1fp-38"),
    (256, 16, 40.0, "0x1.21c602a130b14p-32",
     "0x1.21c033fed3900p-32", "-0x1.2fa2bc097dc4cp-49"),
]


@pytest.mark.parametrize("n,m,gamma0_db,closed,level,p2", GOLDEN)
def test_term_sums_reproduce_bit_for_bit(n, m, gamma0_db, closed, level, p2):
    cfg = SystemConfig(n_elements=n, n_users=m, gamma0_db=gamma0_db)
    breakdown = sop_asymptotic(cfg)
    assert sop_closed_form(cfg).value.hex() == closed
    assert breakdown.sop_simplified.hex() == level
    assert breakdown.p2.hex() == p2
