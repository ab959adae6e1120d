"""Bit-exact regression of the Monte Carlo estimates.

The reproducibility contract fixes every draw by (seed, chunk, link tag), so
an outage count at a given (config, trials, seed, mode) is a constant.  This
file pins those constants: the OUS ``estimate_sop`` count, the three counts
of one ``estimate_schemes_paired`` pass, and ``float.hex`` of
``sample_gamma_e`` samples from each chunk, in both sampling modes.  40,000
trials are two full chunks plus a partial one, so the chunking and the
block-order reduction are both under test.  Every pinned count lies
strictly inside (0, 40,000): a count saturated at either end would not
notice a changed draw.  A refactor of the chunk driver or the kernels that
moves one slot moves a count here.
"""

import pytest

from ris_sop.mcsim import estimate_schemes_paired, estimate_sop, sample_gamma_e
from ris_sop.sysmodel import SystemConfig

TRIALS = 40_000
SEED = 7
DEFAULT = SystemConfig()  # N=64, M=3, 20 dB: NOMA_WU is out in every slot
LOW_RATE = SystemConfig(n_elements=16, n_users=3, gamma0_db=10.0, r_th=0.05)
# NOMA_BU and OUS differ on these; at N=4, M=2 NOMA_WU is far from saturated.
FIVE_USERS = SystemConfig(n_elements=16, n_users=5, gamma0_db=25.0, r_th=0.6)
PAIR = SystemConfig(n_elements=4, n_users=2, gamma0_db=10.0, r_th=0.01)

# (config, mode, OUS outages from estimate_sop)
GOLDEN_OUS = [
    (DEFAULT, "physical", 209),
    (DEFAULT, "independent", 289),
    (LOW_RATE, "physical", 2661),
    (LOW_RATE, "independent", 3343),
]

# (config, mode, paired outages {scheme: count})
GOLDEN_PAIRED = [
    (LOW_RATE, "physical", {"OUS": 2611, "NOMA_BU": 2830, "NOMA_WU": 39250}),
    (LOW_RATE, "independent", {"OUS": 3326, "NOMA_BU": 3561, "NOMA_WU": 39159}),
    (FIVE_USERS, "physical", {"OUS": 4855, "NOMA_BU": 5011, "NOMA_WU": 39969}),
    (FIVE_USERS, "independent", {"OUS": 5465, "NOMA_BU": 5599, "NOMA_WU": 39964}),
    (PAIR, "physical", {"OUS": 19110, "NOMA_BU": 20792, "NOMA_WU": 37627}),
    (PAIR, "independent", {"OUS": 18568, "NOMA_BU": 19858, "NOMA_WU": 36809}),
]

# Sample indices: the head of chunk 0 and the first slot of chunks 1 and 2,
# then the last slot of the partial chunk 2.
GAMMA_E_AT = (0, 1, 2, 16_384, 32_768, 39_999)

# (config, mode, float.hex of the eavesdropper SNR samples at GAMMA_E_AT)
GOLDEN_GAMMA_E = [
    (DEFAULT, "physical",
     ["0x1.b6e7eb7f87abap+4", "0x1.ee417038b5485p+4", "0x1.0f6cb7d2acca5p-1",
      "0x1.42ee5eb3fecc9p+3", "0x1.8480a1ca7adbap+3", "0x1.5172237b38eb4p+3"]),
    (DEFAULT, "independent",
     ["0x1.95fb70d413522p+4", "0x1.04c4c6195b6b3p+5", "0x1.4838775058c11p-1",
      "0x1.a80f4c3ba3d63p+3", "0x1.d519c015cf0adp+3", "0x1.6c2f2fc6203d0p+3"]),
]


@pytest.mark.parametrize("cfg,mode,outages", GOLDEN_OUS)
def test_ous_count_reproduces(cfg, mode, outages):
    est = estimate_sop(cfg, "OUS", TRIALS, SEED, mode)
    assert (est.trials, est.outages) == (TRIALS, outages)


@pytest.mark.parametrize("cfg,mode,counts", GOLDEN_PAIRED)
def test_paired_counts_reproduce(cfg, mode, counts):
    est = estimate_schemes_paired(cfg, TRIALS, SEED, mode)
    assert {scheme: e.outages for scheme, e in est.items()} == counts
    assert all(e.trials == TRIALS for e in est.values())


@pytest.mark.parametrize("cfg,mode,hexes", GOLDEN_GAMMA_E)
def test_gamma_e_samples_reproduce(cfg, mode, hexes):
    samples = sample_gamma_e(cfg, TRIALS, SEED, mode)
    assert samples.shape == (TRIALS,)
    assert [float(samples[i]).hex() for i in GAMMA_E_AT] == hexes
