import math
from itertools import product

import numpy as np
import pytest
from scipy import stats

from ris_sop.errors import ContractError, DomainError
from ris_sop.mcsim import (
    NOMA_A_BU,
    _wilson,
    estimate_noma_pair,
    estimate_schemes_paired,
    estimate_sop,
    sample_gamma_e,
)
from ris_sop.quadrature import sop_quad_exact_q
from ris_sop.sysmodel import SystemConfig, derive_clt_params

CFG = SystemConfig(n_elements=64, n_users=3, gamma0_db=20.0)
PARAMS = derive_clt_params(CFG)


class TestSampling:
    def test_aggregate_amplitude_mean_matches_model(self):
        # With one user the reference's aggregate amplitude is
        # sqrt(gamma_bu / gamma0), whose mean is mu_d exactly.
        cfg = SystemConfig(n_elements=64, n_users=1)
        p = derive_clt_params(cfg)
        amps = np.sqrt(_bruteforce_snrs(cfg, 20_000, seed=11)[0] / p.gamma0)
        se = amps.std() / math.sqrt(amps.size)
        assert abs(amps.mean() - p.mu_d) < 3 * se

    def test_eavesdropper_mean_matches_model(self):
        g = sample_gamma_e(CFG, 1_000_000, seed=21)
        se = g.std() / math.sqrt(g.size)
        assert abs(g.mean() - PARAMS.lambda_e) < 3 * se

    def test_eavesdropper_sampling_rejects_bad_arguments(self):
        for n_samples in (0, -5):
            with pytest.raises(DomainError):
                sample_gamma_e(CFG, n_samples, seed=1)
        with pytest.raises(DomainError):
            sample_gamma_e(CFG, 10, seed=-1)
        with pytest.raises(DomainError):
            sample_gamma_e(CFG, 10, seed=1, mode="quantum")
        for n_samples, seed in ((10.0, 1), (True, 1), (10, 1.5), (10, False)):
            with pytest.raises(DomainError):
                sample_gamma_e(CFG, n_samples, seed=seed)
        assert sample_gamma_e(CFG, np.int64(10), seed=np.uint64(1)).size == 10

    def test_eavesdropper_goodness_of_fit(self):
        # The exponential law is exact only in the large-N limit; at N=64
        # the sampled statistic sits just inside the 1% critical band.
        g = sample_gamma_e(CFG, 100_000, seed=17)
        d = stats.kstest(g, "expon", args=(0.0, PARAMS.lambda_e)).statistic
        assert d < 1.6276 / math.sqrt(g.size)


class TestEstimateSop:
    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            estimate_sop(CFG, "OUS", 0, seed=1)
        with pytest.raises(DomainError):
            estimate_sop(CFG, "XYZ", 10, seed=1)
        with pytest.raises(DomainError):
            estimate_sop(CFG, "OUS", 10, seed=1, mode="quantum")
        with pytest.raises(DomainError):
            estimate_sop(CFG, "OUS", 10, seed=-3)
        for scheme, trials, seed in (
            ("OUS", 1e3, 1),
            ("OUS", True, 1),
            ("OUS", 10, 1.5),
            ("NOMA_BU", 10, 1.5),
        ):
            with pytest.raises(DomainError):
                estimate_sop(CFG, scheme, trials, seed=seed)
        assert estimate_sop(CFG, "OUS", np.int64(10), seed=np.int64(1)).trials == 10
        with pytest.raises(ContractError):
            estimate_sop(SystemConfig(n_users=1), "NOMA_BU", 10, seed=1)

    def test_single_trial(self):
        est = estimate_sop(CFG, "OUS", 1, seed=5)
        assert est.sop_hat in (0.0, 1.0)
        assert est.trials == 1

    def test_repeatability(self):
        a = estimate_sop(CFG, "OUS", 50_000, seed=123)
        b = estimate_sop(CFG, "OUS", 50_000, seed=123)
        assert a == b

    def test_wilson_interval_envelope(self):
        for trials, seed in ((1, 1), (100, 2), (50_000, 3)):
            est = estimate_sop(CFG, "OUS", trials, seed=seed)
            assert 0.0 <= est.ci_low <= est.sop_hat <= est.ci_high <= 1.0

    def test_wilson_interval_contains_estimate_at_zero_and_all_outages(self):
        # The exact Wilson endpoints at 0 and n outages are 0 and 1.  The
        # rounded formula gives ci_high = 1 - 2^-53 < sop_hat = 1 for 6,341
        # of these n and ci_low > 0 = sop_hat for 4,013 of them.
        for n in [*range(1, 20_001), 60_000, 61_000, 150_000, 300_000]:
            full = _wilson(n, n)
            none = _wilson(0, n)
            assert full.sop_hat == full.ci_high == 1.0, n
            assert none.sop_hat == none.ci_low == 0.0, n
            assert full.ci_low < 1.0 and none.ci_high > 0.0, n

    @pytest.mark.parametrize(
        "scheme, gamma0_db, r_th",
        [
            ("OUS", 0.0, 1.0),
            ("OUS", 20.0, 1.0),
            ("NOMA_BU", -10.0, 0.1),
            ("NOMA_WU", 10.0, 0.05),
        ],
    )
    def test_matches_bruteforce_simulator(self, scheme, gamma0_db, r_th):
        # The NOMA points put the compared SOP well inside (0, 1): about 0.20
        # for the strong user and 0.94 for the weak one.
        slots = 100_000
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=gamma0_db, r_th=r_th)
        gamma_bu, gamma_wu, gamma_e = _bruteforce_snrs(cfg, slots, seed=2024)
        a = NOMA_A_BU
        if scheme == "OUS":
            rate = np.log2(1.0 + gamma_bu) - np.log2(1.0 + gamma_e)
        elif scheme == "NOMA_BU":
            rate = np.log2(1.0 + a * gamma_bu) - np.log2(1.0 + a * gamma_e)
        else:
            sinr_wu = (1.0 - a) * gamma_wu / (a * gamma_wu + 1.0)
            sinr_e = (1.0 - a) * gamma_e / (a * gamma_e + 1.0)
            rate = np.log2(1.0 + sinr_wu) - np.log2(1.0 + sinr_e)
        brute = np.count_nonzero(rate < r_th) / slots
        est = estimate_sop(cfg, scheme, 200_000, seed=31)
        comb = math.sqrt(brute * (1 - brute) / slots + est.stderr**2)
        assert abs(brute - est.sop_hat) < 4 * comb

    def test_shared_channel_coupling_is_visible(self):
        # Sharing the source-surface draw with the eavesdropper lowers the
        # outage rate by roughly a fifth here; the modes must not agree.
        ph = estimate_sop(CFG, "OUS", 400_000, seed=42)
        ind = estimate_sop(CFG, "OUS", 400_000, seed=42, mode="independent")
        comb = math.hypot(ph.stderr, ind.stderr)
        assert ind.sop_hat - ph.sop_hat > 3 * comb
        assert abs(ind.sop_hat - ph.sop_hat) / ind.sop_hat < 0.45

    def test_physical_mode_tracks_model_within_budget(self):
        # The analytic chain assumes user independence and Gaussian
        # aggregate amplitudes; at N=64 those cost ~10-15% on the SOP.
        est = estimate_sop(CFG, "OUS", 400_000, seed=9)
        ref = sop_quad_exact_q(CFG).value
        assert abs(est.sop_hat - ref) / ref < 0.30

    def test_more_users_never_hurt(self):
        ests = [
            estimate_sop(
                SystemConfig(n_elements=64, n_users=m, gamma0_db=20.0),
                "OUS", 400_000, seed=55,
            )
            for m in (1, 2, 3, 4)
        ]
        for a, b in zip(ests, ests[1:]):
            assert b.sop_hat <= a.sop_hat + 3 * math.hypot(a.stderr, b.stderr)
        first, last = ests[0], ests[-1]
        assert first.sop_hat - last.sop_hat > 3 * math.hypot(first.stderr, last.stderr)


class TestNomaEstimates:
    def test_pair_shares_draws_with_scheme_dispatch(self):
        bu, wu = estimate_noma_pair(CFG, 60_000, seed=3)
        assert estimate_sop(CFG, "NOMA_BU", 60_000, seed=3) == bu
        assert estimate_sop(CFG, "NOMA_WU", 60_000, seed=3) == wu

    def test_paired_ordering_and_weak_user_exposure(self):
        for g in (0.0, 20.0, 45.0):
            cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=g)
            ests = estimate_schemes_paired(cfg, 100_000, seed=19)
            # identical draws: power sharing can only increase outages
            assert ests["NOMA_BU"].outages >= ests["OUS"].outages
            assert ests["NOMA_WU"].outages >= ests["NOMA_BU"].outages
            assert ests["NOMA_WU"].sop_hat >= 0.9


def _bruteforce_snrs(cfg, slots, seed):
    """Per-slot (gamma_bu, gamma_wu, gamma_e) from full complex coefficients.

    The reference the chunk kernels are certified against: explicit surface
    phase rotation and no distributional reductions.  The best user maximizes
    the amplitude sum and the surface phases align to it; the worst user has
    the weakest effective channel under those phases, and the eavesdropper
    combines through them.
    """
    p = derive_clt_params(cfg)
    n, m = cfg.n_elements, cfg.n_users
    rng = np.random.default_rng(seed)
    parts = []
    for start in range(0, slots, 2000):
        block = min(2000, slots - start)
        h_sr = _cn(rng, (block, n), p.zeta_sr)
        h_rd = _cn(rng, (block, n, m), p.zeta_rd)
        h_re = _cn(rng, (block, n), p.zeta_re)
        sums = (np.abs(h_rd) * np.abs(h_sr)[:, :, None]).sum(axis=1)
        rows = np.arange(block)
        bu = np.argmax(sums, axis=1)
        theta = -(np.angle(h_sr) + np.angle(h_rd[rows, :, bu]))
        rot = np.exp(1j * theta) * h_sr
        gamma_all = p.gamma0 * np.abs(np.einsum("sn,snm->sm", rot, h_rd)) ** 2
        gamma_bu = p.gamma0 * sums[rows, bu] ** 2
        # Alignment optimality: the rotated sum of the best user's channel
        # is the amplitude sum the kernels square.
        np.testing.assert_allclose(gamma_all[rows, bu], gamma_bu, rtol=1e-12, atol=0)
        gamma_all[rows, bu] = np.inf
        gamma_e = p.gamma0 * np.abs((h_re * rot).sum(axis=1)) ** 2
        parts.append((gamma_bu, gamma_all.min(axis=1), gamma_e))
    return tuple(np.concatenate(c) for c in zip(*parts))


class TestNomaPowerSplit:
    def test_fixed_split_attains_the_grid_search_maximum(self):
        # Reference: the 99-point sum-rate search over strong-user fractions
        # i / 200 that the benchmark's split is defined by.
        grid = np.arange(1, 100, dtype=float) / (2.0 * 100)
        assert grid[-1] == NOMA_A_BU

        def sum_rate(a, gb, gw):
            return np.log2(1.0 + a * gb) + np.log2(
                1.0 + (1.0 - a) * gw / (a * gw + 1.0)
            )

        for seed, (g, m, n) in enumerate(
            product(range(-60, 61, 10), (2, 3, 8), (1, 4, 64))
        ):
            cfg = SystemConfig(n_elements=n, n_users=m, gamma0_db=float(g))
            gb, gw, _ = _bruteforce_snrs(cfg, 1024, seed)
            assert np.all(gw <= gb * (1.0 + 1e-12))
            best = sum_rate(grid[None, :], gb[:, None], gw[:, None]).max(axis=1)
            top = sum_rate(NOMA_A_BU, gb, gw)
            # Ties within a few ulps occur where both SNRs are ~1e-12.
            assert np.all(top >= best - 4 * np.spacing(best)), (g, m, n)


def _cn(rng, shape, gain):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(
        gain / 2.0
    )
