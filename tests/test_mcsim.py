import math
from itertools import product

import numpy as np
import pytest
from scipy import stats

from ris_sop.errors import ContractError, DomainError
from ris_sop.mcsim import (
    NOMA_A_BU,
    _complex_gaussian,
    _wilson,
    estimate_noma_pair,
    estimate_schemes_paired,
    estimate_sop,
    noma_slot,
    ous_slot,
    realization_rng,
    sample_gamma_e,
    sample_realization,
)
from ris_sop.quadrature import sop_quad_exact_q
from ris_sop.sysmodel import SystemConfig, derive_clt_params

CFG = SystemConfig(n_elements=64, n_users=3, gamma0_db=20.0)
PARAMS = derive_clt_params(CFG)


class TestSampling:
    def test_shapes_and_determinism(self):
        r1 = sample_realization(CFG, realization_rng(9, 4))
        r2 = sample_realization(CFG, realization_rng(9, 4))
        r3 = sample_realization(CFG, realization_rng(9, 5))
        assert r1.h_sr.shape == (64,)
        assert r1.h_rd.shape == (64, 3)
        assert r1.h_re.shape == (64,)
        assert np.array_equal(r1.h_sr, r2.h_sr)
        assert np.array_equal(r1.h_rd, r2.h_rd)
        assert not np.array_equal(r1.h_sr, r3.h_sr)

    def test_zero_gain_gives_zero_coefficients(self):
        z = _complex_gaussian(realization_rng(1, 0), (16,), 0.0)
        assert np.all(z == 0)

    def test_element_amplitude_mean(self):
        # 1e6 coefficients: E|h| = sqrt(pi * zeta) / 2 for Rayleigh links
        cfg = SystemConfig(n_elements=1000, n_users=1)
        p = derive_clt_params(cfg)
        amps = np.concatenate(
            [np.abs(sample_realization(cfg, realization_rng(3, s)).h_sr)
             for s in range(1000)]
        )
        mean = amps.mean()
        expected = math.sqrt(math.pi * p.zeta_sr) / 2.0
        se = amps.std() / math.sqrt(amps.size)
        assert abs(mean - expected) < 3 * se

    def test_aggregate_amplitude_mean_matches_model(self):
        sums = []
        for s in range(3000):
            r = sample_realization(CFG, realization_rng(11, s))
            sums.append((np.abs(r.h_rd) * np.abs(r.h_sr)[:, None]).sum(axis=0))
        sums = np.asarray(sums)
        se = sums.std() / math.sqrt(sums.size)
        assert abs(sums.mean() - PARAMS.mu_d) < 3 * se

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

    def test_eavesdropper_goodness_of_fit(self):
        # The exponential law is exact only in the large-N limit; at N=64
        # the sampled statistic sits just inside the 1% critical band.
        g = sample_gamma_e(CFG, 100_000, seed=17)
        d = stats.kstest(g, "expon", args=(0.0, PARAMS.lambda_e)).statistic
        assert d < 1.6276 / math.sqrt(g.size)


class TestOusSlot:
    def test_single_user_always_selected(self):
        cfg = SystemConfig(n_elements=32, n_users=1)
        for s in range(5):
            out = ous_slot(cfg, sample_realization(cfg, realization_rng(2, s)))
            assert out.selected_user == 0

    def test_alignment_optimality_identity(self):
        # Explicit phase rotation must reproduce the amplitude-sum SNR.
        r = sample_realization(CFG, realization_rng(8, 0))
        out = ous_slot(CFG, r)
        m = out.selected_user
        theta = -(np.angle(r.h_sr) + np.angle(r.h_rd[:, m]))
        coherent = np.sum(r.h_rd[:, m] * np.exp(1j * theta) * r.h_sr)
        gamma_rot = PARAMS.gamma0 * abs(coherent) ** 2
        assert gamma_rot == pytest.approx(out.gamma_d_star, rel=1e-12)

    def test_selected_user_is_argmax(self):
        for s in range(20):
            r = sample_realization(CFG, realization_rng(13, s))
            out = ous_slot(CFG, r)
            per_user = PARAMS.gamma0 * (
                (np.abs(r.h_rd) * np.abs(r.h_sr)[:, None]).sum(axis=0) ** 2
            )
            assert out.gamma_d_star >= per_user.max() * (1 - 1e-12)
            assert out.secrecy_rate >= 0.0
            assert out.outage == (out.secrecy_rate < CFG.r_th)


class TestNomaSlot:
    def test_needs_two_users(self):
        cfg = SystemConfig(n_elements=16, n_users=1)
        with pytest.raises(ContractError):
            noma_slot(cfg, sample_realization(cfg, realization_rng(1, 0)))

    def test_split_strictly_favors_weak_user(self):
        for s in range(100):
            r = sample_realization(CFG, realization_rng(14, s))
            ns = noma_slot(CFG, r)
            # The strong user's SNR is its power share times the full-power
            # SNR of the same best user.
            assert 0.0 < ns.bu.gamma_d_star / ous_slot(CFG, r).gamma_d_star < 0.5
            assert ns.bu.selected_user != ns.wu.selected_user

    def test_best_user_matches_opportunistic_choice(self):
        for s in range(20):
            r = sample_realization(CFG, realization_rng(15, s))
            assert noma_slot(CFG, r).bu.selected_user == ous_slot(CFG, r).selected_user


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
            full = _wilson(n, n, seed=0)
            none = _wilson(0, n, seed=0)
            assert full.sop_hat == full.ci_high == 1.0, n
            assert none.sop_hat == none.ci_low == 0.0, n
            assert full.ci_low < 1.0 and none.ci_high > 0.0, n

    def test_matches_bruteforce_simulator(self):
        # Independent implementation: full complex coefficients, explicit
        # surface phase rotation, no distributional reductions.
        trials, block = 100_000, 2000
        p = PARAMS
        rng = np.random.default_rng(2024)
        outages = 0
        for _ in range(trials // block):
            h_sr = _cn(rng, (block, 64), p.zeta_sr)
            h_rd = _cn(rng, (block, 64, 3), p.zeta_rd)
            h_re = _cn(rng, (block, 64), p.zeta_re)
            a = (np.abs(h_rd) * np.abs(h_sr)[:, :, None]).sum(axis=1)
            best = np.argmax(a, axis=1)
            rows = np.arange(block)
            gamma_d = p.gamma0 * a[rows, best] ** 2
            theta = -(np.angle(h_sr) + np.angle(h_rd[rows, :, best]))
            g_e = (h_re * np.exp(1j * theta) * h_sr).sum(axis=1)
            gamma_e = p.gamma0 * np.abs(g_e) ** 2
            outages += int(np.count_nonzero(gamma_d < p.rho * gamma_e + p.rho - 1))
        brute = outages / trials
        est = estimate_sop(CFG, "OUS", trials, seed=31)
        comb = math.sqrt(brute * (1 - brute) / trials + est.stderr**2)
        assert abs(brute - est.sop_hat) < 4 * comb

    def test_matches_slot_level_path(self):
        trials = 8000
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=0.0)
        slot_outages = sum(
            ous_slot(cfg, sample_realization(cfg, realization_rng(77, s))).outage
            for s in range(trials)
        )
        slot_hat = slot_outages / trials
        est = estimate_sop(cfg, "OUS", 200_000, seed=78)
        comb = math.sqrt(slot_hat * (1 - slot_hat) / trials + est.stderr**2)
        assert abs(slot_hat - est.sop_hat) < 4 * comb

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

    @pytest.mark.parametrize(
        "scheme, gamma0_db, r_th", [("NOMA_BU", -10.0, 0.1), ("NOMA_WU", 10.0, 0.05)]
    )
    def test_matches_slot_level_path(self, scheme, gamma0_db, r_th):
        # Points where the compared SOP lies well inside (0, 1): about 0.20
        # for the strong user and 0.94 for the weak one.
        trials = 8000
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=gamma0_db, r_th=r_th)
        user = "bu" if scheme == "NOMA_BU" else "wu"
        slot_outages = sum(
            getattr(
                noma_slot(cfg, sample_realization(cfg, realization_rng(77, s))), user
            ).outage
            for s in range(trials)
        )
        slot_hat = slot_outages / trials
        est = estimate_sop(cfg, scheme, 200_000, seed=78)
        comb = math.sqrt(slot_hat * (1 - slot_hat) / trials + est.stderr**2)
        assert abs(slot_hat - est.sop_hat) < 4 * comb


def _noma_pair_snrs(n, m, gamma0_db, slots, seed):
    """Per-slot (gamma_bu, gamma_wu) from full complex coefficients.

    The best user maximizes the aligned amplitude sum; the worst user has
    the weakest effective channel under the best user's surface phases.
    """
    p = derive_clt_params(SystemConfig(n_elements=n, n_users=m, gamma0_db=gamma0_db))
    rng = np.random.default_rng(seed)
    h_sr = _cn(rng, (slots, n), p.zeta_sr)
    h_rd = _cn(rng, (slots, n, m), p.zeta_rd)
    sums = (np.abs(h_rd) * np.abs(h_sr)[:, :, None]).sum(axis=1)
    rows = np.arange(slots)
    bu = np.argmax(sums, axis=1)
    theta = -(np.angle(h_sr) + np.angle(h_rd[rows, :, bu]))
    g_all = np.einsum("sn,snm->sm", np.exp(1j * theta) * h_sr, h_rd)
    gamma_all = p.gamma0 * np.abs(g_all) ** 2
    gamma_all[rows, bu] = np.inf
    return p.gamma0 * sums[rows, bu] ** 2, gamma_all.min(axis=1)


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
            gb, gw = _noma_pair_snrs(n, m, float(g), 1024, seed)
            assert np.all(gw <= gb * (1.0 + 1e-12))
            best = sum_rate(grid[None, :], gb[:, None], gw[:, None]).max(axis=1)
            top = sum_rate(NOMA_A_BU, gb, gw)
            # Ties within a few ulps occur where both SNRs are ~1e-12.
            assert np.all(top >= best - 4 * np.spacing(best)), (g, m, n)


def _cn(rng, shape, gain):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(
        gain / 2.0
    )
