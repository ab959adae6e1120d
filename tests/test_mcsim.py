import math
import multiprocessing
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product

import numpy as np
import pytest
from scipy import stats

from ris_sop import mcsim
from ris_sop.errors import ContractError, DomainError
from ris_sop.mcsim import (
    _PIECE_BYTES,
    _TAG_DEST_RD,
    _TAG_DEST_SR,
    _TAG_EAV,
    _TAG_EAV_SR,
    CHUNK_SLOTS,
    MODES,
    NOMA_A_BU,
    SCHEMES,
    _rng,
    _wilson,
    estimate,
    estimate_noma_pair,
    estimate_sop,
    sample_gamma_e,
)
from ris_sop.quadrature import sop_quad_exact_q
from ris_sop.sysmodel import SystemConfig, derive_clt_params
from test_golden_mc import GOLDEN_OUS, GOLDEN_PAIRED
from test_golden_mc import SEED as GOLDEN_SEED
from test_golden_mc import TRIALS as GOLDEN_TRIALS

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
        for n_samples in (0, -5, 10.0, True):
            with pytest.raises(DomainError, match="n_samples"):
                sample_gamma_e(CFG, n_samples, seed=1)
        with pytest.raises(DomainError):
            sample_gamma_e(CFG, 10, seed=-1)
        with pytest.raises(DomainError):
            sample_gamma_e(CFG, 10, seed=1, mode="quantum")
        for seed in (1.5, False):
            with pytest.raises(DomainError, match="seed"):
                sample_gamma_e(CFG, 10, seed=seed)
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
            ests = estimate(cfg, SCHEMES, 100_000, seed=19)
            # identical draws: power sharing can only increase outages
            assert ests["NOMA_BU"].outages >= ests["OUS"].outages
            assert ests["NOMA_WU"].outages >= ests["NOMA_BU"].outages
            assert ests["NOMA_WU"].sop_hat >= 0.9

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gamma0_db", [-60.0, 150.0])
    @pytest.mark.parametrize("r_th", [0.01, 1.0, 1000.0, 1023.0])
    def test_strong_user_outages_contain_ous_at_extremes(self, r_th, gamma0_db, mode):
        # Near r_th = 1023 the thresholds overflow to inf (certain outage);
        # the suite's error::RuntimeWarning filter checks that it stays quiet.
        cfg = SystemConfig(n_users=3, gamma0_db=gamma0_db, r_th=r_th)
        ests = estimate(cfg, SCHEMES, 2_000, seed=23, mode=mode)
        assert ests["NOMA_BU"].outages >= ests["OUS"].outages


def _count_draws(monkeypatch):
    """A list that collects the size of every draw through ``mcsim._rng``."""
    drawn, lock, real = [], threading.Lock(), mcsim._rng

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                out = getattr(self._gen, name)(*args, **kwargs)
                with lock:
                    drawn.append(out.size)
                return out
            return draw

    monkeypatch.setattr(mcsim, "_rng", lambda *key: Counting(real(*key)))
    return drawn


def _no_draws(*key):
    raise AssertionError("a refused run drew a variate")


#: Every non-empty set of schemes, in canonical order.
_SCHEME_SETS = [c for r in range(1, 4) for c in combinations(SCHEMES, r)]


class TestPassTable:
    """The one pass each requested scheme set runs, at M = 1, 2 and 3."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_users", [1, 2, 3])
    @pytest.mark.parametrize("schemes", _SCHEME_SETS, ids="+".join)
    def test_each_scheme_set_runs_one_pass(self, schemes, n_users, mode, monkeypatch):
        cfg = SystemConfig(n_elements=8, n_users=n_users, gamma0_db=10.0, r_th=0.3)
        trials, seed = 3000, 5
        paired = schemes != ("OUS",)
        drawn = _count_draws(monkeypatch)
        if paired and n_users == 1:
            # No NOMA pair: every route to the pass refuses before any draw.
            calls = [
                lambda: mcsim._pass(schemes, 8, n_users),
                lambda: estimate(cfg, schemes, trials, seed, mode),
                lambda: estimate_noma_pair(cfg, trials, seed, mode),
                *(lambda s=s: estimate_sop(cfg, s, trials, seed, mode)
                  for s in schemes if s != "OUS"),
            ]
            for call in calls:
                with pytest.raises(ContractError, match="needs n_users >= 2, got 1"):
                    call()
            assert drawn == []
            return
        got = estimate(cfg, schemes, trials, seed, mode)
        assert tuple(got) == schemes  # the requested schemes alone, in order
        if mode == "physical":
            assert sum(drawn) == mcsim._pass(schemes, 8, n_users)[2] * trials
        # A set with a NOMA scheme runs the paired pass: each of its schemes
        # reads what the pass over all of SCHEMES gives it, OUS included.
        full = estimate(cfg, SCHEMES, trials, seed, mode) if paired else got
        assert got == {scheme: full[scheme] for scheme in schemes}
        # estimate_sop runs its one scheme's pass: this one for a NOMA scheme,
        # and for OUS only where OUS alone was asked for.
        for scheme in schemes:
            if scheme != "OUS" or not paired:
                assert estimate_sop(cfg, scheme, trials, seed, mode) == got[scheme]
        if paired:
            pair = estimate_noma_pair(cfg, trials, seed, mode)
            assert pair == (full["NOMA_BU"], full["NOMA_WU"])


class TestSchemesCheck:
    """``estimate`` serves a non-empty list of ``SCHEMES`` names and nothing else."""

    @pytest.mark.parametrize("schemes, message", [
        ("OUS", "schemes must be a non-empty list, got 'OUS'"),
        ((), "schemes must be a non-empty list, got ()"),
        (("XYZ",), f"unknown scheme 'XYZ'; expected one of {SCHEMES}"),
        ([1], f"unknown scheme 1; expected one of {SCHEMES}"),
        (["OUS", "XYZ"], f"unknown scheme 'XYZ'; expected one of {SCHEMES}"),
    ], ids=["string", "empty", "unknown", "not-a-name", "one-unknown"])
    def test_bad_schemes_are_refused_before_any_draw(self, schemes, message,
                                                      monkeypatch):
        monkeypatch.setattr(mcsim, "_rng", _no_draws)
        with pytest.raises(DomainError) as info:
            estimate(CFG, schemes, 10, seed=1)
        assert str(info.value) == message


class TestVariateCap:
    """No estimate draws past ``mcsim._MAX_VARIATES`` random variates."""

    def test_a_run_past_the_cap_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_rng", _no_draws)
        per_slot = mcsim._pass(("OUS",), 64, 3)[2]
        assert per_slot == 257
        trials = mcsim._MAX_VARIATES // per_slot + 1
        with pytest.raises(DomainError) as info:
            estimate_sop(CFG, "OUS", trials, seed=1)
        assert str(info.value) == (
            f"{trials} slots x 257 variates = {257 * trials} variates, "
            f"cap is {mcsim._MAX_VARIATES}")
        samples = mcsim._MAX_VARIATES // 65 + 1  # N + 1 variates per sample
        with pytest.raises(DomainError, match=f"= {65 * samples} variates, cap is"):
            sample_gamma_e(CFG, samples, seed=1)

    @pytest.mark.parametrize("run, per_slot", [
        (lambda trials: estimate_sop(CFG, "OUS", trials, seed=1), 257),
        (lambda trials: estimate_sop(CFG, "NOMA_WU", trials, seed=1), 449),
        (lambda trials: estimate(CFG, SCHEMES, trials, seed=1), 449),
        (lambda trials: estimate_noma_pair(CFG, trials, seed=1), 449),
        (lambda trials: sample_gamma_e(CFG, trials, seed=1), 65),
    ], ids=["ous", "noma-scheme", "paired", "noma-pair", "gamma-e"])
    def test_the_cap_admits_a_run_that_reaches_it(self, run, per_slot, monkeypatch):
        monkeypatch.setattr(mcsim, "_MAX_VARIATES", 100 * per_slot)
        run(100)  # exactly at the cap
        monkeypatch.setattr(mcsim, "_rng", _no_draws)
        message = f"101 slots x {per_slot} variates = {101 * per_slot} variates"
        with pytest.raises(DomainError, match=message):
            run(101)

    def test_the_cap_comes_after_the_trial_and_seed_checks(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_MAX_VARIATES", 0)
        for trials, seed, name in ((0, 1, "trials"), (1.5, 1, "trials"),
                                   (10, -1, "seed"), (10, 2**64, "seed")):
            with pytest.raises(DomainError, match=name):
                estimate_sop(CFG, "OUS", trials, seed)


_KERNELS = ("_ous_chunk", "_noma_chunk")


class TestChunkPieces:
    @pytest.mark.parametrize("mode", MODES)
    def test_pieces_reproduce_whole_chunk_draws(self, mode):
        independent = mode == "independent"
        _, gamma_e = _whole_chunk_snrs(CFG, 40_000, 7, independent)
        assert sample_gamma_e(CFG, 40_000, 7, mode).tobytes() == gamma_e.tobytes()
        # Two full chunks, then a chunk that ends inside its second piece.
        trials = 2 * CHUNK_SLOTS + 1000
        step = _step("_ous_chunk")
        assert step < trials % CHUNK_SLOTS < 2 * step
        gamma_d, gamma_e = _whole_chunk_snrs(CFG, trials, 7, independent)
        outages = np.count_nonzero(gamma_d < PARAMS.rho * gamma_e + PARAMS.offset)
        assert outages > 0
        assert estimate_sop(CFG, "OUS", trials, 7, mode).outages == outages

    @pytest.mark.parametrize("mode", MODES)
    def test_noma_pieces_reproduce_whole_chunk_draws(self, mode, monkeypatch):
        # Small enough for whole-chunk complex arrays, and no count is 0 or
        # every slot.  The last chunk ends inside its second piece.
        cfg = SystemConfig(n_elements=16, n_users=5, gamma0_db=10.0, r_th=0.01)
        independent = mode == "independent"
        trials = 2 * CHUNK_SLOTS + 1000
        step = _step("_noma_chunk", cfg)
        assert step < trials % CHUNK_SLOTS < 2 * step
        counts, gains = _whole_chunk_noma(cfg, trials, 7, independent)
        assert all(0 < c < trials for c in counts)
        got = estimate(cfg, SCHEMES, trials, 7, mode)
        assert tuple(got[s].outages for s in ("NOMA_BU", "NOMA_WU", "OUS")) == counts
        # A count does not see an ulp; every user's combined channel under
        # the best user's phases does, slot by slot.
        products = _Products()
        monkeypatch.setattr(mcsim, "np", products)
        for block, size in _chunks(trials):
            mcsim._noma_chunk(cfg, derive_clt_params(cfg), 7, block, size, independent)
        kernel_gains = [g for g in products.kept if g.dtype == np.complex128]
        assert np.concatenate(kernel_gains)[:, 0, :].tobytes() == gains.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_counts_do_not_depend_on_the_piece_size(self, mode, monkeypatch):
        # A 700,000-byte budget gives pieces of 455 (OUS) and 227 (NOMA)
        # slots here, against 682 and 341 by default; each divides neither
        # CHUNK_SLOTS nor its kernel's default, so every piece boundary moves.
        trials = 35_000

        def counts():
            paired = estimate(CFG, SCHEMES, trials, 7, mode)
            ous = estimate_sop(CFG, "OUS", trials, 7, mode)
            return ous.outages, {scheme: e.outages for scheme, e in paired.items()}

        default = counts()
        assert default[0] > 0 and all(default[1].values())
        steps = {kernel: _step(kernel) for kernel in _KERNELS}
        monkeypatch.setattr(mcsim, "_PIECE_BYTES", 700_000)
        for kernel, default_step in steps.items():
            step = _step(kernel)
            assert step != default_step
            assert CHUNK_SLOTS % step and default_step % step
        assert counts() == default

    @pytest.mark.parametrize("kernel", _KERNELS)
    @pytest.mark.parametrize("n_users", [3, 8])
    def test_piece_working_set_is_capped(self, kernel, n_users):
        # The per-piece arrays grow with n_elements * n_users; the byte cap
        # bounds them at any M, and a kernel allocates them once a chunk.
        # Each cap is its kernel's peak rounded up to the next 0.25 budget:
        # OUS 1.38 (M=3) and 1.16 (M=8), NOMA 2.52 and 1.99.  An OUS kernel
        # that allocates each piece's arrays afresh peaks at 2.37 and fails.
        cfg = SystemConfig(n_elements=64, n_users=n_users)
        p = derive_clt_params(cfg)
        tracemalloc.start()
        try:
            getattr(mcsim, kernel)(cfg, p, 7, 0, 4096, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {"_ous_chunk": 1.5, "_noma_chunk": 2.75}[kernel] * _PIECE_BYTES


class TestEavesdropperSeam:
    """``_slots`` yields the eavesdropper SNR's scale and its Exp(1) draw
    apart, and each kernel multiplies the two, so the counts must not move.
    At the golden seed a kernel's counts over the golden run's chunks (two
    full, then a 7,232-slot tail) are ``test_golden_mc.py``'s.  At a second
    seed they equal those of whole-chunk draws whose SNR is one product,
    after the full first chunk and after the tail."""

    @pytest.mark.parametrize("mode", MODES)
    def test_slots_yield_the_scale_and_the_draw_apart(self, mode):
        independent = mode == "independent"
        size = 1000
        pieces = [
            (scale.copy(), e.copy())
            for _, scale, e in mcsim._slots(CFG, PARAMS, 7, 2, size, independent, 300)
        ]
        scale, e = (np.concatenate(c) for c in zip(*pieces))
        draw = _rng(7, 2, _TAG_EAV).standard_exponential(size)
        assert e.tobytes() == draw.tobytes()
        _, gamma_e = _whole_chunk_eav(PARAMS, CFG.n_elements, 7, 2, size, independent)
        assert (scale * e).tobytes() == gamma_e.tobytes()

    @pytest.mark.parametrize("cfg,mode,outages", GOLDEN_OUS)
    def test_ous_kernel_counts(self, cfg, mode, outages):
        independent = mode == "independent"
        assert _running_counts("_ous_chunk", cfg, GOLDEN_SEED, independent)[-1] == [outages]
        p = derive_clt_params(cfg)
        gamma_d, gamma_e = _whole_chunk_snrs(cfg, GOLDEN_TRIALS, 11, independent)
        out = np.cumsum(gamma_d < p.rho * gamma_e + p.offset)
        ends = [CHUNK_SLOTS, GOLDEN_TRIALS]
        expected = [[int(out[end - 1])] for end in ends]
        running = _running_counts("_ous_chunk", cfg, 11, independent)
        assert [running[0], running[-1]] == expected

    @pytest.mark.parametrize("cfg,mode,counts", GOLDEN_PAIRED)
    def test_noma_kernel_counts(self, cfg, mode, counts):
        independent = mode == "independent"
        order = ("NOMA_BU", "NOMA_WU", "OUS")
        golden = _running_counts("_noma_chunk", cfg, GOLDEN_SEED, independent)[-1]
        assert dict(zip(order, golden)) == counts
        expected = [
            list(_whole_chunk_noma(cfg, slots, 11, independent)[0])
            for slots in (CHUNK_SLOTS, GOLDEN_TRIALS)
        ]
        running = _running_counts("_noma_chunk", cfg, 11, independent)
        assert [running[0], running[-1]] == expected


def _running_counts(kernel, cfg, seed, independent):
    """``kernel``'s counts summed over the golden run's chunks, after each."""
    p = derive_clt_params(cfg)
    totals, running = None, []
    for block, size in _chunks(GOLDEN_TRIALS):
        counts = getattr(mcsim, kernel)(cfg, p, seed, block, size, independent)
        totals = list(counts) if totals is None else [t + c for t, c in zip(totals, counts)]
        running.append(totals)
    return running


def _step(kernel, cfg=CFG):
    """Slots per piece of ``kernel`` at ``cfg``: the size of the first piece
    it reads of a full chunk, through a ``_slots`` that stops there."""
    sizes, slots = [], mcsim._slots

    def first_piece(*args):
        piece = next(slots(*args))
        sizes.append(len(piece[0]))
        yield piece

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcsim, "_slots", first_piece)
        getattr(mcsim, kernel)(cfg, derive_clt_params(cfg), 7, 0, CHUNK_SLOTS, False)
    return sizes[0]


def _whole_chunk_snrs(cfg, slots, seed, independent):
    """Per-slot OUS (gamma_d, gamma_e), each chunk's streams drawn in one call.

    The kernels read every stream in pieces; this reference reads each
    chunk's streams whole and applies the kernels' arithmetic, so the pieces
    must reproduce it bit for bit.
    """
    p = derive_clt_params(cfg)
    n, m = cfg.n_elements, cfg.n_users
    parts = []
    for block, size in _chunks(slots):
        g_sr, gamma_e = _whole_chunk_eav(p, n, seed, block, size, independent)
        g_rd = _rng(seed, block, _TAG_DEST_RD).standard_exponential((size, n, m))
        sums = np.matmul(np.sqrt(g_sr)[:, None, :], np.sqrt(g_rd))[:, 0, :]
        gamma_d = p.gamma0 * p.zeta_rd * p.zeta_sr * sums.max(axis=1) ** 2
        parts.append((gamma_d, gamma_e))
    return tuple(np.concatenate(c) for c in zip(*parts))


def _whole_chunk_noma(cfg, slots, seed, independent):
    """(NOMA_BU, NOMA_WU, OUS) outage counts and every slot's combined
    channels ``g_all``, each chunk's streams drawn in one call and scored
    with the textbook complex arithmetic: the best user's column by
    ``take_along_axis`` and its unit phasor by complex division.  The NOMA
    kernel reads its streams in pieces into one workspace and rounds that
    arithmetic in real parts, so it must reproduce both bit for bit."""
    p = derive_clt_params(cfg)
    n, m = cfg.n_elements, cfg.n_users
    a = NOMA_A_BU
    bu_out = wu_out = ous_out = 0
    gains = []
    for block, size in _chunks(slots):
        g_sr, gamma_e = _whole_chunk_eav(p, n, seed, block, size, independent)
        sr_amp = np.sqrt(p.zeta_sr * g_sr)
        z = _rng(seed, block, _TAG_DEST_RD).standard_normal((size, n, m, 2))
        h_rd = z.view(np.complex128)[..., 0]
        h_rd *= math.sqrt(p.zeta_rd / 2.0)
        sums = np.matmul(sr_amp[:, None, :], np.abs(h_rd))[:, 0, :]
        bu = np.argmax(sums, axis=1)
        rows = np.arange(size)
        gamma_bu = p.gamma0 * sums[rows, bu] ** 2
        h_bu = np.take_along_axis(h_rd, bu[:, None, None], axis=2)[:, :, 0]
        rot = (np.conj(h_bu) / np.abs(h_bu)) * sr_amp
        g_all = np.matmul(rot[:, None, :], h_rd)[:, 0, :]
        gains.append(g_all)
        gamma_all = p.gamma0 * np.abs(g_all) ** 2
        gamma_all[rows, bu] = np.inf
        gamma_wu = gamma_all.min(axis=1)
        bu_out += np.count_nonzero(gamma_bu < p.rho * gamma_e + (p.rho - 1.0) / a)
        ous_out += np.count_nonzero(gamma_bu < p.rho * gamma_e + p.offset)
        wu = (1.0 + gamma_wu) / (1.0 + a * gamma_wu)
        eav = p.rho * (1.0 + gamma_e) / (1.0 + a * gamma_e)
        wu_out += np.count_nonzero(wu < eav)
    return (bu_out, wu_out, ous_out), np.concatenate(gains)


class _Products:
    """numpy as seen from ``mcsim``, keeping a copy of every matmul result."""

    def __init__(self):
        self.kept = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        product = np.matmul(*args, **kwargs)
        self.kept.append(product.copy())
        return product


def _chunks(slots):
    """(block, size) of each chunk of a ``slots``-slot run."""
    for block, start in enumerate(range(0, slots, CHUNK_SLOTS)):
        yield block, min(CHUNK_SLOTS, slots - start)


def _whole_chunk_eav(p, n, seed, block, size, independent):
    """One chunk's source-to-surface powers and eavesdropper SNR, each
    stream drawn in one call."""
    g_sr = _rng(seed, block, _TAG_DEST_SR).standard_exponential((size, n))
    if independent:
        sr = _rng(seed, block, _TAG_EAV_SR).standard_gamma(n, size=size)
        s2 = p.zeta_sr * sr
    else:
        s2 = p.zeta_sr * g_sr.sum(axis=1)
    e = _rng(seed, block, _TAG_EAV).standard_exponential(size)
    return g_sr, p.gamma0 * p.zeta_re * s2 * e


class _KernelFailure(Exception):
    pass


def _estimate_in_child(queue):
    queue.put(estimate_sop(CFG, "OUS", 2 * CHUNK_SLOTS, seed=5).outages)


class TestThreadedDriver:
    def test_kernel_exception_reaches_the_caller(self, monkeypatch):
        kernel = mcsim._ous_chunk

        def failing(cfg, p, seed, block, size, independent):
            if block == 1:
                raise _KernelFailure(block)
            return kernel(cfg, p, seed, block, size, independent)

        monkeypatch.setattr(mcsim, "_ous_chunk", failing)
        with pytest.raises(_KernelFailure):
            estimate_sop(CFG, "OUS", 3 * CHUNK_SLOTS, seed=1)

    def test_queued_chunks_stay_within_a_window(self, monkeypatch):
        # Queueing every chunk up front would make the driver's memory grow
        # with trials; a no-op kernel makes the queue the only cost.
        lock = threading.Lock()
        live, peak, pools = [0], [0], []

        def finished(future):
            with lock:
                live[0] -= 1

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(max_workers)

            def submit(self, fn, *args, **kwargs):
                with lock:
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(finished)
                return future

        def noop(cfg, p, seed, block, size, independent):
            return block

        monkeypatch.setattr(mcsim, "ThreadPoolExecutor", CountingPool)
        blocks = 1000
        got = mcsim._per_chunk(noop, CFG, blocks * CHUNK_SLOTS, 1, "physical", 0)
        assert got == list(range(blocks))
        assert pools == [min(mcsim._usable_cpus(), blocks)]
        assert peak[0] <= mcsim._WINDOW * pools[0]
        # A caller's executor gets the same window over its own threads, the
        # driver opens no pool of its own, and the executor stays open.
        peak[0] = 0
        with CountingPool(3) as shared:
            got = mcsim._per_chunk(
                noop, CFG, blocks * CHUNK_SLOTS, 1, "physical", 0, executor=shared)
            assert got == list(range(blocks))
            assert shared.submit(int).result() == 0
        assert pools == [min(mcsim._usable_cpus(), blocks), 3]
        assert peak[0] <= mcsim._WINDOW * 3

    @pytest.mark.parametrize("scheme", ["OUS", "NOMA_BU"])
    def test_a_shared_executor_gives_the_same_estimate(self, scheme):
        with ThreadPoolExecutor(3) as shared:
            got = estimate_sop(CFG, scheme, 3 * CHUNK_SLOTS, seed=4, executor=shared)
        assert got == estimate_sop(CFG, scheme, 3 * CHUNK_SLOTS, seed=4)

    def test_a_failing_estimate_leaves_a_shared_executor_running(self, monkeypatch):
        # Another caller's work queued behind the failing chunk still runs.
        kernel, others = mcsim._ous_chunk, []

        def failing(cfg, p, seed, block, size, independent):
            if block == 0:
                others.append(shared.submit(str, "other"))
                raise _KernelFailure(block)
            return kernel(cfg, p, seed, block, size, independent)

        monkeypatch.setattr(mcsim, "_ous_chunk", failing)
        with ThreadPoolExecutor(1) as shared:
            with pytest.raises(_KernelFailure):
                estimate_sop(CFG, "OUS", 5 * CHUNK_SLOTS, seed=1, executor=shared)
            assert others[0].result(timeout=60) == "other"
            assert shared.submit(int).result(timeout=60) == 0

    def test_concurrent_estimates_get_the_serial_result(self):
        cfg = SystemConfig(n_elements=16, n_users=3, gamma0_db=10.0, r_th=0.05)
        trials, seed = 40_000, 19
        p = derive_clt_params(cfg)
        serial = [
            mcsim._noma_chunk(cfg, p, seed, block, min(CHUNK_SLOTS, trials - start), False)
            for block, start in enumerate(range(0, trials, CHUNK_SLOTS))
        ]
        expected = dict(zip(("NOMA_BU", "NOMA_WU", "OUS"), map(sum, zip(*serial))))
        # Two estimates open their own pools and two share one.
        shared = ThreadPoolExecutor(2)
        executors = [None, None, shared, shared]
        results = [None] * len(executors)

        def run(i):
            est = estimate(cfg, SCHEMES, trials, seed, executor=executors[i])
            results[i] = {scheme: e.outages for scheme, e in est.items()}

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(executors))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            shared.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(executors)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_can_estimate(self):
        # A pool kept between calls would be copied into the child without
        # its threads, and the child's estimate would wait forever.
        expected = estimate_sop(CFG, "OUS", 2 * CHUNK_SLOTS, seed=5).outages
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_estimate_in_child, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == expected
        assert child.exitcode == 0


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
