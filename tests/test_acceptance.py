"""Acceptance gate: every criterion in one test, one printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  The Monte Carlo criteria use a million trials per grid
point, so the full gate takes several minutes of compute.
"""

import json
import math
import time
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from ris_sop.analytic import (
    i_plus_term,
    j_plus_term,
    order_sums,
    sop_closed_form,
)
from ris_sop.asymptotic import sop_asymptotic_closed
from ris_sop.cli import emit_csv, parse_config, run_sweep
from ris_sop.mcsim import SCHEMES, estimate, estimate_sop, sample_gamma_e
from ris_sop.quadrature import integrate_semi_infinite
from ris_sop.specfun import Q_APPROX, multinomial_set, q_approx3, q_exact
from ris_sop.sysmodel import SystemConfig, derive_clt_params

SEED = 20240617
TRIALS = 1_000_000
_Z95 = 1.959963984540054  # two-sided 95% normal quantile

SWEEP_DOC = json.dumps(
    {
        "base": {"n_users": 3, "n_elements": 64},
        "sweep": {
            "gamma0_db": [float(g) for g in range(-10, 51, 5)],
            "n_elements": [64, 128],
            "n_users": [1, 3],
        },
        "schemes": ["OUS"],
        "evaluators": ["closed", "quad_exact", "mc"],
        "mc_trials": TRIALS,
        "seed": SEED,
    }
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    return line


@pytest.fixture(scope="session")
def sweep_spec():
    return parse_config(SWEEP_DOC)


@pytest.fixture(scope="session")
def sweep_run(sweep_spec):
    """The ``workers=1`` sweep's rows and its wall time in seconds."""
    start = time.time()
    table = run_sweep(sweep_spec, workers=1)
    elapsed = time.time() - start
    print(f"\n[acceptance sweep: {elapsed:.0f}s for "
          f"{len(table)} rows x {TRIALS} trials]")
    return table, elapsed


@pytest.fixture(scope="session")
def sweep_table(sweep_run):
    return sweep_run[0]


@pytest.fixture(scope="session")
def sweep_csv(sweep_table):
    return emit_csv(sweep_table)


def test_criterion_1_term_algebra_certification():
    """Closed-form term sums match quadrature of their defining integrals."""
    start = time.time()
    worst = 0.0
    checked = 0
    for n in (32, 64, 128):
        for g_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            params = derive_clt_params(
                SystemConfig(n_elements=n, n_users=4, gamma0_db=g_db)
            )
            lam = params.lambda_e
            alpha = (params.mu_d**2 * params.gamma0 - (params.rho - 1.0)) / params.rho
            two_branch = alpha > 0

            def chi(x, sigma):
                return (
                    np.sqrt((params.rho - 1 + params.rho * x) / params.gamma0)
                    - params.mu_d
                ) / sigma

            def rel(a, b):
                return abs(a - b) / max(abs(b), 1e-200)

            # [alpha, inf) and [0, alpha] as [0, inf) integrals of the
            # integrand masked to the range, alpha a panel edge.
            def tail(f):
                return lambda x: np.where(x > alpha, f(x), 0.0)

            def head(f):
                return lambda x: np.where(x < alpha, f(x), 0.0)

            for m in range(1, 5):
                for k in multinomial_set(m):
                    def term_igr(x, s=math.sqrt(params.sigma2_d / k.p_dot_k)):
                        return (
                            0.5 * np.exp(-0.5 * chi(x, s) ** 2)
                            * np.exp(-x / lam) / lam
                        )

                    ref = integrate_semi_infinite(
                        term_igr, lam, breakpoints=(alpha,) if two_branch else ()
                    ).value
                    worst = max(worst, rel(j_plus_term(k, params), ref))
                    checked += 1
                    if two_branch:
                        ref_i = integrate_semi_infinite(
                            tail(term_igr), lam, breakpoints=(alpha,)
                        ).value
                        worst = max(worst, rel(i_plus_term(k, params), ref_i))
                        checked += 1

                def order_igr(x, m=m):
                    c = chi(x, params.sigma_d)
                    s = sum(
                        (w / 2) * np.exp(-0.5 * p * c**2)
                        for w, p in zip(Q_APPROX.w, Q_APPROX.p)
                    )
                    return s**m * np.exp(-x / lam) / lam

                j_m, t_m = (s[-1] for s in order_sums(m, params))
                ref_j = integrate_semi_infinite(
                    order_igr, lam, breakpoints=(alpha,) if two_branch else ()
                ).value
                worst = max(worst, rel(j_m, ref_j))
                checked += 1
                if two_branch:
                    ref_ip = integrate_semi_infinite(
                        tail(order_igr), lam, breakpoints=(alpha,)
                    ).value
                    worst = max(worst, rel(t_m, ref_ip))
                    # The head over [0, alpha], which the closed form takes
                    # as J+(m) - I+(m).
                    ref_head = integrate_semi_infinite(
                        head(order_igr), lam, breakpoints=(alpha,)
                    ).value
                    worst = max(worst, rel(j_m - t_m, ref_head))
                    checked += 2
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _verdict(
        1, "term-algebra certification", ok,
        f"worst rel err {worst:.2e} over {checked} integrals (tol 1e-6), "
        f"{elapsed:.0f}s (budget 60s)",
    )
    assert worst <= 1e-6
    assert elapsed <= 60.0


# Three-panel trapezoidal rule on [0, pi/2]: (k, c) is the node k*pi/6 with
# weight c; the t = 0 node contributes nothing for x != 0.
_CRAIG_RULE = ((1, 1), (2, 1), (3, 0.5))


def _craig_trapezoid_error(x, derivative=False):
    """(Trapezoidal rule - exact integral) on Craig's Q formula, in mpmath.

    Craig's formula is Q(x) = (1/pi) int_0^{pi/2} exp(-x^2 / (2 sin^2 t)) dt
    for x >= 0.  With ``derivative`` the same difference is taken for the
    x-derivative of the integrand, which is the derivative of the error.
    """
    x = mpmath.mpf(x)
    h = mpmath.pi / 6

    def f(t):
        s2 = mpmath.sin(t) ** 2
        v = mpmath.exp(-x * x / (2 * s2)) / mpmath.pi
        return -x * v / s2 if derivative else v

    rule = h * sum(c * f(k * h) for k, c in _CRAIG_RULE)
    return rule - mpmath.quad(f, [0, mpmath.pi / 2])


def test_criterion_2_q_approximation_error_bound():
    """Fitted-Q error: <= 0.084 everywhere; for |x| >= 1 at most the peak
    error of the trapezoidal rule the fit is, derived from Craig's formula;
    <= 1e-3 for |x| >= 1.5."""
    with mpmath.workdps(40):
        # Node k*pi/6 with weight c gives w/2 = c/6 and p = 1/sin^2(k*pi/6).
        rule = sorted(
            (float(1 / mpmath.sin(k * mpmath.pi / 6) ** 2), c / 6)
            for k, c in _CRAIG_RULE
        )
        fit = sorted(zip(Q_APPROX.p, (w / 2 for w in Q_APPROX.w)))
        is_rule = bool(np.allclose(rule, fit, rtol=1e-15, atol=0.0))
        # The rule's error is symmetric in x, so the peak over |x| >= 1 is
        # bracketed on x in [1, 10] and refined at a root of its derivative.
        grid = [1 + mpmath.mpf(k) / 10 for k in range(91)]
        start = max(grid, key=lambda x: abs(_craig_trapezoid_error(x)))
        x_peak = mpmath.findroot(
            lambda x: _craig_trapezoid_error(x, derivative=True), start
        )
        peak = float(abs(_craig_trapezoid_error(x_peak)))
        x_peak = float(x_peak)
    xs = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    err = np.abs(q_approx3(xs) - q_exact(xs))
    overall = float(err.max())
    tail = float(err[np.abs(xs) >= 1.0].max())
    far = float(err[np.abs(xs) >= 1.5].max())
    at_peak = abs(float(q_approx3(x_peak)) - float(q_exact(x_peak)))
    # Both subtracted values lie in [0, 1], so the float error curve carries
    # under one ulp of 1.0 each of rounding on top of the exact difference.
    slack = 4 * np.finfo(float).eps
    ok = (
        is_rule and overall <= 0.084 and tail <= peak + slack
        and abs(at_peak - peak) <= slack and far <= 1e-3
    )
    _verdict(
        2, "Q-approximation error bound", ok,
        f"fit is the pi/6 trapezoidal rule on Craig's formula: {is_rule}; "
        f"max |err| {overall:.5f} (<=0.084); for |x|>=1 the rule's derived "
        f"peak is {peak:.5e} at |x|={x_peak:.5f}, float curve max {tail:.5e} "
        f"and {at_peak:.5e} at the peak; for |x|>=1.5 max {far:.2e} (<=1e-3)",
    )
    assert is_rule
    assert overall <= 0.084
    assert tail <= peak + slack
    assert abs(at_peak - peak) <= slack
    assert far <= 1e-3


def test_criterion_3_closed_form_end_to_end_accuracy(sweep_table):
    """Closed form vs exact-Q quadrature within 5% wherever SOP >= 1e-5."""
    start = time.time()
    worst = 0.0
    counted = 0
    for row in sweep_table:
        if row.sop_quad_exact is None or row.sop_quad_exact < 1e-5:
            continue
        counted += 1
        worst = max(worst, abs(row.sop_closed - row.sop_quad_exact) / row.sop_quad_exact)
    elapsed = time.time() - start
    ok = worst <= 0.05 and counted >= 40
    _verdict(
        3, "closed-form end-to-end accuracy", ok,
        f"worst rel err {worst:.2e} over {counted} grid points (tol 5%)",
    )
    assert counted >= 40
    assert worst <= 0.05


def _wilson_se(outages: int, trials: int) -> float:
    """One Wilson standard error: the 95% interval half-width over z."""
    z2 = _Z95**2
    p = outages / trials
    half = math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return half / (1.0 + z2 / trials)


def _model_mc_outages(cfg: SystemConfig, trials: int, key: int) -> int:
    """Outage count of a Monte Carlo of the model the quadrature integrates.

    Each of the M users draws its aggregated amplitude independently from
    N(mu_d, sigma_d^2) truncated to positive values, the largest one is
    scheduled, and the eavesdropper SNR is Exp(lambda_e).  None of the
    package's estimators is used.
    """
    p = derive_clt_params(cfg)
    rng = np.random.Generator(np.random.Philox(key=[SEED, key]))
    c = p.mu_d / p.sigma_d
    # Inversion of the truncated law: P(Z > z | Z > -c) = Q(z) / Q(-c).
    u = 1.0 - rng.random((trials, cfg.n_users))
    amp = p.mu_d - p.sigma_d * special.ndtri(u * special.ndtr(c))
    best = amp.max(axis=1)
    gamma_e = p.lambda_e * rng.standard_exponential(trials)
    return int(np.count_nonzero(p.gamma0 * best**2 < p.rho * gamma_e + (p.rho - 1.0)))


def test_criterion_4_monte_carlo_consistency(sweep_table):
    """Exact-Q quadrature within Bonferroni-corrected Wilson SE of a Monte
    Carlo of the statistical model it integrates."""
    start = time.time()
    rows = [
        r for r in sweep_table
        if r.sop_quad_exact is not None and r.sop_quad_exact >= 1e-4
    ]
    # Split the two-sided 0.27% level of one 3-SE test over all compared
    # points, so a perfect match passes the whole check 99.73% of the time.
    z = -NormalDist().inv_cdf(math.erfc(3.0 / math.sqrt(2.0)) / (2 * len(rows)))
    gaps = []
    physical = []
    for key, row in enumerate(rows):
        cfg = SystemConfig(
            n_elements=row.n_elements, n_users=row.n_users,
            d_sr=row.d_sr, d_rd=row.d_rd, d_re=row.d_re,
            gamma0_db=row.gamma0_db, r_th=row.r_th,
        )
        outages = _model_mc_outages(cfg, TRIALS, key)
        sop = outages / TRIALS
        gaps.append(
            (
                abs(sop - row.sop_quad_exact) / _wilson_se(outages, TRIALS),
                row.gamma0_db, row.n_elements, row.n_users,
                sop, row.sop_quad_exact,
            )
        )
        # The physical channel is a different model; its gap is reported.
        se = (row.sop_mc_ci_high - row.sop_mc_ci_low) / (2 * _Z95)
        physical.append(abs(row.sop_mc - row.sop_quad_exact) / se)
    worst = max(gaps)
    n_over = sum(1 for g in gaps if g[0] > z)
    elapsed = time.time() - start
    ok = n_over == 0
    _verdict(
        4, "Monte Carlo consistency", ok,
        f"{n_over}/{len(gaps)} points beyond {z:.2f} Wilson SE "
        f"(Bonferroni over {len(gaps)} points); worst {worst[0]:.1f} SE at "
        f"gamma0={worst[1]} dB N={worst[2]} M={worst[3]} (model mc "
        f"{worst[4]:.3e} vs quadrature {worst[5]:.3e}); {elapsed:.0f}s. "
        f"Not asserted: the physical channel MC lies beyond {z:.2f} SE at "
        f"{sum(1 for g in physical if g > z)}/{len(physical)} points, worst "
        f"{max(physical):.1f} SE, because the users share the source-surface "
        f"fading and the Gaussian amplitude model ignores the sums' skew.",
    )
    assert ok, f"{n_over} grid points beyond {z:.2f} Wilson SE (worst {worst[0]:.1f})"


def test_criterion_5_saturation_and_multiuser_gain():
    """High-SNR saturation, the ~3 dB multi-user gain, and the saturation level."""
    sat_rel = []
    for n in (64, 128):
        for m in (1, 3):
            v50 = sop_closed_form(
                SystemConfig(n_elements=n, n_users=m, gamma0_db=50.0)
            ).value
            v60 = sop_closed_form(
                SystemConfig(n_elements=n, n_users=m, gamma0_db=60.0)
            ).value
            sat_rel.append(abs(v50 - v60) / v60)
    flat_ok = max(sat_rel) <= 0.10

    def gamma_at(target, m, n=128):
        lo, hi = -10.0, 60.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            val = sop_closed_form(
                SystemConfig(n_elements=n, n_users=m, gamma0_db=mid)
            ).value
            lo, hi = (mid, hi) if val > target else (lo, mid)
        return 0.5 * (lo + hi)

    gap = gamma_at(1e-3, 1) - gamma_at(1e-3, 3)
    gap_ok = 2.0 <= gap <= 4.0

    level_rel = []
    for n in (64, 128):
        cfg = SystemConfig(n_elements=n, n_users=3, gamma0_db=60.0)
        sat = sop_closed_form(cfg).value
        level_rel.append(abs(sat - sop_asymptotic_closed(cfg)) / sat)
    level_ok = max(level_rel) <= 0.25

    ok = flat_ok and gap_ok and level_ok
    _verdict(
        5, "saturation and multi-user gain", ok,
        f"50-vs-60 dB rel change <= {max(sat_rel):.1e} (tol 10%); "
        f"M=1 -> M=3 gain {gap:.2f} dB at SOP 1e-3 (need 3 +- 1); "
        f"saturation vs reduced form within {max(level_rel):.1%} (tol 25%)",
    )
    assert flat_ok and gap_ok and level_ok


def test_criterion_6_parameter_invariances():
    """Transmit-power/source-distance invariance and exponential N-decay."""
    start = time.time()
    power = {
        sop_asymptotic_closed(SystemConfig(n_elements=64, n_users=3, gamma0_db=g))
        for g in (0.0, 20.0, 50.0, 80.0)
    }
    source = {
        sop_asymptotic_closed(SystemConfig(n_elements=64, n_users=3, d_sr=d))
        for d in (15.0, 30.0, 45.0, 60.0)
    }
    invariant_ok = len(power) == 1 and len(source) == 1

    ns = np.array([32, 48, 64, 96, 128, 192, 256], dtype=float)
    logs = np.log(
        [
            sop_asymptotic_closed(SystemConfig(n_elements=int(n), n_users=3))
            for n in ns
        ]
    )
    slope, intercept = np.polyfit(ns, logs, 1)
    fit = slope * ns + intercept
    r2 = 1.0 - np.sum((logs - fit) ** 2) / np.sum((logs - logs.mean()) ** 2)
    decay_ok = slope < 0 and r2 >= 0.99
    elapsed = time.time() - start

    ok = invariant_ok and decay_ok and elapsed < 60
    _verdict(
        6, "asymptotic parameter invariances", ok,
        f"bit-identical under power/source-distance changes: {invariant_ok}; "
        f"ln(SOP) vs N linear with R^2={r2:.4f}, slope={slope:.3e}; "
        f"{elapsed:.1f}s",
    )
    assert invariant_ok and decay_ok


def test_criterion_7_noma_benchmark_ordering():
    """Paired NOMA comparison: BU never beats OUS, WU stays exposed."""
    start = time.time()
    rows = []
    for g in range(-10, 51, 5):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=float(g))
        ests = estimate(cfg, SCHEMES, TRIALS, seed=SEED + g)
        rows.append((float(g), ests["OUS"], ests["NOMA_BU"], ests["NOMA_WU"]))
    ordering_ok = all(bu.outages >= ous.outages for _, ous, bu, _ in rows)
    wu_ok = all(wu.sop_hat >= 0.9 for _, _, _, wu in rows)
    high = [r for r in rows if r[0] >= 45.0]
    ratio = max(bu.sop_hat / ous.sop_hat for _, ous, bu, _ in high)
    ratio_ok = ratio <= 2.0
    elapsed = time.time() - start
    ok = ordering_ok and wu_ok and ratio_ok
    _verdict(
        7, "NOMA benchmark ordering", ok,
        f"BU >= OUS at all {len(rows)} points: {ordering_ok}; worst "
        f"BU/OUS ratio at >=45 dB: {ratio:.3f} (tol 2.0); min WU SOP "
        f"{min(wu.sop_hat for _, _, _, wu in rows):.4f} (>=0.9); "
        f"{elapsed:.0f}s",
    )
    assert ordering_ok and wu_ok and ratio_ok


def test_criterion_8_independence_assumption_check():
    """The independent mode changes only the destination/eavesdropper
    dependence, and the SOP shift that isolates is significant and has the
    sign positive dependence implies."""
    start = time.time()
    details = []
    law_ok = shift_ok = True
    for g in (0.0, 20.0, 40.0):
        cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=g)
        lam = derive_clt_params(cfg).lambda_e
        # (a) Same eavesdropper law in both modes.  Distinct seeds keep the
        # two samples from sharing the eavesdropper's exponential draw.
        ge_ph = sample_gamma_e(cfg, TRIALS, seed=SEED, mode="physical")
        ge_ind = sample_gamma_e(cfg, TRIALS, seed=SEED + 1, mode="independent")
        mean_z = [
            abs(s.mean() - lam) / (s.std(ddof=1) / math.sqrt(s.size))
            for s in (ge_ph, ge_ind)
        ]
        ks_p = stats.ks_2samp(ge_ph, ge_ind).pvalue
        law_ok = law_ok and max(mean_z) <= 3.0 and ks_p >= 0.01
        # (b) The eavesdropper gain sum |h_sr,i|^2 rises with the scheduled
        # user's sum |h_sr,i||h_rd,i| in the physical mode, which lowers
        # the outage rate relative to the independent mode.
        ph = estimate_sop(cfg, "OUS", TRIALS, seed=SEED, mode="physical")
        ind = estimate_sop(cfg, "OUS", TRIALS, seed=SEED, mode="independent")
        shift = (ind.sop_hat - ph.sop_hat) / math.hypot(ph.stderr, ind.stderr)
        shift_ok = shift_ok and shift > 3.0
        details.append(
            f"{g:.0f} dB: gamma_e mean within {max(mean_z):.1f} SE of "
            f"lambda_e, KS p={ks_p:.2f}; SOP shift {shift:.1f} SE "
            f"({ph.sop_hat:.3e} physical vs {ind.sop_hat:.3e} independent, "
            f"{(ind.sop_hat - ph.sop_hat) / ind.sop_hat:.1%})"
        )
    elapsed = time.time() - start
    ok = law_ok and shift_ok
    _verdict(
        8, "independence-assumption check", ok,
        "; ".join(details)
        + f"; {elapsed:.0f}s. Need each mean within 3 SE, KS p >= 0.01 and "
        f"physical below independent by more than 3 combined SE.",
    )
    assert law_ok, "eavesdropper SNR law differs between the sampling modes"
    assert shift_ok, "sampling modes not separated by > 3 combined SE"


def test_criterion_9_deterministic_sweep(sweep_spec, sweep_run, sweep_csv):
    """Byte-identical CSV for the same seed under a different worker count."""
    start = time.time()
    again = emit_csv(run_sweep(sweep_spec, workers=4))
    elapsed = time.time() - start
    ok = again == sweep_csv
    _verdict(
        9, "deterministic sweep output", ok,
        f"workers=1 vs workers=4 CSV byte-identical: {ok} "
        f"({len(sweep_csv)} bytes, workers=1 sweep {sweep_run[1]:.0f}s, "
        f"workers=4 rerun {elapsed:.0f}s)",
    )
    assert ok
