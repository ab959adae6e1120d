import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ris_sop
from ris_sop.errors import CapacityError, DomainError
from ris_sop.specfun import (
    Q_APPROX,
    _log_q_array,
    exp_times_q,
    log_q,
    multinomial_set,
    q_approx3,
    q_exact,
    signed_binom,
)

# High-precision reference values (mpmath, 60 digits):
#   Q(1)            = 0.15865525393145705
#   ln Q(50)        = -1254.8313611394199
#   exp(1000)*Q(50) = 2.12885480078e-111
LN_Q_50 = -1254.8313611394199
EXP1000_Q50 = 2.12885480078e-111


class TestQExact:
    def test_zero_is_half(self):
        assert q_exact(0.0) == 0.5

    def test_reference_value(self):
        assert q_exact(1.0) == pytest.approx(0.15865525393145705, rel=1e-12, abs=0)

    def test_far_negative_is_one(self):
        # Q(10.156) ~ 1.6e-24, far below double resolution of 1.
        assert abs(q_exact(-10.156) - 1.0) < 1e-15

    @given(st.floats(-30, 30))
    def test_reflection(self, x):
        assert q_exact(x) + q_exact(-x) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_decreasing(self):
        # strictly inside [-5, 5]; beyond that Q saturates to 1.0 in doubles
        xs = np.linspace(-5, 5, 4001)
        assert np.all(np.diff(q_exact(xs)) < 0)
        wide = np.linspace(-12, 12, 4001)
        assert np.all(np.diff(q_exact(wide)) <= 0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            q_exact(float("nan"))


class TestLogQ:
    def test_zero(self):
        assert log_q(0.0) == pytest.approx(math.log(0.5), rel=1e-15, abs=0)

    def test_far_tail(self):
        assert log_q(50.0) == pytest.approx(LN_Q_50, rel=1e-12)

    def test_far_negative_underflows_cleanly(self):
        # ln Q(-50) = ln(1 - Q(50)) ~ -1.5e-546: zero to double precision.
        assert log_q(-50.0) == 0.0

    def test_huge_argument_accuracy(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for x in (1e2, 1e3, 1e4):
            ref = float(mp.log(mp.erfc(x / mp.sqrt(2)) / 2))
            assert log_q(x) == pytest.approx(ref, rel=1e-12)

    def test_matches_plain_q_in_moderate_range(self):
        for x in np.linspace(-8, 8, 101):
            value = log_q(float(x))
            assert type(value) is float
            assert math.exp(value) == pytest.approx(q_exact(float(x)), rel=1e-13, abs=0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            log_q(float("nan"))

    def test_array_matches_scalar_bit_for_bit(self):
        # exp_times_q's array path takes log Q elementwise by the float's
        # operations.
        xs = np.concatenate([np.linspace(-40, 40, 2001), [-0.0, 0.0, 1e4, -1e4]])
        out = _log_q_array(xs.reshape(5, -1))
        assert out.shape == (5, 401)
        assert [v.hex() for v in out.ravel().tolist()] == [
            log_q(x).hex() for x in xs.tolist()
        ]

    @pytest.mark.filterwarnings("error")
    def test_huge_array_argument_is_silent_like_a_float(self):
        # x * x overflows past 1.3e154; a float's Python arithmetic is silent.
        assert log_q(1e200) == -math.inf
        out = exp_times_q(np.zeros(2), np.array([1e200, 2.0]))
        assert out[0] == 0.0 and out[1] == pytest.approx(q_exact(2.0), rel=1e-14, abs=0)

    def test_nan_in_an_array_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            exp_times_q(np.zeros(3), np.array([0.0, float("nan"), 1.0]))


class TestQApprox3:
    def test_zero_branch_value(self):
        assert q_approx3(0.0) == pytest.approx(5.0 / 12.0, rel=1e-15, abs=0)

    def test_at_one(self):
        w, p = Q_APPROX.w, Q_APPROX.p
        direct = sum(wi / 2 * math.exp(-pi / 2) for wi, pi in zip(w, p))
        assert q_approx3(1.0) == pytest.approx(direct, rel=1e-15, abs=0)
        assert q_approx3(1.0) == pytest.approx(q_exact(1.0), abs=2e-5)

    def test_mirror_branch(self):
        assert q_approx3(-1.0) == pytest.approx(1.0 - q_approx3(1.0), abs=1e-16)

    def test_weights_sum(self):
        assert sum(Q_APPROX.w) == pytest.approx(5.0 / 6.0, rel=1e-15, abs=0)
        assert all(p > 0 for p in Q_APPROX.p)

    def test_global_error_bounds(self):
        # worst case is 1/12 at the origin; away from it the fit error
        # peaks near |x| = 1.2 at 1.365e-3 and drops under 1e-3 past 1.5
        xs = np.linspace(-10, 10, 200_001)
        err = np.abs(q_approx3(xs) - q_exact(xs))
        assert err.max() <= 0.084
        assert err[np.abs(xs) >= 1.0].max() <= 1.4e-3
        assert err[np.abs(xs) >= 1.5].max() <= 1e-3


class TestMultinomialSet:
    def test_order_one(self):
        terms = multinomial_set(1)
        assert sorted(t.k for t in terms) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert all(t.coef == 1 for t in terms)

    def test_order_two(self):
        terms = multinomial_set(2)
        assert len(terms) == 6
        by_k = {t.k: t for t in terms}
        assert by_k[(1, 1, 0)].coef == 2

    @pytest.mark.parametrize("m", range(1, 11))
    def test_partition_identity(self, m):
        # multinomial theorem: sum coef * w1^k1 w2^k2 w3^k3 = (sum w)^m
        w1, w2, w3 = Q_APPROX.w
        total = sum(
            t.coef * w1 ** t.k[0] * w2 ** t.k[1] * w3 ** t.k[2]
            for t in multinomial_set(m)
        )
        assert total == pytest.approx((5.0 / 6.0) ** m, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1, 3, 7, 16])
    def test_count_and_fields(self, m):
        terms = multinomial_set(m)
        assert len(terms) == (m + 1) * (m + 2) // 2
        assert len({t.k for t in terms}) == len(terms)
        pmin = min(Q_APPROX.p)
        for t in terms:
            assert sum(t.k) == m
            assert t.coef >= 1
            assert t.weight_product > 0
            assert t.p_dot_k >= m * pmin

    def test_built_once_and_immutable(self):
        terms = multinomial_set(5)
        assert isinstance(terms, tuple)
        assert multinomial_set(5) is terms

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            multinomial_set(17)
        with pytest.raises(DomainError):
            multinomial_set(0)


class TestSignedBinom:
    def test_direct(self):
        assert signed_binom(3, 2) == -3

    @given(st.integers(1, 40))
    def test_first_order_positive(self, m):
        assert signed_binom(m, 1) == m

    @given(st.integers(1, 25))
    def test_telescoping_sum(self, m):
        assert sum(signed_binom(m, j) for j in range(1, m + 1)) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            signed_binom(3, 4)
        with pytest.raises(DomainError):
            signed_binom(3, -1)


class TestExpTimesQ:
    def test_unit(self):
        assert exp_times_q(0.0, 0.0) == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_extreme_rescue(self):
        # exp(1000) and Q(50) both exceed double range alone.
        assert exp_times_q(1000.0, 50.0) == pytest.approx(EXP1000_Q50, rel=1e-10, abs=0)

    def test_absorbing_zero(self):
        assert exp_times_q(-math.inf, 3.0) == 0.0

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            exp_times_q(0.0, float("nan"))

    def test_array_matches_scalar_bit_for_bit(self):
        a = np.linspace(-50.0, 700.0, 61)
        b = np.linspace(-30.0, 45.0, 61)
        out = exp_times_q(a[:, None], b[None, :])
        assert out.shape == (61, 61)
        assert [v.hex() for v in out.ravel().tolist()] == [
            exp_times_q(x, y).hex() for x in a.tolist() for y in b.tolist()
        ]
        assert type(exp_times_q(0.0, 1.0)) is float

    def test_array_nan_argument_rejected(self):
        with pytest.raises(DomainError, match="must not be NaN"):
            exp_times_q(np.zeros(3), np.array([0.0, float("nan"), 1.0]))

    def test_absorbing_zero_ignores_b(self):
        a = np.array([-math.inf, 0.0, -math.inf])
        out = exp_times_q(a, np.array([float("nan"), 0.0, 3.0]))
        assert out.tolist() == [0.0, 0.5, 0.0]
        assert exp_times_q(-math.inf, float("nan")) == 0.0

    def test_matches_direct_product(self):
        for a in (-5.0, 0.0, 2.5, 30.0):
            for b in (-4.0, -0.5, 0.0, 1.0, 6.0):
                direct = math.exp(a) * q_exact(b)
                assert exp_times_q(a, b) == pytest.approx(direct, rel=1e-10, abs=0)


_SRC = str(Path(ris_sop.__file__).resolve().parent.parent)


def _fresh_python(script: str, *args: str) -> list:
    """The JSON last line a new interpreter prints running ``script``."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: Start-up commands, then four threads behind a barrier making their first
#: tail evaluations at once (each reads one config's ``xi`` and ``1 - xi``
#: first; thread 0's is ``SystemConfig()``), then the same evaluations one
#: after another.
_GUARD = """
import contextlib, dataclasses, io, json, sys, threading
import numpy as np
import ris_sop
from ris_sop import cli
from ris_sop.specfun import q_exact
from ris_sop.sysmodel import SystemConfig, derive_clt_params

quiet = io.StringIO()
with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
    assert cli.main(["validate", "--config", sys.argv[1]]) == 0
    assert cli.main(["oracle", "--config", sys.argv[2]]) == 1  # a config error
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
seen = {"before": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}

configs = [SystemConfig()] + [
    SystemConfig(n_elements=16 << i, gamma0_db=10.0 * i) for i in (1, 2, 3)]

def bits(i):
    p = derive_clt_params(configs[i])
    q = q_exact(np.linspace(-40.0, 40.0, 81) / (i + 1))
    return [float.hex(float(v)) for v in (*dataclasses.astuple(p), *p.truncation(), *q)]

barrier = threading.Barrier(4)
threaded = [None] * 4

def first(i):
    barrier.wait(timeout=60)
    threaded[i] = bits(i)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
sys.setswitchinterval(0.005)
seen["after"] = "scipy.special" in sys.modules
seen["sizes"] = [len(values) for values in threaded]
seen["threaded_is_serial"] = threaded == [bits(i) for i in range(4)]
print(json.dumps(seen))
"""

#: Every Monte Carlo entry point, each mode, then one closed form.  The
#: kernels read no Gaussian tail (``xi`` is derived where it is read), so
#: only the closed form loads scipy.
_MC_GUARD = """
import json, sys
from ris_sop import cli, estimate_schemes_paired, estimate_sop, sop_closed_form
from ris_sop.mcsim import MODES, SCHEMES, sample_gamma_e
from ris_sop.sysmodel import SystemConfig

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen, rows = {}, []
for name, schemes, workers in (("OUS", ["OUS"], 1), ("paired", list(SCHEMES), 2)):
    spec = cli.parse_config(json.dumps({
        "evaluators": ["mc"], "schemes": schemes, "mc_trials": 1000,
        "sweep": {"n_users": [1, 2]}}))
    table = cli.run_sweep(spec, workers=workers)
    rows.append(sum(row.sop_mc is not None for row in table))
    seen["sweep " + name] = scipy_modules()
cfg = SystemConfig(n_elements=8, n_users=2)
for mode in MODES:
    for scheme in SCHEMES:
        estimate_sop(cfg, scheme, 1000, 1, mode)
seen["estimate_sop"] = scipy_modules()
for mode in MODES:
    estimate_schemes_paired(cfg, 1000, 1, mode)
seen["estimate_schemes_paired"] = scipy_modules()
for mode in MODES:
    sample_gamma_e(cfg, 1000, 1, mode)
seen["sample_gamma_e"] = scipy_modules()
seen["rows with an estimate"] = rows
sop_closed_form(cfg)
seen["closed form"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


class TestScipyAtFirstTailEvaluation:
    def test_start_up_loads_no_scipy_and_first_use_is_threadsafe(self, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"evaluators": ["mc"], "schemes": ["OUS", "NOMA_BU"]}')
        bad.write_text('{"base": {"n_users": 0}}')
        seen = _fresh_python(_GUARD, str(good), str(bad))
        assert seen == {"before": [], "after": True, "sizes": [11 + 81] * 4,
                        "threaded_is_serial": True}

    def test_monte_carlo_loads_no_scipy(self):
        seen = _fresh_python(_MC_GUARD)
        assert seen == {
            "sweep OUS": [], "sweep paired": [], "estimate_sop": [],
            "estimate_schemes_paired": [], "sample_gamma_e": [],
            "rows with an estimate": [2, 4], "closed form": True,
        }
