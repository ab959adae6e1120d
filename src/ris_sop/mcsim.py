"""Physical Monte Carlo simulation of the multi-user RIS downlink.

Unlike the analytic chain, nothing here relies on the Gaussian amplitude
model or the destination/eavesdropper independence assumption: the chunk
kernels draw exact distributional reductions of the complex fading
coefficients and count outages.  The test suite certifies each kernel
against an independent full-complex reference simulator.

Reproducibility contract: all randomness comes from counter-based streams
keyed by (seed, chunk-of-slots, link tag), so the outage count for a given
(seed, trials, scheme, mode) is bit-identical no matter which thread runs
the estimate or how many sweep points run alongside it.  One driver,
:func:`_per_chunk`, runs every estimate: it validates the run, derives the
model parameters once and calls a chunk kernel on each block of
:data:`CHUNK_SLOTS` slots.  The chunks run in parallel on a thread pool, a
bounded window of them at a time, and the driver returns their results in
block order.  The pool is the caller's when it passes one (a sweep shares
one pool among all its points and threads) and lives for the one call
otherwise.  One function, :func:`_pass`, picks the kernel for the requested
schemes, and one reducer, :func:`estimate`, turns its chunk counts into
every estimate, so a new estimator inherits the contract unchanged.  One
draw loop, :func:`_slots`, feeds every kernel: it reads the chunk's shared
source-to-surface and eavesdropper streams piece by piece and hands each
piece's element powers and eavesdropper SNR to the kernel, which draws
only its own surface-to-user links and scores the slots.

Two sampling modes exist.  ``physical`` shares the single source-to-surface
draw between the scheduled user and the eavesdropper within a slot, which is
the true model.  ``independent`` gives the eavesdropper path a fresh
source-to-surface draw, matching the destination/eavesdropper independence
assumption the analytic route makes; comparing the two quantifies that
assumption.  The independent mode removes only that coupling: the users
still share one source-to-surface draw with each other, and the eavesdropper
SNR keeps the same marginal law.  Neither mode samples the Gaussian
amplitude model, so neither is expected to match
:func:`ris_sop.quadrature.sop_quad_exact_q` to Monte Carlo precision.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DomainError
from .sysmodel import SystemConfig, derive_clt_params

#: Slots per independently-seeded chunk; fixed so that worker count and
#: total trial count never change which stream a slot draws from.
CHUNK_SLOTS = 1 << 14

_TAG_DEST_SR = 1  # source-to-surface powers shared by the legitimate links
_TAG_DEST_RD = 2  # surface-to-user links
_TAG_EAV = 3  # eavesdropper combining draw
_TAG_EAV_SR = 4  # fresh source-to-surface powers (independent mode only)

_WILSON_Z = 1.959963984540054  # two-sided 95%
_WINDOW = 2  # chunks queued or running per pool thread

#: Strong (best) user's power fraction in the NOMA pair: the largest point
#: G / (2(G+1)), G = 99, of the split grid i / (2(G+1)) that keeps the weak
#: user's share the larger one.  It maximizes the legitimate sum rate over
#: that grid in every slot: under the best user's phases gamma_bu >= gamma_wu
#: (triangle inequality), so the sum rate
#: log2(1 + a gamma_bu) + log2((1 + gamma_wu) / (1 + a gamma_wu)) is
#: non-decreasing in a.
NOMA_A_BU = 99.0 / 200.0

SCHEMES = ("OUS", "NOMA_BU", "NOMA_WU")
MODES = ("physical", "independent")


def _rng(seed: int, block: int, tag: int) -> np.random.Generator:
    key = np.array([seed, (block << 4) | tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McEstimate:
    """Outage-count estimate with a 95% Wilson interval."""

    trials: int
    outages: int
    sop_hat: float
    ci_low: float
    ci_high: float

    @property
    def stderr(self) -> float:
        """One Wilson standard error (interval half-width over z)."""
        return (self.ci_high - self.ci_low) / (2.0 * _WILSON_Z)


def _wilson(outages: int, trials: int) -> McEstimate:
    n = trials
    p = outages / n
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # At p = 0 and p = 1 the Wilson endpoints are exactly 0 and 1; the
    # rounded formula can land an ulp inside them and exclude sop_hat.
    return McEstimate(
        trials=n,
        outages=outages,
        sop_hat=p,
        ci_low=0.0 if outages == 0 else max(0.0, center - half),
        ci_high=1.0 if outages == n else min(1.0, center + half),
    )


#: Most slots per piece.  It binds only at small n_elements * n_users, where
#: the NOMA kernel's per-slot vectors outweigh its largest array.
_PIECE_SLOTS = 2048
#: Most bytes in a piece's largest array: 1 MiB keeps a kernel's working set
#: near one core's 2 MiB L2 cache (see :func:`_slots`).
_PIECE_BYTES = 1 << 20


def _slots(cfg, p, seed, block, size, independent, slot_bytes):
    """Each piece's ``(g_sr, gamma_e)`` of a ``size``-slot chunk: the
    source-to-surface element powers and the eavesdropper SNR.

    Every kernel draws through this generator and keeps only its own
    surface-to-user stream.  It applies two exact distributional reductions
    that cut the per-slot draw count (no approximation is involved; both
    follow from the rotation invariance of circularly-symmetric Gaussians):

    * the source-surface phases cancel everywhere, so only the per-element
      amplitudes (root-exponential powers) are drawn;
    * conditioned on everything else, the eavesdropper's combined channel is
      complex Gaussian with power proportional to the summed source-surface
      element powers, so its SNR is one exponential draw times that sum (or
      times a fresh gamma-distributed sum in independent mode).

    The chunk's generators are created once and read in pieces of at most
    :data:`_PIECE_SLOTS` slots whose largest array, ``slot_bytes`` per slot
    in the calling kernel, fits in :data:`_PIECE_BYTES`.  So a kernel's
    working set stays about 3 MiB at any size, and no large freed block is
    left in a thread's malloc arena to swell a run's RSS.  Every quantity is
    per slot, and a Philox stream read piece after piece yields the same
    values as one whole-chunk draw, so the pieces leave every draw and every
    count bit-identical.
    """
    n = cfg.n_elements
    sr, eav = _rng(seed, block, _TAG_DEST_SR), _rng(seed, block, _TAG_EAV)
    eav_sr = _rng(seed, block, _TAG_EAV_SR) if independent else None
    step = max(1, min(_PIECE_SLOTS, _PIECE_BYTES // slot_bytes))
    for start in range(0, size, step):
        k = min(step, size - start)
        g_sr = sr.standard_exponential((k, n))
        s = eav_sr.standard_gamma(n, size=k) if independent else g_sr.sum(axis=1)
        yield g_sr, p.gamma0 * p.zeta_re * (p.zeta_sr * s) * eav.standard_exponential(k)


def _outages(p, gamma, gamma_e) -> int:
    """How many slots have scheduled SNR ``gamma < p.rho * gamma_e + p.offset``.

    A scheme is an offset: ``rho - 1`` scores the full-power OUS user and
    ``(rho - 1) / a`` the NOMA strong user at power share ``a``.
    Where ``rho * gamma_e`` overflows, the threshold is past every finite SNR
    and the slot is in outage for certain, so inf is the right limit and the
    overflow is not reported.  The errstate is numpy's per-thread state, so
    it is set here, in the chunk's own thread.
    """
    with np.errstate(over="ignore"):
        return int(np.count_nonzero(gamma < p.rho * gamma_e + p.offset))


def _ous_chunk(cfg, p, seed, block, size, independent) -> tuple[int]:
    n, m = cfg.n_elements, cfg.n_users
    rd = _rng(seed, block, _TAG_DEST_RD)
    outages = 0
    for g_sr, gamma_e in _slots(cfg, p, seed, block, size, independent, 8 * n * m):
        g_rd = rd.standard_exponential((len(g_sr), n, m))
        np.sqrt(g_rd, out=g_rd)
        sums = np.matmul(np.sqrt(g_sr)[:, None, :], g_rd)[:, 0, :]
        gamma_d = p.gamma0 * p.zeta_rd * p.zeta_sr * sums.max(axis=1) ** 2
        outages += _outages(p, gamma_d, gamma_e)
    return (outages,)


def _noma_chunk(cfg, p, seed, block, size, independent):
    # Decoding order everywhere (eavesdropper included): weak-user message
    # first, treating the strong user's signal as interference; the strong
    # user cancels it before decoding its own.  The surface-to-user
    # coefficients stay fully complex because the worst-user selection
    # couples their amplitudes and phases.  Each outage is a threshold
    # event: the strong user's log2(1 + a gamma_bu) - log2(1 + a gamma_e)
    # < r_th is gamma_bu < rho gamma_e + (rho - 1) / a, OUS on the same
    # gamma_bu at a larger offset, so NOMA_BU contains OUS slot by slot.
    n, m = cfg.n_elements, cfg.n_users
    rd = _rng(seed, block, _TAG_DEST_RD)
    a = NOMA_A_BU
    p_bu = replace(p, offset=(p.rho - 1.0) / a)  # inf past the float64 range
    bu_out = wu_out = ous_out = 0
    for g_sr, gamma_e in _slots(cfg, p, seed, block, size, independent, 16 * n * m):
        k = len(g_sr)
        sr_amp = np.sqrt(p.zeta_sr * g_sr)
        # The last axis holds (real, imaginary) pairs: view them as complex.
        h_rd = rd.standard_normal((k, n, m, 2)).view(np.complex128)[..., 0]
        h_rd *= math.sqrt(p.zeta_rd / 2.0)
        sums = np.matmul(sr_amp[:, None, :], np.abs(h_rd))[:, 0, :]
        bu = np.argmax(sums, axis=1)
        rows = np.arange(k)
        gamma_bu = p.gamma0 * sums[rows, bu] ** 2
        h_bu = np.take_along_axis(h_rd, bu[:, None, None], axis=2)[:, :, 0]
        rot = (np.conj(h_bu) / np.abs(h_bu)) * sr_amp
        g_all = np.matmul(rot[:, None, :], h_rd)[:, 0, :]
        gamma_all = p.gamma0 * np.abs(g_all) ** 2
        gamma_all[rows, bu] = np.inf
        gamma_wu = gamma_all.min(axis=1)
        bu_out += _outages(p_bu, gamma_bu, gamma_e)
        ous_out += _outages(p, gamma_bu, gamma_e)  # full power, same draws
        # The weak user's event compares 1 + SINR at the two receivers.
        with np.errstate(over="ignore"):  # inf is the certain-outage limit
            wu = (1.0 + gamma_wu) / (1.0 + a * gamma_wu)
            eav = p.rho * (1.0 + gamma_e) / (1.0 + a * gamma_e)
            wu_out += int(np.count_nonzero(wu < eav))
    return bu_out, wu_out, ous_out


def _gamma_e_chunk(cfg, p, seed, block, size, independent):
    slots = _slots(cfg, p, seed, block, size, independent, 8 * cfg.n_elements)
    return np.concatenate([gamma_e for _, gamma_e in slots])


#: Most random variates one estimate or sweep may draw.  One costs 9-23 ns on
#: one core, 41 ns at worst (paired, N=1): at most about 11 hours of draws.
_MAX_VARIATES = 10**12


def _pass(schemes, n: int, m: int):
    """The one pass serving ``schemes`` at N = ``n``, M = ``m``: its kernel, the
    schemes its chunks' count tuples hold, in order, and its variates per
    physical-mode slot: N + 1 in :func:`_slots`, plus N*M for OUS or 2*N*M
    (complex links) for NOMA, which at M = 1 has no pair: ``ContractError``."""
    if set(schemes) == {"OUS"}:
        return _ous_chunk, ("OUS",), n * m + n + 1
    if m < 2:
        raise ContractError(f"NOMA pairing needs n_users >= 2, got {m}")
    return _noma_chunk, ("NOMA_BU", "NOMA_WU", "OUS"), 2 * n * m + n + 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_integer(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_count(name, value):
    _check_integer(name, value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


def _per_chunk(kernel, cfg, trials, seed, mode, per_slot, *, executor=None) -> list:
    """``kernel``'s result on each chunk of a ``trials``-slot run, in block order.

    The chunks run on ``executor``'s threads; numpy's draws, ``sqrt`` and
    ``matmul`` release the GIL, so they run in parallel.  With no executor a
    thread pool sized to the usable CPUs is opened for this call alone.  A
    caller that runs many estimates, such as a sweep, passes one executor to
    all of them, and it owns that executor: the driver never shuts it down.
    Either way no pool outlives its caller, since a forked child would
    inherit a module-level pool without its threads.  At most
    :data:`_WINDOW` chunks per executor thread are queued or running for
    this call at a time, a sliding window over the blocks, so the driver's
    own memory does not grow with ``trials`` and no thread waits for a
    batch to drain.  On an exception the call cancels its own queued chunks
    and no others.  A run of more than :data:`_MAX_VARIATES` variates,
    ``per_slot`` a slot, is refused after the trials and seed checks.
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    _check_count("trials", trials)
    _check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed}")
    if per_slot * trials > _MAX_VARIATES:
        raise DomainError(f"{trials} slots x {per_slot} variates = {per_slot * trials} "
                          f"variates, cap is {_MAX_VARIATES}")
    p = derive_clt_params(cfg)
    independent = mode == "independent"
    blocks = range(-(-trials // CHUNK_SLOTS))

    def run(block):
        size = min(CHUNK_SLOTS, trials - block * CHUNK_SLOTS)
        return kernel(cfg, p, seed, block, size, independent)

    if executor is not None:
        return _windowed(executor, run, blocks)
    with ThreadPoolExecutor(min(_usable_cpus(), len(blocks))) as pool:
        return _windowed(pool, run, blocks)


def _windowed(executor, run, blocks) -> list:
    """``run(block)`` for every block in order, with at most :data:`_WINDOW`
    per thread of ``executor`` (a ``ThreadPoolExecutor``) submitted and not
    yet collected."""
    results, window = [], deque()
    width = _WINDOW * executor._max_workers
    try:
        for block in blocks:
            window.append(executor.submit(run, block))
            if len(window) == width:
                results.append(window.popleft().result())
        results.extend(future.result() for future in window)
    except BaseException:
        for future in window:
            future.cancel()
        raise
    return results


def estimate(cfg: SystemConfig, schemes, trials: int, seed: int, mode: str = "physical",
             *, executor: ThreadPoolExecutor | None = None) -> dict[str, McEstimate]:
    """Each requested scheme, in :data:`SCHEMES` order, mapped to its Wilson
    estimate from the one pass that serves ``schemes`` (see :func:`_pass`).

    ``schemes`` is a non-empty list or tuple of :data:`SCHEMES` names;
    anything else raises ``DomainError`` before any draw.  A NOMA scheme runs the paired
    pass, which scores OUS on the same channel draws: on identical
    realizations the full-power scheduled user does at least as well as
    its power-sharing NOMA counterpart, so ``NOMA_BU >= OUS`` holds count
    for count.  OUS alone runs the OUS pass.  The chunks run on
    ``executor`` when one is given (see :func:`_per_chunk`).
    """
    if not isinstance(schemes, (list, tuple)) or not schemes:
        raise DomainError(f"schemes must be a non-empty list, got {schemes!r}")
    for scheme in schemes:  # `in` a tuple: an unhashable name is unknown
        if scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    kernel, counted, per_slot = _pass(schemes, cfg.n_elements, cfg.n_users)
    chunks = _per_chunk(kernel, cfg, trials, seed, mode, per_slot, executor=executor)
    columns = dict(zip(counted, zip(*chunks)))
    return {s: _wilson(sum(columns[s]), trials) for s in SCHEMES if s in schemes}


def estimate_sop(
    cfg: SystemConfig,
    scheme: str,
    trials: int,
    seed: int,
    mode: str = "physical",
    *,
    executor: ThreadPoolExecutor | None = None,
) -> McEstimate:
    """One scheme's :func:`estimate`.  The benchmark tracer's targets keep
    this view: they wrap it in ``ris_sop.cli``, which calls it for an
    OUS-only point."""
    return estimate(cfg, (scheme,), trials, seed, mode, executor=executor)[scheme]


def estimate_noma_pair(
    cfg: SystemConfig,
    trials: int,
    seed: int,
    mode: str = "physical",
) -> tuple[McEstimate, McEstimate]:
    """Both NOMA users' :func:`estimate`s from one pass.  Only the benchmark
    tracer's targets keep this view: they look it up in ``ris_sop.cli``."""
    return tuple(estimate(cfg, ("NOMA_BU", "NOMA_WU"), trials, seed, mode).values())


def sample_gamma_e(
    cfg: SystemConfig,
    n_samples: int,
    seed: int,
    mode: str = "physical",
) -> np.ndarray:
    """Eavesdropper SNR samples as the estimator kernels generate them."""
    _check_count("n_samples", n_samples)
    # A sample draws what a slot draws in _slots: N powers and one exponential.
    chunks = _per_chunk(_gamma_e_chunk, cfg, n_samples, seed, mode, cfg.n_elements + 1)
    return np.concatenate(chunks)
