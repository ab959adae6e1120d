"""In-memory spans around ris_sop's functions, recorded from outside the package.

Each wrapper replaces a module attribute under the name its caller looks it
up by: ``run_sweep`` calls ``ris_sop.cli.sop_closed_form``, the order sums
call ``ris_sop.analytic.j_plus_term``, and so on.  Nothing under ``src/``
changes, and the originals are put back when the traced pass ends.

A span is ``(id, name, start, end, parent, thread, info)``.  ``parent`` is
the id of the enclosing span on the same thread (-1 at the top), and
``info`` holds what a layer metric needs from the call: the exception type
if it raised, a quadrature's subdivision count, or a Monte Carlo chunk's
shape.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ris_sop import analytic, asymptotic, cli, mcsim, quadrature


def _subdivisions(args, result):
    return result.subdivisions


def _chunk_shape(kind):
    # Both kernels take (cfg, params, seed, block, size, ...) positionally.
    def shape(args, result):
        cfg, size = args[0], args[4]
        return [kind, size, cfg.n_elements, cfg.n_users]
    return shape


#: (module, attribute, info) for every wrapped lookup, grouped by the layer
#: whose public function it is.
TARGETS = (
    # cli: one span per grid point, and the evaluator calls it makes.
    (cli, "_evaluate_point", None),
    (cli, "sop_closed_form", None),
    (cli, "sop_asymptotic", None),
    (cli, "sop_quad_exact_q", None),
    (cli, "sop_quad_approx_q", None),
    (cli, "estimate_sop", None),
    (cli, "estimate_noma_pair", None),
    # sysmodel, wherever an evaluator derives its parameters.
    (analytic, "derive_clt_params", None),
    (asymptotic, "derive_clt_params", None),
    (quadrature, "derive_clt_params", None),
    (mcsim, "derive_clt_params", None),
    # analytic and asymptotic term kernels.
    (analytic, "j_plus_term", None),
    (analytic, "i_plus_term", None),
    (asymptotic, "i_plus_term_asym", None),
    (asymptotic, "j_plus_term_asym", None),
    # specfun, as the term kernels call it.
    (analytic, "exp_times_q", None),
    (asymptotic, "exp_times_q", None),
    (analytic, "multinomial_set", None),
    (asymptotic, "multinomial_set", None),
    # adaptive quadrature.
    (quadrature, "integrate_semi_infinite", _subdivisions),
    # Monte Carlo chunk kernels.
    (mcsim, "_ous_chunk", _chunk_shape("ous")),
    (mcsim, "_noma_chunk", _chunk_shape("noma")),
)


class Tracer:
    """Collects spans from any thread; list.append keeps them whole."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, info=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              threading.get_ident(), type(exc).__name__))
                raise
            end = clock()
            stack.pop()
            note = info(args, result) if info is not None else None
            spans.append((span_id, name, start, end, parent,
                          threading.get_ident(), note))
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore on exit."""
    originals = []
    try:
        for module, attr, info in TARGETS:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(f"{module.__name__}.{attr}", fn, info))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


class SpanIndex:
    """Durations, self times and notes of a finished trace, by span name."""

    def __init__(self, spans):
        self.spans = sorted(spans)
        child_time = defaultdict(float)
        for _id, _name, start, end, parent, _thread, _info in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.infos = defaultdict(list)
        for span_id, name, start, end, _parent, _thread, info in self.spans:
            self.durations[name].append(end - start)
            self.self_times[name].append(end - start - child_time[span_id])
            self.infos[name].append(info)

    def count(self, *names) -> int:
        return sum(len(self.durations[n]) for n in names)

    def all_durations(self, *names) -> list[float]:
        return [d for n in names for d in self.durations[n]]

    def self_sum(self, *names) -> float:
        return sum(s for n in names for s in self.self_times[n])

    def dump(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span, one per line."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, thread, info in self.spans:
                fh.write(json.dumps(
                    [span_id, name, start - t0, end - t0, parent, thread, info]
                ) + "\n")


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile at or above the median has
    ten beyond it, so the median is reported instead.
    """
    if n < 20:
        return 50.0
    return float(int(100.0 * (1.0 - 10.0 / n)))


def ms_stats(values: list[float]) -> tuple[float, float, float]:
    """(median ms, tail ms, tail percentile); zeros when nothing ran."""
    if not values:
        return 0.0, 0.0, 0.0
    pct = tail_percentile(len(values))
    ms = np.asarray(values) * 1e3
    return statistics.median(ms.tolist()), float(np.percentile(ms, pct)), pct


def _draws(kind: str, n: int, m: int) -> int:
    # Random numbers per slot, from the kernels' array shapes: OUS draws
    # (n,) + (n, m) exponentials; NOMA draws (n,) exponentials and (n, m, 2)
    # normals; both add one exponential for the eavesdropper.
    return n + n * m + 1 if kind == "ous" else n + 2 * n * m + 1


def _bytes(kind: str, n: int, m: int, grid: int = 99) -> int:
    # Bytes of the per-slot float64 arrays each kernel materializes, from its
    # shapes (complex arrays count twice); temporaries are not counted.
    if kind == "ous":
        # g_sr, sqrt(g_sr) (n); g_rd, sqrt(g_rd) (n, m); sums (m); scalars.
        return 8 * (2 * n + 2 * n * m + m + 6)
    # g_sr, sr_amp (n); z (n, m, 2); h_rd (n, m, complex); |h_rd| (n, m);
    # h_bu, rot (n, complex); sums, gamma_all (m); g_all (m, complex); the
    # two rate grids and their sum (grid); scalars.
    return 8 * (6 * n + 5 * n * m + 4 * m + 3 * grid + 12)


def draw_floor_ms(shape: list) -> float:
    """Fastest of three numpy Philox draws of one chunk's random arrays."""
    kind, size, n, m = shape
    best = float("inf")
    for rep in range(3):
        rng = np.random.Generator(np.random.Philox(key=[rep, 1]))
        start = time.perf_counter()
        rng.standard_exponential((size, n))
        if kind == "ous":
            rng.standard_exponential((size, n, m))
        else:
            rng.standard_normal((size, n, m, 2))
        rng.standard_exponential(size)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def layer_metrics(index: SpanIndex, traced_wall: float, workers: int):
    """Per-layer figures of one traced sweep, keyed by metric name.

    Returns (values, notes); ``notes`` says which percentile each ``_tail``
    value is and over how many samples.
    """
    out, notes = {}, {}
    names = {
        "analytic.closed_form": "ris_sop.cli.sop_closed_form",
        "asymptotic.sop_asymptotic": "ris_sop.cli.sop_asymptotic",
        "cli.point": "ris_sop.cli._evaluate_point",
    }
    for label, span in names.items():
        p50, tail, pct = ms_stats(index.durations[span])
        out[f"{label}_ms_p50"] = p50
        out[f"{label}_ms_tail"] = tail
        n = index.count(span)
        notes[f"{label}_ms_tail"] = f"p{pct:g} of {n} samples" if n else "no calls"

    out["analytic.term_evals"] = index.count(
        "ris_sop.analytic.j_plus_term", "ris_sop.analytic.i_plus_term")
    etq = ("ris_sop.analytic.exp_times_q", "ris_sop.asymptotic.exp_times_q")
    out["specfun.exp_times_q_calls"] = index.count(*etq)
    out["specfun.exp_times_q_self_ms"] = index.self_sum(*etq) * 1e3
    out["specfun.multinomial_set_calls"] = index.count(
        "ris_sop.analytic.multinomial_set", "ris_sop.asymptotic.multinomial_set")
    out["asymptotic.term_evals"] = index.count(
        "ris_sop.asymptotic.i_plus_term_asym", "ris_sop.asymptotic.j_plus_term_asym")

    exact = "ris_sop.cli.sop_quad_exact_q"
    approx = "ris_sop.cli.sop_quad_approx_q"
    integrator = "ris_sop.quadrature.integrate_semi_infinite"
    out["quadrature.exact_q_ms_p50"] = ms_stats(index.durations[exact])[0]
    out["quadrature.approx_q_ms_p50"] = ms_stats(index.durations[approx])[0]
    out["quadrature.self_s"] = index.self_sum(exact, approx, integrator)
    out["quadrature.subdivisions"] = sum(
        i for i in index.infos[integrator] if isinstance(i, int))
    out["quadrature.failed"] = sum(
        1 for i in index.infos[integrator] if isinstance(i, str))

    ous, noma = "ris_sop.mcsim._ous_chunk", "ris_sop.mcsim._noma_chunk"
    shapes = [s for s in index.infos[ous] + index.infos[noma] if isinstance(s, list)]
    slots = sum(size for _kind, size, _n, _m in shapes)
    chunk_s = sum(index.all_durations(ous, noma))
    floors = {key: draw_floor_ms(list(key)) for key in {tuple(s) for s in shapes}}
    out["mcsim.ous_chunk_ms"] = ms_stats(index.durations[ous])[0]
    out["mcsim.noma_chunk_ms"] = ms_stats(index.durations[noma])[0]
    out["mcsim.chunks"] = len(shapes)
    out["mcsim.slots_per_s"] = slots / chunk_s if chunk_s > 0 else 0.0
    out["mcsim.draw_floor_ms"] = (
        statistics.median(floors[tuple(s)] for s in shapes) if shapes else 0.0)
    out["mcsim.draws_per_slot"] = (
        sum(size * _draws(k, n, m) for k, size, n, m in shapes) / slots if slots else 0.0)
    out["mcsim.bytes_per_slot"] = (
        sum(size * _bytes(k, n, m) for k, size, n, m in shapes) / slots if slots else 0.0)
    out["mcsim.estimate_ms"] = ms_stats(index.all_durations(
        "ris_sop.cli.estimate_sop", "ris_sop.cli.estimate_noma_pair"))[0]

    point_s = sum(index.durations["ris_sop.cli._evaluate_point"])
    out["cli.worker_busy_frac"] = point_s / (workers * traced_wall)
    out["sysmodel.derive_clt_params_calls"] = index.count(
        *(f"{m.__name__}.derive_clt_params"
          for m in (analytic, asymptotic, quadrature, mcsim)))
    return out, notes
