"""Secrecy outage vs transmit SNR, three ways.

Sweeps the transmit SNR for a 64- and a 128-element surface with one and
three users, evaluating the closed form, the exact-Q quadrature reference
and the high-SNR saturation level.  Writes a CSV next to this script and,
when matplotlib is importable, a log-scale plot in the style of the usual
outage waterfalls.
"""

import csv
import pathlib

import numpy as np

from ris_sop import SystemConfig, sop_asymptotic_closed, sop_closed_form
from ris_sop.quadrature import sop_quad_exact_q

HERE = pathlib.Path(__file__).resolve().parent

# Plain floats: numpy scalars would reach the CSV as "np.float64(...)".
gammas = [float(g) for g in np.arange(-10.0, 55.1, 2.5)]
curves = {}
floors = {}
for n in (64, 128):
    for m in (1, 3):
        closed = [
            sop_closed_form(
                SystemConfig(n_elements=n, n_users=m, gamma0_db=g)
            ).value
            for g in gammas
        ]
        quad = [
            sop_quad_exact_q(
                SystemConfig(n_elements=n, n_users=m, gamma0_db=g)
            ).value
            for g in gammas
        ]
        curves[(n, m)] = (closed, quad)
        floors[(n, m)] = sop_asymptotic_closed(
            SystemConfig(n_elements=n, n_users=m)
        )
        print(f"N={n:4d} M={m}: saturation level {floors[(n, m)]:.3e}")

out = HERE / "sop_vs_transmit_snr.csv"
with out.open("w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["gamma0_db", "n_elements", "n_users", "sop_closed", "sop_quad_exact"])
    for (n, m), (closed, quad) in curves.items():
        for g, c, q in zip(gammas, closed, quad):
            w.writerow([g, n, m, repr(c), repr(q)])
print(f"wrote {out}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    styles = {(64, 1): "C0-o", (64, 3): "C1-s", (128, 1): "C2-^", (128, 3): "C3-v"}
    for (n, m), (closed, quad) in curves.items():
        ax.semilogy(gammas, closed, styles[(n, m)], markevery=4,
                    label=f"N={n}, M={m} (closed form)")
        ax.semilogy(gammas, quad, "k:", linewidth=0.8)
        ax.axhline(floors[(n, m)], color=styles[(n, m)][:2], linestyle="--",
                   linewidth=0.8)
    ax.set_xlabel("transmit SNR (dB)")
    ax.set_ylabel("secrecy outage probability")
    ax.set_ylim(1e-6, 1.5)
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(HERE / "sop_vs_transmit_snr.png", dpi=150)
    print(f"wrote {HERE / 'sop_vs_transmit_snr.png'}")
