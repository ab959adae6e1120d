"""Opportunistic scheduling against the two-user NOMA benchmark.

One Monte Carlo pass per transmit-SNR point yields the outage rates of all
three scheme variants from identical channel draws: the full-power scheduled
best user, the NOMA best user (power-sharing), and the NOMA worst user.
The trial count is kept modest so this runs in well under a minute.
"""

import pathlib

from ris_sop import SystemConfig, estimate
from ris_sop.mcsim import SCHEMES

HERE = pathlib.Path(__file__).resolve().parent
TRIALS = 100_000

print(f"{'G0 (dB)':>8} {'OUS':>12} {'NOMA-BU':>12} {'NOMA-WU':>12}")
rows = []
for g in range(-10, 51, 10):
    cfg = SystemConfig(n_elements=64, n_users=3, gamma0_db=float(g))
    ests = estimate(cfg, SCHEMES, TRIALS, seed=100 + g)
    rows.append((g, ests))
    print(
        f"{g:8d} {ests['OUS'].sop_hat:12.4e} "
        f"{ests['NOMA_BU'].sop_hat:12.4e} {ests['NOMA_WU'].sop_hat:12.4f}"
    )

print(
    "\nPower sharing costs the best user secrecy at low and mid SNR and the"
    "\ngap closes as both saturate; the worst user, decoded under the strong"
    "\nuser's interference, stays in outage almost always."
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    gs = [r[0] for r in rows]
    for scheme, style in (("OUS", "C0-o"), ("NOMA_BU", "C1-s"), ("NOMA_WU", "C2-^")):
        ax.semilogy(gs, [r[1][scheme].sop_hat for r in rows], style, label=scheme)
    ax.set_xlabel("transmit SNR (dB)")
    ax.set_ylabel("secrecy outage probability")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(HERE / "noma_vs_opportunistic.png", dpi=150)
    print(f"wrote {HERE / 'noma_vs_opportunistic.png'}")
