"""
Choosing the outcoupler of a low-finesse resonator
==================================================

A resonator around the read channel multiplies the retrieval rate, but only
the light leaving through the outcoupling mirror is useful.  Raising the
mirror transmission lowers the finesse (less enhancement) while raising the
escape efficiency (more of the enhanced light gets out), so the product has
an interior optimum set entirely by the roundtrip loss.
"""

import numpy as np

from muxmem import (
    CavityParams,
    PulseSpec,
    effective_enhancement,
    enhancement_factor,
    escape_efficiency,
    finesse,
    fsr,
    linewidth,
    optimal_outcoupler,
    rate_gain,
)

# Start from a concrete resonator: 14% outcoupler, 11% residual roundtrip
# loss, 87.7 cm roundtrip.
cav = CavityParams(transmission=0.14, loss=0.11, roundtrip_length=0.877)
print("reference resonator")
print(f"  finesse             = {finesse(cav):.2f}")
print(f"  escape efficiency   = {escape_efficiency(cav):.3f}")
print(f"  free spectral range = {fsr(cav) / 1e6:.1f} MHz")
print(f"  linewidth           = {linewidth(cav) / 1e6:.2f} MHz")
print(f"  enhancement factor  = {enhancement_factor(cav):.2f}")
print(f"  usable rate gain    = {rate_gain(cav):.2f}")
print()

# Scan the transmission at fixed loss.  The curve is flat near the top, so a
# hardware-convenient mirror a little off the optimum costs almost nothing.
print("rate gain versus outcoupler transmission (loss = 0.11)")
for t in (0.05, 0.10, 0.14, 0.20, 0.30):
    g = rate_gain(CavityParams(t, 0.11))
    print(f"  T = {t:.2f}  ->  gain {g:5.2f}")
t_best, g_best = optimal_outcoupler(0.11)
print(f"  optimum: T = {t_best:.4f}, gain {g_best:.2f}")
print()

# Lower loss moves the optimum toward critical coupling and the payoff grows
# roughly as 1/loss.
print("best achievable gain versus roundtrip loss")
for loss in (0.01, 0.03, 0.05, 0.11, 0.20):
    t_opt, g_opt = optimal_outcoupler(loss)
    print(f"  L = {loss:.2f}  ->  T_opt = {t_opt:.4f}, gain {g_opt:6.2f}")
print()

# The enhancement above assumed a photon much narrower than the cavity line.
# A short write pulse makes a broad photon; the part of its spectrum outside
# the Lorentzian line is not enhanced, which discounts the gain.
print("bandwidth discount for Gaussian photons (reference resonator)")
full = enhancement_factor(cav)
for fwhm_ns in (25, 133, 266, 1064):
    eff = effective_enhancement(cav, PulseSpec(fwhm_ns * 1e-9))
    print(f"  {fwhm_ns:5d} ns pulse: effective enhancement {eff:5.2f}"
          f"  ({100 * eff / full:5.1f}% of the narrow-band value)")

# Optional picture: the tradeoff curve with the optimum marked.
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    ts = np.linspace(0.02, 0.6, 300)
    for loss in (0.05, 0.11, 0.2):
        gains = [rate_gain(CavityParams(t, loss)) for t in ts]
        plt.plot(ts, gains, label=f"loss {loss:.2f}")
        t_opt, g_opt = optimal_outcoupler(loss)
        plt.plot([t_opt], [g_opt], "k.")
    plt.xlabel("outcoupler transmission")
    plt.ylabel("usable rate gain")
    plt.legend()
    plt.tight_layout()
    plt.savefig("cavity_design.png", dpi=120)
    print("\nwrote cavity_design.png")
