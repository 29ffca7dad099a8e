"""
Heralded photon statistics of a multimode emissive memory
=========================================================

A write pulse scatters a heralding photon and leaves one collective spin
excitation behind; a later read pulse converts it back into a photon.  This
walk-through evaluates the closed-form click statistics: how the write/read
coincidence grows with excitation probability, how storing many modes floods
the read channel with background from the other spin waves, and how a
directional read channel (a cavity) pushes that background back down.
"""

from dataclasses import replace

import numpy as np

from muxmem import (
    MemoryParams,
    cavity_gain,
    coincidence_prob,
    cross_correlation,
    max_modes,
    read_prob,
    retrieval_given_write,
    write_prob,
)

# A working point typical of a cold-ensemble experiment: modest excitation
# probability, realistic detection, ten temporally multiplexed modes, and a
# read channel whose directional collection is 14 times better for the
# phase-matched signal than for everything else.
base = MemoryParams(p=0.045, eta_w=0.3, eta_r=0.25, p_int0=0.4,
                    beta_ratio=14.0, xi_eg=1.0, n_modes=10, tau_mem=72e-6)

print("single-train click probabilities at the base working point")
print(f"  p_w  (herald per mode)        = {write_prob(base):.6f}")
print(f"  p_r  (unconditional read)     = {read_prob(base):.6f}")
print(f"  p_wr (write-read coincidence) = {coincidence_prob(base):.6f}")
print(f"  p_r|w (read given herald)     = {retrieval_given_write(base):.6f}")
print(f"  g2_wr                         = {cross_correlation(base):.3f}")
print()

# The normalized cross correlation g2 = p_wr / (p_w p_r) is the standard
# nonclassicality witness: thermal background gives 2, uncorrelated light 1,
# and a heralded single excitation pushes it far above both.  Adding modes
# adds background emitters, so g2 falls as the train grows.
print("g2 versus number of stored modes (beta = 14 vs no directionality)")
print("  modes   directional   isotropic")
for n in (1, 2, 5, 10, 20, 40):
    with_cav = cross_correlation(replace(base, n_modes=n))
    without = cross_correlation(replace(base, n_modes=n, beta_ratio=1.0))
    print(f"  {n:5d}   {with_cav:11.3f}   {without:9.3f}")
print()

# How many modes can the memory hold before g2 sinks to a chosen floor?
# The closed form inverts the correlation formula; 5.8 is a customary
# threshold for high-purity heralding.
threshold = 5.8
print(f"mode capacity at g2 > {threshold}")
for beta in (1.0, 7.0, 14.0, 28.0, 81.0):
    n_max = max_modes(replace(base, beta_ratio=beta), threshold)
    print(f"  beta = {beta:4.0f}  ->  {n_max:4d} modes")
print()

# Background suppression also slows the apparent decay of nonclassicality.
# The signal decays with the memory lifetime while the background does not,
# so with a large background the contrast g2 - 1 collapses quickly.
single = replace(base, p=0.1, n_modes=1)
times = np.array([0.0, base.tau_mem])
for beta, label in ((1.0, "isotropic read"), (14.0, "directional read")):
    g = cross_correlation(replace(single, beta_ratio=beta), times)
    drop = 1.0 - (g[1] - 1.0) / (g[0] - 1.0)
    print(f"{label}: g2 - 1 loses {100 * drop:.1f}% over one lifetime")

gain = cavity_gain(single, replace(single, beta_ratio=1.0))
print(f"ratio of the two contrasts at t = 0: {gain:.3f}")
