"""Closed-form photon statistics of a temporally multiplexed write/read memory.

A weak write pulse creates at most one collective spin excitation per temporal
mode with probability ``p`` and scatters a heralding write photon.  Reading a
mode back converts the stored excitation into a read photon with intrinsic
efficiency ``p_int(t)`` after a storage time ``t``.  All other modes are
dephased at that moment and contribute an incoherent background that couples
into the detection path ``beta_ratio`` times more weakly than the phase-matched
mode (the suppression a resonator provides for the retrieved mode).

Every probability below is per trial and first order in the small quantities,
which is the regime the formulas are valid in (``p`` of a few percent, mean
photon numbers well under one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

#: Marker returned by :func:`max_modes` when the background vanishes and the
#: threshold is met for any mode count.
UNBOUNDED = math.inf

#: Names accepted for ``MemoryParams.decay_shape``.
DECAY_SHAPES = ("exponential", "gaussian")


@dataclass(frozen=True)
class MemoryParams:
    """Parameter bundle for the analytic memory model.

    Attributes
    ----------
    p : float
        Spin-wave creation probability per mode per trial, in [0, 1].
    eta_w : float
        Write-photon detection efficiency, in [0, 1].
    eta_r : float
        Read-photon detection efficiency, in [0, 1].
    p_int0 : float
        Intrinsic retrieval efficiency at zero storage time, in [0, 1].
    beta_ratio : float
        Ratio beta_w / beta_r >= 1 of the emission fraction of the
        phase-matched mode to that of a dephased mode.  Only this ratio
        enters the statistics; 1 means no directional suppression.
    xi_eg : float
        Coupling factor of dephased-mode light into the read detection
        path, in [0, 1].  A calibration knob, 1 by default upstream.
    n_modes : int
        Number of temporal modes in the write train, >= 1.
    tau_mem : float
        Memory 1/e time in seconds, > 0.
    decay_shape : str
        "exponential" for exp(-t/tau) or "gaussian" for exp(-(t/tau)^2).
    """

    p: float
    eta_w: float
    eta_r: float
    p_int0: float
    beta_ratio: float
    xi_eg: float = 1.0
    n_modes: int = 1
    tau_mem: float = 72e-6
    decay_shape: str = "exponential"

    def __post_init__(self):
        for name in ("p", "eta_w", "eta_r", "p_int0", "xi_eg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.beta_ratio < 1.0:
            raise ValueError(f"beta_ratio must be >= 1, got {self.beta_ratio}")
        if self.n_modes < 1 or int(self.n_modes) != self.n_modes:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        if not self.tau_mem > 0.0:
            raise ValueError(f"tau_mem must be positive, got {self.tau_mem}")
        if self.decay_shape not in DECAY_SHAPES:
            raise ValueError(
                f"decay_shape must be one of {DECAY_SHAPES}, got {self.decay_shape!r}"
            )

    def p_int(self, storage_time):
        """Intrinsic retrieval efficiency after ``storage_time`` seconds.

        Accepts a scalar or array; negative times are rejected.
        """
        t = np.asarray(storage_time, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("storage_time must be >= 0")
        x = t / self.tau_mem
        if self.decay_shape == "gaussian":
            out = self.p_int0 * np.exp(-(x * x))
        else:
            out = self.p_int0 * np.exp(-x)
        return float(out) if np.isscalar(storage_time) else out


def _background_coeff(params: MemoryParams, p_int: float) -> float:
    """Dephased-background coefficient (n_modes - p_int) * xi_eg / beta_ratio."""
    return (params.n_modes - p_int) * params.xi_eg / params.beta_ratio


def write_prob(params: MemoryParams) -> float:
    """Probability of a write click per mode per trial, p * eta_w."""
    return params.p * params.eta_w


def read_prob(params: MemoryParams, storage_time: float = 0.0) -> float:
    """Unconditional probability of a read detection per trial.

    The phase-matched retrieval contributes p * p_int * eta_r.  Each of the
    n_modes stored excitations (less the retrieved fraction) is dephased during
    readout and leaks into the detector with weight xi_eg / beta_ratio, giving

        p_r = p * eta_r * (p_int + (n_modes - p_int) * xi_eg / beta_ratio).
    """
    pi = params.p_int(storage_time)
    return params.p * params.eta_r * (pi + _background_coeff(params, pi))


def coincidence_prob(params: MemoryParams, storage_time: float = 0.0) -> float:
    """Joint probability of a write click and a read detection per trial.

        p_wr = p * eta_w * eta_r * (p_int + p * (n_modes - p_int) * xi_eg / beta_ratio)

    The background term carries an extra factor of p relative to
    :func:`read_prob` because a background coincidence additionally requires
    the heralding excitation.
    """
    pi = params.p_int(storage_time)
    return (
        params.p
        * params.eta_w
        * params.eta_r
        * (pi + params.p * _background_coeff(params, pi))
    )


def retrieval_given_write(params: MemoryParams, storage_time: float = 0.0) -> float:
    """Read-detection probability conditioned on a write click.

        p_(r|w) = p_int * eta_r + p * (n_modes - p_int) * xi_eg / beta_ratio * eta_r
    """
    pi = params.p_int(storage_time)
    return pi * params.eta_r + noise_given_write(params, storage_time)


def noise_given_write(params: MemoryParams, storage_time: float = 0.0) -> float:
    """Background part of the heralded read signal.

    Mean number of background detections in the read window,
    p * (n_modes - p_int) * xi_eg / beta_ratio * eta_r.  This is the term a
    resonator suppresses by beta_ratio.
    """
    pi = params.p_int(storage_time)
    return params.p * _background_coeff(params, pi) * params.eta_r


def cross_correlation(params: MemoryParams, storage_time: float = 0.0) -> float:
    """Normalized write-read cross correlation g2_wr.

        g2 = 1 + p_int * (1 - p) / (p * p_int + p * (n_modes - p_int) * xi_eg / beta_ratio)

    Detection efficiencies cancel in the ratio.  Values above 2 certify
    nonclassical write-read correlations.
    """
    if params.p == 0.0:
        raise ValueError("cross correlation is undefined at p = 0 (no heralds)")
    pi = params.p_int(storage_time)
    denom = params.p * (pi + _background_coeff(params, pi))
    if denom == 0.0:
        raise ValueError("cross correlation is undefined: zero read probability")
    return 1.0 + pi * (1.0 - params.p) / denom


def cavity_gain(
    with_cavity: MemoryParams, without_cavity: MemoryParams, storage_time: float = 0.0
) -> float:
    """Ratio of (g2 - 1) with and without directional suppression.

    Both parameter sets must agree in everything except ``beta_ratio``;
    the ratio then isolates the background suppression:

        gain = (p_int + (N - p_int) * xi / beta_nc) / (p_int + (N - p_int) * xi / beta_c)
    """
    for name in [f.name for f in fields(MemoryParams) if f.name != "beta_ratio"]:
        if getattr(with_cavity, name) != getattr(without_cavity, name):
            raise ValueError(
                f"parameter sets must differ only in beta_ratio, mismatch in {name}"
            )
    g_c = cross_correlation(with_cavity, storage_time)
    g_nc = cross_correlation(without_cavity, storage_time)
    return (g_c - 1.0) / (g_nc - 1.0)


def max_modes(params: MemoryParams, threshold: float) -> float | int:
    """Largest mode count keeping g2_wr above ``threshold`` at zero storage time.

    Inverts the cross-correlation formula for n_modes:

        N < p_int0 + (beta_ratio / xi_eg) * (p_int0 * (1 - p) / (p * (threshold - 1)) - p_int0)

    Returns the largest integer satisfying the strict inequality, 0 if even a
    single mode fails, or :data:`UNBOUNDED` when the background coefficient
    vanishes and the single-mode correlation clears the threshold.  Raises
    ValueError where :func:`cross_correlation` does (p_int0 = 0 with xi_eg = 0).
    """
    if threshold <= 1.0:
        raise ValueError("threshold must exceed 1 (the classical floor)")
    if params.p == 0.0:
        raise ValueError("max_modes is undefined at p = 0")

    def g2_at(n: int) -> float:
        return cross_correlation(replace(params, n_modes=n))

    coeff = params.xi_eg / params.beta_ratio  # 0 when xi_eg = 0 or beta_ratio = inf
    if coeff == 0.0:
        return UNBOUNDED if g2_at(1) > threshold else 0
    pi = params.p_int0
    bound = pi + (pi * (1.0 - params.p) / (params.p * (threshold - 1.0)) - pi) / coeff
    n = max(int(math.floor(bound)), 0)
    # Absorb floating-point edge cases with the exact cross correlation.
    while n >= 1 and not g2_at(n) > threshold:
        n -= 1
    while g2_at(n + 1) > threshold:
        n += 1
    return n


def g2_vs_storage(params: MemoryParams, times) -> np.ndarray:
    """Cross correlation along a storage-time grid.

    Parameters
    ----------
    times : array_like
        Storage times in seconds, each >= 0.

    Returns
    -------
    numpy.ndarray, shape (len(times), 2)
        Columns (time, g2).
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("storage times must be >= 0")
    g2 = np.array([cross_correlation(params, float(t)) for t in times])
    return np.column_stack([times, g2])
