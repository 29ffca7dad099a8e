"""Monte Carlo model of collective spin-wave dephasing and gradient echoes.

A spin wave stored in a cold ensemble accumulates position- and
velocity-dependent phase: atomic motion along the spin-wave grating
contributes ``k_sw * v_j * (t - t_w)``, and a magnetic field with a spatial
gradient contributes the integrated Zeeman shift at each (moving) atom.
Retrieval efficiency is proportional to the squared magnitude of the mean
atomic phasor, so reversing the gradient rephases the ensemble and produces
an echo at the time where the position-proportional phase integral returns
to zero.

Conventions: positions and the spin-wave wavevector are in meters and rad/m,
times in seconds, bias fields in gauss, gradients in gauss per centimeter,
and the Zeeman coefficient in Hz per gauss.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: Boltzmann constant, J/K (exact in the 2019 SI).
_KB = 1.380649e-23

#: Atomic mass constant, kg (CODATA 2022).  ``test_constants_match_scipy``
#: fails on purpose when scipy moves to a newer CODATA adjustment.
_AMU = 1.66053906892e-27

#: Mass of the stored species (Rb-87), kg.
ATOM_MASS = 86.909 * _AMU

#: Linear Zeeman coefficient of the storage transition, Hz per gauss.
ZEEMAN_COEFF_DEFAULT = 1.4e6

#: Reference temperature for the default spin-wave wavevector, K.
_T_REF = 40e-6

#: Default spin-wave wavevector, rad/m: motional 1/e time of 72 us at 40 uK.
K_SW_DEFAULT = 1.0 / (math.sqrt(_KB * _T_REF / ATOM_MASS) * 72e-6)

_CM_PER_M = 100.0


class NoRephasingError(RuntimeError):
    """The position-proportional phase integral never crosses zero."""


@dataclass(frozen=True, eq=False)
class AtomEnsemble:
    """Sampled atomic positions (m) and velocities (m/s) along the grating axis."""

    positions: np.ndarray
    velocities: np.ndarray
    k_sw: float = K_SW_DEFAULT
    zeeman_coeff: float = ZEEMAN_COEFF_DEFAULT

    def __post_init__(self):
        if self.positions.shape != self.velocities.shape or self.positions.ndim != 1:
            raise ValueError("positions and velocities must be 1-d arrays of equal length")
        if len(self.positions) < 1:
            raise ValueError("ensemble must contain at least one atom")
        if self.k_sw < 0.0 or self.zeeman_coeff < 0.0:
            raise ValueError("k_sw and zeeman_coeff must be >= 0")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)


def sample_ensemble(
    n_atoms: int,
    cloud_sigma: float,
    temperature: float,
    seed: int,
    k_sw: float = K_SW_DEFAULT,
    zeeman_coeff: float = ZEEMAN_COEFF_DEFAULT,
) -> AtomEnsemble:
    """Draw a thermal ensemble: Gaussian positions and Maxwell velocities.

    ``cloud_sigma`` is the rms cloud extent along the gradient (m) and
    ``temperature`` the kinetic temperature (K); 0 freezes the motion.
    Deterministic for a given seed.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if cloud_sigma < 0.0 or temperature < 0.0:
        raise ValueError("cloud_sigma and temperature must be >= 0")
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, cloud_sigma, size=n_atoms) if cloud_sigma > 0 else np.zeros(n_atoms)
    sigma_v = math.sqrt(_KB * temperature / ATOM_MASS)
    v = rng.normal(0.0, sigma_v, size=n_atoms) if sigma_v > 0 else np.zeros(n_atoms)
    return AtomEnsemble(z, v, k_sw=k_sw, zeeman_coeff=zeeman_coeff)


@dataclass(frozen=True)
class FieldTimeline:
    """Piecewise-constant gradient program with a uniform bias and a slow drift.

    ``segments`` is a sequence of (start_time_s, gradient_g_per_cm) with
    strictly increasing start times; each gradient holds until the next
    segment starts (the last one holds forever).  Before the first segment
    the gradient is zero.  The instantaneous gradient is scaled by
    ``(1 + drift_rate * t)``, modelling a slow amplitude drift; the bias
    (gauss) is constant and spatially uniform.
    """

    segments: tuple
    bias: float = 0.0
    drift_rate: float = 0.0

    def __post_init__(self):
        segs = tuple((float(t), float(g)) for t, g in self.segments)
        if not segs:
            raise ValueError("timeline needs at least one segment")
        starts = [t for t, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def reversal(cls, gradient: float, reverse_time: float, bias: float = 0.0,
                 drift_rate: float = 0.0) -> "FieldTimeline":
        """+gradient from time 0, -gradient from reverse_time on."""
        if reverse_time <= 0.0:
            raise ValueError("reverse_time must be > 0")
        return cls(((0.0, gradient), (reverse_time, -gradient)), bias, drift_rate)

    @classmethod
    def freeze_release(cls, gradient: float, freeze_time: float, release_time: float,
                       bias: float = 0.0, drift_rate: float = 0.0) -> "FieldTimeline":
        """+gradient from time 0, zero between freeze and release, then -gradient."""
        if not 0.0 < freeze_time < release_time:
            raise ValueError("need 0 < freeze_time < release_time")
        return cls(((0.0, gradient), (freeze_time, 0.0), (release_time, -gradient)),
                   bias, drift_rate)

    def _bounds(self):
        """Per-segment (start, end, gradient) with the last end at +inf."""
        ends = [start for start, _ in self.segments[1:]] + [math.inf]
        return [(start, end, grad) for (start, grad), end in zip(self.segments, ends)]


def _phase_coefficients(timeline: FieldTimeline, write_time: float, times: np.ndarray):
    """Position and velocity gradient-phase coefficients for each readout time.

    The gradient phase of atom j is linear in its write-time position and
    velocity: phi_grad = a(t) * z_j + q(t) * v_j with

        a(t) = 2 pi zc * 100 * integral A(t') (1 + d t') dt'
        q(t) = 2 pi zc * 100 * integral A(t') (1 + d t') (t' - t_w) dt'

    (the factor 100 converts gauss/cm * m to gauss).  Returns (a, q) arrays.
    """
    d = timeline.drift_rate
    tw = write_time
    # antiderivative of (1 + d t)(t - tw): t^2/2 - tw t + d (t^3/3 - tw t^2/2)
    def f(t):
        return t * t / 2.0 - tw * t + d * (t ** 3 / 3.0 - tw * t * t / 2.0)
    p_int = np.zeros_like(times)
    q_int = np.zeros_like(times)
    for start, end, grad in timeline._bounds():
        lo = max(start, tw)
        if grad == 0.0 or end <= lo:
            continue
        hi = np.clip(times, lo, end)
        lo_arr = np.minimum(hi, lo)  # an array: array and float ** 3 round differently
        p_int += grad * ((hi - lo_arr) + d * (hi * hi - lo_arr * lo_arr) / 2.0)
        q_int += grad * (f(hi) - f(lo_arr))
    scale = 2.0 * math.pi * _CM_PER_M
    return scale * p_int, scale * q_int


def collective_efficiency(
    ens: AtomEnsemble, timeline: FieldTimeline, write_time: float,
    time: float, p_int0: float = 1.0,
) -> float:
    """Retrieval efficiency p_int0 * |mean_j exp(i phi_j)|^2 at ``time``.

        phi_j = k_sw v_j (t - t_w)
              + 2 pi zc [bias (t - t_w) + integral A(t')(1 + d t') z_j(t') dt']

    with the atom coasting from its write-time position,
    z_j(t') = z_j + v_j (t' - t_w).  One time point of the echo kernel
    ``_efficiency_curve``; the spatially uniform bias only adds a global
    phase and drops out.
    """
    if time < write_time:
        raise ValueError("time must be >= write_time")
    return float(_efficiency_curve(ens, timeline, write_time, [time], p_int0)[0])


#: Atoms per tile of the echo kernel; with up to ``TIME_TILE`` times, a
#: tile's three work buffers stay within a per-core L2 cache.
ATOM_TILE = 256

#: Times per tile of the echo kernel.  Kept at 512: a tile one time wide is
#: summed pairwise (see ``_efficiency_curve``), so tiles must be one time
#: wide exactly where the untiled kernel's 512-time chunks were.
TIME_TILE = 512


def _efficiency_curve(ens, timeline, write_time, times, p_int0):
    """Collective efficiency p_int0 |mean_j exp(i phi_j(t))|^2 on a time grid.

    The bias is omitted; it is a global phase and cancels.  Atoms and times
    are streamed through tiles of at most ``ATOM_TILE`` x ``TIME_TILE``, so
    no (atoms x times) array is built.  The result is bit-identical to
    ``np.abs(np.exp(1j * phi).mean(axis=0)) ** 2`` taken on each 512-time
    chunk of the (atoms x times) phase array:

    - the phase of each element comes from the same elementwise operations,
      and ``exp`` reads it from the imaginary part of a buffer whose real
      part is +0, as ``1j * phi`` makes it (``exp(+-0) = 1``);
    - each time's phasors are summed sequentially over atoms, the order in
      which ``mean(axis=0)`` reduces a C-ordered array: row 0 of the exp
      buffer carries the running sum from one atom tile into the next, and
      the first tile starts from its own first atom;
    - numpy sums a single column pairwise, not row by row, so a tile one
      time wide takes every atom at once;
    - the sum is divided by the atom count with ``np.true_divide``, as
      ``np.mean`` divides it.
    """
    times = np.asarray(times, dtype=float)
    a, q = _phase_coefficients(timeline, write_time, times)
    zc = ens.zeeman_coeff
    n_atoms = ens.n_atoms
    out = np.empty_like(times)
    for t0 in range(0, len(times), TIME_TILE):
        sl = slice(t0, t0 + TIME_TILE)
        za = zc * a[sl]
        b = ens.k_sw * (times[sl] - write_time) + zc * q[sl]
        width = len(b)
        step = n_atoms if width == 1 else min(ATOM_TILE, n_atoms)
        phase = np.zeros((step, width), dtype=complex)
        vb = np.empty((step, width))
        expo = np.empty((step + 1, width), dtype=complex)
        acc = np.empty(width, dtype=complex)
        for i in range(0, n_atoms, step):
            k = min(step, n_atoms - i)
            im = phase[:k].imag
            np.multiply(ens.positions[i:i + k, None], za, out=im)
            np.multiply(ens.velocities[i:i + k, None], b, out=vb[:k])
            np.add(im, vb[:k], out=im)
            np.exp(phase[:k], out=expo[1:k + 1])
            if i == 0:
                np.add.reduce(expo[1:k + 1], axis=0, out=acc)
            else:
                expo[0] = acc
                np.add.reduce(expo[:k + 1], axis=0, out=acc)
        np.true_divide(acc, n_atoms, out=acc, casting="unsafe")
        out[sl] = np.abs(acc) ** 2
    return p_int0 * out


#: Window after the write (s) in which :func:`rephasing_time` seeks the echo.
REPHASING_HORIZON = 0.01


def rephasing_time(timeline: FieldTimeline, write_time: float) -> float:
    """Earliest time after ``write_time`` where the gradient phase integral crosses zero.

    Solved segment by segment: within a segment the integral is linear (or
    quadratic, with drift) in time, so candidate intervals are located from
    sign changes at segment boundaries and at the interior extremum where the
    drifting gradient itself changes sign; the root is then polished with
    :func:`_brentq`, a step-for-step port of scipy's C ``brentq``, to
    ``xtol = 1e-9`` s absolute and ``rtol = 4 eps`` relative tolerance in at
    most 100 iterations.  Raises :class:`NoRephasingError` when no crossing
    exists before ``write_time + REPHASING_HORIZON``.
    I(write_time) is exactly 0, so the search starts at the first knot after it.
    A knot where |I| is at most 1e-12 of the integral's total variation since
    the write is itself the echo; the threshold is relative, so a weak
    gradient that never reverses still raises.
    """
    t_end = write_time + REPHASING_HORIZON
    def f(t):
        """Position-proportional phase integral I(t) = int_tw^t A(t')(1 + d t') dt'."""
        return float(_phase_coefficients(timeline, write_time, np.array([t], dtype=float))[0][0])
    knots = []
    for start, end, _ in timeline._bounds():
        if write_time < start < t_end:
            knots.append(start)
        # interior sign change of the drifting gradient A (1 + d t)
        if timeline.drift_rate != 0.0:
            t_flip = -1.0 / timeline.drift_rate
            lo = max(start, write_time)
            hi = min(end, t_end)
            if lo < t_flip < hi:
                knots.append(t_flip)
    knots.append(t_end)
    knots = sorted(set(knots))
    # I is monotone between knots, so the summed knot-to-knot steps are the
    # integral's total variation since the write: the scale against which a
    # knot value counts as zero.
    f_prev, fa, variation = 0.0, f(knots[0]), 0.0
    for a, b in zip(knots, knots[1:]):
        variation += abs(fa - f_prev)
        if abs(fa) <= 1e-12 * variation:
            return a
        fb = f(b)
        if fa * fb <= 0.0:
            return _brentq(f, a, fa, b, xtol=1e-9)
        f_prev, fa = fa, fb
    raise NoRephasingError(
        f"phase integral does not return to zero within {REPHASING_HORIZON:g} s of the write"
    )


def _brentq(f, a, fa, b, xtol):
    """Root of ``f`` in [a, b] by Brent's method, given ``fa = f(a)``.

    A step-for-step port of scipy's C ``brentq`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4) with its default
    ``rtol = 4 eps`` and 100 iterations, so it returns the same bits as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol)``.  Raises ``ValueError``
    when f(a) and f(b) have the same sign and ``RuntimeError`` when it does
    not converge.
    """
    rtol = 4.0 * sys.float_info.epsilon
    xpre, fpre = a, fa
    xcur, fcur = b, f(b)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step here, and bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


def echo_profile(
    ens: AtomEnsemble,
    timeline: FieldTimeline,
    write_time: float,
    pulse,
    p_int0: float,
    times,
    nodes: int = 33,
) -> np.ndarray:
    """Retrieval-efficiency profile for a spin wave created by a finite pulse.

    Creation times are distributed over the write pulse's Gaussian intensity
    envelope (FWHM ``pulse.duration_fwhm``, centred on ``write_time``); the
    profile is the envelope-weighted average of the single-creation-time
    efficiency, evaluated by Gauss-Hermite quadrature with ``nodes`` nodes
    (33 by default).  The outermost nodes are left out in symmetric pairs
    while their total normalized weight stays at most
    ``QUADRATURE_TAIL_WEIGHT`` (see ``_creation_nodes``): 23 of the default
    33 node curves are computed, and all 9 of a 9-node rule.  The kept
    weights are not renormalized, and each curve lies in [0, ``p_int0``], so
    the profile differs from the full rule's by at most ``p_int0`` times the
    dropped weight, at most 1e-10 ``p_int0``.

    Each node's curve sums the phasors sequentially over atoms, with an
    ordered carry between atom tiles, and divides by the atom count as
    ``np.mean`` divides, so its bits equal those of the untiled kernel (see
    ``_efficiency_curve``).

    The node curves are independent, so they run on a thread pool with one
    worker per usable CPU (at most one per node); numpy releases the GIL in
    the kernel's ufuncs and reductions.  The weighted curves are summed in
    node order, so the result has the same bits on any number of CPUs.

    Returns an array of shape (len(times), 2) with columns (time, efficiency).
    """
    if nodes < 3:
        raise ValueError("need at least 3 quadrature nodes")
    times = np.asarray(times, dtype=float)
    sigma_t = pulse.duration_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x, w = _creation_nodes(nodes)
    created = [write_time + math.sqrt(2.0) * sigma_t * xk for xk in x]
    eff = np.zeros_like(times)
    with ThreadPoolExecutor(min(len(x), _usable_cpus())) as pool:
        curves = pool.map(lambda t: _efficiency_curve(ens, timeline, t, times, p_int0), created)
        for wk, curve in zip(w, curves):
            eff += wk * curve
    return np.column_stack([times, eff])


#: Largest total normalized weight of the outer Gauss-Hermite nodes that
#: :func:`echo_profile` leaves out.  It drops 10 of 33 nodes and moves the
#: profile by at most this times ``p_int0``, far below the 33-node rule's own
#: quadrature error (about 6e-3 at a 1 us pulse).
QUADRATURE_TAIL_WEIGHT = 1e-10


def _creation_nodes(nodes: int):
    """Gauss-Hermite abscissae and normalized weights, less the negligible outer pairs.

    Pairs are dropped from the outside in while the dropped weight stays at
    most ``QUADRATURE_TAIL_WEIGHT``; the centre node (or pair) is always
    kept.  The kept nodes stay in node order and their weights are not
    renormalized.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / w.sum()
    drop = 0
    while (drop < (nodes - 1) // 2
           and w[:drop + 1].sum() + w[nodes - drop - 1:].sum() <= QUADRATURE_TAIL_WEIGHT):
        drop += 1
    return x[drop:nodes - drop], w[drop:nodes - drop]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
