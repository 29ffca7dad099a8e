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

import functools
import itertools
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
    phase and drops out.  A single time is an anchor of the kernel, so each
    phasor is the direct ``exp(i phi_j)`` and the result has the bits of
    ``p_int0 * abs(np.exp(1j * phi).mean()) ** 2``.
    """
    if time < write_time:
        raise ValueError("time must be >= write_time")
    return float(_efficiency_curve(ens, timeline, write_time, [time], p_int0)[0])


#: Largest phase error (rad) per atom and time that the echo kernel's phasor
#: recurrence may add, once for the polynomial it follows and once for its
#: rounding (see ``_efficiency_curve``).
PHASE_TOL = 1e-12


@functools.cache
def _step_cap(order: int) -> int:
    """Most recurrence steps after an anchor whose rounding stays within ``PHASE_TOL``.

    Each anchor ``exp`` and each complex multiply errs by at most eps
    (relative), and a step adds level k + 1's error to level k's, so after n
    steps a chain of order K errs by at most eps (1 + 2 sum_{i=1..K} C(n, i)),
    about eps n^2 for K = 2.  That is 66 steps for K = 2 and 23 for K = 3.
    """
    eps = np.finfo(float).eps
    n = 0
    while eps * (1 + 2 * sum(math.comb(n + 1, i) for i in range(1, order + 1))) <= PHASE_TOL:
        n += 1
    return n


def _pieces(za, b, z_max, v_max, order):
    """Split the time grid into pieces on which the phasor recurrence holds.

    Yields (start, length, za table, b table) per piece.  A table holds the
    forward differences of ``za`` (or ``b``) at the piece's start, up to
    ``order``; the recurrence follows the Newton polynomial
    c_0 + m c_1 + C(m, 2) c_2 + ... they define at step m.  A piece ends at
    the first time where that polynomial misses any atom's phase
    z za + v b by more than ``PHASE_TOL``, bounded over the atoms by
    ``z_max |dza| + v_max |db|``, or after ``_step_cap(order)`` steps.  The
    test is NaN-safe: a NaN deviation ends the piece, so a non-finite time is
    a piece of its own and its phasors never reach another time.
    """
    cap = _step_cap(order)
    start = 0
    while start < len(za):
        span = min(cap + 1, len(za) - start)
        m = np.arange(span, dtype=float)
        tables, dev = [], 0.0
        for scale, c in ((z_max, za), (v_max, b)):
            window = c[start:start + order + 1]
            table = [window[0]]
            for _ in range(len(window) - 1):
                window = np.diff(window)
                table.append(window[0])
            poly, binom = np.full(span, table[0]), np.ones(span)
            for k, ck in enumerate(table[1:], 1):
                binom = binom * (m - k + 1) / k
                poly += binom * ck
            dev = dev + scale * np.abs(poly - c[start:start + span])
            tables.append(table)
        miss = np.flatnonzero(~(dev <= PHASE_TOL))
        length = max(1, miss[0]) if miss.size else span
        yield start, length, *tables
        start += length


def _efficiency_curve(ens, timeline, write_time, times, p_int0):
    """Collective efficiency p_int0 |mean_j exp(i phi_j(t))|^2 on a time grid.

    Atom j's phase at time t_n is phi_j(t_n) = z_j ZA_n + v_j B_n, with
    ZA = zc a and B = k_sw (t - t_w) + zc q from ``_phase_coefficients``; the
    bias is a global phase and is left out.  Between the timeline's knots
    and the write time, ZA and B are polynomials in t of degree 2 (3 with
    drift), so on a uniform grid the phasors follow a recurrence in the time
    index n:

        e_{n+1} = e_n d_n,   d_{n+1} = d_n s   (with drift also s_{n+1} = s_n c)

    where e_n = exp(i phi_j(t_n)) and d, s, c are the phasors of the phase's
    first, second and third forward differences.  ``_pieces`` splits the grid
    into pieces; at the start of each (the anchor) the chain comes directly
    from ``exp``, and each later time costs one complex multiply per chain
    level over the atom vector and one sum, not an ``exp``.  Knots, the
    write time, a non-uniform grid and non-finite times end pieces by
    themselves, and a single time is just an anchor.

    ``write_time`` may also be a sequence: then each write time is a row of
    the result, of shape (rows, len(times)), and the rows advance in
    lockstep.  Each time costs one multiply per chain level and one
    ``np.add.reduce`` over a (rows x atoms) block, so that numpy's calls are
    long enough for threads to overlap (see ``ROW_ELEMENTS``).  Each row
    keeps its own pieces and is re-anchored, one row at a time, only at its
    own piece starts.  There the chain levels its piece does not use are set
    to 1, so the lockstep multiplies leave its used levels as they are and
    never read memory the kernel did not write.  Each row therefore gets
    the bits of its own single-row call.  (A lone atom runs its rows one at
    a time: numpy multiplies a length-1 vector in place by its scalar loop
    but a (rows x 1) block by its vector loop, and the two round
    differently.)

    Error bound: on a piece the recurrence's polynomial misses each atom's
    phase by at most ``PHASE_TOL`` and its rounding adds at most
    ``PHASE_TOL`` more (``_step_cap``), so each phasor lies within
    delta = 2 ``PHASE_TOL`` of exp(i phi_j), plus rounding of order
    eps (1 + |phi_j|) that direct evaluation shares.  The mean phasor then
    moves by at most delta and the efficiency by at most
    p_int0 delta (2 + delta), about 4e-12 p_int0.

    Each time's phasors are summed pairwise (``np.add.reduce`` over the atom
    axis) and the sum is divided by the atom count as ``np.mean`` divides
    it, so an anchor's value has the bits of the direct evaluation.
    """
    if np.ndim(write_time) == 0:
        return _efficiency_curve(ens, timeline, [write_time], times, p_int0)[0]
    if ens.n_atoms == 1 and len(write_time) > 1:
        return np.stack([_efficiency_curve(ens, timeline, tw, times, p_int0)
                         for tw in write_time])
    times = np.asarray(times, dtype=float)
    z, v = ens.positions, ens.velocities
    z_max, v_max = np.abs(z).max(), np.abs(v).max()
    zc = ens.zeeman_coeff
    order = 3 if timeline.drift_rate else 2
    rows = len(write_time)
    # anchors[n]: (row, levels, za table, b table) of each piece starting at time n
    anchors = [[] for _ in times]
    for r, tw in enumerate(write_time):
        a, q = _phase_coefficients(timeline, tw, times)
        za = zc * a
        b = ens.k_sw * (times - tw) + zc * q
        for start, length, za_table, b_table in _pieces(za, b, z_max, v_max, order):
            anchors[start].append((r, min(order, length - 1) + 1, za_table, b_table))
    phase = np.zeros(ens.n_atoms, dtype=complex)  # real part stays +0, as in 1j * phi
    im = phase.imag
    vb = np.empty(ens.n_atoms)
    # One (rows x atoms) array per chain level, not one block for all levels:
    # with a single-row chain held as one block, the trial-engine runs that
    # followed in the same process measured about 15% slower.
    chain = [np.empty((rows, ens.n_atoms), dtype=complex) for _ in range(order + 1)]
    acc = np.empty((rows, len(times)), dtype=complex)
    for n, anchored in enumerate(anchors):
        if len(anchored) < rows:
            for k in range(order):
                np.multiply(chain[k], chain[k + 1], out=chain[k])
        for r, levels, za_table, b_table in anchored:
            for k in range(levels):
                np.multiply(z, za_table[k], out=im)
                np.multiply(v, b_table[k], out=vb)
                np.add(im, vb, out=im)
                np.exp(phase, out=chain[k][r])
            for k in range(levels, order + 1):
                chain[k][r] = 1.0
        np.add.reduce(chain[0], axis=1, out=acc[:, n])
    np.true_divide(acc, ens.n_atoms, out=acc, casting="unsafe")
    return p_int0 * np.abs(acc) ** 2


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
    weights are not renormalized, and each curve lies in [0, ``p_int0``] (up
    to the kernel's bound below), so the profile differs from the full
    rule's by at most ``p_int0`` times the dropped weight, at most 1e-10
    ``p_int0``.

    Each node's curve comes from the phasor recurrence of
    ``_efficiency_curve``: an ``exp`` per atom only at the anchor of each
    piece of the time grid, then complex multiplies.  Each phasor stays
    within 2 ``PHASE_TOL`` of exp(i phi_j), so each curve, and with weights
    summing to at most 1 the profile, lies within about 4 ``PHASE_TOL``
    ``p_int0`` (4e-12 ``p_int0``) of the direct evaluation.

    The node curves are independent, so they run on a thread pool with one
    worker per usable CPU.  Each task is a group of consecutive kept nodes
    whose curves ``_efficiency_curve`` advances in lockstep as the rows of
    one (rows x atoms) block (see ``ROW_ELEMENTS``): numpy releases the GIL
    inside each call, but calls on a single 1e4-atom vector are too short
    for two threads to overlap.  Each row has the bits of its node's own
    curve, and the weighted curves are summed in node order, so the result
    has the same bits on any number of CPUs.

    Returns an array of shape (len(times), 2) with columns (time, efficiency).
    """
    if nodes < 3:
        raise ValueError("need at least 3 quadrature nodes")
    times = np.asarray(times, dtype=float)
    sigma_t = pulse.duration_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    x, w = _creation_nodes(nodes)
    created = [write_time + math.sqrt(2.0) * sigma_t * xk for xk in x]
    cpus = _usable_cpus()
    # Nodes per task: the ROW_ELEMENTS budget, at most an even share per worker.
    size = max(1, min(ROW_ELEMENTS // ens.n_atoms, math.ceil(len(created) / cpus)))
    groups = [created[i:i + size] for i in range(0, len(created), size)]
    eff = np.zeros_like(times)
    with ThreadPoolExecutor(min(len(groups), cpus)) as pool:
        blocks = pool.map(lambda g: _efficiency_curve(ens, timeline, g, times, p_int0), groups)
        for wk, curve in zip(w, itertools.chain.from_iterable(blocks)):
            eff += wk * curve
    return np.column_stack([times, eff])


#: Atom phasors per chain level (rows x atoms) that one ``echo_profile`` task
#: steps in lockstep: 3 node curves at 1e4 atoms.  Two threads issuing complex
#: multiplies over 1e4 elements got 1.1x the throughput of one (2 vCPU,
#: numpy 2.4.6), over 4e4 elements 1.6x.  Larger blocks measured slower: the
#: default ``echo`` profiles took 0.58 s at this budget, 0.75 s at twice it
#: (perhaps because the chain levels no longer fit the 2 MB per-core cache)
#: and 0.80 s at one node per task.
ROW_ELEMENTS = 2**15


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
