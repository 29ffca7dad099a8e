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
from dataclasses import dataclass

import numpy as np

from .model import MemoryParams, _check, _integer

#: Boltzmann constant, J/K (exact in the 2019 SI).
_KB = 1.380649e-23

#: Atomic mass constant, kg (CODATA 2022).  ``test_constants_match_scipy``
#: fails on purpose when scipy moves to a newer CODATA adjustment.
_AMU = 1.66053906892e-27

#: Mass of the stored species (Rb-87), kg.
ATOM_MASS = 86.909 * _AMU

#: Linear Zeeman coefficient of the storage transition, Hz per gauss.
ZEEMAN_COEFF_DEFAULT = 1.4e6

#: Default cloud temperature, K, and the reference of :data:`K_SW_DEFAULT`.
TEMPERATURE_DEFAULT = 40e-6

#: Default spin-wave wavevector, rad/m: motional 1/e time of the default tau_mem at 40 uK.
K_SW_DEFAULT = 1.0 / (math.sqrt(_KB * TEMPERATURE_DEFAULT / ATOM_MASS) * MemoryParams.tau_mem)

#: 2 pi 100: radians per cycle times centimeters per meter (gauss/cm * m to
#: gauss), the factor of the gradient phase integrals.
_PHASE_SCALE = 2.0 * math.pi * 100.0


class NoRephasingError(ValueError):
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
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise ValueError("positions and velocities must be finite")
        if not (self.k_sw >= 0.0 and self.zeeman_coeff >= 0.0):  # NaN fails too
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
    if _integer("n_atoms", n_atoms) < 1:
        raise ValueError("n_atoms must be >= 1")
    if not (0.0 <= cloud_sigma < math.inf and 0.0 <= temperature < math.inf):
        raise ValueError("cloud_sigma and temperature must be finite and >= 0")
    rng = np.random.default_rng(_integer("seed", seed))
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
        if not (np.isfinite(segs).all() and math.isfinite(self.drift_rate)):
            raise ValueError("segment start times, gradients and drift_rate must be finite")
        starts = [t for t, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def reversal(cls, gradient: float, reverse_time: float, bias: float = 0.0,
                 drift_rate: float = 0.0) -> "FieldTimeline":
        """+gradient from time 0, -gradient from reverse_time on."""
        if not reverse_time > 0.0:
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
    velocity: phi_grad = zc * (a(t) * z_j + q(t) * v_j) with

        a(t) = 2 pi * 100 * integral A(t') (1 + d t') dt'
        q(t) = 2 pi * 100 * integral A(t') (1 + d t') (t' - t_w) dt'

    (the factor 100 converts gauss/cm * m to gauss).  Returns (a, q) arrays
    without the Zeeman coefficient zc, which every caller multiplies in.
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
    return _PHASE_SCALE * p_int, _PHASE_SCALE * q_int


def collective_efficiency(
    ens: AtomEnsemble, timeline: FieldTimeline, write_time: float, time: float,
) -> float:
    """Echo contrast |mean_j exp(i phi_j)|^2 at ``time``: retrieval efficiency / p_int0.

        phi_j = k_sw v_j (t - t_w)
              + 2 pi zc [bias (t - t_w) + integral A(t')(1 + d t') z_j(t') dt']

    with the atom coasting from its write-time position,
    z_j(t') = z_j + v_j (t' - t_w).  The spatially uniform bias only adds a
    global phase and drops out.  Evaluated directly, with the bits of
    ``np.abs(np.exp(1j * phi).mean(axis=0)) ** 2`` on a one-time
    grid (a scalar ``** 2`` can round differently from the array square).
    """
    if not -math.inf < write_time <= time < math.inf:
        raise ValueError("need finite times with time >= write_time")
    a, q = _phase_coefficients(timeline, write_time, np.array([time], dtype=float))
    zc = ens.zeeman_coeff
    b = ens.k_sw * (time - write_time) + zc * q[0]
    phi = ens.positions * (zc * a[0]) + ens.velocities * b
    return float((np.abs(np.exp(1j * phi).mean(keepdims=True)) ** 2)[0])


#: Largest phase error (rad) per atom, readout time and creation time that
#: the echo kernel's truncated Taylor series may leave (see ``_node_curves``).
PHASE_TOL = 1e-12

#: Largest bound (rad) on the coupling phase over which one group of creation
#: times is expanded; wider spreads are split into groups (``_node_curves``).
_GROUP_PHASE = 0.5

#: Atoms per chunk of the echo kernel's matrix products (``_atom_sums``).
#: Chunk products are added in atom order, so the chunk fixes the bits; they
#: were the same on one and two BLAS threads at 64 to 1024 atoms.  At 128 the
#: default ``echo`` run peaks at 41.5-41.9 MB; 256, 512 and 1024 atoms peaked
#: 1, 4 and 10 MB higher and ran at most 4% faster, and 64 ran 7% slower
#: (2 vCPU, numpy 2.4.6, OpenBLAS 0.3.31).
ECHO_CHUNK = 128


def _taylor_terms(bound: float) -> int:
    """Least K with bound^K / K! <= ``PHASE_TOL``: the terms e^{i eps} needs."""
    k, term = 1, bound
    while term > PHASE_TOL:
        k += 1
        term *= bound / k
    return k


def _cis(phase):
    """exp(i phase) for a real array, from its cosine and sine."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _atom_sums(ens, a, b, c, d, u, x, terms):
    """sum_j exp(i (z_j a_n + v_j b_n - z_j c_k - v_j d_k)) exp(i v_j u_k x_n) for each (n, k).

    The coupling factor is expanded in ``terms`` Taylor terms, so the sum is
    sum_m x_n^m sum_j L[n, j] R_m[j, k] with L = exp(i (z a + v b)) and
    R_m = exp(-i (z c + v d)) (i v u)^m / m!, evaluated by Horner's rule in x.
    The atom sums are complex matrix products over ``ECHO_CHUNK`` atoms at a
    time, added in atom order.
    """
    z, v = ens.positions, ens.velocities
    steps = [1j * u / m for m in range(1, terms)]
    acc = np.zeros((terms, len(a), len(c)), dtype=complex)
    for lo in range(0, ens.n_atoms, ECHO_CHUNK):
        zj, vj = z[lo:lo + ECHO_CHUNK], v[lo:lo + ECHO_CHUNK]
        phase = np.multiply.outer(a, zj)
        phase += np.multiply.outer(b, vj)
        left = _cis(phase)
        phase = np.multiply.outer(zj, -c)
        phase -= np.multiply.outer(vj, d)
        right = _cis(phase)
        acc[0] += left @ right
        for m, step in enumerate(steps, 1):
            right *= np.multiply.outer(vj, step)
            acc[m] += left @ right
    out = acc[-1]
    for m in range(terms - 2, -1, -1):
        out = out * x[:, None] + acc[m]
    return out


def _node_curves(ens, timeline, created, times, p_int0):
    """Collective efficiency of each creation time at each readout time.

    Returns an array of shape (len(times), len(created)).  For a readout
    t_n >= t_k, the creation time, atom j's phase is

        phi = zc z_j (P_n - P_k)
            + v_j [k_sw (t_n - t_k) + zc (Q_n - Q_k) - zc (t_k - t_0) (P_n - P_k)]

    with P and Q from ``_phase_coefficients`` taken from t_0, the earliest
    creation time.  With t_k = tbar + tau_k about the centre tbar of the
    creation times and x_n = P_n - c about the midrange c of P over the
    finite readouts, phi = alpha_j(t_n) - delta_j(t_k) + eps, where
    eps = -zc v_j tau_k x_n is the only term that couples n and k (the model
    takes z_j as each node's position at its own creation).  ``_atom_sums``
    expands exp(i eps) in K terms, the least with |eps|^K / K! <=
    ``PHASE_TOL``, so each phasor lies within ``PHASE_TOL`` of exp(i phi) and
    the efficiency within about p_int0 PHASE_TOL (2 + PHASE_TOL) of the
    direct evaluation, plus rounding both share.  Where |eps| could exceed
    ``_GROUP_PHASE``, the creation times are split into groups, each about
    its own centre.  A readout before its node's creation has the motional
    phase k_sw v_j (t_n - t_k) alone (``_phase_coefficients`` clips there),
    which separates exactly and takes one more product.  A non-finite time
    gives a non-finite row and is left out of the bound on eps.
    """
    times = np.asarray(times, dtype=float)
    created = np.asarray(created, dtype=float)
    zc, k_sw = ens.zeeman_coeff, ens.k_sw
    t0 = created.min()
    p_n, q_n = _phase_coefficients(timeline, t0, times)
    p_k, q_k = _phase_coefficients(timeline, t0, created)
    s_n, s_k = times - t0, created - t0
    finite = p_n[np.isfinite(p_n)]
    c = (finite.max() + finite.min()) / 2.0 if finite.size else 0.0
    # |eps| <= |tau_k| coupling on the finite readouts
    coupling = zc * np.abs(ens.velocities).max() * np.abs(finite - c).max(initial=0.0)
    # Groups of creation times spanning 2 _GROUP_PHASE / coupling or less.
    group = np.floor((s_k - s_k.min()) * coupling / (2.0 * _GROUP_PHASE))
    mean = np.empty((len(times), len(created)), dtype=complex)
    for g in np.unique(group):
        cols = np.flatnonzero(group == g)
        sk, pk = s_k[cols], p_k[cols]
        centre = (sk.max() + sk.min()) / 2.0
        tau = sk - centre
        mean[:, cols] = _atom_sums(
            ens, zc * p_n, k_sw * s_n + zc * q_n - zc * centre * p_n,
            zc * pk, k_sw * sk + zc * q_k[cols] - zc * sk * pk + zc * tau * c,
            -zc * tau, p_n - c, _taylor_terms(np.abs(tau).max() * coupling))
    before = times[:, None] < created
    rows, cols = np.flatnonzero(before.any(axis=1)), np.flatnonzero(before.any(axis=0))
    if rows.size:
        n, k = np.zeros(len(rows)), np.zeros(len(cols))
        pre = _atom_sums(ens, n, k_sw * s_n[rows], k, k_sw * s_k[cols], k, n, 1)
        block = np.ix_(rows, cols)
        mean[block] = np.where(before[block], pre, mean[block])
    return p_int0 * np.abs(mean / ens.n_atoms) ** 2


#: Window after the write (s) in which :func:`rephasing_time` seeks the echo.
REPHASING_HORIZON = 0.01


def rephasing_time(timeline: FieldTimeline, write_time: float) -> float:
    """Earliest time after ``write_time`` where the gradient phase integral crosses zero.

    The integral I = 2 pi 100 int_tw^t A(t')(1 + d t') dt' (the a(t) of
    ``_phase_coefficients`` over zc) is walked in floats over the knots: the
    segment starts after the write, the time -1/d where the drifting gradient
    changes sign, and ``write_time + REPHASING_HORIZON``.  From knot a, with
    gradient g, I(a + u) = I(a) + 2 pi 100 g (u (1 + d a) + d u^2 / 2), one
    formula for the knot values and for the root.  I is monotone between
    knots, so a sign change brackets one root, which is exact: linear without
    drift, else the stable quadratic formula (Press et al., *Numerical
    Recipes*, sec. 5.6), divided through by 2 pi 100 g so that no square
    underflows.  I(write_time) is exactly 0, so the search starts at the first
    knot after it.  A knot where |I| is at most 1e-12 of its total variation since
    the write is the echo once I has moved or where a gradient starts to move it (a
    write in a freeze gets the release); a weak or zero gradient that never reverses
    still raises.  Raises :class:`NoRephasingError` if no crossing precedes the horizon.
    """
    if not math.isfinite(write_time):
        raise ValueError("write_time must be finite")
    t_end = write_time + REPHASING_HORIZON
    d = timeline.drift_rate
    knots = {start for start, _ in timeline.segments if write_time < start < t_end}
    # interior sign change of the drifting gradient A (1 + d t)
    if d != 0.0 and max(timeline.segments[0][0], write_time) < -1.0 / d < t_end:
        knots.add(-1.0 / d)
    # I is monotone between knots, so the summed knot-to-knot steps are the
    # integral's total variation since the write: the scale against which a
    # knot value counts as zero.
    a, fa, variation = write_time, 0.0, 0.0
    for b in sorted(knots) + [t_end]:
        grad = next((g for start, g in reversed(timeline.segments) if start <= a), 0.0)
        if a > write_time and abs(fa) <= 1e-12 * variation and (variation > 0.0 or grad != 0.0):
            return a
        h, slope = b - a, 1.0 + d * a
        fb = fa + _PHASE_SCALE * grad * (h * slope + d * h * h / 2.0)
        # Signs, not fa * fb, which underflows for a weak gradient; a zero
        # gradient leaves fb == fa, so a sign change needs grad != 0.
        if a > write_time and grad != 0.0 and (fb == 0.0 or (fa < 0.0) != (fb < 0.0)):
            # d/2 u^2 + slope u + c = 0 has the roots c/q and 2q/d, one on each
            # side of the flip at u = -slope/d: the piece holds one of them.
            # q != 0: |q| >= |slope|/2, and at slope = 0 a sign change needs d c < 0.
            c = fa / (_PHASE_SCALE * grad)
            disc = math.sqrt(max(slope * slope - 2.0 * d * c, 0.0))
            q = -0.5 * (slope + math.copysign(disc, slope))
            roots = [c / q] + ([2.0 * q / d] if d != 0.0 else [])
            u = min(roots, key=lambda r: max(-r, r - h))  # the one in (or nearest) [0, h]
            return a + min(max(u, 0.0), h)
        variation += abs(fb - fa)
        a, fa = b, fb
    raise NoRephasingError(
        f"phase integral does not return to zero within {REPHASING_HORIZON:g} s of the write"
    )


#: Gauss-Hermite creation-time nodes of :func:`echo_profiles` by default.
QUADRATURE_NODES = 33

#: Largest total normalized weight of the outer Gauss-Hermite nodes that
#: :func:`_creation_nodes` drops, and so :func:`echo_profiles` leaves out.  At
#: 33 nodes it drops 10 and moves the profile by at most this times
#: ``p_int0``, far below the 33-node rule's own quadrature error (about 6e-3
#: at a 1 us pulse).
QUADRATURE_TAIL_WEIGHT = 1e-10


def echo_profiles(
    ens: AtomEnsemble,
    timeline: FieldTimeline,
    write_time: float,
    pulses,
    p_int0: float,
    times,
    nodes: int = QUADRATURE_NODES,
) -> list:
    """Retrieval-efficiency profiles of spin waves created by finite pulses, one per pulse.

    Creation times are distributed over each write pulse's Gaussian
    intensity envelope (FWHM ``pulse.duration_fwhm``, centred on
    ``write_time``); a profile is the envelope-weighted average of the
    single-creation-time efficiency, evaluated by Gauss-Hermite quadrature
    with ``nodes`` nodes (``QUADRATURE_NODES`` = 33 by default).  The
    outermost nodes are left out in symmetric pairs while their total
    normalized weight stays at most ``QUADRATURE_TAIL_WEIGHT`` (see
    ``_creation_nodes``): 23 of the default 33 node curves are computed per
    pulse.  The kept weights are not renormalized, so a profile differs from
    the full rule's by at most ``p_int0`` times the dropped weight, at most
    1e-10 ``p_int0``.

    The node curves of all pulses come from one pass over the atoms, as
    complex matrix products that share the costly readout-time factor (see
    ``_node_curves``).  Each curve, and so each profile, lies within about
    2 ``PHASE_TOL`` ``p_int0`` of the direct evaluation.  Atom chunks and
    nodes are summed in a fixed order, so the bits do not depend on the
    number of CPUs or BLAS threads; they do depend on numpy's BLAS build,
    and on the other pulses of the call, which set the expansion's centre.

    Returns a list with one array per pulse, each of shape (len(times), 2)
    with columns (time, efficiency).  ``pulses`` must not be empty,
    ``p_int0`` must lie in [0, 1] and ``write_time`` must be finite; a
    non-finite readout time gives a non-finite value at that time alone.
    """
    if _integer("nodes", nodes) < 3:
        raise ValueError("need at least 3 quadrature nodes")
    _check("p_int0", p_int0)
    if not math.isfinite(write_time):
        raise ValueError("write_time must be finite")
    times = np.asarray(times, dtype=float)
    x, w = _creation_nodes(nodes)
    created = []
    for pulse in pulses:
        sigma_t = pulse.duration_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        created += [write_time + math.sqrt(2.0) * sigma_t * xk for xk in x]
    if not created:
        raise ValueError("need at least one pulse")
    curves = _node_curves(ens, timeline, created, times, p_int0)
    profiles = []
    for lo in range(0, len(created), len(x)):
        eff = np.zeros_like(times)
        for wk, k in zip(w, range(lo, lo + len(x))):
            eff += wk * curves[:, k]
        profiles.append(np.column_stack([times, eff]))
    return profiles


def echo_profile(
    ens: AtomEnsemble,
    timeline: FieldTimeline,
    write_time: float,
    pulse,
    p_int0: float,
    times,
    nodes: int = QUADRATURE_NODES,
) -> np.ndarray:
    """Retrieval-efficiency profile of a spin wave created by one finite pulse.

    ``echo_profiles`` for the single pulse; see there.  Returns an array of
    shape (len(times), 2) with columns (time, efficiency).
    """
    return echo_profiles(ens, timeline, write_time, [pulse], p_int0, times, nodes)[0]


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
