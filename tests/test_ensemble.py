"""Spin-wave dephasing Monte Carlo against closed-form laws."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings, strategies as st
from scipy.constants import k as KB

from muxmem import cavity, ensemble
from muxmem.ensemble import (
    ATOM_MASS,
    ECHO_CHUNK,
    K_SW_DEFAULT,
    PHASE_TOL,
    QUADRATURE_TAIL_WEIGHT,
    ZEEMAN_COEFF_DEFAULT,
    AtomEnsemble,
    FieldTimeline,
    NoRephasingError,
    collective_efficiency,
    echo_profile,
    echo_profiles,
    rephasing_time,
    sample_ensemble,
    _creation_nodes,
    _node_curves,
    _phase_coefficients,
)
from muxmem.cavity import PulseSpec

from conftest import child_env

SIGMA_Z = 1e-3


def two_atoms(z, v=0.0):
    """An atom at (z, v) and a reference atom at rest at z = 0."""
    return AtomEnsemble(np.array([z, 0.0]), np.array([v, 0.0]))


def test_phase_single_atom_constant_gradient():
    # 1 G/cm at z = 1 cm is a 1 G offset: 1.4 MHz of two-photon detuning,
    # so one microsecond winds up 2.8 pi radians against the atom at z = 0.
    # Two phasors d_phi apart give an efficiency of cos^2(d_phi / 2).
    ens = two_atoms(0.01)
    timeline = FieldTimeline(((0.0, 1.0),))
    eff = collective_efficiency(ens, timeline, 0.0, 1e-6)
    assert eff == pytest.approx(math.cos(1.4 * math.pi) ** 2, rel=1e-12)


def test_phase_zero_at_write_time():
    ens = two_atoms(0.003, v=2.0)
    timeline = FieldTimeline(((0.0, 1.5),), bias=0.2)
    assert collective_efficiency(ens, timeline, 5e-7, 5e-7) == pytest.approx(1.0, rel=1e-12)


def test_phase_zero_without_fields_or_motion():
    ens = AtomEnsemble(np.array([0.001, -0.002]), np.zeros(2))
    timeline = FieldTimeline(((0.0, 0.0),))
    for t in (1e-7, 3e-6, 1e-4):
        assert collective_efficiency(ens, timeline, 0.0, t) == pytest.approx(1.0, rel=1e-12)


def test_phase_rejects_time_before_write():
    ens = two_atoms(0.01)
    timeline = FieldTimeline(((0.0, 1.0),))
    with pytest.raises(ValueError):
        collective_efficiency(ens, timeline, 1e-6, 0.5e-6)


def test_motional_phase_term():
    # Zero field: the moving atom's phase is k_sw * v * (t - t_w) exactly.
    ens = two_atoms(0.0, v=0.05)
    timeline = FieldTimeline(((0.0, 0.0),))
    eff = collective_efficiency(ens, timeline, 1e-6, 3e-6)
    assert eff == pytest.approx(math.cos(K_SW_DEFAULT * 0.05 * 2e-6 / 2) ** 2, rel=1e-12)


def test_sample_ensemble_basics():
    ens = sample_ensemble(10000, SIGMA_Z, 40e-6, seed=3)
    assert ens.n_atoms == 10000
    assert abs(ens.positions.mean()) < 4 * SIGMA_Z / math.sqrt(10000)
    again = sample_ensemble(10000, SIGMA_Z, 40e-6, seed=3)
    np.testing.assert_array_equal(ens.positions, again.positions)
    np.testing.assert_array_equal(ens.velocities, again.velocities)
    other = sample_ensemble(10000, SIGMA_Z, 40e-6, seed=4)
    assert not np.array_equal(ens.positions, other.positions)


def test_sample_ensemble_zero_temperature():
    ens = sample_ensemble(100, SIGMA_Z, 0.0, seed=1)
    np.testing.assert_array_equal(ens.velocities, 0.0)


def test_sample_ensemble_validation():
    with pytest.raises(ValueError):
        sample_ensemble(0, SIGMA_Z, 40e-6, seed=1)
    with pytest.raises(ValueError):
        sample_ensemble(10, -1.0, 40e-6, seed=1)


def test_collective_efficiency_perfect_when_in_phase():
    # All atoms at the same position acquire the same phase, which is global.
    ens = AtomEnsemble(np.full(50, 0.002), np.zeros(50))
    timeline = FieldTimeline(((0.0, 2.0),), bias=0.3)
    eff = 0.4 * collective_efficiency(ens, timeline, 0.0, 5e-6)
    assert eff == pytest.approx(0.4, rel=1e-12)


def test_bias_is_a_global_phase():
    ens = sample_ensemble(500, SIGMA_Z, 0.0, seed=7)
    base = FieldTimeline(((0.0, 1.0),))
    biased = FieldTimeline(((0.0, 1.0),), bias=3.7)
    for t in (1e-7, 5e-7, 2e-6):
        a = collective_efficiency(ens, base, 0.0, t)
        b = collective_efficiency(ens, biased, 0.0, t)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_gaussian_dephasing_law():
    # Frozen motion, constant gradient: the efficiency follows the
    # characteristic function of the Gaussian cloud, exp(-(sigma_w t)^2)
    # with sigma_w = 2 pi * zeeman_coeff * gradient(T/m) * sigma_z.
    grad = 0.02  # G/cm
    sigma_w = 2 * math.pi * ZEEMAN_COEFF_DEFAULT * grad * 100.0 * SIGMA_Z
    timeline = FieldTimeline(((0.0, grad),))
    times = np.array([0.2, 0.6, 1.0, 1.4]) / sigma_w
    law = np.exp(-(sigma_w * times) ** 2)
    samples = []
    for seed in range(12):
        ens = sample_ensemble(4000, SIGMA_Z, 0.0, seed=seed)
        samples.append([collective_efficiency(ens, timeline, 0.0, t) for t in times])
    samples = np.array(samples)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    # Finite-N phasor noise adds ~1/N on top of the law.
    assert np.all(np.abs(mean - law) < 3 * stderr + 2.0 / 4000)


def test_motional_decay_law():
    # No field at all: ballistic motion dephases the spin-wave grating with
    # a Gaussian envelope exp(-(k_sw sigma_v t)^2); the default wavevector
    # puts the 1/e time at 72 us for a 40 uK cloud.
    timeline = FieldTimeline(((0.0, 0.0),))
    tau = 72e-6
    times = np.array([0.25, 0.5, 1.0]) * tau
    law = np.exp(-((times / tau) ** 2))
    samples = []
    for seed in range(12):
        ens = sample_ensemble(4000, 1e-9, 40e-6, seed=seed)
        samples.append([collective_efficiency(ens, timeline, 0.0, t) for t in times])
    samples = np.array(samples)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    assert np.all(np.abs(mean - law) < 3 * stderr + 2.0 / 4000)


def test_dephased_plateau_floor():
    # Far beyond the dephasing time the phasors are uniform on the circle;
    # the efficiency floor is the 1/N shot level.
    n = 10000
    ens = sample_ensemble(n, SIGMA_Z, 0.0, seed=21)
    timeline = FieldTimeline(((0.0, 2.0),))
    eff = collective_efficiency(ens, timeline, 0.0, 100e-6)
    assert eff < 5.0 / n


def test_rephasing_time_reversal():
    timeline = FieldTimeline.reversal(2.0, 1.2e-6)
    assert rephasing_time(timeline, 0.0) == pytest.approx(2.4e-6, abs=1e-12)
    timeline = FieldTimeline.reversal(2.0, 8e-6)
    assert rephasing_time(timeline, 2.4e-6) == pytest.approx(13.6e-6, abs=1e-12)


def test_rephasing_time_freeze_release():
    timeline = FieldTimeline.freeze_release(2.0, 1e-6, 3e-6)
    t_w = 0.4e-6
    assert rephasing_time(timeline, t_w) == pytest.approx(3e-6 + (1e-6 - t_w), abs=1e-12)
    # A write during the freeze has no phase until the release, for either
    # sign of the gradient.
    for gradient in (2.0, -2.0):
        assert rephasing_time(FieldTimeline.freeze_release(gradient, 1e-6, 3e-6), 1.5e-6) == 3e-6


def test_rephasing_requires_reversal():
    timeline = FieldTimeline(((0.0, 2.0),))
    with pytest.raises(NoRephasingError):
        rephasing_time(timeline, 0.0)
    # A zero gradient never moves the phase integral, so no echo forms, with
    # a reversal or a freeze/release as with a constant field.
    for timeline in (FieldTimeline(((0.0, 0.0),)), FieldTimeline.reversal(0.0, 2e-6),
                     FieldTimeline.freeze_release(0.0, 1e-6, 3e-6)):
        with pytest.raises(NoRephasingError):
            rephasing_time(timeline, 0.0)


@pytest.mark.parametrize("gradient", [1e-12, 1e-6, 2.0])
def test_rephasing_search_is_scale_free(gradient):
    # The phase integral scales with the gradient, and so must the test for
    # a zero at a knot: at 1e-12 G/cm the integral at the reversal is below
    # 1e-15, which an absolute threshold took for the echo.
    reversal = FieldTimeline.reversal(gradient, 1.2e-6)
    assert rephasing_time(reversal, 0.0) == pytest.approx(2.4e-6, abs=1e-12)
    no_reversal = FieldTimeline(((0.0, gradient), (1e-6, 2.0 * gradient)))
    with pytest.raises(NoRephasingError):
        rephasing_time(no_reversal, 0.0)


def test_rephasing_with_drift_stays_close_to_nominal():
    nominal = FieldTimeline.reversal(2.0, 2e-6)
    drifted = FieldTimeline.reversal(2.0, 2e-6, drift_rate=2000.0)
    t0 = rephasing_time(nominal, 0.0)
    t1 = rephasing_time(drifted, 0.0)
    assert t1 != t0
    assert abs(t1 - t0) < 0.05 * t0


# Recorded from the closed-form rephasing roots; every programmed readout
# comes from these bits.
REPHASING_DIGEST = "7396120f6d4d008fac4adc636f9f03f15629666a7a8e3895e5a92bc7cb434c66"


def pinned_rephasing_digest():
    """SHA-256 of rephasing times and phase coefficients over a fixed grid.

    Each case hashes, per write time, the rephasing time (or the
    ``NoRephasingError`` text) and ``_phase_coefficients``' (a, q) on a fixed
    time grid that starts before the write.
    """
    t_last = 9 * 800e-9 + 266e-9
    train = [m * 800e-9 for m in range(10)]
    cases = [
        # the default reversal train
        (FieldTimeline.reversal(2.0, t_last), train),
        # freeze/release; the write at 1.5 us lies in the freeze, so its
        # phase integral is exactly zero at the release
        (FieldTimeline.freeze_release(2.0, 1e-6, 3e-6), (0.0, 0.4e-6, 1e-6, 1.5e-6)),
        (FieldTimeline.reversal(2.0, t_last, drift_rate=2e4), train),
        (FieldTimeline.reversal(2.0, t_last, drift_rate=-2e4), train),
        # the drifting gradient flips sign at 10 us, inside the search window:
        # the early writes of the train never rephase, and after an early
        # reversal the root lies between the reversal and the flip
        (FieldTimeline.reversal(2.0, t_last, drift_rate=-1e5), train),
        (FieldTimeline.reversal(2.0, 2e-6, drift_rate=-1e5), (0.0, 0.5e-6, 1.5e-6)),
        # several segments, one of them at zero gradient
        (FieldTimeline(((0.0, 1.5), (1e-6, 0.0), (2e-6, -0.5), (3e-6, -3.0)), drift_rate=3e3),
         (0.0, 0.5e-6, 1.2e-6, 2.5e-6)),
        # no reversal at all
        (FieldTimeline(((0.0, 2.0),)), (0.0,)),
    ]
    times = np.linspace(-1e-6, 25e-6, 131)
    digest = hashlib.sha256()
    for timeline, write_times in cases:
        for write_time in write_times:
            try:
                digest.update(np.float64(rephasing_time(timeline, write_time)).tobytes())
            except NoRephasingError as err:
                digest.update(str(err).encode())
            a, q = _phase_coefficients(timeline, write_time, times)
            digest.update(a.tobytes() + q.tobytes())
    return digest.hexdigest()


def test_rephasing_times_pinned():
    assert pinned_rephasing_digest() == REPHASING_DIGEST


def timelines():
    """Reversal, freeze/release and 1-5-segment programs, drifting either way."""
    drift = st.one_of(st.just(0.0), st.floats(-2e5, 2e5))
    grad = st.floats(-3.0, 3.0).filter(lambda g: g != 0.0)
    reversal = st.builds(FieldTimeline.reversal, grad, st.floats(1e-7, 1e-4),
                         drift_rate=drift)
    freeze = st.builds(
        lambda g, t0, hold, d: FieldTimeline.freeze_release(g, t0, t0 + hold, drift_rate=d),
        grad, st.floats(1e-7, 5e-5), st.floats(1e-7, 5e-5), drift)
    segments = st.builds(
        lambda starts, grads, d: FieldTimeline(
            tuple((k * 1e-7, g) for k, g in zip(sorted(starts), grads)), drift_rate=d),
        st.lists(st.integers(0, 999), min_size=1, max_size=5, unique=True),
        st.lists(st.one_of(st.just(0.0), grad), min_size=5, max_size=5), drift)
    return st.one_of(reversal, freeze, segments)


#: Rounding allowance c of the rephasing oracle, in units of eps times the
#: integral's scale (see ``test_rephasing_root_is_the_first_zero``).  The
#: largest ratio seen in three runs of 5000 examples away from knots was 0.85.
ROOT_ULPS = 4


def gradient_slope(timeline, t):
    """Largest |I'| on either side of t: 2 pi 100 |A| (1 + |d| t)."""
    before = [abs(g) for start, g in timeline.segments if start < t]
    at = [abs(g) for start, g in timeline.segments if start <= t]
    grad = max(before[-1:] + at[-1:], default=0.0)
    return 2.0 * math.pi * 100.0 * grad * (1.0 + abs(timeline.drift_rate) * t)


@settings(max_examples=400, deadline=None)
@given(timeline=timelines(), write_time=st.floats(0.0, 3e-5))
def test_rephasing_root_is_the_first_zero(timeline, write_time):
    # An oracle from the array evaluator: at the returned time the phase
    # integral I is zero to within ROOT_ULPS * eps * (V + r |I'(r)|), where V
    # is I's total variation since the write and |I'| is bounded by the
    # gradient without its drift cancellation; float_info.min stands in for
    # the subnormal range, where relative rounding no longer holds.  A knot
    # may also be returned by the 1e-12 * V knot test.  On a 10^3-point grid
    # up to the root (or the horizon, when none is found) I keeps one sign
    # wherever it exceeds the same bound.
    d = timeline.drift_rate
    try:
        root = rephasing_time(timeline, write_time)
    except NoRephasingError:
        root = None
    end = write_time + ensemble.REPHASING_HORIZON if root is None else root
    knots = {t for t, _ in timeline.segments if write_time < t < end}
    if d != 0.0 and write_time < -1.0 / d < end:
        knots.add(-1.0 / d)
    values = _phase_coefficients(timeline, write_time, np.array(
        [write_time, *sorted(knots), end]))[0]
    variation = np.abs(np.diff(values)).sum()
    bound = (ROOT_ULPS * np.finfo(float).eps * (variation + end * gradient_slope(timeline, end))
             + sys.float_info.min)
    if root is not None:
        at_knot = root in {t for t, _ in timeline.segments} or d != 0.0 and root == -1.0 / d
        assert root > write_time
        assert abs(values[-1]) <= bound + (1e-12 * variation if at_knot else 0.0)
    grid = _phase_coefficients(timeline, write_time, np.linspace(write_time, end, 1002)[1:-1])[0]
    beyond = grid[np.abs(grid) > bound]
    assert np.all(beyond > 0.0) or np.all(beyond < 0.0)


@settings(max_examples=300, deadline=None)
@given(gradient=st.floats(1e-3, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       reverse_time=st.floats(1e-7, 1e-4), fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_rephasing_reversal_is_exact_without_drift(gradient, sign, reverse_time, fraction):
    # Without drift the echo of a reversal lies at 2 t_rev - t_w.
    write_time = fraction * reverse_time
    echo = 2.0 * reverse_time - write_time
    root = rephasing_time(FieldTimeline.reversal(sign * gradient, reverse_time), write_time)
    assert abs(root - echo) <= 2 * math.ulp(echo)


def test_constants_match_scipy():
    # The package writes its constants as literals so that it loads without
    # scipy; a newer CODATA adjustment in scipy fails this on purpose.
    assert ensemble._KB == scipy.constants.k
    assert ensemble._AMU == scipy.constants.physical_constants["atomic mass constant"][0]
    assert cavity.SPEED_OF_LIGHT == scipy.constants.c


def test_echo_peaks_at_rephasing_time():
    ens = sample_ensemble(3000, SIGMA_Z, 0.0, seed=5)
    timeline = FieldTimeline.reversal(2.0, 2e-6)
    t_reph = rephasing_time(timeline, 0.0)
    times = np.linspace(3.4e-6, 4.6e-6, 121)
    profile = echo_profile(ens, timeline, 0.0, PulseSpec(133e-9), 0.5, times)
    step = times[1] - times[0]
    peak_t = profile[np.argmax(profile[:, 1]), 0]
    assert abs(peak_t - t_reph) <= step + 133e-9 / 2


def test_echo_delta_pulse_limit():
    # A vanishingly short write pulse rephases completely: the peak height
    # approaches p_int0 for a motion-frozen cloud.
    ens = sample_ensemble(3000, SIGMA_Z, 0.0, seed=5)
    timeline = FieldTimeline.reversal(2.0, 2e-6)
    t_reph = rephasing_time(timeline, 0.0)
    profile = echo_profile(ens, timeline, 0.0, PulseSpec(1e-10), 0.5,
                           np.array([t_reph]))
    assert profile[0, 1] == pytest.approx(0.5, rel=1e-3)


def test_echo_height_decreases_with_pulse_duration():
    ens = sample_ensemble(3000, SIGMA_Z, 0.0, seed=5)
    timeline = FieldTimeline.reversal(2.0, 2e-6)
    times = np.linspace(3.0e-6, 5.0e-6, 201)
    heights = []
    for dt in (133e-9, 266e-9, 532e-9, 1064e-9):
        profile = echo_profile(ens, timeline, 0.0, PulseSpec(dt), 1.0, times)
        heights.append(profile[:, 1].max())
    assert all(a > b for a, b in zip(heights, heights[1:]))


def test_drift_deficit_grows_with_readout_time():
    # With a slow gradient drift and drift-free programmed readout times,
    # modes read later miss their true rephasing point by more.
    ens = sample_ensemble(4000, SIGMA_Z, 0.0, seed=9)
    spacing, write_duration, n = 800e-9, 266e-9, 6
    t_last = (n - 1) * spacing + write_duration
    drifted = FieldTimeline.reversal(2.0, t_last, drift_rate=20000.0)
    readouts = []
    for m in range(n):
        t_w = m * spacing
        t_r = 2 * t_last - t_w
        readouts.append((t_r, 1.0 - collective_efficiency(ens, drifted, t_w, t_r)))
    readouts.sort()
    deficits = [d for _, d in readouts]
    assert all(a <= b + 1e-12 for a, b in zip(deficits, deficits[1:]))


def test_timeline_validation():
    with pytest.raises(ValueError):
        FieldTimeline(((1e-6, 1.0), (0.5e-6, -1.0)))
    with pytest.raises(ValueError):
        FieldTimeline(())
    with pytest.raises(ValueError):
        FieldTimeline.freeze_release(2.0, 3e-6, 1e-6)
    with pytest.raises(ValueError):
        FieldTimeline.reversal(2.0, 0.0)
    with pytest.raises(ValueError):
        FieldTimeline.freeze_release(2.0, 0.0, 1e-6)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        AtomEnsemble(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        AtomEnsemble(np.zeros(0), np.zeros(0))
    for field in ("k_sw", "zeeman_coeff"):
        with pytest.raises(ValueError, match=r"^k_sw and zeeman_coeff must be >= 0$"):
            AtomEnsemble(np.zeros(3), np.zeros(3), **{field: -1.0})
    with pytest.raises(ValueError, match="^need at least 3 quadrature nodes$"):
        echo_profiles(AtomEnsemble(np.zeros(3), np.zeros(3)), FieldTimeline.reversal(2.0, 1e-6),
                      0.0, [PulseSpec(266e-9)], 0.4, [2e-6], nodes=2)


def test_ensembles_compare_by_identity():
    # A field-wise == would compare the position arrays and raise.
    a, b = sample_ensemble(3, SIGMA_Z, 40e-6, seed=1), sample_ensemble(3, SIGMA_Z, 40e-6, seed=1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


# SHA-256 of echo_profile output bytes for 2000 atoms x 600 times x two pulse
# widths (a drifting timeline), with the outer nodes of weight at most
# QUADRATURE_TAIL_WEIGHT left out (23 of 33 node curves), from the
# matrix-product echo kernel.  The phasor recurrence it replaced gave other
# last bits: 1195 of the 1200 values moved, by at most 4.9e-14.
ECHO_PROFILE_DIGEST = "50bb36bc4136e53ec9d6b791c39abab5a0fde6fa55d24e075168d9f3dccd67bf"


def pinned_echo_digest():
    """SHA-256 of the echo profiles that ``ECHO_PROFILE_DIGEST`` pins."""
    ens = sample_ensemble(2000, SIGMA_Z, 40e-6, seed=11)
    timeline = FieldTimeline.reversal(2.0, 2e-6, drift_rate=2000.0)
    times = np.linspace(3.0e-6, 5.0e-6, 600)
    digest = hashlib.sha256()
    for fwhm in (133e-9, 532e-9):
        digest.update(echo_profile(ens, timeline, 0.0, PulseSpec(fwhm), 0.4, times).tobytes())
    return digest.hexdigest()


def test_echo_profile_bytes_pinned():
    assert pinned_echo_digest() == ECHO_PROFILE_DIGEST


# The child prints the pinned digest, after pinning itself to one CPU (only
# its own process) when asked to.  Unpinned, it runs under the environment it
# is given, such as OPENBLAS_NUM_THREADS=1.
DIGEST_CHILD = """
import os, sys
if sys.argv[2] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
from test_ensemble import pinned_echo_digest
print(len(os.sched_getaffinity(0)), pinned_echo_digest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available")
def test_echo_profile_same_bits_on_one_cpu():
    # The echo kernel's matrix products run in numpy's BLAS, which threads
    # them over the CPUs it finds; the bits must not depend on that.
    env = child_env()
    for mode, extra, cpus in (("pin", {}, "1"),
                              ("free", {"OPENBLAS_NUM_THREADS": "1"},
                               str(len(os.sched_getaffinity(0))))):
        proc = subprocess.run(
            [sys.executable, "-c", DIGEST_CHILD, str(Path(__file__).parent), mode],
            capture_output=True, text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [cpus, ECHO_PROFILE_DIGEST]


def full_rule(nodes):
    """All Gauss-Hermite abscissae and their weights, normalized to sum to 1."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return x, w / w.sum()


def creation_times(write_time, pulse, x):
    """The creation time of each Gauss-Hermite abscissa in ``x``."""
    sigma_t = pulse.duration_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return [write_time + math.sqrt(2.0) * sigma_t * xk for xk in x]


def direct_efficiency_curve(ens, timeline, write_time, times, p_int0):
    """Reference kernel: one exp per atom and time, ``np.exp(1j * phi).mean(axis=0)``."""
    times = np.asarray(times, dtype=float)
    a, q = _phase_coefficients(timeline, write_time, times)
    zc = ens.zeeman_coeff
    b = ens.k_sw * (times - write_time) + zc * q
    phi = ens.positions[:, None] * (zc * a)[None, :] + ens.velocities[:, None] * b[None, :]
    return p_int0 * np.abs(np.exp(1j * phi).mean(axis=0)) ** 2


def direct_node_curves(ens, timeline, write_times, times, p_int0):
    """``direct_efficiency_curve`` of each write time, as the columns of one array."""
    return np.stack([direct_efficiency_curve(ens, timeline, tw, times, p_int0)
                     for tw in write_times], axis=1)


def serial_echo_reference(ens, timeline, write_time, pulse, p_int0, times, x, w):
    """The echo profile's efficiency column as one loop over the nodes (x, w), in order."""
    eff = np.zeros_like(times)
    for t_created, wk in zip(creation_times(write_time, pulse, x), w):
        eff += wk * direct_efficiency_curve(ens, timeline, t_created, times, p_int0)
    return eff


def kernel_bound(ens, timeline, write_times, times, p_int0):
    """Largest |kernel - direct| over curves written at ``write_times``.

    The kernel's docstring bound, p_int0 delta (2 + delta) with
    delta = PHASE_TOL, plus the rounding the two evaluations share: eps per
    radian of the largest phase, on the finite times, and eps per atom for
    the sums over atoms.  The kernel splits each phase into parts measured
    from the earliest write, so the largest phase is taken over those too.
    """
    eps = np.finfo(float).eps
    z_max, v_max = np.abs(ens.positions).max(), np.abs(ens.velocities).max()
    times = np.asarray(times, dtype=float)
    times = np.concatenate([times[np.isfinite(times)], write_times])
    phi_max = 0.0
    for write_time in [min(write_times), *write_times]:
        a, q = _phase_coefficients(timeline, write_time, times)
        b = ens.k_sw * (times - write_time) + ens.zeeman_coeff * q
        phi_max = max(phi_max, np.max(z_max * np.abs(ens.zeeman_coeff * a) + v_max * np.abs(b)))
    delta = PHASE_TOL + eps * (8 * (1 + phi_max) + 2 * ens.n_atoms)
    return p_int0 * delta * (2 + delta)


@settings(max_examples=30, deadline=None)
@given(nodes=st.integers(3, 40),
       n_atoms=st.sampled_from([1, 2, ECHO_CHUNK - 1, ECHO_CHUNK + 1, 2 * ECHO_CHUNK + 3]),
       n_times=st.sampled_from([1, 2, 67]),
       temperature=st.sampled_from([0.0, 40e-6]),
       fwhm=st.floats(1e-9, 1.2e-6),
       seed=st.integers(0, 2**32 - 1))
def test_threaded_echo_profile_equals_serial_node_sum(nodes, n_atoms, n_times,
                                                      temperature, fwhm, seed):
    # The atom chunks of the kernel's matrix products may end partway through
    # the ensemble; the profile stays within the kernel's bound of the direct
    # node sum.
    ens = sample_ensemble(n_atoms, SIGMA_Z, temperature, seed=seed)
    timeline = FieldTimeline.reversal(2.0, 2e-6, drift_rate=2000.0)
    times = np.linspace(2.5e-6, 5.5e-6, n_times)
    pulse = PulseSpec(fwhm)
    x, w = _creation_nodes(nodes)
    got = echo_profile(ens, timeline, 0.0, pulse, 0.4, times, nodes=nodes)
    want = serial_echo_reference(ens, timeline, 0.0, pulse, 0.4, times, x, w)
    np.testing.assert_array_equal(got[:, 0], times)
    bound = kernel_bound(ens, timeline, creation_times(0.0, pulse, x), times, 0.4)
    assert np.abs(got[:, 1] - want).max() <= bound


@settings(max_examples=30, deadline=None)
@given(fwhms=st.lists(st.floats(1e-9, 1.2e-6), min_size=1, max_size=3),
       nodes=st.integers(3, 17),
       n_atoms=st.sampled_from([1, 50, 300]),
       drift_rate=st.sampled_from([-2e4, 0.0, 2e4]),
       start=st.sampled_from([-1e-6, 2.5e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_echo_profiles_match_each_pulse_alone(fwhms, nodes, n_atoms, drift_rate, start, seed):
    # One pass over the atoms for all pulses stays within the kernel's bound
    # of the direct node sum, and so within twice it of each pulse's own call.
    # A grid from -1 us also reads before the creation of some nodes.
    ens = sample_ensemble(n_atoms, SIGMA_Z, 40e-6, seed=seed)
    timeline = FieldTimeline.reversal(2.0, 2e-6, drift_rate=drift_rate)
    times = np.linspace(start, 5.5e-6, 40)
    pulses, p_int0 = [PulseSpec(fwhm) for fwhm in fwhms], 0.4
    x, w = _creation_nodes(nodes)
    created = [t for pulse in pulses for t in creation_times(0.0, pulse, x)]
    bound = kernel_bound(ens, timeline, created, times, p_int0)
    profiles = echo_profiles(ens, timeline, 0.0, pulses, p_int0, times, nodes=nodes)
    assert len(profiles) == len(pulses)
    for pulse, profile in zip(pulses, profiles):
        alone = echo_profile(ens, timeline, 0.0, pulse, p_int0, times, nodes=nodes)
        direct = serial_echo_reference(ens, timeline, 0.0, pulse, p_int0, times, x, w)
        np.testing.assert_array_equal(profile[:, 0], times)
        assert np.abs(profile[:, 1] - direct).max() <= bound
        assert np.abs(profile[:, 1] - alone[:, 1]).max() <= 2 * bound


@pytest.mark.parametrize("nodes, kept", [(3, 3), (9, 9), (17, 15), (25, 19), (33, 23), (65, 33)])
def test_creation_nodes_drop_outer_pairs(nodes, kept):
    x, w = _creation_nodes(nodes)
    x_full, w_full = full_rule(nodes)
    drop = (nodes - kept) // 2
    assert len(x) == kept
    np.testing.assert_array_equal(x, x_full[drop:nodes - drop])
    np.testing.assert_array_equal(w, w_full[drop:nodes - drop])
    assert w_full[:drop].sum() + w_full[nodes - drop:].sum() <= QUADRATURE_TAIL_WEIGHT


def test_creation_nodes_keep_the_centre():
    for nodes in range(3, 66):
        x, _ = _creation_nodes(nodes)
        x_full, _ = full_rule(nodes)
        centre = x_full[(nodes - 1) // 2:nodes // 2 + 1]
        assert np.isin(centre, x).all()


@settings(max_examples=30, deadline=None)
@given(nodes=st.integers(3, 65),
       n_atoms=st.sampled_from([1, 2, 50]),
       drift_rate=st.sampled_from([-2e4, 0.0, 2e4]),
       fwhm=st.floats(1e-9, 1.2e-6),
       seed=st.integers(0, 2**32 - 1))
def test_dropped_nodes_move_the_profile_by_at_most_their_weight(nodes, n_atoms, drift_rate,
                                                                  fwhm, seed):
    # Every node curve lies in [0, p_int0] and the kept weights are not
    # renormalized, so the full rule differs by at most p_int0 times the
    # weight left out, plus rounding in the node sum and the kernel's bound.
    ens = sample_ensemble(n_atoms, SIGMA_Z, 40e-6, seed=seed)
    timeline = FieldTimeline.reversal(2.0, 2e-6, drift_rate=drift_rate)
    times = np.linspace(2.5e-6, 5.5e-6, 40)
    pulse, p_int0 = PulseSpec(fwhm), 0.4
    got = echo_profile(ens, timeline, 0.0, pulse, p_int0, times, nodes=nodes)[:, 1]
    x_full, w_full = full_rule(nodes)
    full = serial_echo_reference(ens, timeline, 0.0, pulse, p_int0, times, x_full, w_full)
    x, _ = _creation_nodes(nodes)
    drop = (nodes - len(x)) // 2
    dropped = w_full[:drop].sum() + w_full[nodes - drop:].sum()
    bound = (p_int0 * dropped + 64 * np.finfo(float).eps * p_int0
             + kernel_bound(ens, timeline, creation_times(0.0, pulse, x), times, p_int0))
    assert np.abs(got - full).max() <= bound


@pytest.mark.parametrize("gradient, reverse_time, time_span, write_times", [
    # the default echo timeline: gradient dephasing dominates
    (2.0, 2e-6, (2.5e-6, 5.5e-6), (-4e-7, 0.0, 4e-7)),
    # a weak, late reversal: motion removes up to 0.69 of the efficiency
    (0.01, 30e-6, (10e-6, 80e-6), (0.0, 5e-6, 10e-6)),
])
def test_moving_atoms_follow_gaussian_closed_form(gradient, reverse_time, time_span,
                                                  write_times):
    # The phase is linear in the write-time position and velocity,
    # phi = zc a z + b v with b = k_sw (t - t_w) + zc q, so for Gaussian
    # positions and Maxwell velocities |<exp(i phi)>|^2 is
    # exp(-sigma_z^2 (zc a)^2 - sigma_v^2 b^2).  The sampled mean deviates
    # from it by phasor noise of order 1/sqrt(N): over 20 seeds the largest
    # sqrt(N) |sampled - closed| was 0.93 and 1.26 on these timelines.
    n = 10000
    temperature = 40e-6
    sigma_v = math.sqrt(KB * temperature / ATOM_MASS)
    timeline = FieldTimeline.reversal(gradient, reverse_time)
    times = np.linspace(*time_span, 181)
    for seed in (1, 2, 3):
        ens = sample_ensemble(n, SIGMA_Z, temperature, seed=seed)
        sampled = _node_curves(ens, timeline, write_times, times, 1.0)
        for write_time, curve in zip(write_times, sampled.T):
            a, q = _phase_coefficients(timeline, write_time, times)
            zc = ens.zeeman_coeff
            b = ens.k_sw * (times - write_time) + zc * q
            closed = np.exp(-(SIGMA_Z * zc * a) ** 2 - (sigma_v * b) ** 2)
            assert np.abs(curve - closed).max() < 3.0 / math.sqrt(n)


@st.composite
def kernel_inputs(draw):
    """Ensemble, timeline, creation times and time grid for the kernel-versus-direct test.

    Reversal and freeze/release timelines, drifting or not; 1-5 creation
    times up to 1 us about a centre before, between or after the knots;
    1-3 or up to 200 times on uniform, random sorted or knot-crossing grids
    that may start before the creations; 1-3 atoms, or up to 300, so that
    the last atom chunk of the kernel's products may be partial.
    """
    drift = draw(st.one_of(st.sampled_from([0.0, 2e4, -2e4]), st.floats(-2e4, 2e4)))
    if draw(st.booleans()):
        t_rev = draw(st.floats(2e-7, 5e-6))
        timeline, knots = FieldTimeline.reversal(2.0, t_rev, drift_rate=drift), [0.0, t_rev]
    else:
        t_freeze, hold = draw(st.floats(2e-7, 3e-6)), draw(st.floats(1e-7, 3e-6))
        timeline = FieldTimeline.freeze_release(2.0, t_freeze, t_freeze + hold, drift_rate=drift)
        knots = [0.0, t_freeze, t_freeze + hold]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.floats(-1e-6, knots[-1]))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-6]))
    write_times = list(centre + spread * rng.uniform(-1.0, 1.0, draw(st.integers(1, 5))))
    n_times = draw(st.one_of(st.integers(1, 3), st.integers(4, 200)))
    t0 = draw(st.floats(centre - 1e-6, knots[-1] + 2e-6))
    span = draw(st.floats(1e-9, 1e-5))
    grid = draw(st.sampled_from(["uniform", "sorted", "knots"]))
    if grid == "uniform":
        times = np.linspace(t0, t0 + span, n_times)
    elif grid == "sorted":
        times = np.sort(rng.uniform(t0, t0 + span, n_times))
    else:
        times = np.sort(np.concatenate([
            np.linspace(centre - 5e-7, knots[-1] + 1e-6, n_times), knots, write_times]))
    ens = sample_ensemble(draw(st.one_of(st.integers(1, 3), st.integers(4, 300))),
                          draw(st.sampled_from([0.0, SIGMA_Z])),
                          draw(st.sampled_from([0.0, 40e-6])),
                          seed=draw(st.integers(0, 2**32 - 1)))
    return ens, timeline, write_times, times


@settings(max_examples=300, deadline=None)
@given(inputs=kernel_inputs())
def test_kernel_within_bound_of_direct(inputs):
    ens, timeline, write_times, times = inputs
    got = _node_curves(ens, timeline, write_times, times, 0.37)
    want = direct_node_curves(ens, timeline, write_times, times, 0.37)
    assert np.abs(got - want).max() <= kernel_bound(ens, timeline, write_times, times, 0.37)
    if len(times) == 1:
        # collective_efficiency is the direct evaluation, bit for bit
        late = [k for k, write_time in enumerate(write_times) if times[0] >= write_time]
        single = np.array([0.37 * collective_efficiency(ens, timeline, write_times[k], times[0])
                           for k in late])
        np.testing.assert_array_equal(single.view(np.int64), want[0, late].view(np.int64))


@pytest.mark.parametrize("temperature, reverse_time, fwhm", [
    (1e-3, 1e-4, 7e-6),  # a warm cloud and a long pulse on a long timeline
    (0.1, 2e-5, 2e-6),   # a hot cloud
])
def test_spread_creation_times_split_into_groups(temperature, reverse_time, fwhm):
    # Readout and creation times couple by more than _GROUP_PHASE here, so
    # the kernel expands about several centres, one product series each.
    ens = sample_ensemble(300, SIGMA_Z, temperature, seed=3)
    timeline = FieldTimeline.reversal(2.0, reverse_time, drift_rate=2000.0)
    times = np.linspace(reverse_time, 2.5 * reverse_time, 50)
    created = creation_times(0.0, PulseSpec(fwhm), _creation_nodes(17)[0])
    with mock.patch.object(ensemble, "_atom_sums", wraps=ensemble._atom_sums) as sums:
        got = _node_curves(ens, timeline, created, times, 0.37)
    assert sums.call_count >= 2
    want = direct_node_curves(ens, timeline, created, times, 0.37)
    assert np.abs(got - want).max() <= kernel_bound(ens, timeline, created, times, 0.37)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pos", [0, 1, 2, 3, 40, 79])
@pytest.mark.parametrize("drift_rate", [0.0, 2e4])
def test_non_finite_time_stays_local(bad, pos, drift_rate):
    # A non-finite time gives a non-finite value there, as the direct
    # evaluation does, and nowhere else: it only enters its own row of the
    # kernel's products, and the coupling bound skips it.
    ens = sample_ensemble(50, SIGMA_Z, 40e-6, seed=3)
    timeline = FieldTimeline.reversal(2.0, 2e-6, drift_rate=drift_rate)
    times = np.linspace(2.5e-6, 5.5e-6, 80)
    times[pos] = bad
    rest = np.arange(len(times)) != pos
    pulse, p_int0 = PulseSpec(266e-9), 0.4
    got = _node_curves(ens, timeline, [0.0], times, p_int0)[:, 0]
    want = direct_efficiency_curve(ens, timeline, 0.0, times, p_int0)
    assert np.flatnonzero(~np.isfinite(want)).tolist() == [pos]
    assert np.flatnonzero(~np.isfinite(got)).tolist() == [pos]
    assert np.abs(got - want)[rest].max() <= kernel_bound(ens, timeline, [0.0], times, p_int0)
    x, w = _creation_nodes(5)
    profile = echo_profile(ens, timeline, 0.0, pulse, p_int0, times, nodes=5)[:, 1]
    direct = serial_echo_reference(ens, timeline, 0.0, pulse, p_int0, times, x, w)
    assert np.flatnonzero(~np.isfinite(profile)).tolist() == [pos]
    bound = kernel_bound(ens, timeline, creation_times(0.0, pulse, x), times, p_int0)
    assert np.abs(profile - direct)[rest].max() <= bound
