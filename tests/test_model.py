"""Closed-form photon statistics: frozen values, identities, inversions."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muxmem.cavity import CavityParams, PulseSpec, effective_enhancement, enhancement_from_finesse
from muxmem.config import parse_config
from muxmem.ensemble import (
    AtomEnsemble,
    FieldTimeline,
    collective_efficiency,
    echo_profiles,
    rephasing_time,
    sample_ensemble,
)
from muxmem.model import (
    UNBOUNDED,
    MemoryParams,
    _g2,
    cavity_gain,
    coincidence_prob,
    cross_correlation,
    max_modes,
    noise_given_write,
    read_prob,
    retrieval_given_write,
    write_prob,
)
from muxmem.protocol import (
    ModeSchedule,
    build_schedule,
    coincidence_scaling,
    crosstalk_matrix,
    run_train,
    run_trials,
)
from muxmem.repeater import LinkParams
from muxmem.scenarios import run_scenario

from conftest import BASE, reversal_schedule

# Five-mode point with a rounder excitation probability.
FIVE = replace(BASE, p=0.05, n_modes=5)


def random_params(rng):
    return MemoryParams(
        p=rng.uniform(0.005, 0.2),
        eta_w=rng.uniform(0.05, 0.9),
        eta_r=rng.uniform(0.05, 0.9),
        p_int0=rng.uniform(0.1, 1.0),
        beta_ratio=rng.uniform(1.0, 60.0),
        xi_eg=rng.uniform(0.1, 1.0),
        n_modes=int(rng.integers(1, 30)),
    )


def scan_max_modes(params, threshold, n_cap=5000):
    """Linear-scan oracle: count up until g2 falls to the threshold."""
    best = 0
    for n in range(1, n_cap + 1):
        if cross_correlation(replace(params, n_modes=n)) > threshold:
            best = n
        else:
            break
    return best


def test_write_prob():
    assert write_prob(BASE) == pytest.approx(0.045 * 0.3)
    assert write_prob(FIVE) == pytest.approx(0.015)


def test_read_prob_frozen():
    assert read_prob(BASE) == pytest.approx(0.012214285714285716, rel=1e-12)
    assert read_prob(FIVE) == pytest.approx(0.05 * 0.25 * (0.4 + 4.6 / 14), rel=1e-12)


def test_coincidence_prob_frozen():
    assert coincidence_prob(BASE) == pytest.approx(0.0014541428571428572, rel=1e-12)


def test_retrieval_given_write_frozen():
    assert retrieval_given_write(BASE) == pytest.approx(0.10771428571428572, rel=1e-12)
    assert retrieval_given_write(replace(BASE, beta_ratio=1.0)) == pytest.approx(0.208, rel=1e-12)


def test_noise_given_write_frozen():
    assert noise_given_write(BASE) == pytest.approx(0.007714285714285714, rel=1e-12)
    # The noise channel vanishes with the branching ratio.
    assert noise_given_write(replace(BASE, xi_eg=0.0)) == 0.0


def test_cross_correlation_frozen():
    assert cross_correlation(BASE) == pytest.approx(8.818713450292396, rel=1e-12)
    assert cross_correlation(replace(BASE, beta_ratio=1.0)) == pytest.approx(
        1.848888888888889, rel=1e-12)
    assert cross_correlation(FIVE) == pytest.approx(11.431372549019606, rel=1e-12)
    assert cross_correlation(replace(FIVE, beta_ratio=1.0)) == pytest.approx(2.52, rel=1e-12)


def test_g2_equals_conditional_over_unconditional():
    # g2 = p(r|w) / p_r: detection efficiencies cancel in the ratio.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        params = random_params(rng)
        g2 = cross_correlation(params)
        ratio = retrieval_given_write(params) / read_prob(params)
        assert g2 == pytest.approx(ratio, rel=1e-12)


def test_coincidence_decomposition():
    # p_wr = p_w * p(r|w), exactly, for any parameters and storage time.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        params = random_params(rng)
        t = rng.uniform(0.0, 2e-4)
        assert coincidence_prob(params, t) == pytest.approx(
            write_prob(params) * retrieval_given_write(params, t), rel=1e-12)


def test_retrieval_splits_into_signal_and_noise():
    rng = np.random.default_rng(13)
    for _ in range(200):
        params = random_params(rng)
        signal = params.p_int0 * params.eta_r
        assert retrieval_given_write(params) == pytest.approx(
            signal + noise_given_write(params), rel=1e-12)


def test_g2_strictly_decreasing_in_modes():
    values = [cross_correlation(replace(BASE, n_modes=n)) for n in range(1, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_g2_increases_with_beta():
    values = [cross_correlation(replace(BASE, beta_ratio=b)) for b in (1, 2, 5, 14, 50)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p_int_decay_laws():
    tau = BASE.tau_mem
    assert BASE.p_int(0.0) == pytest.approx(0.4)
    assert BASE.p_int(tau) == pytest.approx(0.4 / math.e, rel=1e-12)
    gauss = replace(BASE, decay_shape="gaussian")
    assert gauss.p_int(tau) == pytest.approx(0.4 / math.e, rel=1e-12)
    # Both laws agree at t=0 and t=tau but not in between.
    assert gauss.p_int(tau / 2) > BASE.p_int(tau / 2)
    # Array evaluation.
    times = np.array([0.0, tau, 2 * tau])
    np.testing.assert_allclose(BASE.p_int(times), 0.4 * np.exp(-times / tau))


def test_p_int_rejects_negative_time():
    with pytest.raises(ValueError):
        BASE.p_int(-1e-9)


def test_g2_decreases_with_storage():
    g2 = [cross_correlation(BASE, t) for t in (0.0, 20e-6, 72e-6, 150e-6)]
    assert all(a > b for a, b in zip(g2, g2[1:]))


def test_cross_correlation_over_a_storage_grid():
    # The storage-decay scenario's call: a linspace grid whose first time is 0.0.
    times = np.linspace(0.0, 100e-6, 11)
    out = cross_correlation(BASE, times)
    assert out.shape == (11,)
    assert times[0] == 0.0 and out[0] == cross_correlation(BASE)
    assert out[-1] == cross_correlation(BASE, times[-1])


def test_storage_decay_drop_of_excess_correlation():
    # Fractional drop of g2-1 over one lifetime: 1-1/e without suppression
    # (the denominator is then independent of p_int), much less with it.
    single = replace(BASE, p=0.1, n_modes=1)
    for beta, expected in ((1.0, 0.6321205588285577), (14.0, 0.21700185288724871)):
        mem = replace(single, beta_ratio=beta)
        g0 = cross_correlation(mem) - 1.0
        gt = cross_correlation(mem, mem.tau_mem) - 1.0
        assert 1.0 - gt / g0 == pytest.approx(expected, rel=1e-10)


def test_cavity_gain_frozen():
    single = replace(BASE, n_modes=1)
    gain = cavity_gain(single, replace(single, beta_ratio=1.0))
    assert gain == pytest.approx(2.258064516129032, rel=1e-12)


def test_cavity_gain_trivia():
    assert cavity_gain(BASE, BASE) == pytest.approx(1.0)
    perfect = replace(BASE, p_int0=1.0, n_modes=1)
    assert cavity_gain(perfect, replace(perfect, beta_ratio=3.0)) == pytest.approx(1.0)


def test_cavity_gain_independent_of_p_and_efficiencies():
    rng = np.random.default_rng(3)
    single = replace(BASE, n_modes=1)
    ref = cavity_gain(single, replace(single, beta_ratio=1.0))
    for _ in range(50):
        scaled = replace(single, p=rng.uniform(0.001, 0.3),
                         eta_w=rng.uniform(0.01, 1.0), eta_r=rng.uniform(0.01, 1.0))
        gain = cavity_gain(scaled, replace(scaled, beta_ratio=1.0))
        assert gain == pytest.approx(ref, rel=1e-10)


def test_cavity_gain_requires_matching_params():
    other = replace(BASE, p=0.05)
    with pytest.raises(ValueError):
        cavity_gain(BASE, other)


def test_max_modes_working_point():
    assert max_modes(BASE, 5.8) == 19


def test_max_modes_matches_linear_scan():
    rng = np.random.default_rng(5)
    for _ in range(200):
        params = random_params(rng)
        threshold = rng.uniform(1.05, 8.0)
        got = max_modes(params, threshold)
        if got == UNBOUNDED or got > 3000:
            continue
        assert got == scan_max_modes(params, threshold)


def test_max_modes_versus_beta_sweep():
    betas = [1, 11, 21, 31, 41, 51, 61, 71, 81]
    counts = [max_modes(replace(BASE, beta_ratio=b), 5.8) for b in betas]
    assert counts == [1, 15, 29, 42, 56, 70, 83, 97, 111]


def test_max_modes_unbounded_without_noise_channel():
    clean = replace(BASE, xi_eg=0.0)
    assert cross_correlation(replace(clean, n_modes=1)) > 5.8
    assert max_modes(clean, 5.8) == UNBOUNDED
    assert math.isinf(max_modes(clean, 5.8))


def test_max_modes_undefined_without_retrieval_or_background():
    # No retrieval and no background: g2 is 0/0 for every mode count, so
    # max_modes raises like cross_correlation instead of returning UNBOUNDED.
    dark = replace(BASE, p_int0=0.0, xi_eg=0.0)
    with pytest.raises(ValueError, match="zero read probability"):
        cross_correlation(dark)
    with pytest.raises(ValueError, match="zero read probability"):
        max_modes(dark, 5.8)


def test_max_modes_zero_when_single_mode_fails():
    assert max_modes(BASE, cross_correlation(replace(BASE, n_modes=1)) + 1.0) == 0


def test_max_modes_threshold_validation():
    with pytest.raises(ValueError):
        max_modes(BASE, 1.0)
    with pytest.raises(ValueError, match="^max_modes is undefined at p = 0$"):
        max_modes(replace(BASE, p=0.0), 5.8)


def test_cross_correlation_undefined_at_zero_excitation():
    with pytest.raises(ValueError):
        cross_correlation(replace(BASE, p=0.0))


@pytest.mark.parametrize("kwargs", [
    {"p": -0.1}, {"p": 1.5}, {"eta_w": 1.2}, {"eta_r": -0.2},
    {"p_int0": 1.0001}, {"beta_ratio": 0.5}, {"xi_eg": 2.0},
    {"n_modes": 0}, {"tau_mem": 0.0}, {"decay_shape": "linear"}, {"beta_ratio": math.nan},
])
def test_param_validation(kwargs):
    fields = dict(p=0.045, eta_w=0.3, eta_r=0.25, p_int0=0.4, beta_ratio=14.0)
    fields.update(kwargs)
    with pytest.raises(ValueError):
        MemoryParams(**fields)


def test_cross_correlation_rejects_a_negative_time_in_an_array():
    # The check is p_int's, reached through cross_correlation.
    with pytest.raises(ValueError, match="^storage_time must be >= 0$"):
        cross_correlation(BASE, np.array([0.0, -1e-9]))


NAN, INF = math.nan, math.inf
REVERSAL = FieldTimeline.reversal(2.0, 1e-6)
FINITE_AND_NONNEGATIVE = "^cloud_sigma and temperature must be finite and >= 0$"
FINITE_TIMELINE = "^segment start times, gradients and drift_rate must be finite$"
FINITE_ATOMS = "^positions and velocities must be finite$"


def _echo(write_time=0.0, pulses=(PulseSpec(266e-9),), p_int0=0.4):
    return echo_profiles(AtomEnsemble(np.zeros(3), np.zeros(3)), REVERSAL, write_time,
                         list(pulses), p_int0, [2e-6], nodes=5)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_ensemble(10, NAN, 40e-6, 1), FINITE_AND_NONNEGATIVE),
    (lambda: sample_ensemble(10, INF, 40e-6, 1), FINITE_AND_NONNEGATIVE),
    (lambda: sample_ensemble(10, 1e-3, NAN, 1), FINITE_AND_NONNEGATIVE),
    (lambda: sample_ensemble(10, 1e-3, INF, 1), FINITE_AND_NONNEGATIVE),
    (lambda: ModeSchedule([0.0, 1e-6], [NAN, 3e-6]), "^write and readout times must be finite$"),
    (lambda: ModeSchedule([0.0, NAN], [2e-6, 3e-6]), "^write and readout times must be finite$"),
    (lambda: ModeSchedule([0.0, 1e-6], [INF, 3e-6]), "^write and readout times must be finite$"),
    (lambda: BASE.p_int(NAN), "^storage_time must be >= 0$"),
    (lambda: BASE.p_int(np.array([0.0, NAN])), "^storage_time must be >= 0$"),
    (lambda: FieldTimeline.reversal(2.0, NAN), "^reverse_time must be > 0$"),
    (lambda: FieldTimeline(((0.0, 2.0), (NAN, -2.0))), FINITE_TIMELINE),
    (lambda: FieldTimeline(((0.0, NAN),)), FINITE_TIMELINE),
    (lambda: FieldTimeline(((0.0, INF),)), FINITE_TIMELINE),
    (lambda: FieldTimeline.reversal(2.0, 1e-6, drift_rate=NAN), FINITE_TIMELINE),
    (lambda: AtomEnsemble(np.zeros(3), np.zeros(3), k_sw=NAN),
     "^k_sw and zeeman_coeff must be >= 0$"),
    (lambda: AtomEnsemble(np.zeros(3), np.zeros(3), zeeman_coeff=NAN),
     "^k_sw and zeeman_coeff must be >= 0$"),
    (lambda: collective_efficiency(AtomEnsemble(np.zeros(3), np.zeros(3)), REVERSAL, 0.0, NAN),
     "^need finite times with time >= write_time$"),
    (lambda: collective_efficiency(AtomEnsemble(np.zeros(3), np.zeros(3)), REVERSAL, 0.0, INF),
     "^need finite times with time >= write_time$"),
    (lambda: enhancement_from_finesse(NAN), "^finesse must be positive$"),
    (lambda: effective_enhancement(CavityParams(0.1, 0.01), PulseSpec(266e-9), NAN),
     "^cavity_detuning must be finite, got nan$"),
    (lambda: effective_enhancement(CavityParams(0.1, 0.01), PulseSpec(266e-9), INF),
     "^cavity_detuning must be finite, got inf$"),
    (lambda: max_modes(BASE, NAN), r"^threshold must exceed 1 \(the classical floor\)$"),
    (lambda: rephasing_time(REVERSAL, NAN), "^write_time must be finite$"),
    (lambda: AtomEnsemble(np.array([NAN, 0.0]), np.zeros(2)), FINITE_ATOMS),
    (lambda: AtomEnsemble(np.zeros(2), np.array([0.0, INF])), FINITE_ATOMS),
    (lambda: _echo(p_int0=NAN), r"^p_int0 must lie in \[0, 1\], got nan$"),
    (lambda: _echo(p_int0=2.0), r"^p_int0 must lie in \[0, 1\], got 2.0$"),
    (lambda: _echo(p_int0=-0.5), r"^p_int0 must lie in \[0, 1\], got -0.5$"),
    (lambda: _echo(write_time=NAN), "^write_time must be finite$"),
    (lambda: _echo(write_time=INF), "^write_time must be finite$"),
    (lambda: _echo(pulses=[]), "^need at least one pulse$"),
], ids=["cloud_sigma-nan", "cloud_sigma-inf", "temperature-nan", "temperature-inf",
        "readout-nan", "write-nan", "readout-inf", "p_int-nan", "p_int-array-nan",
        "reverse_time-nan", "segment-start-nan", "gradient-nan", "gradient-inf",
        "drift_rate-nan", "k_sw-nan", "zeeman_coeff-nan", "echo-time-nan", "echo-time-inf",
        "finesse-nan", "detuning-nan", "detuning-inf", "threshold-nan", "rephasing-nan",
        "position-nan", "velocity-inf", "echo-p_int0-nan", "echo-p_int0-above",
        "echo-p_int0-below", "echo-write-nan", "echo-write-inf", "echo-no-pulses"])
def test_entry_points_reject_nan_and_infinity(call, message):
    # NaN fails every comparison, so each check is written to accept only
    # values that pass it; a value without a bound is checked for finiteness.
    # Each returned a silently wrong value, or failed with the wrong error
    # (a NaN write time raised NoRephasingError), before it was checked.
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("params, n, below, expected", [
    # Threshold = g2 at N = 10, so 10 modes fail: the bound computes
    # 10.000000000000005 and n -= 1 brings it down to 9.
    (BASE, 10, False, 9),
    # Threshold one ulp below g2 at N = 58: the bound computes
    # 57.99999999999998 and n += 1 brings it up to 58.
    (replace(BASE, p=0.3, p_int0=1.0, beta_ratio=81.0, xi_eg=0.3), 58, True, 58),
], ids=["downward", "upward"])
def test_max_modes_rounding_corrections(params, n, below, expected):
    g2 = cross_correlation(replace(params, n_modes=n))
    threshold = math.nextafter(g2, 0.0) if below else g2
    assert max_modes(params, threshold) == expected


def test_cross_correlation_takes_an_array_of_storage_times():
    # An array used to raise numpy's "truth value of an array is ambiguous".
    times = np.array([0.0, 1e-5])
    g2 = cross_correlation(BASE, times)
    assert g2.shape == (2,)
    assert g2.tolist() == [cross_correlation(BASE, t) for t in times.tolist()]
    # Without a background channel the read probability is zero once p_int
    # underflows: one such element raises the scalar call's error.
    clean = replace(BASE, xi_eg=0.0)
    late = np.array([0.0, 1e3 * clean.tau_mem])
    assert clean.p_int(late)[1] == 0.0
    with pytest.raises(ValueError, match="^cross correlation is undefined: zero read probability$"):
        cross_correlation(clean, late)
    with pytest.raises(ValueError, match="zero read probability"):
        cross_correlation(clean, late[1])


def outcome(call):
    """``call()``'s value, or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


valid_params = st.builds(
    MemoryParams,
    p=st.floats(0.001, 0.5),
    eta_w=st.floats(0.0, 1.0),
    eta_r=st.floats(0.0, 1.0),
    p_int0=st.floats(0.0, 1.0),
    beta_ratio=st.floats(1.0, 200.0),
    xi_eg=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    n_modes=st.integers(1, 200),
    tau_mem=st.floats(1e-6, 1e-3),
    decay_shape=st.sampled_from(["exponential", "gaussian"]),
)


@settings(max_examples=200, deadline=None)
@given(params=valid_params, scaled=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
       modes=st.lists(st.integers(1, 500), min_size=1, max_size=5),
       betas=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=5))
def test_array_g2_has_the_bits_of_scalar_calls(params, scaled, modes, betas):
    times = [s * params.tau_mem for s in scaled]
    per_time = [outcome(lambda: cross_correlation(params, t)) for t in times]
    whole = outcome(lambda: cross_correlation(params, np.array(times)))
    if any(isinstance(v, tuple) for v in per_time):
        assert whole == next(v for v in per_time if isinstance(v, tuple))
    else:
        assert whole.tolist() == per_time
    # Mode counts and suppressions as arrays, at one storage time.
    t = times[0]
    cells = [[outcome(lambda: cross_correlation(replace(params, n_modes=n, beta_ratio=b), t))
              for b in betas] for n in modes]
    grid = outcome(lambda: _g2(params.p, params.p_int(t), np.array(modes)[:, None],
                               params.xi_eg, np.array(betas)))
    if any(isinstance(v, tuple) for row in cells for v in row):
        assert isinstance(grid, tuple) and "zero read probability" in grid[1]
    else:
        assert grid.tolist() == cells


def loop_max_modes(params, threshold):
    """The rule max_modes keeps: the bound, then steps with cross_correlation."""
    def g2_at(n):
        return cross_correlation(replace(params, n_modes=n))

    coeff = params.xi_eg / params.beta_ratio
    if coeff == 0.0:
        return UNBOUNDED if g2_at(1) > threshold else 0
    pi = params.p_int0
    bound = pi + (pi * (1.0 - params.p) / (params.p * (threshold - 1.0)) - pi) / coeff
    n = max(int(math.floor(bound)), 0)
    while n >= 1 and not g2_at(n) > threshold:
        n -= 1
    while g2_at(n + 1) > threshold:
        n += 1
    return n


@settings(max_examples=150, deadline=None)
@given(params=valid_params, threshold=st.floats(1.000001, 60.0),
       beta=st.one_of(st.floats(1.0, 500.0), st.just(math.inf)), p_int0=st.floats(0.0, 1.0))
def test_max_modes_has_the_bits_of_the_stepping_rule(params, threshold, beta, p_int0):
    params = replace(params, beta_ratio=beta, p_int0=p_int0)
    assert (outcome(lambda: max_modes(params, threshold))
            == outcome(lambda: loop_max_modes(params, threshold)))


# The default scenario memory with a background coefficient near 1e-17: the
# bound is about 1.8e17, past 2**53, where n + 1.0 rounds back to n.
HUGE_BOUND = [replace(BASE, beta_ratio=1e17), replace(BASE, xi_eg=1e-17)]


@pytest.mark.parametrize("params", HUGE_BOUND, ids=["beta", "xi_eg"])
def test_max_modes_steps_exact_integers_past_2_to_the_53(params):
    n = max_modes(params, 5.8)
    assert n > 2 ** 53
    assert n == loop_max_modes(params, 5.8)
    assert cross_correlation(replace(params, n_modes=n)) > 5.8
    assert not cross_correlation(replace(params, n_modes=n + 1)) > 5.8


def test_max_modes_scenario_past_2_to_the_53():
    cfg = parse_config(json.dumps({"scenario": "max-modes",
                                   "options": {"beta_values": [1e17], "p_int_values": [0.4]}}))
    assert cfg.memory == replace(BASE, beta_ratio=cfg.memory.beta_ratio)
    (row,) = run_scenario(cfg).rows
    assert row == (1e17, 0.4, float(max_modes(HUGE_BOUND[0], 5.8)))


def test_max_modes_scenario_rows_are_scalar_calls():
    # Without a background channel every cell is UNBOUNDED; at beta = 1 and
    # p_int0 = 0.01 not even one mode clears the threshold.
    seen = set()
    for memory in ({}, {"xi_eg": 0.0}):
        cfg = parse_config(json.dumps({"scenario": "max-modes", "memory": memory, "options": {
            "beta_values": [1, 14.0, 81.0], "p_int_values": [0.01, 0.4, 1]}}))
        for beta, p_int, n in run_scenario(cfg).rows:
            mem = replace(cfg.memory, beta_ratio=beta, p_int0=p_int)
            assert n == float(max_modes(mem, 5.8))
            seen.add(n)
    assert {0.0, UNBOUNDED} <= seen


def _echo_with_nodes(nodes):
    ens = sample_ensemble(50, 1e-3, 40e-6, seed=1)
    return echo_profiles(ens, FieldTimeline.reversal(2.0, 2e-6), 0.0, [PulseSpec(266e-9)],
                         0.4, [4e-6], nodes=nodes)


# Every count and seed the library takes, as (call with it, argument name).
COUNT_TAKERS = {
    "MemoryParams": (lambda n: replace(BASE, n_modes=n), "n_modes"),
    "LinkParams": (lambda n: LinkParams(100e3, n_modes=n), "n_modes"),
    "sample_ensemble": (lambda n: sample_ensemble(n, 1e-3, 40e-6, seed=1), "n_atoms"),
    "echo_profiles": (_echo_with_nodes, "nodes"),
    "build_schedule": (lambda n: build_schedule(n, 800e-9, 266e-9,
                                                FieldTimeline.reversal(2.0, 3e-6)), "n_modes"),
    "coincidence_scaling": (lambda n: coincidence_scaling(
        BASE, [n], 800e-9, 266e-9, 2.0, 0.0, n_trials=100, seed=1), "n_modes_values"),
    "run_trials": (lambda n: run_trials(FIVE, reversal_schedule(5), n, seed=1), "n_trials"),
    "seed:run_trials": (lambda s: run_trials(FIVE, reversal_schedule(5), 100, s), "seed"),
    "seed:crosstalk_matrix": (lambda s: crosstalk_matrix(
        replace(FIVE, n_modes=2), reversal_schedule(2), 100, s), "seed"),
    "seed:run_train": (lambda s: run_train(
        FIVE, reversal_schedule(5), FieldTimeline.reversal(2.0, 3.466e-6), 100, s), "seed"),
    "seed:coincidence_scaling": (lambda s: coincidence_scaling(
        BASE, [2], 800e-9, 266e-9, 2.0, 0.0, n_trials=100, seed=s), "seed"),
    "seed:sample_ensemble": (lambda s: sample_ensemble(50, 1e-3, 40e-6, seed=s), "seed"),
}


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("taker", sorted(COUNT_TAKERS))
def test_counts_must_be_integers(taker, bad):
    call, name = COUNT_TAKERS[taker]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)
    call(np.int64(3))  # a numpy integer is a count
