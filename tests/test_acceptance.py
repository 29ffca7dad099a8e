"""End-to-end acceptance checks.

One test per criterion; run with ``pytest tests/test_acceptance.py -v`` to get
a pass/fail line for each.  Every numeric tolerance is stated inline.
"""

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c
from scipy.optimize import brentq

from muxmem.cavity import (
    CavityParams,
    PulseSpec,
    enhancement_from_finesse,
    escape_efficiency,
    finesse,
    linewidth,
    optimal_outcoupler,
)
from muxmem.cli import main
from muxmem.config import SCENARIOS, parse_config, serialize_config
from muxmem.ensemble import (
    FieldTimeline,
    collective_efficiency,
    echo_profile,
    rephasing_time,
    sample_ensemble,
)
from muxmem.model import (
    MemoryParams,
    cavity_gain,
    cross_correlation,
    max_modes,
    retrieval_given_write,
    write_prob,
)
from muxmem.protocol import (
    coincidence_scaling,
    crosstalk_matrix,
    estimate_statistics,
    heralded_autocorrelation,
    run_trials,
)
from muxmem.repeater import IMMEDIATE_REVERSAL, LinkParams, readout_latency, repetition_rate

from conftest import BASE, GOLDEN, reversal_schedule


def report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_cavity_numbers():
    cav = CavityParams(0.14, 0.11)
    f = finesse(cav)
    esc = escape_efficiency(cav)
    # Resonator sized for a 342 MHz spectral range, with the transmission
    # solved so the finesse matches the measured 22.2.
    t22 = brentq(lambda t: finesse(CavityParams(t, 0.11)) - 22.2, 0.01, 0.5, xtol=1e-13)
    meas = CavityParams(t22, 0.11, roundtrip_length=c / 342e6)
    lw = linewidth(meas)
    enh = enhancement_from_finesse(22.2)
    ok = (22.0 <= f <= 24.0
          and abs(esc - 0.56) <= 0.005
          and abs(lw - 15.4e6) <= 0.1e6
          and abs(enh - 14.1) <= 0.1)
    report("01 cavity numbers", ok,
           f"finesse={f:.4f}, escape={esc:.4f}, linewidth={lw/1e6:.4f} MHz, "
           f"enhancement={enh:.4f}")


def test_criterion_02_rate_gain_optima():
    _, gain_11 = optimal_outcoupler(0.11)
    _, gain_01 = optimal_outcoupler(0.01)
    ok = abs(gain_11 - 8.6) <= 0.1 and abs(gain_01 - 99.0) <= 2.0
    report("02 rate-gain optima", ok,
           f"max gain L=0.11: {gain_11:.4f}, L=0.01: {gain_01:.4f}")


def test_criterion_03_single_mode_cavity_gain():
    single = replace(BASE, n_modes=1)
    gain = cavity_gain(single, replace(single, beta_ratio=1.0))
    ok = abs(gain - 2.26) <= 0.02
    report("03 single-mode gain", ok, f"gain={gain:.6f}, band 2.26 +/- 0.02")


def test_criterion_04_storage_decay_asymmetry():
    single = MemoryParams(p=0.1, eta_w=0.3, eta_r=0.25, p_int0=0.4,
                          beta_ratio=1.0, xi_eg=1.0, n_modes=1, tau_mem=72e-6)
    drops = {}
    for beta in (1.0, 14.0):
        mem = replace(single, beta_ratio=beta)
        g0 = cross_correlation(mem) - 1.0
        gt = cross_correlation(mem, mem.tau_mem) - 1.0
        drops[beta] = 1.0 - gt / g0
    ok = abs(drops[1.0] - 0.63) <= 0.02 and drops[14.0] <= 0.25
    report("04 storage-decay asymmetry", ok,
           f"drop of g2-1 over one lifetime: {drops[1.0]:.4f} bare, "
           f"{drops[14.0]:.4f} suppressed")


def test_criterion_05_mode_scaling():
    g2 = [cross_correlation(replace(BASE, n_modes=n)) for n in range(1, 61)]
    monotone = all(a > b for a, b in zip(g2, g2[1:]))
    n19 = max_modes(BASE, 5.8)

    def scan(params, threshold):
        best = 0
        for n in range(1, 500):
            if cross_correlation(replace(params, n_modes=n)) > threshold:
                best = n
            else:
                break
        return best

    betas = np.arange(1.0, 82.0)
    counts = np.array([max_modes(replace(BASE, beta_ratio=b), 5.8)
                       for b in betas], dtype=float)
    scan_agree = all(
        counts[i] == scan(replace(BASE, beta_ratio=b), 5.8)
        for i, b in enumerate(betas))
    r = np.corrcoef(betas, counts)[0, 1]
    ok = monotone and n19 == 19 and scan_agree and r * r >= 0.995
    report("05 mode scaling", ok,
           f"monotone={monotone}, max_modes={n19}, scan agreement={scan_agree}, "
           f"R^2={r * r:.6f}")


def test_criterion_06_monte_carlo_oracle():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for k in range(10):
        mem = MemoryParams(
            p=rng.uniform(0.01, 0.1),
            eta_w=rng.uniform(0.1, 0.6),
            eta_r=rng.uniform(0.1, 0.6),
            p_int0=rng.uniform(0.2, 1.0),
            beta_ratio=rng.uniform(1.0, 30.0),
            xi_eg=rng.uniform(0.3, 1.0),
            n_modes=int(rng.integers(1, 9)),
            tau_mem=1.0,
        )
        schedule = reversal_schedule(mem.n_modes)
        mode = int(rng.integers(0, mem.n_modes))
        tally = run_trials(mem, schedule, 1000000, seed=int(rng.integers(2**63)),
                           readout=mode)
        stats = estimate_statistics(tally)
        cell = stats.g2_cell(mode, mode)
        pulls = [
            abs(cell.value - cross_correlation(mem)) / cell.stderr,
            abs(stats.p_w[mode] - write_prob(mem)) / stats.p_w_err[mode],
        ]
        p_rw = tally.coincidence_counts[mode, mode] / tally.herald_reads[mode, mode]
        p_rw_err = math.sqrt(max(tally.coincidence_counts[mode, mode], 1)) \
            / tally.herald_reads[mode, mode]
        pulls.append(abs(p_rw - retrieval_given_write(mem)) / p_rw_err)
        worst = max(worst, *pulls)
    ok = worst < 3.0
    report("06 MC vs analytic", ok,
           f"worst pull over 10 sets x (g2, p_w, p_r|w) = {worst:.2f} sigma (< 3)")


def test_criterion_07_rephasing_engine():
    ens = sample_ensemble(10000, 1e-3, 40e-6, seed=17)
    timeline = FieldTimeline.reversal(2.0, 2e-6)
    t_reph = rephasing_time(timeline, 0.0)

    # Peak location within one grid step + half a pulse width.
    times = np.linspace(3.2e-6, 4.8e-6, 161)
    step = times[1] - times[0]
    profile = echo_profile(ens, timeline, 0.0, PulseSpec(266e-9), 1.0, times)
    peak_t = profile[np.argmax(profile[:, 1]), 0]
    loc_ok = abs(peak_t - t_reph) <= step + 266e-9 / 2

    # Gaussian-dephasing law within 3 standard errors (velocities zeroed).
    grad = 0.02
    sigma_w = 2 * math.pi * 1.4e6 * grad * 100.0 * 1e-3
    const = FieldTimeline(((0.0, grad),))
    ts = np.array([0.3, 0.7, 1.1]) / sigma_w
    law = np.exp(-((sigma_w * ts) ** 2))
    samples = np.array([
        [collective_efficiency(sample_ensemble(10000, 1e-3, 0.0, seed=s), const, 0.0, t)
         for t in ts]
        for s in range(8)])
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    law_ok = bool(np.all(np.abs(samples.mean(axis=0) - law) < 3 * stderr + 2e-4))

    # Freeze-release rephasing lands at t_release + (t_freeze - t_write).
    frozen = FieldTimeline.freeze_release(2.0, 1.5e-6, 6e-6)
    t_w = 0.5e-6
    fr_ok = abs(rephasing_time(frozen, t_w) - (6e-6 + 1.5e-6 - t_w)) < 1e-9

    # Peak height strictly decreasing, width strictly increasing in pulse length.
    heights, widths = [], []
    for dt in (133e-9, 266e-9, 532e-9, 1064e-9):
        span = 2.0 * dt + 0.4e-6
        grid = np.linspace(t_reph - span, t_reph + span, 101)
        prof = echo_profile(ens, timeline, 0.0, PulseSpec(dt), 1.0, grid)
        vals = prof[:, 1]
        heights.append(float(vals.max()))
        half = vals.max() / 2
        above = np.where(vals >= half)[0]
        lo, hi = above[0], above[-1]

        def cross(i0, i1):
            t0, t1 = grid[i0], grid[i1]
            v0, v1 = vals[i0], vals[i1]
            return t0 + (half - v0) * (t1 - t0) / (v1 - v0)

        left = cross(lo - 1, lo) if lo > 0 else grid[0]
        right = cross(hi, hi + 1) if hi + 1 < len(grid) else grid[-1]
        widths.append(right - left)
    order_ok = (all(a > b for a, b in zip(heights, heights[1:]))
                and all(a < b for a, b in zip(widths, widths[1:])))

    ok = loc_ok and law_ok and fr_ok and order_ok
    report("07 rephasing engine", ok,
           f"peak at {peak_t * 1e6:.3f} us vs {t_reph * 1e6:.3f} us, "
           f"gaussian law={law_ok}, freeze-release={fr_ok}, "
           f"heights={[round(h, 3) for h in heights]}, "
           f"widths(ns)={[round(w * 1e9) for w in widths]}")


def test_criterion_08_crosstalk_structure():
    mem = replace(BASE, n_modes=6, tau_mem=1.0)
    schedule = reversal_schedule(6)
    g2, _ = crosstalk_matrix(mem, schedule, 1000000, seed=61)
    diag = float(np.diag(g2).mean())
    off = g2[~np.eye(6, dtype=bool)]
    off_mean = float(off.mean())
    ok = diag >= 5 * off_mean and 0.9 <= off_mean <= 1.1
    report("08 crosstalk structure", ok,
           f"diagonal mean={diag:.3f}, off-diagonal mean={off_mean:.4f}")


def test_criterion_09_heralded_autocorrelation():
    # Noise-free: retrieved single photons never split into both arms.
    clean = replace(BASE, xi_eg=0.0, n_modes=3, tau_mem=1.0)
    t_clean = run_trials(clean, reversal_schedule(3), 400000, seed=91)
    a_clean = heralded_autocorrelation(t_clean)

    # Noise-only: thermal background, small mean so clicks stay unbiased.
    noisy = MemoryParams(p=0.5, eta_w=1.0, eta_r=0.04, p_int0=0.0,
                         beta_ratio=1.0, xi_eg=1.0, n_modes=1, tau_mem=1.0)
    t_noise = run_trials(noisy, reversal_schedule(1), 4000000, seed=92)
    a_noise = heralded_autocorrelation(t_noise)

    # Ten-mode working point: single-photon character survives the noise.
    t_mix = run_trials(replace(BASE, tau_mem=1.0), reversal_schedule(10),
                       2000000, seed=93)
    a_mix = heralded_autocorrelation(t_mix)

    ok = (a_clean.value == 0.0
          and abs(a_noise.value - 2.0) < 3 * a_noise.stderr
          and a_mix.value < 1.0)
    report("09 heralded autocorrelation", ok,
           f"noise-free={a_clean.value}, thermal={a_noise.value:.3f}"
           f"+/-{a_noise.stderr:.3f}, ten-mode={a_mix.value:.3f}+/-{a_mix.stderr:.3f}")


def test_criterion_10_repeater_arithmetic():
    link = LinkParams(distance=100e3, signal_velocity=2e8)
    rate = repetition_rate(link)
    lat = readout_latency(replace(link, herald_time=500e-6, decision_delay=1e-6),
                          IMMEDIATE_REVERSAL)
    gain = (1.0 - (1.0 - 1e-3) ** 10) / 1e-3
    ok = (rate == pytest.approx(2000.0, rel=1e-12)
          and lat == pytest.approx(2 * (500e-6 + 1e-6), rel=1e-12)
          and 9.9 <= gain <= 10.0)
    report("10 repeater arithmetic", ok,
           f"rate={rate:.1f} Hz, latency={lat * 1e6:.1f} us, ten-mode gain={gain:.4f}")


def test_criterion_11_coincidence_scaling():
    # Control: no noise channel, no decay -> totals linear in mode count.
    control = replace(BASE, xi_eg=0.0, tau_mem=1.0)
    n_trials = 400000
    rows = coincidence_scaling(control, list(range(1, 11)), 800e-9, 266e-9,
                               gradient=2.0, drift_rate=0.0,
                               n_trials=n_trials, seed=111)
    n = rows[:, 0]
    p_wr = rows[:, 2]
    err = np.sqrt(p_wr * n / n_trials)
    expected = n * p_wr[0]
    exp_err = n * err[0]
    linear = bool(np.all(np.abs(p_wr - expected) < 3 * np.hypot(err, exp_err)))

    # Drift plus lifetime decay: write totals stay linear, coincidences lag.
    drifted = replace(BASE, tau_mem=72e-6)
    ens = sample_ensemble(4000, 1e-3, 0.0, seed=7)
    rows_d = coincidence_scaling(drifted, [1, 10], 800e-9, 266e-9,
                                 gradient=2.0, drift_rate=20000.0,
                                 n_trials=n_trials, seed=112, ens=ens)
    p_w_ratio = rows_d[1, 1] / rows_d[0, 1]
    p_w_err = p_w_ratio * math.sqrt(
        1.0 / (rows_d[1, 1] * n_trials) + 1.0 / (rows_d[0, 1] * n_trials))
    p_wr_ratio = rows_d[1, 2] / rows_d[0, 2]
    sub = abs(p_w_ratio - 10.0) < 3 * p_w_err and p_wr_ratio < 10.0
    ok = linear and sub
    report("11 coincidence scaling", ok,
           f"control linear={linear}, drifted p_w ratio={p_w_ratio:.3f}, "
           f"p_wr ratio={p_wr_ratio:.3f} (< 10)")


def test_criterion_12_cli_golden(tmp_path):
    byte_ok = True
    for scenario in SCENARIOS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([scenario, "--config", str(GOLDEN / f"{scenario}_config.json"),
                       "--out", str(tmp_path)])
        same_csv = ((tmp_path / f"{scenario}.csv").read_bytes()
                    == (GOLDEN / f"{scenario}.csv").read_bytes())
        same_json = ((tmp_path / f"{scenario}_summary.json").read_bytes()
                     == (GOLDEN / f"{scenario}_summary.json").read_bytes())
        byte_ok = byte_ok and rc == 0 and same_csv and same_json
    round_trip = all(
        parse_config(serialize_config(parse_config("{}", scenario=s))) ==
        parse_config("{}", scenario=s)
        for s in SCENARIOS)
    schema = json.loads((GOLDEN / "cavity-design_summary.json").read_text())
    ok = byte_ok and round_trip and schema["schema_version"] == 1
    report("12 cli golden files", ok,
           f"deterministic bytes={byte_ok}, config round-trip={round_trip}")
