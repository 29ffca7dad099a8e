"""Trial engine, tallies, and correlation estimators."""

import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from muxmem.ensemble import FieldTimeline
from muxmem.model import MemoryParams, cross_correlation, retrieval_given_write, write_prob
from muxmem.protocol import (
    BLOCK_SIZE,
    CYCLE,
    FEED_FORWARD,
    CountsTally,
    ModeSchedule,
    build_schedule,
    coincidence_scaling,
    crosstalk_matrix,
    estimate_statistics,
    heralded_autocorrelation,
    run_trials,
    _block_rng,
)

FIVE = MemoryParams(p=0.05, eta_w=0.3, eta_r=0.25, p_int0=0.4,
                    beta_ratio=14.0, xi_eg=1.0, n_modes=5, tau_mem=1.0)


def quick_schedule(n_modes, spacing=800e-9, write_duration=266e-9):
    t_last = (n_modes - 1) * spacing + write_duration
    timeline = FieldTimeline.reversal(2.0, t_last)
    return build_schedule(n_modes, spacing, write_duration, timeline)


def test_build_schedule_single_mode():
    timeline = FieldTimeline.reversal(2.0, 1.2e-6)
    schedule = build_schedule(1, 800e-9, 266e-9, timeline)
    assert schedule.write_times[0] == 0.0
    assert schedule.readout_times[0] == pytest.approx(2.4e-6, abs=1e-12)
    assert schedule.storage_times[0] == pytest.approx(2.4e-6, abs=1e-12)


def test_build_schedule_readout_order_reversed():
    # Last written rephases first: readout times decrease with write index.
    schedule = quick_schedule(6)
    assert all(a < b for a, b in zip(schedule.write_times, schedule.write_times[1:]))
    assert all(a > b for a, b in zip(schedule.readout_times, schedule.readout_times[1:]))
    for t_w, t_r in zip(schedule.write_times, schedule.readout_times):
        t_last = 5 * 800e-9 + 266e-9
        assert t_r == pytest.approx(2 * t_last - t_w, abs=1e-12)


def test_build_schedule_freeze_release_uniform_shift():
    n, spacing, wd = 4, 800e-9, 266e-9
    t_last = (n - 1) * spacing + wd
    immediate = build_schedule(n, spacing, wd, FieldTimeline.reversal(2.0, t_last))
    frozen = build_schedule(
        n, spacing, wd,
        FieldTimeline.freeze_release(2.0, t_last, t_last + 5e-6))
    shift = np.array(frozen.readout_times) - np.array(immediate.readout_times)
    np.testing.assert_allclose(shift, 5e-6, atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError, match="write_duration"):
        build_schedule(1, 200e-9, 800e-9, FieldTimeline.reversal(2.0, 1e-6))
    with pytest.raises(ValueError):
        ModeSchedule((1e-6,), (0.5e-6,))


def test_schedule_compares_modes_elementwise():
    # Mode 1 is read before it is written: the times must be compared mode
    # by mode, not as tuples (one lexicographic bool).
    with pytest.raises(ValueError, match="readout must come after"):
        ModeSchedule((0.0, 1e-6), (2e-6, 0.5e-6))
    for writes, readouts in [((), ()), ((0.0,), (1e-6, 2e-6)), ([[0.0]], [[1e-6]])]:
        with pytest.raises(ValueError, match="equal-length"):
            ModeSchedule(writes, readouts)
    schedule = ModeSchedule((0.0, 1e-6), (3e-6, 2e-6))
    assert schedule.n_modes == 2
    np.testing.assert_array_equal(schedule.storage_times, [3e-6, 1e-6])


def test_run_trials_zero_excitation():
    mem = replace(FIVE, p=0.0)
    tally = run_trials(mem, quick_schedule(5), 5000, seed=1)
    assert tally.n_trials == 5000
    assert tally.write_counts.sum() == 0
    assert tally.coincidence_counts.sum() == 0
    assert tally.unconditional_read_counts.sum() == 0
    # Without heralds only the interleaved fixed passes read anything.
    assert tally.n_reads.sum() == tally.n_uncond_reads.sum() == 2500


def test_fixed_mode_estimates_match_model():
    tally = run_trials(FIVE, quick_schedule(5), 400000, seed=42, readout=2)
    stats = estimate_statistics(tally)
    g2 = stats.g2_cell(2, 2)
    assert abs(g2.value - 11.431372549019606) < 3 * g2.stderr
    p_w = stats.p_w[2]
    assert abs(p_w - write_prob(FIVE)) < 3 * stats.p_w_err[2]
    # p(r|w) via the decomposition g2 * p_r.
    p_rw = stats.g2[2, 2] * stats.p_r[2]
    assert abs(p_rw - retrieval_given_write(FIVE)) < 4 * p_rw * (g2.stderr / g2.value)


def test_fixed_mode_estimates_match_model_no_suppression():
    mem = replace(FIVE, beta_ratio=1.0)
    tally = run_trials(mem, quick_schedule(5), 400000, seed=43, readout=2)
    g2 = estimate_statistics(tally).g2_cell(2, 2)
    assert abs(g2.value - 2.52) < 3 * g2.stderr


def test_feed_forward_diagonal_matches_model():
    tally = run_trials(FIVE, quick_schedule(5), 400000, seed=44, readout=FEED_FORWARD)
    stats = estimate_statistics(tally)
    model = cross_correlation(FIVE)
    for j in range(5):
        cell = stats.g2_cell(j, j)
        assert cell
        assert abs(cell.value - model) < 3.5 * cell.stderr


def test_feed_forward_diagonal_dominates():
    # Matched write-read pairs are strongly correlated; mismatched pairs
    # (collected through the fixed passes) sit near the uncorrelated level.
    tally = run_trials(FIVE, quick_schedule(5), 400000, seed=2, readout=FEED_FORWARD)
    stats = estimate_statistics(tally)
    diag = np.diag(stats.g2)
    off = stats.g2[~np.eye(5, dtype=bool)]
    off = off[np.isfinite(off)]
    assert off.size > 0
    assert diag.mean() > 3 * off.mean()


def test_read_accounting_per_policy():
    # Unconditional-pass and feed-forward reads partition the trials.
    tally = run_trials(FIVE, quick_schedule(5), 12288, seed=3, readout=FEED_FORWARD)
    assert tally.n_uncond_reads.sum() == 12288 // 2
    assert tally.n_reads.sum() <= 12288
    assert tally.n_reads.sum() >= 12288 // 2
    for readout in (CYCLE, 1):
        tally = run_trials(FIVE, quick_schedule(5), 12288, seed=3, readout=readout)
        assert tally.n_reads.sum() == 12288
        assert tally.n_uncond_reads.sum() == 12288


def test_tally_conservation():
    tally = run_trials(FIVE, quick_schedule(5), 100000, seed=4, readout=FEED_FORWARD)
    assert np.all(tally.read_counts <= tally.herald_reads)
    assert np.all(tally.herald_reads <= tally.write_counts[:, None])
    assert np.all(tally.herald_reads <= tally.n_reads[None, :])
    assert np.all(tally.uncond_coincidence_counts.diagonal()
                  <= tally.unconditional_read_counts)
    assert np.all(tally.split_ab <= np.minimum(tally.split_a, tally.split_b))
    assert np.all(tally.n_heralded_splits <= tally.n_reads)
    assert np.all(tally.write_counts <= tally.n_trials)


def test_same_seed_same_tally_different_seed_consistent():
    t1 = run_trials(FIVE, quick_schedule(5), 200000, seed=11, readout=1)
    t2 = run_trials(FIVE, quick_schedule(5), 200000, seed=11, readout=1)
    np.testing.assert_array_equal(t1.coincidence_counts, t2.coincidence_counts)
    t3 = run_trials(FIVE, quick_schedule(5), 200000, seed=12, readout=1)
    assert not np.array_equal(t1.coincidence_counts, t3.coincidence_counts)
    a = estimate_statistics(t1).g2_cell(1, 1)
    b = estimate_statistics(t3).g2_cell(1, 1)
    assert abs(a.value - b.value) < 3 * math.hypot(a.stderr, b.stderr)


def test_degenerate_tally_gives_unit_g2():
    n = 100
    tally = CountsTally.zeros(1)
    tally.n_trials = n
    tally.write_counts[:] = n
    tally.n_reads[:] = n
    tally.herald_reads[:] = n
    tally.coincidence_counts[:] = n
    tally.read_counts[:] = n
    tally.n_uncond_reads[:] = n
    tally.unconditional_read_counts[:] = n
    tally.uncond_coincidence_counts[:] = n
    stats = estimate_statistics(tally)
    assert stats.p_w[0] == 1.0
    assert stats.p_r[0] == 1.0
    assert stats.g2[0, 0] == pytest.approx(1.0)


def test_zero_coincidences_one_sided():
    tally = CountsTally.zeros(1)
    tally.n_trials = 1000
    tally.write_counts[:] = 100
    tally.n_reads[:] = 1000
    tally.herald_reads[:] = 100
    tally.n_uncond_reads[:] = 500
    tally.unconditional_read_counts[:] = 50
    stats = estimate_statistics(tally)
    assert stats.g2[0, 0] == 0.0
    assert stats.g2_err[0, 0] == pytest.approx((1 / 100) / 0.1)
    assert stats.g2_cell(0, 0)


def test_empty_cells_are_nan():
    tally = CountsTally.zeros(2)
    tally.n_trials = 10
    stats = estimate_statistics(tally)
    assert np.isnan(stats.p_r).all()
    assert np.isnan(stats.g2).all()
    assert not stats.g2_cell(0, 1)


def test_pairs_without_unconditional_photons_are_nan():
    tally = CountsTally.zeros(2)
    tally.n_trials = 100
    tally.herald_reads[0, 0] = 10
    tally.coincidence_counts[0, 0] = 3
    tally.n_uncond_reads[:] = 50
    stats = estimate_statistics(tally)
    assert stats.p_r[0] == 0.0
    assert np.isnan(stats.g2[0, 0]) and np.isnan(stats.g2_err[0, 0])


def test_autocorrelation_noise_free_is_zero():
    # Single retrieved photons never coincide across the splitter.
    mem = replace(FIVE, xi_eg=0.0)
    tally = run_trials(mem, quick_schedule(5), 200000, seed=21)
    est = heralded_autocorrelation(tally)
    assert est.value == 0.0
    assert est.stderr > 0.0


def test_autocorrelation_noise_only_is_thermal():
    # No retrieval at all: the read field is thermal, so g2_rr|w -> 2.
    # Mean photon number kept small so click thresholding stays unbiased.
    mem = MemoryParams(p=0.5, eta_w=1.0, eta_r=0.04, p_int0=0.0,
                       beta_ratio=1.0, xi_eg=1.0, n_modes=1, tau_mem=1.0)
    tally = run_trials(mem, quick_schedule(1), 2000000, seed=22)
    est = heralded_autocorrelation(tally)
    assert est.stderr < 0.3
    assert abs(est.value - 2.0) < 3 * est.stderr


def test_autocorrelation_no_data_is_nan():
    tally = CountsTally.zeros(1)
    tally.n_trials = 10
    est = heralded_autocorrelation(tally)
    assert math.isnan(est.value)
    assert not est


@pytest.mark.parametrize("mode", [-1, 2])
def test_autocorrelation_mode_out_of_range(mode):
    # Both modes have counts, so an empty slice would not be "no data".
    tally = CountsTally.zeros(2)
    tally.n_trials = 100
    tally.n_heralded_splits[:] = 20
    tally.split_a[:] = 5
    tally.split_b[:] = 4
    tally.split_ab[:] = 1
    assert heralded_autocorrelation(tally, 1)
    with pytest.raises(ValueError, match=f"mode {mode} out of range"):
        heralded_autocorrelation(tally, mode)


def test_crosstalk_matrix_structure():
    mem = replace(FIVE, n_modes=3)
    g2, g2_err = crosstalk_matrix(mem, quick_schedule(3), 150000, seed=31)
    assert g2.shape == (3, 3)
    diag = np.diag(g2)
    off = g2[~np.eye(3, dtype=bool)]
    assert diag.mean() > 5 * off.mean()
    model = cross_correlation(mem)
    for j in range(3):
        assert abs(g2[j, j] - model) < 4 * g2_err[j, j]


def test_crosstalk_single_mode_equals_g2():
    mem = replace(FIVE, n_modes=1)
    g2, g2_err = crosstalk_matrix(mem, quick_schedule(1), 200000, seed=32)
    assert g2.shape == (1, 1)
    assert abs(g2[0, 0] - cross_correlation(mem)) < 3 * g2_err[0, 0]


def test_coincidence_scaling_linear_without_noise_or_decay():
    mem = replace(FIVE, xi_eg=0.0, tau_mem=1.0)
    rows = coincidence_scaling(mem, [1, 4, 8], 800e-9, 266e-9,
                               gradient=2.0, drift_rate=0.0,
                               n_trials=300000, seed=41)
    n = rows[:, 0]
    p_wr = rows[:, 2]
    # Totals per train scale with the number of modes.
    ratio = p_wr / p_wr[0]
    stderr = 3.0 / np.sqrt(p_wr * 300000)  # generous Poisson band
    assert np.all(np.abs(ratio - n) <= n * stderr[0] + n * stderr)


def test_coincidence_scaling_single_mode_ratio_is_one():
    rows = coincidence_scaling(FIVE, [1], 800e-9, 266e-9,
                               gradient=2.0, drift_rate=0.0,
                               n_trials=50000, seed=42)
    assert rows.shape == (1, 3)
    assert rows[0, 0] == 1


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(FIVE, quick_schedule(4), 1000, seed=1)  # mode count mismatch
    with pytest.raises(ValueError):
        run_trials(FIVE, quick_schedule(5), 1000, seed=1,
                   retrieval_scale=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        run_trials(FIVE, quick_schedule(5), 1000, seed=1,
                   retrieval_scale=np.full(5, 1.5))
    with pytest.raises(ValueError):
        run_trials(FIVE, quick_schedule(5), 1000, seed=1, readout="sometimes")
    with pytest.raises(ValueError):
        run_trials(FIVE, quick_schedule(5), 1000, seed=1, readout=7)


def test_retrieval_scale_reduces_signal():
    scaled = run_trials(FIVE, quick_schedule(5), 200000, seed=51,
                        readout=2, retrieval_scale=np.full(5, 0.25))
    plain = run_trials(FIVE, quick_schedule(5), 200000, seed=51, readout=2)
    s = estimate_statistics(scaled)
    p = estimate_statistics(plain)
    assert s.g2[2, 2] < p.g2[2, 2]


# Per-field SHA-256 prefixes of CountsTally (every field as int64, in field
# order) recorded from the per-mode loop engine that the block-vectorized
# tally replaced.  10_000 trials end in a partial block; "dark" sets
# xi_eg = 0 (no background) and "scaled" passes a retrieval_scale.
PINNED = MemoryParams(p=0.1, eta_w=0.4, eta_r=0.5, p_int0=0.6,
                      beta_ratio=1.5, xi_eg=1.0, n_modes=1, tau_mem=20e-6)
PINNED_DIGESTS = {
    "ff-M1-plain": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 6e1d516c80fa0a27 600937f320e4c744 6d0d22a95af6226f 6d0d22a95af6226f f76343dc4d5d9507 0bcb6d9b00c110d1 563e0ed5fdceb76b 600937f320e4c744 1ff66ac9fef32032 72976ee8f1497b6b af5570f5a1810b7a",
    "ff-M1-dark": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 6e1d516c80fa0a27 600937f320e4c744 0e42616c28c6997d 0e42616c28c6997d f76343dc4d5d9507 aed3c321b44b5d5a 703d37e650ac5852 600937f320e4c744 12718c7c46ba1149 8e9bcd43f7a4b257 af5570f5a1810b7a",
    "ff-M1-scaled": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 6e1d516c80fa0a27 600937f320e4c744 3c88bf13b58cba9c 3c88bf13b58cba9c f76343dc4d5d9507 281f20a7574d48bb b0bd73e6922c0d24 600937f320e4c744 b0bd73e6922c0d24 a4bd89d0c3e16ec0 af5570f5a1810b7a",
    "ff-M7-plain": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c e048b369a94af001 a04315dd6fe35634 3bf7e17d4341576d 8b23c6fd9f1be01d 555635aae58dcac9 07f0c4bcaf8b6d56 04fdc10275c1c3c8 64ab245b84ddb253 88158bef781ba1e4 b3c06db5232eb08c dc3473945f76bd4d",
    "ff-M7-dark": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c e048b369a94af001 a04315dd6fe35634 806dfc7b6156878e 806dfc7b6156878e 555635aae58dcac9 4072907f480f5101 38c1806fb6b649b5 64ab245b84ddb253 0b348baabdd67892 f315291214b54710 d4817aa5497628e7",
    "ff-M7-scaled": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c e048b369a94af001 a04315dd6fe35634 01a7373010bcae01 5eb84442e18b87b2 555635aae58dcac9 db40535ff5d8309c 43a485da298e4191 64ab245b84ddb253 b719c283fadbd010 006ce09f9acec48e 38f357db0cb069b6",
    "cycle-M1-plain": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 6d0d22a95af6226f 6d0d22a95af6226f 8e965763e6a4bbc1 628df983c2ff87a3 6d0d22a95af6226f 600937f320e4c744 8250ab532e40d24a 0cbbab9d99fb661a af5570f5a1810b7a",
    "cycle-M1-dark": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 0e42616c28c6997d 0e42616c28c6997d 8e965763e6a4bbc1 d82c5cdaa27e7d17 0e42616c28c6997d 600937f320e4c744 12718c7c46ba1149 8e9bcd43f7a4b257 af5570f5a1810b7a",
    "cycle-M1-scaled": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 3c88bf13b58cba9c 3c88bf13b58cba9c 8e965763e6a4bbc1 68009628bdda0a4a 3c88bf13b58cba9c 600937f320e4c744 e48d939f60d90eb5 a111f275cc2e7588 af5570f5a1810b7a",
    "cycle-M7-plain": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 7ae8aeb00bdd1cba 0cb429468986928f 2ba5314ea2306e8d b80d4f9309b6b241 7ae8aeb00bdd1cba d192272389c80a49 2ba5314ea2306e8d 0092f4c87e1f75bb 0d69af0900436af8 7dcb308acf13fa80 a63e2ef983551b55",
    "cycle-M7-dark": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 7ae8aeb00bdd1cba 0cb429468986928f 2bf9eb3dafb68f68 2bf9eb3dafb68f68 7ae8aeb00bdd1cba fb26da941fec6932 2bf9eb3dafb68f68 0092f4c87e1f75bb 67636d07582117b2 ec0527b789831d99 d4817aa5497628e7",
    "cycle-M7-scaled": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 7ae8aeb00bdd1cba 0cb429468986928f 51d7d43b8b3b00e0 6737fb6d08b0b4b4 7ae8aeb00bdd1cba d7e879fb7e764d5b 51d7d43b8b3b00e0 0092f4c87e1f75bb 8d74d1255dd7c40b 3ad163fee3e70d69 0f46fc7eaf690301",
    "last-M1-plain": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 6d0d22a95af6226f 6d0d22a95af6226f 8e965763e6a4bbc1 628df983c2ff87a3 6d0d22a95af6226f 600937f320e4c744 8250ab532e40d24a 0cbbab9d99fb661a af5570f5a1810b7a",
    "last-M1-dark": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 0e42616c28c6997d 0e42616c28c6997d 8e965763e6a4bbc1 d82c5cdaa27e7d17 0e42616c28c6997d 600937f320e4c744 12718c7c46ba1149 8e9bcd43f7a4b257 af5570f5a1810b7a",
    "last-M1-scaled": "8e965763e6a4bbc1 7c9fa136d4413fa6 600937f320e4c744 8e965763e6a4bbc1 600937f320e4c744 3c88bf13b58cba9c 3c88bf13b58cba9c 8e965763e6a4bbc1 68009628bdda0a4a 3c88bf13b58cba9c 600937f320e4c744 e48d939f60d90eb5 a111f275cc2e7588 af5570f5a1810b7a",
    "last-M7-plain": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 9f4c83bb5a3b685b 6735004c22af1c13 eea0ba0614e7e88a 0ce1b9f244ad610f 9f4c83bb5a3b685b 1522e99c5f8d9270 eea0ba0614e7e88a af1283ca8995b0b8 fde4818cf038d95d 22f350f6b73efd5f 6a5472aeef70a15c",
    "last-M7-dark": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 9f4c83bb5a3b685b 6735004c22af1c13 0409e8dc76dffdce 0409e8dc76dffdce 9f4c83bb5a3b685b ddf7113b1ed8a38a 0409e8dc76dffdce af1283ca8995b0b8 f2d130162ebbc247 f2d130162ebbc247 d4817aa5497628e7",
    "last-M7-scaled": "8e965763e6a4bbc1 aae89fc0f03e2959 437191db1c85463c 9f4c83bb5a3b685b 6735004c22af1c13 3295f0b21260b3c5 f5a0e9ab5e0df4f6 9f4c83bb5a3b685b f63bda1aedb63cf9 3295f0b21260b3c5 af1283ca8995b0b8 043108a8c40d8c96 31e6f2901890b34b c5a48efd5a0a8574",
}


def tally_field_digests(tally):
    return " ".join(
        hashlib.sha256(np.asarray(getattr(tally, f.name), dtype=np.int64).tobytes())
        .hexdigest()[:16]
        for f in dataclasses.fields(CountsTally))


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_tally_digests_pinned(case):
    readout, modes, variant = case.split("-")
    m = int(modes[1:])
    mem = replace(PINNED, n_modes=m, xi_eg=0.0 if variant == "dark" else 1.0)
    scale = np.linspace(0.3, 0.9, m) if variant == "scaled" else None
    readout = {"ff": FEED_FORWARD, "cycle": CYCLE, "last": m - 1}[readout]
    tally = run_trials(mem, quick_schedule(m), 10_000, seed=2020,
                       readout=readout, retrieval_scale=scale)
    names = [f.name for f in dataclasses.fields(CountsTally)]
    got = dict(zip(names, tally_field_digests(tally).split()))
    want = dict(zip(names, PINNED_DIGESTS[case].split()))
    assert got == want


@st.composite
def tallies(draw, n_modes, max_count=10**6):
    counts = lambda shape: draw(hnp.arrays(np.int64, shape,
                                           elements=st.integers(0, max_count)))
    values = {"n_trials": draw(st.integers(0, max_count)), "n_modes": n_modes}
    for f in dataclasses.fields(CountsTally)[2:]:
        values[f.name] = counts(getattr(CountsTally.zeros(n_modes), f.name).shape)
    return CountsTally(**values)


def assert_tallies_equal(a, b):
    for f in dataclasses.fields(CountsTally):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                      err_msg=f.name)


# Counts up to 3 make zero singles, zero pairs and empty cells common.
small_tallies = st.integers(1, 4).flatmap(lambda m: tallies(m, max_count=3))


@settings(max_examples=200, deadline=None)
@given(small_tallies)
def test_g2_never_infinite(tally):
    stats = estimate_statistics(tally)
    assert not np.isinf(stats.g2).any()
    assert not np.isinf(stats.g2_err).any()


@settings(max_examples=200, deadline=None)
@given(small_tallies)
def test_zero_pair_cells_one_sided(tally):
    stats = estimate_statistics(tally)
    p_r = np.broadcast_to(stats.p_r, tally.herald_reads.shape)
    zero = (tally.coincidence_counts == 0) & (tally.herald_reads > 0) & (p_r > 0)
    assert np.all(stats.g2[zero] == 0.0)
    np.testing.assert_array_equal(stats.g2_err[zero],
                                  (1.0 / tally.herald_reads[zero]) / p_r[zero])


@settings(max_examples=200, deadline=None)
@given(small_tallies, st.data())
def test_autocorrelation_nan_exactly_without_counts(tally, data):
    mode = data.draw(st.one_of(st.none(), st.integers(0, tally.n_modes - 1)))
    sl = slice(None) if mode is None else slice(mode, mode + 1)
    empty = min(tally.split_a[sl].sum(), tally.split_b[sl].sum(),
                tally.n_heralded_splits[sl].sum()) == 0
    est = heralded_autocorrelation(tally, mode)
    assert math.isnan(est.value) == empty
    assert math.isnan(est.stderr) == empty


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 8), n_trials=st.integers(1, 9000), seed=st.integers(0, 2**32),
       readout=st.sampled_from([FEED_FORWARD, CYCLE, "fixed"]), data=st.data())
def test_tally_conservation_random(m, n_trials, seed, readout, data):
    if readout == "fixed":
        readout = data.draw(st.integers(0, m - 1))
    tally = run_trials(replace(PINNED, n_modes=m), quick_schedule(m), n_trials,
                       seed, readout=readout)
    assert tally.n_trials == n_trials
    assert np.all(tally.read_counts <= tally.herald_reads)
    assert np.all(tally.herald_reads <= tally.write_counts[:, None])
    assert np.all(tally.herald_reads <= tally.n_reads[None, :])
    assert np.all(tally.uncond_coincidence_counts.diagonal()
                  <= tally.unconditional_read_counts)
    assert np.all(tally.split_ab <= np.minimum(tally.split_a, tally.split_b))
    assert np.all(np.maximum(tally.split_a, tally.split_b) <= tally.n_heralded_splits)
    np.testing.assert_array_equal(tally.n_heralded_splits, tally.herald_reads.diagonal())
    assert np.all(tally.n_heralded_splits <= tally.n_reads)
    assert np.all(tally.write_counts <= tally.n_trials)
    if readout == FEED_FORWARD:
        assert tally.n_uncond_reads.sum() == n_trials // 2
    else:
        assert tally.n_reads.sum() == tally.n_uncond_reads.sum() == n_trials


def test_herald_reads_may_exceed_reads_summed_over_heralds():
    # One feed-forward trial with write clicks in modes 1 and 3 reads mode 1:
    # both herald_reads[1, 1] and herald_reads[3, 1] count it, so a column of
    # herald_reads can sum past n_reads while every cell stays within it.
    tally = run_trials(replace(PINNED, n_modes=4), quick_schedule(4), 1, 2149888,
                       readout=FEED_FORWARD)
    np.testing.assert_array_equal(tally.n_reads, [0, 1, 0, 0])
    np.testing.assert_array_equal(tally.herald_reads[:, 1], [0, 1, 0, 1])
    assert np.all(tally.herald_reads <= tally.n_reads[None, :])


def loop_run_trials(mem, schedule, n_trials, seed, readout, retrieval_scale=None):
    """Reference engine: the same draws as run_trials, tallied mode by mode."""
    m = mem.n_modes
    scale = np.ones(m) if retrieval_scale is None else np.asarray(retrieval_scale, float)
    pint_t = mem.p_int(schedule.storage_times)
    nbar = mem.p * (m - pint_t) * mem.xi_eg / mem.beta_ratio * mem.eta_r
    p_coh = pint_t * scale * mem.eta_r
    total = CountsTally.zeros(m)
    for b in range(-(-n_trials // BLOCK_SIZE)):
        start = b * BLOCK_SIZE
        size = min(BLOCK_SIZE, n_trials - start)
        rng = _block_rng(seed, b)
        idx = start + np.arange(size)
        spin = rng.random((size, m)) < mem.p
        write = spin & (rng.random((size, m)) < mem.eta_w)
        if readout == FEED_FORWARD:
            read_mode = np.full(size, -1, dtype=np.int64)
            uncond = idx % 2 == 1
            read_mode[uncond] = (idx[uncond] // 2) % m
            sel = ~uncond & write.any(axis=1)
            read_mode[sel] = write.argmax(axis=1)[sel]
        else:
            read_mode = idx % m if readout == CYCLE else np.full(size, readout)
            uncond = np.ones(size, dtype=bool)
        u_coh = rng.random(size)
        u_geom = rng.random(size)
        n_photons = np.zeros(size, dtype=np.int64)
        for r in range(m):
            sel = read_mode == r
            coh = spin[sel, r] & (u_coh[sel] < p_coh[r])
            noise = np.zeros(sel.sum(), dtype=np.int64)
            if nbar[r] > 0:
                q = 1.0 / (1.0 + nbar[r])
                noise = np.floor(np.log1p(-u_geom[sel]) / math.log1p(-q)).astype(np.int64)
            n_photons[sel] = coh + noise
        n_a = rng.binomial(n_photons, 0.5)
        n_b = n_photons - n_a
        total.n_trials += size
        total.write_counts += write.sum(axis=0)
        for r in range(m):
            sel = read_mode == r
            w_sel = write[sel].astype(np.int64)
            ph = n_photons[sel]
            us = uncond[sel]
            her = w_sel[:, r].astype(bool)
            total.n_reads[r] += sel.sum()
            total.herald_reads[:, r] += w_sel.sum(axis=0)
            total.coincidence_counts[:, r] += w_sel.T @ ph
            total.read_counts[:, r] += w_sel.T @ (ph > 0)
            total.n_uncond_reads[r] += us.sum()
            total.unconditional_read_counts[r] += ph[us].sum()
            total.uncond_coincidence_counts[:, r] += w_sel[us].T @ ph[us]
            total.n_heralded_splits[r] += her.sum()
            total.split_a[r] += ((n_a[sel] > 0) & her).sum()
            total.split_b[r] += ((n_b[sel] > 0) & her).sum()
            total.split_ab[r] += ((n_a[sel] > 0) & (n_b[sel] > 0) & her).sum()
    return total


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), n_trials=st.integers(1, 9000), seed=st.integers(0, 2**32),
       readout=st.sampled_from([FEED_FORWARD, CYCLE, "fixed"]),
       xi_eg=st.sampled_from([0.0, 1.0]), scaled=st.booleans(), data=st.data())
def test_vectorized_tally_equals_loop_reference(m, n_trials, seed, readout, xi_eg,
                                                scaled, data):
    if readout == "fixed":
        readout = data.draw(st.integers(0, m - 1))
    mem = replace(PINNED, n_modes=m, xi_eg=xi_eg)
    scale = np.linspace(0.2, 1.0, m) if scaled else None
    schedule = quick_schedule(m)
    assert_tallies_equal(
        run_trials(mem, schedule, n_trials, seed, readout=readout, retrieval_scale=scale),
        loop_run_trials(mem, schedule, n_trials, seed, readout, retrieval_scale=scale))
