"""Trial engine, tallies, and correlation estimators."""

import dataclasses
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from muxmem import _streams, protocol
from muxmem._streams import block_keys
from muxmem.ensemble import FieldTimeline, collective_efficiency, sample_ensemble
from muxmem.model import MemoryParams, cross_correlation, retrieval_given_write, write_prob
from muxmem.protocol import (
    BLOCK_SIZE,
    CYCLE,
    FEED_FORWARD,
    CountsTally,
    ModeSchedule,
    TallyStatistics,
    build_schedule,
    coincidence_scaling,
    crosstalk_matrix,
    estimate_statistics,
    heralded_autocorrelation,
    run_trials,
    run_train,
    _DRAW_CHUNK,
    _PASS_CELLS,
    _background,
    _draw_below,
    _pass_blocks,
)

from conftest import child_env, reversal_schedule

FIVE = MemoryParams(p=0.05, eta_w=0.3, eta_r=0.25, p_int0=0.4,
                    beta_ratio=14.0, xi_eg=1.0, n_modes=5, tau_mem=1.0)


def test_build_schedule_single_mode():
    timeline = FieldTimeline.reversal(2.0, 1.2e-6)
    schedule = build_schedule(1, 800e-9, 266e-9, timeline)
    assert schedule.write_times[0] == 0.0
    assert schedule.readout_times[0] == pytest.approx(2.4e-6, abs=1e-12)
    assert schedule.storage_times[0] == pytest.approx(2.4e-6, abs=1e-12)


def test_build_schedule_readout_order_reversed():
    # Last written rephases first: readout times decrease with write index.
    schedule = reversal_schedule(6)
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


def test_array_holders_compare_by_identity():
    # A field-wise == would compare arrays and raise; these compare and hash
    # by identity, so two equal multi-mode schedules are distinct objects.
    a, b = reversal_schedule(2), reversal_schedule(2)
    np.testing.assert_array_equal(a.readout_times, b.readout_times)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    tally = CountsTally.zeros(2)
    tally.n_trials = 10
    stats = estimate_statistics(tally)
    for obj in (tally, stats):
        assert obj == obj and obj != CountsTally.zeros(2)
        assert hash(obj) == hash(obj)


def test_run_trials_zero_excitation():
    mem = replace(FIVE, p=0.0)
    tally = run_trials(mem, reversal_schedule(5), 5000, seed=1)
    assert tally.n_trials == 5000
    assert tally.write_counts.sum() == 0
    assert tally.coincidence_counts.sum() == 0
    assert tally.unconditional_read_counts.sum() == 0
    # Without heralds only the interleaved fixed passes read anything.
    assert tally.n_reads.sum() == tally.n_uncond_reads.sum() == 2500


def test_fixed_mode_estimates_match_model():
    tally = run_trials(FIVE, reversal_schedule(5), 400000, seed=42, readout=2)
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
    tally = run_trials(mem, reversal_schedule(5), 400000, seed=43, readout=2)
    g2 = estimate_statistics(tally).g2_cell(2, 2)
    assert abs(g2.value - 2.52) < 3 * g2.stderr


def test_feed_forward_diagonal_matches_model():
    tally = run_trials(FIVE, reversal_schedule(5), 400000, seed=44, readout=FEED_FORWARD)
    stats = estimate_statistics(tally)
    model = cross_correlation(FIVE)
    for j in range(5):
        cell = stats.g2_cell(j, j)
        assert not math.isnan(cell.value)
        assert abs(cell.value - model) < 3.5 * cell.stderr


def test_feed_forward_diagonal_dominates():
    # Matched write-read pairs are strongly correlated; mismatched pairs
    # (collected through the fixed passes) sit near the uncorrelated level.
    tally = run_trials(FIVE, reversal_schedule(5), 400000, seed=2, readout=FEED_FORWARD)
    stats = estimate_statistics(tally)
    diag = np.diag(stats.g2)
    off = stats.g2[~np.eye(5, dtype=bool)]
    off = off[np.isfinite(off)]
    assert off.size > 0
    assert diag.mean() > 3 * off.mean()


def test_read_accounting_per_policy():
    # Unconditional-pass and feed-forward reads partition the trials.
    tally = run_trials(FIVE, reversal_schedule(5), 12288, seed=3, readout=FEED_FORWARD)
    assert tally.n_uncond_reads.sum() == 12288 // 2
    assert tally.n_reads.sum() <= 12288
    assert tally.n_reads.sum() >= 12288 // 2
    for readout in (CYCLE, 1):
        tally = run_trials(FIVE, reversal_schedule(5), 12288, seed=3, readout=readout)
        assert tally.n_reads.sum() == 12288
        assert tally.n_uncond_reads.sum() == 12288


def test_tally_conservation():
    tally = run_trials(FIVE, reversal_schedule(5), 100000, seed=4, readout=FEED_FORWARD)
    assert np.all(tally.read_counts <= tally.herald_reads)
    assert np.all(tally.herald_reads <= tally.write_counts[:, None])
    assert np.all(tally.herald_reads <= tally.n_reads[None, :])
    assert np.all(tally.uncond_coincidence_counts.diagonal()
                  <= tally.unconditional_read_counts)
    assert np.all(tally.split_ab <= np.minimum(tally.split_a, tally.split_b))
    assert np.all(tally.n_heralded_splits <= tally.n_reads)
    assert np.all(tally.write_counts <= tally.n_trials)


def test_same_seed_same_tally_different_seed_consistent():
    t1 = run_trials(FIVE, reversal_schedule(5), 200000, seed=11, readout=1)
    t2 = run_trials(FIVE, reversal_schedule(5), 200000, seed=11, readout=1)
    np.testing.assert_array_equal(t1.coincidence_counts, t2.coincidence_counts)
    t3 = run_trials(FIVE, reversal_schedule(5), 200000, seed=12, readout=1)
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
    assert not math.isnan(stats.g2_cell(0, 0).value)


def test_empty_cells_are_nan():
    tally = CountsTally.zeros(2)
    tally.n_trials = 10
    stats = estimate_statistics(tally)
    assert np.isnan(stats.p_r).all()
    assert np.isnan(stats.g2).all()
    assert math.isnan(stats.g2_cell(0, 1).value)


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
    tally = run_trials(mem, reversal_schedule(5), 200000, seed=21)
    est = heralded_autocorrelation(tally)
    assert est.value == 0.0
    assert est.stderr > 0.0


def test_autocorrelation_noise_only_is_thermal():
    # No retrieval at all: the read field is thermal, so g2_rr|w -> 2.
    # Mean photon number kept small so click thresholding stays unbiased.
    mem = MemoryParams(p=0.5, eta_w=1.0, eta_r=0.04, p_int0=0.0,
                       beta_ratio=1.0, xi_eg=1.0, n_modes=1, tau_mem=1.0)
    tally = run_trials(mem, reversal_schedule(1), 2000000, seed=22)
    est = heralded_autocorrelation(tally)
    assert est.stderr < 0.3
    assert abs(est.value - 2.0) < 3 * est.stderr


def test_autocorrelation_no_data_is_nan():
    tally = CountsTally.zeros(1)
    tally.n_trials = 10
    est = heralded_autocorrelation(tally)
    assert math.isnan(est.value)


def test_crosstalk_matrix_structure():
    mem = replace(FIVE, n_modes=3)
    g2, g2_err = crosstalk_matrix(mem, reversal_schedule(3), 150000, seed=31)
    assert g2.shape == (3, 3)
    diag = np.diag(g2)
    off = g2[~np.eye(3, dtype=bool)]
    assert diag.mean() > 5 * off.mean()
    model = cross_correlation(mem)
    for j in range(3):
        assert abs(g2[j, j] - model) < 4 * g2_err[j, j]


def test_crosstalk_single_mode_equals_g2():
    mem = replace(FIVE, n_modes=1)
    g2, g2_err = crosstalk_matrix(mem, reversal_schedule(1), 200000, seed=32)
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


def test_run_train_is_a_cycled_run_with_echo_deficits():
    # Readouts programmed from the drift-free reversal, applied field drifting:
    # the deficits span 0.2 to 1, so a wrong or missing scale shows.
    m = 4
    schedule = reversal_schedule(m)
    applied = FieldTimeline.reversal(2.0, 3 * 800e-9 + 266e-9, drift_rate=1e5)
    ens = sample_ensemble(2000, 1e-3, 0.0, seed=9)
    p_w_total, p_wr_total, stats = run_train(FIVE, schedule, applied, 20000, 5, ens)

    scale = np.clip([collective_efficiency(ens, applied, tw, tr)
                     for tw, tr in zip(schedule.write_times, schedule.readout_times)],
                    0.0, 1.0)
    assert scale.min() < 0.5
    tally = run_trials(replace(FIVE, n_modes=m), schedule, 20000, protocol._child_seed(5, m),
                       readout=CYCLE, retrieval_scale=scale)
    want = estimate_statistics(tally)
    assert p_w_total == tally.write_counts.sum() / tally.n_trials
    assert p_wr_total == np.nansum(np.diag(want.p_wr))
    for f in dataclasses.fields(TallyStatistics):
        np.testing.assert_array_equal(getattr(stats, f.name), getattr(want, f.name),
                                      err_msg=f.name)


def test_drifting_train_without_ensemble_raises():
    applied = FieldTimeline.reversal(2.0, 800e-9 + 266e-9, drift_rate=2e4)
    with mock.patch.object(protocol, "run_trials") as engine:
        with pytest.raises(ValueError, match="ensemble"):
            run_train(FIVE, reversal_schedule(2), applied, 1000, 1)
        with pytest.raises(ValueError, match="ensemble"):
            coincidence_scaling(FIVE, [1, 2], 800e-9, 266e-9, gradient=2.0,
                                drift_rate=2e4, n_trials=1000, seed=1)
    engine.assert_not_called()


def test_run_trials_validation():
    with pytest.raises(ValueError):
        run_trials(FIVE, reversal_schedule(4), 1000, seed=1)  # mode count mismatch
    with pytest.raises(ValueError):
        run_trials(FIVE, reversal_schedule(5), 1000, seed=1,
                   retrieval_scale=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        run_trials(FIVE, reversal_schedule(5), 1000, seed=1,
                   retrieval_scale=np.full(5, 1.5))
    with pytest.raises(ValueError):
        run_trials(FIVE, reversal_schedule(5), 1000, seed=1, readout="sometimes")
    with pytest.raises(ValueError):
        run_trials(FIVE, reversal_schedule(5), 1000, seed=1, readout=7)


@pytest.mark.parametrize("name, bad", [("readout", 2.7), ("readout", True),
                                       ("readout", "1"), ("n_trials", 1000.5),
                                       ("n_trials", True)])
def test_run_trials_rejects_non_integers(name, bad):
    # A float mode would read its floor, and True or "1" mode 1, without this.
    args = {"n_trials": 1000, "seed": 1, "readout": 0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        run_trials(FIVE, reversal_schedule(5), **args)


@pytest.mark.parametrize("call, message", [
    (lambda: run_trials(replace(FIVE, n_modes=3), reversal_schedule(2), 1000, seed=1),
     "schedule has 2 modes but params expect 3"),
    (lambda: run_trials(FIVE, reversal_schedule(5), 0, seed=1), "n_trials must be >= 1"),
    (lambda: build_schedule(1, 800e-9, 266e-9,
                            FieldTimeline(((0.0, 2.0), (1e-6, -2.0), (5e-6, 2.0)))),
     "schedule is inconsistent: a readout falls before the final gradient step"),
], ids=["mode-mismatch", "no-trials", "readout-before-final-step"])
def test_engine_rejects_inconsistent_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_trial_count_bounded_before_any_draw():
    # Block keys take block indices below 2**32, so at most 2**44 trials;
    # a larger count fails before any key, array or thread is made.
    with mock.patch.object(protocol, "block_keys", side_effect=AssertionError("drew")), \
            mock.patch.object(protocol, "run_workers", side_effect=AssertionError("started")):
        with pytest.raises(ValueError, match=r"^n_trials must be <= 2\*\*44"):
            run_trials(FIVE, reversal_schedule(5), 2 ** 44 + 1, seed=1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 200),
       blocks=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6))
@example(seed=0, blocks=[0, 1, 2 ** 32 - 1])
@example(seed=2 ** 128 - 1, blocks=[7])   # four seed words: the pool is full
@example(seed=2 ** 128, blocks=[7])       # five: one word mixed in after the pool
@example(seed=2 ** 200, blocks=[2 ** 32 - 1])
def test_block_keys_equal_seed_sequence(seed, blocks):
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(b,)).generate_state(2, np.uint64)
            for b in blocks]
    np.testing.assert_array_equal(block_keys(seed, blocks), want)


def test_run_trials_takes_numpy_integers():
    schedule = reversal_schedule(5)
    assert_tallies_equal(
        run_trials(FIVE, schedule, np.int64(1000), seed=1, readout=np.int64(2)),
        run_trials(FIVE, schedule, 1000, seed=1, readout=2))


def test_run_trials_takes_numpy_integer_seed():
    schedule = reversal_schedule(5)
    assert_tallies_equal(run_trials(FIVE, schedule, 1000, seed=np.int64(7)),
                         run_trials(FIVE, schedule, 1000, seed=7))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_retrieval_scale_rejects_non_finite(bad):
    # NaN fails both range comparisons, so it must be rejected explicitly
    for mode in (0, 4):
        scale = np.ones(5)
        scale[mode] = bad
        with pytest.raises(ValueError, match="retrieval_scale"):
            run_trials(FIVE, reversal_schedule(5), 1000, seed=1, retrieval_scale=scale)


def test_retrieval_scale_reduces_signal():
    scaled = run_trials(FIVE, reversal_schedule(5), 200000, seed=51,
                        readout=2, retrieval_scale=np.full(5, 0.25))
    plain = run_trials(FIVE, reversal_schedule(5), 200000, seed=51, readout=2)
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
    tally = run_trials(mem, reversal_schedule(m), 10_000, seed=2020,
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
@given(small_tallies)
def test_autocorrelation_nan_exactly_without_counts(tally):
    empty = min(tally.split_a.sum(), tally.split_b.sum(),
                tally.n_heralded_splits.sum()) == 0
    est = heralded_autocorrelation(tally)
    assert math.isnan(est.value) == empty
    assert math.isnan(est.stderr) == empty


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 8), n_trials=st.integers(1, 9000), seed=st.integers(0, 2**32),
       readout=st.sampled_from([FEED_FORWARD, CYCLE, "fixed"]), data=st.data())
def test_tally_conservation_random(m, n_trials, seed, readout, data):
    if readout == "fixed":
        readout = data.draw(st.integers(0, m - 1))
    tally = run_trials(replace(PINNED, n_modes=m), reversal_schedule(m), n_trials,
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
    tally = run_trials(replace(PINNED, n_modes=4), reversal_schedule(4), 1, 2149888,
                       readout=FEED_FORWARD)
    np.testing.assert_array_equal(tally.n_reads, [0, 1, 0, 0])
    np.testing.assert_array_equal(tally.herald_reads[:, 1], [0, 1, 0, 1])
    assert np.all(tally.herald_reads <= tally.n_reads[None, :])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), size=st.integers(1, 3 * _DRAW_CHUNK),
       m=st.integers(1, 6), pick=st.integers(0, 2**32))
def test_word_bound_draw_equals_uniform_draw(seed, size, m, pick):
    # q_k = k·2⁻⁵³ with k = w >> 11 of one of the words the draw will see
    # puts q exactly on that word's uniform.  A word with its low 11 bits
    # zero, if the draw sees one, equals the integer bound there, where
    # ``<=`` in place of ``<`` would flip its value.  Sizes past the chunk
    # cross chunk boundaries mid-row.
    shape = (-(-size // m), m)
    words = np.random.Philox(seed).random_raw(shape[0] * m)
    on_bound = np.flatnonzero(words % 2048 == 0)
    pool = on_bound if on_bound.size else np.arange(words.size)
    q_k = float(words[pool[pick % pool.size]] >> 11) * 2.0 ** -53
    for q in (0.0, 5e-324, q_k, float(np.nextafter(q_k, 2.0)), 0.045, 0.3,
              1.0 - 2.0 ** -53, 1.0):
        got = np.random.Generator(np.random.Philox(seed))
        ref = np.random.Generator(np.random.Philox(seed))
        out = np.empty(shape, dtype=bool)
        _draw_below(got, q, out)
        np.testing.assert_array_equal(out, ref.random(shape) < q)
        # One word per value: the stream goes on where ``random`` leaves it.
        assert got.random(3).tolist() == ref.random(3).tolist()
        n = [0, 1, 7, 40]
        np.testing.assert_array_equal(got.binomial(n, 0.5), ref.binomial(n, 0.5))


NBARS = (0.0, 1e-12, 1e-3, 0.2, 5.0, 1e6)


def test_background_candidates_equal_dense_rule():
    # Mode j has background mean NBARS[j].  Its uniforms sit on both sides
    # of the candidate bound thr = q·(1 − 10⁻⁹) and of q, where the dense
    # rule first gives a photon, then 10⁴ random values; u = 1 is no draw.
    q = 1.0 / (1.0 + np.array(NBARS))
    log_q = np.array([math.log1p(-qj) if n > 0 else -math.inf for qj, n in zip(q, NBARS)])
    rng = np.random.default_rng(8)
    us, rs = [], []
    for j, qj in enumerate(q):
        thr = qj * (1.0 - 1e-9)
        edges = [0.0, thr, np.nextafter(thr, -1.0), np.nextafter(thr, 2.0), qj,
                 np.nextafter(qj, -1.0), np.nextafter(qj, 2.0), 1.0 - 2.0 ** -53]
        u = np.concatenate([[e for e in edges if e < 1.0], rng.random(10 ** 4)])
        us.append(u)
        rs.append(np.full(u.size, j))
    u, r = np.concatenate(us), np.concatenate(rs)
    dense = np.floor(np.log1p(-u) / log_q[r]).astype(np.int64)
    np.testing.assert_array_equal(_background(u, r, q, log_q), dense)
    # The edge is exercised: u = q is the first value with a photon.
    at_q = u == q[r]
    assert at_q.sum() == 5 and np.all(dense[at_q] == 1)
    assert dense.max() > 10 ** 6


def loop_run_trials(mem, schedule, n_trials, seed, readout, retrieval_scale=None):
    """Reference engine: the same draws as run_trials, tallied mode by mode.

    Each block's generator is built from its own ``SeedSequence``, not from the
    keys ``run_trials`` derives, so the reference does not share that code.
    """
    m = mem.n_modes
    scale = np.ones(m) if retrieval_scale is None else np.asarray(retrieval_scale, float)
    pint_t = mem.p_int(schedule.storage_times)
    nbar = mem.p * (m - pint_t) * mem.xi_eg / mem.beta_ratio * mem.eta_r
    p_coh = pint_t * scale * mem.eta_r
    total = CountsTally.zeros(m)
    for b in range(-(-n_trials // BLOCK_SIZE)):
        start = b * BLOCK_SIZE
        size = min(BLOCK_SIZE, n_trials - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.Philox(ss))
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


# Background regimes: none, weak, and multi-photon (a mean of 2 to 5
# photons per read at M >= 3), where most trials are background candidates.
BACKGROUNDS = (dict(xi_eg=0.0), dict(xi_eg=1.0), dict(p=0.9, beta_ratio=1.0, eta_r=1.0))


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), n_trials=st.integers(1, 9000), seed=st.integers(0, 2**32),
       readout=st.sampled_from([FEED_FORWARD, CYCLE, "fixed"]),
       background=st.sampled_from(BACKGROUNDS), scaled=st.booleans(), data=st.data())
def test_vectorized_tally_equals_loop_reference(m, n_trials, seed, readout, background,
                                                scaled, data):
    if readout == "fixed":
        readout = data.draw(st.integers(0, m - 1))
    mem = replace(PINNED, n_modes=m, **background)
    scale = np.linspace(0.2, 1.0, m) if scaled else None
    schedule = reversal_schedule(m)
    assert_tallies_equal(
        run_trials(mem, schedule, n_trials, seed, readout=readout, retrieval_scale=scale),
        loop_run_trials(mem, schedule, n_trials, seed, readout, retrieval_scale=scale))


@pytest.mark.parametrize("variant", ["plain", "dark", "scaled"])
@pytest.mark.parametrize("readout", [FEED_FORWARD, CYCLE, "last"])
@pytest.mark.parametrize("m", [3, 7])
def test_multi_block_tally_equals_loop_reference(m, readout, variant):
    # Six blocks, the last of 3 trials (an odd row count), so the cycled and
    # feed-forward read patterns start mid-cycle: 4096·b and 2048·b are not
    # multiples of m for b = 1, 2, 4, 5.
    n_trials = 5 * BLOCK_SIZE + 3
    readout = m - 1 if readout == "last" else readout
    mem = replace(PINNED, n_modes=m, xi_eg=0.0 if variant == "dark" else 1.0)
    scale = np.linspace(0.3, 0.9, m) if variant == "scaled" else None
    schedule = reversal_schedule(m)
    got = run_trials(mem, schedule, n_trials, 2021, readout=readout, retrieval_scale=scale)
    assert_tallies_equal(
        got, loop_run_trials(mem, schedule, n_trials, 2021, readout, retrieval_scale=scale))
    if readout != FEED_FORWARD:
        np.testing.assert_array_equal(got.n_uncond_reads, got.n_reads)
        np.testing.assert_array_equal(got.uncond_coincidence_counts, got.coincidence_counts)


def test_pass_size_bounded_at_every_mode_count():
    # Several blocks share a pass only while their (trial, mode) cells fit
    # _PASS_CELLS; at most four, so the (2, rows) float uniforms never
    # outgrow one raw-word chunk.  From M = 17 a pass is one block.
    for m in range(1, 101):
        k = _pass_blocks(m)
        assert 1 <= k <= 4
        assert k == 1 or k * BLOCK_SIZE * m <= _PASS_CELLS
        assert 2 * k * BLOCK_SIZE <= _DRAW_CHUNK
    assert [_pass_blocks(m) for m in (1, 8, 9, 10, 16, 17, 100)] == [4, 4, 3, 3, 2, 1, 1]


# Six blocks, the last of 3 trials, at M = 6: pass starts 4096·b and
# 2048·b are not multiples of 6 for b = 1, 2, 4, 5, so the cycled and
# feed-forward read patterns start mid-cycle.  "dark" has no background and
# so few excitations that blocks 2, 4 and 5 of the cycled run hold no
# photon, so their splitter slices are empty.
LAYOUT_TRIALS = 5 * BLOCK_SIZE + 3
LAYOUT_MEMS = {"plain": replace(PINNED, n_modes=6),
               "dark": replace(PINNED, n_modes=6, xi_eg=0.0, p=0.002)}


@functools.lru_cache(maxsize=None)
def layout_reference(readout, variant):
    return loop_run_trials(LAYOUT_MEMS[variant], reversal_schedule(6), LAYOUT_TRIALS,
                           2021, readout)


def test_dark_layout_has_blocks_without_photons():
    ends = [BLOCK_SIZE * k for k in range(1, 6)] + [LAYOUT_TRIALS]
    photons = [loop_run_trials(LAYOUT_MEMS["dark"], reversal_schedule(6), n, 2021, CYCLE)
               .unconditional_read_counts.sum() for n in ends]
    assert np.diff(photons, prepend=0).tolist() == [1, 2, 0, 2, 0, 0]


@pytest.mark.parametrize("variant", ["plain", "dark"])
@pytest.mark.parametrize("readout", [FEED_FORWARD, CYCLE, 2])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("per_pass", [1, 2, 4, 6])
def test_pass_layouts_change_no_bit(per_pass, cpus, readout, variant):
    # One-block passes; passes of 2 and 4 whose last pass ends in the
    # partial block; and all six blocks in one pass.  The cell limit is set
    # to exactly per_pass blocks.  Each block draws its own stream into its
    # own rows, so every layout gives the same bits.
    with mock.patch.object(protocol, "_PASS_BLOCKS", per_pass), \
            mock.patch.object(protocol, "_PASS_CELLS", per_pass * BLOCK_SIZE * 6), \
            mock.patch.object(_streams, "_usable_cpus", lambda: cpus):
        assert protocol._pass_blocks(6) == per_pass
        got = run_trials(LAYOUT_MEMS[variant], reversal_schedule(6), LAYOUT_TRIALS, 2021,
                         readout=readout)
    assert_tallies_equal(got, layout_reference(readout, variant))


# Block counts around the worker counts: one partial block; three blocks,
# the last partial, with more CPUs than blocks; and nine full blocks, more
# blocks than workers here.
WORKER_TRIALS = (1, 2 * BLOCK_SIZE + 17, 9 * BLOCK_SIZE)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n_trials", WORKER_TRIALS)
def test_tally_same_bits_on_any_cpu_count(cpus, n_trials):
    # ``cpus`` stands in for the usable CPU count, so the call runs one
    # worker, a worker short of a full round of blocks, and more CPUs than
    # blocks on any machine.
    mem = replace(PINNED, n_modes=9)
    schedule = reversal_schedule(9)
    with mock.patch.object(_streams, "_usable_cpus", lambda: cpus):
        got = run_trials(mem, schedule, n_trials, seed=77)
    assert_tallies_equal(got, loop_run_trials(mem, schedule, n_trials, 77, FEED_FORWARD))


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n_trials", WORKER_TRIALS)
@pytest.mark.parametrize("readout", [CYCLE, 4])
def test_unconditional_reads_same_bits_on_any_cpu_count(readout, cpus, n_trials):
    # Cycled and fixed readouts set n_reads, n_uncond_reads and
    # uncond_coincidence_counts once per call, after the worker tallies are
    # added; at one trial, eight of the nine modes are never read.
    mem = replace(PINNED, n_modes=9)
    schedule = reversal_schedule(9)
    with mock.patch.object(_streams, "_usable_cpus", lambda: cpus):
        got = run_trials(mem, schedule, n_trials, seed=77, readout=readout)
    assert_tallies_equal(got, loop_run_trials(mem, schedule, n_trials, 77, readout))


def worker_digests():
    """Per-field tally digests over ``WORKER_TRIALS`` at nine modes."""
    mem = replace(PINNED, n_modes=9)
    return [tally_field_digests(run_trials(mem, reversal_schedule(9), n, seed=77))
            for n in WORKER_TRIALS]


# The child pins itself to one CPU (only its own process), so run_trials
# runs one worker there, then prints the tally digests.
ONE_CPU_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
from test_protocol import worker_digests
print(len(os.sched_getaffinity(0)))
print("\\n".join(worker_digests()))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available")
def test_tally_same_bits_on_one_cpu():
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", *worker_digests()]


# The child pins itself to one CPU, then lists the lazily imported modules
# loaded after ``import muxmem``, after a one-worker call of four passes and
# after the same call on two usable CPUs.
LAZY_IMPORTS_CHILD = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
lazy = ("concurrent.futures", "logging", "muxmem._numerics")
import muxmem
from muxmem import _streams
print([name for name in lazy if name in sys.modules])
mem = muxmem.MemoryParams(0.045, 0.3, 0.25, 0.4, 14.0, n_modes=3)
timeline = muxmem.FieldTimeline.reversal(2.0, 2.0e-6)
schedule = muxmem.build_schedule(3, 800e-9, 266e-9, timeline)
for cpus in (1, 2):
    _streams._usable_cpus = lambda: cpus
    muxmem.run_trials(mem, schedule, 16 * 4096 - 5, 1)
    print([name for name in lazy if name in sys.modules])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available")
def test_one_worker_call_imports_no_thread_pool():
    # ``concurrent.futures`` loads ``logging``, and ``_numerics`` is cavity's
    # alone: ``import muxmem`` loads neither, and the engine's workers are
    # plain threads, so no call imports them either, at one CPU or at two.
    # Set-up time and peak memory depend on it.
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS_CHILD],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


def engine_threads():
    return [t for t in threading.enumerate() if t.name.startswith("muxmem-engine")]


def test_worker_threads_bounded_over_many_calls():
    # Each call joins the threads it starts: after every call, at 8 CPUs and
    # at the real count, no engine thread is alive and no thread is left.
    # Nine one-mode blocks are 3 passes.
    mem, schedule = replace(PINNED, n_modes=1), reversal_schedule(1)
    n_trials = 8 * BLOCK_SIZE + 1
    baseline = threading.active_count()
    with mock.patch.object(_streams, "_usable_cpus", lambda: 8):
        for seed in range(3):
            run_trials(mem, schedule, n_trials, seed)
            assert not engine_threads()
            assert threading.active_count() <= baseline
    for seed in range(100):
        run_trials(mem, schedule, n_trials, seed)
        assert not engine_threads()
        assert threading.active_count() <= baseline


CONCURRENT_JOBS = [(5, FEED_FORWARD), (3, CYCLE), (4, 2), (1, CYCLE)]


@pytest.mark.parametrize("callers", [2, 3, 4])
def test_concurrent_callers_get_serial_tallies(callers):
    # Callers run at once, with one-block passes so that every call has
    # work for four workers.  The CPU count they see changes every four
    # calls, so calls with different worker counts overlap.  Each call must
    # get the tally of the same call made alone, and no engine thread may
    # outlive the calls.
    jobs = [(replace(PINNED, n_modes=m), reversal_schedule(m), 3 * BLOCK_SIZE + 5, 300 + i, r)
            for i, (m, r) in enumerate(CONCURRENT_JOBS[:callers])]
    serial = [loop_run_trials(mem, sch, n, seed, r) for mem, sch, n, seed, r in jobs]
    results = [[] for _ in jobs]
    start = threading.Barrier(callers)

    def call(i):
        mem, sch, n, seed, r = jobs[i]
        start.wait(timeout=60)
        for _ in range(8):
            results[i].append(run_trials(mem, sch, n, seed, readout=r))

    cpus = itertools.cycle([3] * 4 + [4] * 4 + [2] * 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(_streams, "_usable_cpus", lambda: next(cpus)), \
                mock.patch.object(protocol, "_PASS_BLOCKS", 1):
            threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert len(got) == 8
        for tally in got:
            assert_tallies_equal(tally, want)
    assert not engine_threads()


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("tasks", [1, 5, 40, 20000])
def test_run_workers_hands_out_every_task_once(cpus, tasks):
    # Each worker yields the interpreter after every task it takes, and
    # threads switch every microsecond, so the workers interleave; together
    # they take every index once, each in queue order.
    def fn(queue):
        taken = []
        for task in queue:
            taken.append(task)
            time.sleep(0)
        return taken

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(_streams, "_usable_cpus", lambda: cpus):
            results = _streams.run_workers(fn, tasks)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == min(tasks, cpus)
    assert sorted(itertools.chain(*results)) == list(range(tasks))
    assert all(taken == sorted(taken) for taken in results)


def test_run_workers_raises_a_worker_failure():
    # The calling thread takes task 0; then worker 1 takes task 1 and raises.
    # The calling thread asks for more only once worker 1's thread has ended.
    # The call raises worker 1's exception, hands out no task after it, and
    # leaves no engine thread behind.
    caller, boom = threading.get_ident(), RuntimeError("worker 1")
    held, failed = threading.Event(), threading.Event()
    taken, failing = [], []

    def fn(queue):
        if threading.get_ident() != caller:
            assert held.wait(timeout=60)
            taken.append(next(queue))
            failing.append(threading.current_thread())
            failed.set()
            raise boom
        for task in queue:
            taken.append(task)
            held.set()
            assert failed.wait(timeout=60)
            failing[0].join(timeout=60)
        return taken

    with mock.patch.object(_streams, "_usable_cpus", lambda: 2), \
            pytest.raises(RuntimeError) as raised:
        _streams.run_workers(fn, 100)
    assert raised.value is boom
    assert taken == [0, 1]
    assert not engine_threads()


def stalled_workers(lead):
    """``run_workers`` whose threads start work once the caller has taken ``lead`` tasks."""
    def run(fn, tasks):
        caller, go = threading.get_ident(), threading.Event()

        def worker(queue):
            if threading.get_ident() != caller:
                assert go.wait(timeout=60)
                return fn(queue)

            def counted():
                for i, task in enumerate(queue):
                    yield task
                    if i + 1 == lead:
                        go.set()
            try:
                return fn(counted())
            finally:
                go.set()

        return _streams.run_workers(worker, tasks)
    return run


@pytest.mark.parametrize("n_trials", WORKER_TRIALS)
@pytest.mark.parametrize("readout", [FEED_FORWARD, CYCLE, 4])
def test_tally_same_bits_when_the_caller_runs_most_passes(readout, n_trials):
    # One-block passes on two CPUs, worker 1 stalled until the calling
    # thread has taken 7 of the 9 passes of the largest call (every pass of
    # the smaller ones): a hand-out no fixed striding gives.
    mem = replace(PINNED, n_modes=9)
    schedule = reversal_schedule(9)
    with mock.patch.object(_streams, "_usable_cpus", lambda: 2), \
            mock.patch.object(protocol, "_PASS_BLOCKS", 1), \
            mock.patch.object(protocol, "run_workers", stalled_workers(7)):
        got = run_trials(mem, schedule, n_trials, seed=77, readout=readout)
    assert_tallies_equal(got, loop_run_trials(mem, schedule, n_trials, 77, readout))


def test_two_callers_on_two_cpus_get_serial_tallies():
    # Two callers at once on two CPUs, each call with its own second worker
    # thread, so four workers draw on two CPUs.  Each call must get the
    # tally of the same call made alone.
    jobs = [(replace(PINNED, n_modes=m), reversal_schedule(m), 3 * BLOCK_SIZE + 5, 300 + i, r)
            for i, (m, r) in enumerate(CONCURRENT_JOBS[:2])]
    serial = [loop_run_trials(mem, sch, n, seed, r) for mem, sch, n, seed, r in jobs]
    results = [[] for _ in jobs]
    start = threading.Barrier(len(jobs))

    def call(i):
        mem, sch, n, seed, r = jobs[i]
        start.wait(timeout=60)
        for _ in range(8):
            results[i].append(run_trials(mem, sch, n, seed, readout=r))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
    with mock.patch.object(_streams, "_usable_cpus", lambda: 2), \
            mock.patch.object(protocol, "_PASS_BLOCKS", 1):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        returned = not any(t.is_alive() for t in threads)
    assert returned
    for got, want in zip(results, serial):
        assert len(got) == 8
        for tally in got:
            assert_tallies_equal(tally, want)


def fork_child(queue):
    queue.put(tally_field_digests(run_trials(replace(PINNED, n_modes=9),
                                             reversal_schedule(9), 9 * BLOCK_SIZE, seed=77)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_gets_the_parents_digests():
    # A child forked after a two-worker call starts its own worker thread
    # and gets the parent's tally.
    with mock.patch.object(_streams, "_usable_cpus", lambda: 2):
        want = tally_field_digests(run_trials(replace(PINNED, n_modes=9),
                                              reversal_schedule(9), 9 * BLOCK_SIZE, seed=77))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with warnings.catch_warnings():  # forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            child = ctx.Process(target=fork_child, args=(queue,))
            child.start()
        try:
            got = queue.get(timeout=30)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
    assert child.exitcode == 0
    assert got == want


@settings(max_examples=6, deadline=None)
@given(m=st.sampled_from([9, 40, 100]),
       n_trials=st.integers(2 * BLOCK_SIZE + 1, 3 * BLOCK_SIZE - 1),
       seed=st.integers(0, 2**32),
       readout=st.sampled_from([FEED_FORWARD, CYCLE, "fixed"]),
       cpus=st.sampled_from([1, 2, 3]), data=st.data())
def test_chunked_draws_equal_loop_reference(m, n_trials, seed, readout, cpus, data):
    # BLOCK_SIZE * m exceeds the raw-word chunk at these m, so the word
    # draws cross chunk boundaries mid-row; the dense uniform draws of the
    # loop reference must still give the same bits.
    assert BLOCK_SIZE * m > _DRAW_CHUNK
    if readout == "fixed":
        readout = data.draw(st.integers(0, m - 1))
    mem = replace(PINNED, n_modes=m)
    schedule = reversal_schedule(m)
    with mock.patch.object(_streams, "_usable_cpus", lambda: cpus):
        got = run_trials(mem, schedule, n_trials, seed, readout=readout)
    assert_tallies_equal(got, loop_run_trials(mem, schedule, n_trials, seed, readout))
