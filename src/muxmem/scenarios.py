"""Named analysis scenarios: each turns a config into a table and a summary.

``run_scenario`` dispatches on ``cfg.scenario`` and returns a
:class:`ScenarioResult` holding column names, numeric rows, and a summary
dict.  ``emit_csv``/``emit_json`` write those deterministically (repr-exact
floats, sorted JSON keys) so identical configs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import (
    _figures,
    effective_enhancement,
    enhancement_factor,
    escape_efficiency,
    finesse,
    fsr,
    linewidth,
    optimal_outcoupler,
    rate_gain,
)
from .config import ScenarioConfig
from .ensemble import (
    AtomEnsemble,
    FieldTimeline,
    echo_profiles,
    rephasing_time,
    sample_ensemble,
)
from .model import _check, _g2, _max_modes, cross_correlation
from .protocol import ModeSchedule, build_schedule, crosstalk_matrix, run_train
from .repeater import (
    FREEZE_RELEASE,
    IMMEDIATE_REVERSAL,
    multiplexed_rate,
    readout_latency,
    repetition_rate,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioResult:
    columns: tuple
    rows: list
    summary: dict


def _train(cfg: ScenarioConfig, n_modes: int) -> tuple[FieldTimeline, ModeSchedule]:
    """Gradient timeline of the schedule block for an n-mode train, and its schedule."""
    sch = cfg.schedule
    if sch.policy == FREEZE_RELEASE:
        timeline = FieldTimeline.freeze_release(
            sch.gradient, sch.freeze_time, sch.release_time,
            bias=sch.bias, drift_rate=sch.drift_rate)
    else:
        t_last = (n_modes - 1) * sch.mode_spacing + sch.write_duration
        timeline = FieldTimeline.reversal(
            sch.gradient, t_last, bias=sch.bias, drift_rate=sch.drift_rate)
    return timeline, build_schedule(n_modes, sch.mode_spacing, sch.write_duration, timeline)


def _ensemble(cfg: ScenarioConfig, temperature: float) -> AtomEnsemble:
    """Sampled ensemble of the ensemble block; temperature 0 freezes the motion."""
    ens = cfg.ensemble
    return sample_ensemble(ens.n_atoms, ens.cloud_sigma, temperature, seed=cfg.rng_seed,
                           k_sw=ens.k_sw_value, zeeman_coeff=ens.zeeman_coeff)


def _scenario_mode_sweep(cfg):
    mem, betas = cfg.memory, cfg.options["beta_values"]
    modes = np.arange(1, cfg.options["n_modes_max"] + 1)
    g2_top = cross_correlation(replace(mem, beta_ratio=max(betas), n_modes=1))
    p_int, rows = mem.p_int(0.0), []
    for beta in betas:
        _check("beta_ratio", beta)
        g2 = _g2(mem.p, p_int, modes, mem.xi_eg, beta)
        rows.extend(zip(modes.tolist(), [beta] * len(modes), g2.tolist()))
    summary = {
        "beta_values": list(betas),
        "n_modes_max": cfg.options["n_modes_max"],
        "g2_single_mode_max_beta": g2_top,
    }
    return ScenarioResult(("n_modes", "beta_ratio", "g2"), rows, summary)


def _scenario_max_modes(cfg):
    thr = cfg.options["threshold"]
    betas, p_ints = cfg.options["beta_values"], cfg.options["p_int_values"]
    mem, rows = cfg.memory, []
    for beta in betas:
        for p_int in p_ints:
            _check("p_int0", p_int)  # MemoryParams' checks, in its order
            _check("beta_ratio", beta)
            rows.append((beta, p_int, float(_max_modes(mem.p, p_int, mem.xi_eg, beta, thr))))
    summary = {
        "threshold": thr,
        "beta_values": list(betas),
        "p_int_values": list(p_ints),
    }
    return ScenarioResult(("beta_ratio", "p_int0", "max_modes"), rows, summary)


def _scenario_cavity_design(cfg):
    loss = cfg.cavity.loss
    grid = np.linspace(cfg.options["t_min"], cfg.options["t_max"], cfg.options["n_points"])
    for t in (grid[0], grid[-1]):  # every row lies between the ends
        replace(cfg.cavity, transmission=float(t))
    rows = [(t, loss, *_figures(t, loss)) for t in grid.tolist()]
    t_opt, gain_max = optimal_outcoupler(loss)
    summary = {
        "loss": loss,
        "transmission": cfg.cavity.transmission,
        "finesse": finesse(cfg.cavity),
        "escape_efficiency": escape_efficiency(cfg.cavity),
        "enhancement_factor": enhancement_factor(cfg.cavity),
        "rate_gain": rate_gain(cfg.cavity),
        "optimal_transmission": t_opt,
        "rate_gain_max": gain_max,
        "fsr_hz": fsr(cfg.cavity),
        "linewidth_hz": linewidth(cfg.cavity),
    }
    return ScenarioResult(
        ("transmission", "loss", "finesse", "escape_efficiency", "rate_gain"),
        rows, summary)


def _scenario_pulse_enhancement(cfg):
    span = cfg.options["detuning_span_hz"]
    detunings = np.linspace(-span / 2, span / 2, cfg.options["n_points"])
    rows = []
    peaks = {}
    for dur in cfg.options["durations_s"]:
        pulse = replace(cfg.pulse, duration_fwhm=dur)
        for d in detunings:
            rows.append((float(d), dur,
                         effective_enhancement(cfg.cavity, pulse, cavity_detuning=float(d))))
        peaks[repr(dur)] = effective_enhancement(cfg.cavity, pulse)
    summary = {
        "bare_enhancement": enhancement_factor(cfg.cavity),
        "cavity_linewidth_hz": linewidth(cfg.cavity),
        "peak_effective_enhancement": peaks,
    }
    return ScenarioResult(
        ("detuning_hz", "pulse_fwhm_s", "effective_enhancement"), rows, summary)


def _scenario_echo(cfg):
    ens = _ensemble(cfg, cfg.ensemble.temperature)
    sch = cfg.schedule
    timeline = FieldTimeline.reversal(
        sch.gradient, cfg.options["reverse_time_s"],
        bias=sch.bias, drift_rate=sch.drift_rate)
    times = np.linspace(cfg.options["time_start_s"], cfg.options["time_stop_s"],
                        cfg.options["n_points"])
    durations = cfg.options["durations_s"]
    pulses = [replace(cfg.pulse, duration_fwhm=dur) for dur in durations]
    profiles = echo_profiles(ens, timeline, 0.0, pulses, cfg.memory.p_int0, times)
    rows = []
    peaks = {}
    for dur, profile in zip(durations, profiles):
        rows.extend((float(t), dur, float(e)) for t, e in profile)
        peaks[repr(dur)] = float(profile[:, 1].max())
    summary = {
        "rephasing_time_s": rephasing_time(timeline, 0.0),
        "peak_efficiency": peaks,
    }
    return ScenarioResult(("time_s", "pulse_fwhm_s", "efficiency"), rows, summary)


def _scenario_protocol_run(cfg):
    sch = cfg.schedule
    # Motion-frozen: motional decay is already in the memory's tau_mem.
    frozen = _ensemble(cfg, 0.0) if sch.drift_rate != 0.0 else None
    rows = []
    for n in cfg.options["n_modes_values"]:
        timeline, schedule = _train(cfg, n)
        p_w_total, p_wr_total, stats = run_train(cfg.memory, schedule, timeline,
                                                 cfg.n_trials, cfg.rng_seed, frozen)
        diag = np.diag(stats.g2)
        derr = np.diag(stats.g2_err)
        ok = np.isfinite(diag) & np.isfinite(derr) & (derr > 0)
        if ok.any():
            w = 1.0 / derr[ok] ** 2
            g2_avg = float((diag[ok] * w).sum() / w.sum())
            g2_stderr = float(1.0 / np.sqrt(w.sum()))
        else:
            g2_avg, g2_stderr = float("nan"), float("nan")
        rows.append((n, p_w_total, p_wr_total, g2_avg, g2_stderr))
    summary = {
        "n_trials": cfg.n_trials,
        "g2_at_max_modes": rows[-1][3],
        "g2_stderr_at_max_modes": rows[-1][4],
        "drift_rate_per_s": sch.drift_rate,
    }
    return ScenarioResult(
        ("n_modes", "p_w_total", "p_wr_total", "g2_avg", "g2_stderr"), rows, summary)


def _scenario_crosstalk(cfg):
    n = cfg.memory.n_modes
    _, schedule = _train(cfg, n)
    g2, g2_err = crosstalk_matrix(cfg.memory, schedule, cfg.n_trials, seed=cfg.rng_seed)
    rows = [(i, j, float(g2[i, j]), float(g2_err[i, j]))
            for i in range(n) for j in range(n)]
    diag = np.diag(g2)
    off = g2[~np.eye(n, dtype=bool)]
    off = off[np.isfinite(off)]
    summary = {
        "n_modes": n,
        "diagonal_mean": float(np.nanmean(diag)) if np.isfinite(diag).any() else None,
        "offdiagonal_mean": float(off.mean()) if off.size else None,
        "n_trials": cfg.n_trials,
    }
    return ScenarioResult(("write_mode", "read_mode", "g2", "g2_stderr"), rows, summary)


def _scenario_storage_decay(cfg):
    times = np.linspace(0.0, cfg.options["time_stop_s"], cfg.options["n_points"])
    nocav = replace(cfg.memory, beta_ratio=cfg.options["beta_nocavity"])
    g2_c = cross_correlation(cfg.memory, times).tolist()
    g2_nc = cross_correlation(nocav, times).tolist()
    rows = list(zip(times.tolist(), g2_c, g2_nc))
    tau = cfg.memory.tau_mem
    g2c0, g2n0 = g2_c[0], g2_nc[0]  # times[0] is 0.0 exactly
    g2ct = cross_correlation(cfg.memory, storage_time=tau)
    g2nt = cross_correlation(nocav, storage_time=tau)
    summary = {
        "tau_mem_s": tau,
        "g2_cavity_initial": g2c0,
        "g2_cavity_at_tau": g2ct,
        "g2_nocavity_initial": g2n0,
        "g2_nocavity_at_tau": g2nt,
        "drop_fraction_cavity": (g2c0 - g2ct) / g2c0,
        "drop_fraction_nocavity": (g2n0 - g2nt) / g2n0,
    }
    return ScenarioResult(("time_s", "g2_cavity", "g2_nocavity"), rows, summary)


def _scenario_repeater_rate(cfg):
    q = cfg.options["per_mode_success"]
    rows = []
    for n in cfg.options["n_modes_values"]:
        link = replace(cfg.link, n_modes=n)
        rows.append((n, multiplexed_rate(link, q)))
    summary = {
        "repetition_rate_hz": repetition_rate(cfg.link),
        "per_mode_success": q,
        "latency_immediate_reversal_s": readout_latency(cfg.link, IMMEDIATE_REVERSAL),
        "latency_freeze_release_s": readout_latency(
            cfg.link, FREEZE_RELEASE,
            frozen_interval=(cfg.schedule.release_time - cfg.schedule.freeze_time)
            if cfg.schedule.policy == FREEZE_RELEASE else 0.0),
    }
    return ScenarioResult(("n_modes", "multiplexed_rate_hz"), rows, summary)


_RUNNERS = {
    "mode-sweep": _scenario_mode_sweep,
    "max-modes": _scenario_max_modes,
    "cavity-design": _scenario_cavity_design,
    "pulse-enhancement": _scenario_pulse_enhancement,
    "echo": _scenario_echo,
    "protocol-run": _scenario_protocol_run,
    "crosstalk": _scenario_crosstalk,
    "storage-decay": _scenario_storage_decay,
    "repeater-rate": _scenario_repeater_rate,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run the scenario named by ``cfg.scenario``."""
    try:
        runner = _RUNNERS[cfg.scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {cfg.scenario!r}") from None
    result = runner(cfg)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "rng_seed": cfg.rng_seed,
        **result.summary,
    }
    return ScenarioResult(result.columns, result.rows, summary)


def _cell(value):
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def emit_csv(path, result: ScenarioResult) -> None:
    """Write rows as CSV with repr-exact floats (deterministic bytes)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_cell(v) for v in row])


def emit_json(path, result: ScenarioResult) -> None:
    """Write the summary as sorted, indented JSON; a NaN value is written as null."""
    summary = {key: None if isinstance(value, float) and math.isnan(value) else value
               for key, value in result.summary.items()}
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
