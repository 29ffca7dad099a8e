"""JSON scenario configuration: parsing, validation, defaults, round-trip.

Config files are flat JSON objects with a ``scenario`` name, run controls
(``rng_seed``, ``n_trials``, ``output_path``), optional parameter blocks
(``memory``, ``cavity``, ``pulse``, ``ensemble``, ``schedule``, ``link``),
and a scenario-specific ``options`` block.  Every key is optional except the
scenario.  Keys carry unit suffixes (_s seconds, _m meters, _hz hertz, _g
gauss, _g_per_cm gauss per centimeter).

Every key is one row: (field, parser) in :data:`RUN_SPECS` and
:data:`BLOCK_SPECS`, (default, parser) in :data:`OPTION_SPECS`.  One
reader checks the root, each block and the options against their rows; the
CLI checks its overrides with the run-control rows.  Other defaults are the
values of a default :class:`ScenarioConfig`; serialization walks the same
rows.  Any bad input, undecodable JSON included, raises :class:`ConfigError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .cavity import SPEED_OF_LIGHT, CavityParams, PulseSpec
from .ensemble import K_SW_DEFAULT, TEMPERATURE_DEFAULT, ZEEMAN_COEFF_DEFAULT
from .model import DECAY_SHAPES, MemoryParams
from .repeater import FREEZE_RELEASE, LinkParams


#: Names accepted for ``schedule.policy``; the first is the default.
SCHEDULE_POLICIES = ("immediate_after_last", FREEZE_RELEASE)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class EnsembleConfig:
    n_atoms: int = 10000
    cloud_sigma: float = 1e-3
    temperature: float = TEMPERATURE_DEFAULT
    k_sw: float | None = None
    zeeman_coeff: float = ZEEMAN_COEFF_DEFAULT

    @property
    def k_sw_value(self) -> float:
        return K_SW_DEFAULT if self.k_sw is None else self.k_sw


@dataclass(frozen=True)
class ScheduleConfig:
    mode_spacing: float = 800e-9
    write_duration: float = 266e-9
    gradient: float = 2.0
    bias: float = 0.0
    drift_rate: float = 0.0
    policy: str = SCHEDULE_POLICIES[0]
    freeze_time: float | None = None
    release_time: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    rng_seed: int = 1
    n_trials: int = 100000
    output_path: str = "."
    memory: MemoryParams = field(default_factory=lambda: MemoryParams(
        p=0.045, eta_w=0.3, eta_r=0.25, p_int0=0.4, beta_ratio=14.0, n_modes=10))
    cavity: CavityParams = field(default_factory=lambda: CavityParams(0.14, 0.11))
    pulse: PulseSpec = field(default_factory=lambda: PulseSpec(ScheduleConfig.write_duration))
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    link: LinkParams = field(default_factory=lambda: LinkParams(100e3))
    options: dict = field(default_factory=dict)


def _shown(v):
    """``repr(v)`` for a message, cut to 80 characters ending in "..." if longer."""
    r = repr(v)
    return r if len(r) <= 80 else r[:77] + "..."


def _num(path, v, lo=None, hi=None, unit=""):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number{unit and f' ({unit})'}, got {_shown(v)}")
    try:
        v = float(v)
    except OverflowError:  # a JSON integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite{unit and f' ({unit})'}")
    if lo is not None and v < lo or hi is not None and v > hi:
        rng = f"[{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"{path}: must be {rng}{unit and f' ({unit})'}, got {v}")
    return v


def _int(path, v, lo=None, unit=""):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer{unit and f' ({unit})'}, got {_shown(v)}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}{unit and f' ({unit})'}, got {v}")
    return v


def _choice(path, v, allowed):
    if v not in allowed:
        raise ConfigError(f"{path}: must be one of {allowed}, got {_shown(v)}")
    return v


def _list(path, v, item, items, unit="", **bounds):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: expected a non-empty list of {items}{unit and f' ({unit})'}")
    return [item(f"{path}[{i}]", x, unit=unit, **bounds) for i, x in enumerate(v)]


def _string(path, v):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {_shown(v)}")
    return v


def _object(raw, path, spec):
    """Read a JSON object (the root at ``path`` "", a block, or the options)
    against {key: (field, parser)}; return {field: value}."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config root'}: expected an object")
    at = f"{path}." if path else ""
    for key in raw:
        if key not in spec:
            raise ConfigError(f"{at}{key}: unknown key (allowed: {sorted(spec)})")
    return {name: parser(at + key, raw[key]) for key, (name, parser) in spec.items()
            if key in raw}


#: Parameter blocks: {block name: (class, {json key: (field, parser)})}.  Keys
#: missing from a config take the field's value in the default ScenarioConfig.
BLOCK_SPECS = {
    "memory": (MemoryParams, {
        "p": ("p", lambda p, v: _num(p, v, 0, 1, "probability")),
        "eta_w": ("eta_w", lambda p, v: _num(p, v, 0, 1, "efficiency")),
        "eta_r": ("eta_r", lambda p, v: _num(p, v, 0, 1, "efficiency")),
        "p_int0": ("p_int0", lambda p, v: _num(p, v, 0, 1, "efficiency")),
        "beta_ratio": ("beta_ratio", lambda p, v: _num(p, v, 1, None, "dimensionless")),
        "xi_eg": ("xi_eg", lambda p, v: _num(p, v, 0, 1, "dimensionless")),
        "n_modes": ("n_modes", lambda p, v: _int(p, v, 1)),
        "tau_mem_s": ("tau_mem", lambda p, v: _num(p, v, 1e-12, None, "seconds")),
        "decay_shape": ("decay_shape", lambda p, v: _choice(p, v, DECAY_SHAPES)),
    }),
    "cavity": (CavityParams, {
        "transmission": ("transmission", lambda p, v: _num(p, v, 1e-6, 0.999999, "fraction")),
        "loss": ("loss", lambda p, v: _num(p, v, 1e-6, 0.999999, "fraction")),
        "roundtrip_length_m": ("roundtrip_length",
                               lambda p, v: _num(p, v, 1e-6, None, "meters")),
    }),
    "pulse": (PulseSpec, {
        "duration_fwhm_s": ("duration_fwhm", lambda p, v: _num(p, v, 1e-12, None, "seconds")),
    }),
    "ensemble": (EnsembleConfig, {
        "n_atoms": ("n_atoms", lambda p, v: _int(p, v, 1)),
        "cloud_sigma_m": ("cloud_sigma", lambda p, v: _num(p, v, 0, None, "meters")),
        "temperature_k": ("temperature", lambda p, v: _num(p, v, 0, None, "kelvin")),
        "k_sw_rad_per_m": ("k_sw",
                           lambda p, v: None if v is None else _num(p, v, 0, None, "rad/m")),
        "zeeman_coeff_hz_per_g": ("zeeman_coeff",
                                  lambda p, v: _num(p, v, 0, None, "Hz/gauss")),
    }),
    "schedule": (ScheduleConfig, {
        "mode_spacing_s": ("mode_spacing", lambda p, v: _num(p, v, 1e-12, None, "seconds")),
        "write_duration_s": ("write_duration",
                             lambda p, v: _num(p, v, 1e-12, None, "seconds")),
        "gradient_g_per_cm": ("gradient", lambda p, v: _num(p, v, None, None, "gauss/cm")),
        "bias_g": ("bias", lambda p, v: _num(p, v, None, None, "gauss")),
        "drift_rate_per_s": ("drift_rate", lambda p, v: _num(p, v, None, None, "1/s")),
        "policy": ("policy",
                   lambda p, v: _choice(p, v, SCHEDULE_POLICIES)),
        "freeze_time_s": ("freeze_time", lambda p, v: None if v is None
                          else _num(p, v, 0, None, "seconds")),
        "release_time_s": ("release_time", lambda p, v: None if v is None
                           else _num(p, v, 0, None, "seconds")),
    }),
    "link": (LinkParams, {
        "distance_m": ("distance", lambda p, v: _num(p, v, 1e-3, None, "meters")),
        "signal_velocity_m_per_s": ("signal_velocity",
                                    lambda p, v: _num(p, v, 1.0, SPEED_OF_LIGHT, "m/s")),
        "n_modes": ("n_modes", lambda p, v: _int(p, v, 1)),
        "herald_time_s": ("herald_time", lambda p, v: _num(p, v, 0, None, "seconds")),
        "decision_delay_s": ("decision_delay", lambda p, v: _num(p, v, 0, None, "seconds")),
    }),
}

# Scenario-specific options: {scenario: {key: (default, parser)}}, in CLI order.
OPTION_SPECS = {
    "mode-sweep": {
        "beta_values": ([1.0, 11.0, 21.0, 31.0, 41.0, 51.0, 61.0, 71.0, 81.0],
                        lambda p, v: _list(p, v, _num, "numbers", lo=1, unit="dimensionless")),
        "n_modes_max": (60, lambda p, v: _int(p, v, 1)),
    },
    "max-modes": {
        "beta_values": ([float(b) for b in range(1, 82, 2)],
                        lambda p, v: _list(p, v, _num, "numbers", lo=1, unit="dimensionless")),
        "p_int_values": ([0.4, 0.55, 0.7, 0.85, 1.0],
                         lambda p, v: _list(p, v, _num, "numbers", lo=0, hi=1,
                                           unit="efficiency")),
        "threshold": (5.8, lambda p, v: _num(p, v, 1.000001, None, "dimensionless")),
    },
    "cavity-design": {
        "t_min": (0.005, lambda p, v: _num(p, v, 1e-6, 0.999, "fraction")),
        "t_max": (0.5, lambda p, v: _num(p, v, 1e-6, 0.999, "fraction")),
        "n_points": (100, lambda p, v: _int(p, v, 2)),
    },
    "pulse-enhancement": {
        "durations_s": ([25e-9, 133e-9, 266e-9, 532e-9, 1064e-9],
                        lambda p, v: _list(p, v, _num, "numbers", lo=1e-12, unit="seconds")),
        "detuning_span_hz": (40e6, lambda p, v: _num(p, v, 0, None, "Hz")),
        "n_points": (81, lambda p, v: _int(p, v, 2)),
    },
    "echo": {
        "durations_s": ([133e-9, 266e-9, 532e-9, 1064e-9],
                        lambda p, v: _list(p, v, _num, "numbers", lo=1e-12, unit="seconds")),
        "reverse_time_s": (2e-6, lambda p, v: _num(p, v, 1e-9, None, "seconds")),
        "time_start_s": (2.5e-6, lambda p, v: _num(p, v, 0, None, "seconds")),
        "time_stop_s": (5.5e-6, lambda p, v: _num(p, v, 1e-9, None, "seconds")),
        "n_points": (181, lambda p, v: _int(p, v, 2)),
    },
    "protocol-run": {
        "n_modes_values": (list(range(1, 11)), lambda p, v: _list(p, v, _int, "integers", lo=1)),
    },
    "crosstalk": {},
    "storage-decay": {
        "time_stop_s": (120e-6, lambda p, v: _num(p, v, 1e-9, None, "seconds")),
        "n_points": (61, lambda p, v: _int(p, v, 2)),
        "beta_nocavity": (1.0, lambda p, v: _num(p, v, 1, None, "dimensionless")),
    },
    "repeater-rate": {
        "per_mode_success": (1e-3, lambda p, v: _num(p, v, 0, 1, "probability")),
        "n_modes_values": (list(range(1, 11)), lambda p, v: _list(p, v, _int, "integers", lo=1)),
    },
}

SCENARIOS = tuple(OPTION_SPECS)

#: Scan ranges, per scenario, as (start option, stop option); the stop must
#: lie above the start.
_SCAN_RANGES = {"cavity-design": ("t_min", "t_max"), "echo": ("time_start_s", "time_stop_s")}

#: Run controls: {json key: (field, parser)}, rows like a block's.  The
#: CLI's --seed, --trials and --out overrides are checked by the same rows.
RUN_SPECS = {
    "scenario": ("scenario", lambda p, v: _choice(p, v, SCENARIOS)),
    "rng_seed": ("rng_seed", lambda p, v: _int(p, v, 0)),
    "n_trials": ("n_trials", lambda p, v: _int(p, v, 1)),
    "output_path": ("output_path", _string),
}

#: The config root: run controls, one row per block, and the options, which
#: are read against the scenario's spec once the scenario is known.
_ROOT_SPEC = {**RUN_SPECS,
              **{name: (name, lambda p, v, spec=spec: _object(v, p, spec))
                 for name, (_, spec) in BLOCK_SPECS.items()},
              "options": ("options", lambda p, v: v)}


def parse_config(text: str | bytes, scenario: str | None = None) -> ScenarioConfig:
    """Parse and validate a JSON config (text, or bytes in a JSON encoding).

    ``scenario`` supplies or cross-checks the scenario named in the file.
    Missing keys take documented defaults; unknown keys, malformed JSON, and
    out-of-range values raise :class:`ConfigError` naming the field.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    top = _object(raw, "", _ROOT_SPEC)

    named = top.get("scenario")
    if scenario is not None and named is not None and named != scenario:
        raise ConfigError(f"scenario: config names {named!r} but {scenario!r} was requested")
    if scenario is None and named is None:
        raise ConfigError("scenario: missing (pass on the command line or in the config)")
    chosen = RUN_SPECS["scenario"][1]("scenario", scenario or named)

    opt_spec = OPTION_SPECS[chosen]
    given = _object(top.get("options", {}), "options",
                    {key: (key, parser) for key, (_, parser) in opt_spec.items()})
    options = {key: given.get(key, default) for key, (default, _) in opt_spec.items()}
    if chosen in _SCAN_RANGES:
        start, stop = _SCAN_RANGES[chosen]
        if not options[start] < options[stop]:
            raise ConfigError(f"options.{stop}: must be greater than {start} "
                              f"({options[start]}), got {options[stop]}")

    defaults = ScenarioConfig(scenario=chosen)
    try:
        blocks = {name: replace(getattr(defaults, name), **top.get(name, {}))
                  for name in BLOCK_SPECS}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    schedule = blocks["schedule"]
    if schedule.write_duration >= schedule.mode_spacing:
        raise ConfigError("schedule.write_duration_s: must be smaller than mode_spacing_s")
    if schedule.policy == FREEZE_RELEASE:
        if schedule.freeze_time is None or schedule.release_time is None:
            raise ConfigError(
                "schedule.freeze_time_s / release_time_s: required for the "
                "freeze_release policy (seconds)"
            )
        if not schedule.freeze_time > 0.0:
            raise ConfigError("schedule.freeze_time_s: must be > 0 (seconds)")
        if not schedule.freeze_time < schedule.release_time:
            raise ConfigError("schedule.freeze_time_s: must be before release_time_s")

    return ScenarioConfig(**{**top, **blocks, "scenario": chosen, "options": options})


def serialize_config(cfg: ScenarioConfig) -> str:
    """Serialize with every default materialized; parse round-trips exactly."""
    doc = {key: getattr(cfg, name) for key, (name, _) in _ROOT_SPEC.items()}
    for name, (_, spec) in BLOCK_SPECS.items():
        doc[name] = {key: getattr(doc[name], attr) for key, (attr, _) in spec.items()}
    return json.dumps(doc, indent=2, sort_keys=True)
