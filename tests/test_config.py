"""Config parsing: defaults, validation messages, round-trip identity."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from muxmem.config import (
    BLOCK_SPECS,
    OPTION_SPECS,
    SCENARIOS,
    SCHEDULE_POLICIES,
    ConfigError,
    ScenarioConfig,
    parse_config,
    serialize_config,
)
from muxmem.scenarios import _RUNNERS


def test_defaults_applied():
    cfg = parse_config('{"scenario": "mode-sweep"}')
    assert cfg.scenario == "mode-sweep"
    assert cfg.rng_seed == 1
    assert cfg.n_trials == 100000
    assert cfg.memory.p == 0.045
    assert cfg.memory.beta_ratio == 14.0
    assert cfg.memory.tau_mem == 72e-6
    assert cfg.cavity.transmission == 0.14
    assert cfg.cavity.loss == 0.11
    assert cfg.pulse.duration_fwhm == 266e-9
    assert cfg.ensemble.zeeman_coeff == 1.4e6
    assert cfg.schedule.mode_spacing == 800e-9
    assert cfg.schedule.write_duration == 266e-9
    assert cfg.link.signal_velocity == 2e8
    assert cfg.options["n_modes_max"] == 60


def test_scenario_from_argument():
    cfg = parse_config("{}", scenario="cavity-design")
    assert cfg.scenario == "cavity-design"
    assert "t_min" in cfg.options


def test_scenario_mismatch_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config('{"scenario": "echo"}', scenario="crosstalk")


def test_scenario_missing():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("{}")


def test_round_trip_identity_defaults():
    for scenario in SCENARIOS:
        cfg = parse_config("{}", scenario=scenario)
        assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_identity_customized():
    text = json.dumps({
        "scenario": "protocol-run",
        "rng_seed": 99,
        "n_trials": 2048,
        "memory": {"p": 0.03, "beta_ratio": 7.0, "n_modes": 4, "decay_shape": "gaussian"},
        "cavity": {"transmission": 0.2},
        "pulse": {"duration_fwhm_s": 1.33e-07},
        "ensemble": {"n_atoms": 500, "k_sw_rad_per_m": 1e5},
        "schedule": {"gradient_g_per_cm": 1.5, "drift_rate_per_s": 100.0},
        "link": {"distance_m": 5e4},
        "options": {"n_modes_values": [1, 2, 4]},
    })
    cfg = parse_config(text)
    assert cfg.memory.p == 0.03
    assert cfg.memory.decay_shape == "gaussian"
    assert cfg.ensemble.k_sw == 1e5
    assert cfg.options["n_modes_values"] == [1, 2, 4]
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config('{"scenario": "echo", "bogus": 1}')


def test_unknown_block_key_names_path():
    with pytest.raises(ConfigError, match=r"memory\.xi"):
        parse_config('{"scenario": "echo", "memory": {"xi": 0.5}}')


def test_unknown_option_for_scenario():
    with pytest.raises(ConfigError, match=r"options\.threshold"):
        parse_config('{"scenario": "mode-sweep", "options": {"threshold": 5.8}}')


def test_out_of_range_value_carries_unit_hint():
    with pytest.raises(ConfigError, match="seconds"):
        parse_config('{"scenario": "echo", "memory": {"tau_mem_s": -1.0}}')
    with pytest.raises(ConfigError, match="probability"):
        parse_config('{"scenario": "echo", "memory": {"p": 1.7}}')


def test_wrong_types_rejected():
    with pytest.raises(ConfigError, match="memory.p"):
        parse_config('{"scenario": "echo", "memory": {"p": "high"}}')
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config('{"scenario": "echo", "memory": {"n_modes": 2.5}}')
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config('{"scenario": "echo", "memory": {"n_modes": true}}')
    with pytest.raises(ConfigError, match="beta_values"):
        parse_config('{"scenario": "mode-sweep", "options": {"beta_values": []}}')


def test_malformed_json():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json", scenario="echo")
    with pytest.raises(ConfigError, match="object"):
        parse_config("[1, 2]", scenario="echo")


def test_schedule_consistency_checks():
    with pytest.raises(ConfigError, match="write_duration"):
        parse_config('{"scenario": "echo", "schedule": '
                     '{"mode_spacing_s": 1e-7, "write_duration_s": 2e-7}}')
    with pytest.raises(ConfigError, match="freeze"):
        parse_config('{"scenario": "protocol-run", "schedule": '
                     '{"policy": "freeze_release"}}')
    with pytest.raises(ConfigError, match=r"schedule\.freeze_time_s: must be > 0"):
        parse_config('{"scenario": "protocol-run", "schedule": '
                     '{"policy": "freeze_release", "freeze_time_s": 0.0, '
                     '"release_time_s": 9e-6}}')
    cfg = parse_config('{"scenario": "protocol-run", "schedule": '
                       '{"policy": "freeze_release", "freeze_time_s": 5e-6, '
                       '"release_time_s": 9e-6}}')
    assert cfg.schedule.freeze_time == 5e-6
    assert parse_config(serialize_config(cfg)) == cfg


def test_every_scenario_has_option_spec():
    # The option table and the runner table are the two scenario registries.
    assert set(OPTION_SPECS) == set(_RUNNERS)


ROOT_KEYS = sorted(["scenario", "rng_seed", "n_trials", "output_path", *BLOCK_SPECS, "options"])


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "config root: expected an object"),
    ({"bogus": 1}, f"bogus: unknown key (allowed: {ROOT_KEYS})"),
    ({"memory": [0.1]}, "memory: expected an object"),
    ({"memory": {"xi": 0.5}},
     f"memory.xi: unknown key (allowed: {sorted(BLOCK_SPECS['memory'][1])})"),
    ({"options": "fast"}, "options: expected an object"),
    ({"options": {"threshold": 5.8}},
     f"options.threshold: unknown key (allowed: {sorted(OPTION_SPECS['mode-sweep'])})"),
], ids=["root-type", "root-key", "block-type", "block-key", "options-type", "options-key"])
def test_one_reader_names_the_path(doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc), scenario="mode-sweep")
    assert str(exc.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"scenario": "echo", "memory": {"decay_shape": "linear"}},
     "memory.decay_shape: must be one of ('exponential', 'gaussian'), got 'linear'"),
    ({"scenario": "protocol-run", "options": {"n_modes_values": 5}},
     "options.n_modes_values: expected a non-empty list of integers"),
    ({"scenario": "protocol-run", "options": {"n_modes_values": [1, 2.5]}},
     "options.n_modes_values[1]: expected an integer, got 2.5"),
    ({"scenario": "mode-sweep", "options": {"beta_values": []}},
     "options.beta_values: expected a non-empty list of numbers (dimensionless)"),
    ({"scenario": "mode-sweep", "options": {"beta_values": [2.0, 0.5]}},
     "options.beta_values[1]: must be >= 1 (dimensionless), got 0.5"),
    ({"scenario": "echo", "output_path": 3}, "output_path: expected a string, got 3"),
    ({"scenario": "protocol-run",
      "schedule": {"policy": "freeze_release", "freeze_time_s": 9e-6, "release_time_s": 9e-6}},
     "schedule.freeze_time_s: must be before release_time_s"),
], ids=["decay-shape", "int-list-type", "int-list-item", "num-list-empty", "num-list-item",
        "output-path", "freeze-not-before-release"])
def test_bad_value_message(doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert str(exc.value) == message


def test_long_bad_value_is_cut():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"scenario": "echo", "memory": {"p": [0.5] * 2001}}))
    message = str(exc.value)
    assert message.startswith("memory.p: expected a number (probability), got [0.5, 0.5, ")
    assert message.endswith("...")
    assert len(message) < 150


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="rng_seed"):
        parse_config('{"scenario": "echo", "rng_seed": -3}')


# SHA-256 of serialize_config output, recorded before the block table replaced
# the hand-written parser and serializer: the default config of each scenario,
# and CUSTOM, which sets a value in every block (freeze/release and drift on).
CUSTOM = {
    "scenario": "protocol-run", "rng_seed": 99, "n_trials": 2048, "output_path": "out",
    "memory": {"p": 0.03, "eta_w": 0.5, "beta_ratio": 7.0, "n_modes": 4,
               "tau_mem_s": 5e-5, "decay_shape": "gaussian"},
    "cavity": {"transmission": 0.2, "loss": 0.05, "roundtrip_length_m": 0.5},
    "pulse": {"duration_fwhm_s": 1.33e-07},
    "ensemble": {"n_atoms": 500, "temperature_k": 1e-5, "k_sw_rad_per_m": 1e5},
    "schedule": {"gradient_g_per_cm": 1.5, "drift_rate_per_s": 100.0, "bias_g": 0.25,
                 "policy": "freeze_release", "freeze_time_s": 5e-6, "release_time_s": 9e-6},
    "link": {"distance_m": 5e4, "n_modes": 3, "herald_time_s": 1e-4},
    "options": {"n_modes_values": [1, 2, 4]},
}
SERIALIZED_DIGESTS = {
    "mode-sweep": "fa1addee10326fc8c393385d58639d7c800e0dc2167d53c40818c9ede5cbf203",
    "max-modes": "285207bac773fb58d79be8706a9654d5ead420359f1f9c36d3d0f1573dcb634e",
    "cavity-design": "506798ac3400a5ab88a31752d798d9ce70950d6346e9fef53175668b4c0ade19",
    "pulse-enhancement": "28afc5d6d2a66822e15ef856c3ff9a4c2c2055bdf35aed01b6c1d6da7ee731c0",
    "echo": "5e147d306027b0974a37c65cd5bebc8f607eb5f5b6b1e3618047f5167f09aa16",
    "protocol-run": "0d5a92aed9a587337c0428f835b92527bea9b840cfd5464302b5896a60edb506",
    "crosstalk": "31f0602dec07d4ed5ac68445523f512c9cfdb4ad8bf90429c4627a3059e9b5dc",
    "storage-decay": "ad5191d3d03311997aaacb3b0bf5c9fb2d019be071008cd60b4c4b0ab9e343cb",
    "repeater-rate": "6eb2943d840ad41c7ba2762d3e73a383673a5057f0f6eac3a3ab1bf80af01806",
    "custom": "19e10768838592825916c59938aaac47fabd428e1aeced75aa308c354d512ffc",
}


@pytest.mark.parametrize("name", sorted(SERIALIZED_DIGESTS))
def test_serialized_bytes_pinned(name):
    text = json.dumps(CUSTOM) if name == "custom" else ""
    cfg = parse_config(text, scenario=None if name == "custom" else name)
    digest = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
    assert digest == SERIALIZED_DIGESTS[name]


@pytest.mark.parametrize("block", sorted(BLOCK_SPECS))
def test_every_block_field_has_one_key(block):
    cls, spec = BLOCK_SPECS[block]
    assert isinstance(getattr(ScenarioConfig(scenario="echo"), block), cls)
    reached = sorted(attr for attr, _ in spec.values())
    assert reached == sorted(f.name for f in dataclasses.fields(cls))


# One in-range value strategy per BLOCK_SPECS row.  Ranges keep the schedule
# consistent: write_duration < mode_spacing and 0 < freeze_time < release_time.
unit = st.floats(0.0, 1.0)
positive = st.floats(1e-6, 1e3)
signed = st.floats(-1e3, 1e3)
ROW_VALUES = {
    "memory": {
        "p": unit, "eta_w": unit, "eta_r": unit, "p_int0": unit, "xi_eg": unit,
        "beta_ratio": st.floats(1.0, 1e3), "n_modes": st.integers(1, 10**4),
        "tau_mem_s": positive, "decay_shape": st.sampled_from(["exponential", "gaussian"]),
    },
    "cavity": {
        "transmission": st.floats(1e-6, 0.999999), "loss": st.floats(1e-6, 0.999999),
        "roundtrip_length_m": positive,
    },
    "pulse": {"duration_fwhm_s": positive},
    "ensemble": {
        "n_atoms": st.integers(1, 10**6), "cloud_sigma_m": st.floats(0.0, 1.0),
        "temperature_k": st.floats(0.0, 1.0),
        "k_sw_rad_per_m": st.none() | st.floats(0.0, 1e8),
        "zeeman_coeff_hz_per_g": st.floats(0.0, 1e8),
    },
    "schedule": {
        "mode_spacing_s": st.floats(1e-6, 1e-3), "write_duration_s": st.floats(1e-9, 9e-7),
        "gradient_g_per_cm": signed, "bias_g": signed, "drift_rate_per_s": signed,
        "policy": st.sampled_from(SCHEDULE_POLICIES),
        "freeze_time_s": st.floats(1e-9, 1e-3), "release_time_s": st.floats(2e-3, 1e-2),
    },
    "link": {
        "distance_m": st.floats(1e-3, 1e7), "signal_velocity_m_per_s": st.floats(1.0, 299792458.0),
        "n_modes": st.integers(1, 10**4), "herald_time_s": st.floats(0.0, 1.0),
        "decision_delay_s": st.floats(0.0, 1.0),
    },
}


def test_row_strategies_cover_table():
    assert {b: set(keys) for b, keys in ROW_VALUES.items()} == {
        b: set(spec) for b, (_, spec) in BLOCK_SPECS.items()}


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32),
       trials=st.integers(1, 10**7),
       blocks=st.fixed_dictionaries({b: st.fixed_dictionaries(rows)
                                     for b, rows in ROW_VALUES.items()}))
def test_round_trip_random_blocks(scenario, seed, trials, blocks):
    cfg = parse_config(json.dumps({"scenario": scenario, "rng_seed": seed,
                                   "n_trials": trials, **blocks}))
    for block, values in blocks.items():
        for key, (attr, _) in BLOCK_SPECS[block][1].items():
            assert getattr(getattr(cfg, block), attr) == values[key]
    assert parse_config(serialize_config(cfg)) == cfg
