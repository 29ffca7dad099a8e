"""Scenario runner, CSV/JSON emitters, CLI exit codes, golden files."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from muxmem.cavity import CavityParams
from muxmem.cli import main
from muxmem.config import SCENARIOS, ScenarioConfig, parse_config
from muxmem.model import MemoryParams
from muxmem.repeater import FREEZE_RELEASE, readout_latency
from muxmem.scenarios import ScenarioResult, emit_csv, run_scenario

from conftest import GOLDEN, child_env

EXPECTED_COLUMNS = {
    "mode-sweep": ("n_modes", "beta_ratio", "g2"),
    "max-modes": ("beta_ratio", "p_int0", "max_modes"),
    "cavity-design": ("transmission", "loss", "finesse", "escape_efficiency", "rate_gain"),
    "pulse-enhancement": ("detuning_hz", "pulse_fwhm_s", "effective_enhancement"),
    "echo": ("time_s", "pulse_fwhm_s", "efficiency"),
    "protocol-run": ("n_modes", "p_w_total", "p_wr_total", "g2_avg", "g2_stderr"),
    "crosstalk": ("write_mode", "read_mode", "g2", "g2_stderr"),
    "storage-decay": ("time_s", "g2_cavity", "g2_nocavity"),
    "repeater-rate": ("n_modes", "multiplexed_rate_hz"),
}


def golden_config(scenario):
    return str(GOLDEN / f"{scenario}_config.json")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_column_schema_pinned(scenario):
    cfg = parse_config(Path(golden_config(scenario)).read_text())
    result = run_scenario(cfg)
    assert result.columns == EXPECTED_COLUMNS[scenario]
    assert all(len(row) == len(result.columns) for row in result.rows)
    assert result.summary["schema_version"] == 1
    assert result.summary["scenario"] == scenario


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_files(scenario, tmp_path):
    rc = main([scenario, "--config", golden_config(scenario), "--out", str(tmp_path)])
    assert rc == 0
    got_csv = (tmp_path / f"{scenario}.csv").read_bytes()
    got_json = (tmp_path / f"{scenario}_summary.json").read_bytes()
    assert got_csv == (GOLDEN / f"{scenario}.csv").read_bytes()
    assert got_json == (GOLDEN / f"{scenario}_summary.json").read_bytes()


def strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity, which JSON does not have."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_golden_summaries_are_strict_json():
    for scenario in SCENARIOS:
        strict_json(GOLDEN / f"{scenario}_summary.json")


@pytest.mark.parametrize("scenario, config, trials, key", [
    # No write click in 3 trials: every diagonal cell is undefined.
    ("crosstalk", {"memory": {"n_modes": 5}}, "3", "diagonal_mean"),
    # One trial cannot give a g2.
    ("protocol-run", {}, "1", "g2_at_max_modes"),
], ids=["crosstalk", "protocol-run"])
def test_undefined_summary_values_are_null(tmp_path, scenario, config, trials, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": scenario, **config}))
    assert main([scenario, "--config", str(path), "--out", str(tmp_path),
                 "--trials", trials]) == 0
    assert strict_json(tmp_path / f"{scenario}_summary.json")[key] is None


def test_identical_config_identical_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["crosstalk", "--config", golden_config("crosstalk"),
                     "--out", str(out)]) == 0
    assert (out1 / "crosstalk.csv").read_bytes() == (out2 / "crosstalk.csv").read_bytes()


def test_seed_override_changes_stochastic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["crosstalk", "--config", golden_config("crosstalk"), "--out", str(out1)])
    main(["crosstalk", "--config", golden_config("crosstalk"), "--out", str(out2),
          "--seed", "777"])
    assert (out1 / "crosstalk.csv").read_bytes() != (out2 / "crosstalk.csv").read_bytes()


def test_trials_override_reflected_in_summary(tmp_path):
    main(["crosstalk", "--config", golden_config("crosstalk"), "--out", str(tmp_path),
          "--trials", "8192"])
    summary = json.loads((tmp_path / "crosstalk_summary.json").read_text())
    assert summary["n_trials"] == 8192


def test_empty_table_writes_header_only(tmp_path):
    result = ScenarioResult(("a", "b"), [], {"schema_version": 1})
    path = tmp_path / "empty.csv"
    emit_csv(path, result)
    assert path.read_text() == "a,b\n"


def test_csv_floats_round_trip_exactly(tmp_path):
    main(["storage-decay", "--config", golden_config("storage-decay"),
          "--out", str(tmp_path)])
    lines = (tmp_path / "storage-decay.csv").read_text().splitlines()
    cfg = parse_config(Path(golden_config("storage-decay")).read_text())
    rows = run_scenario(cfg).rows
    for line, row in zip(lines[1:], rows):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed == [float(v) for v in row]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_cell_is_a_python_int_or_float(scenario):
    # emit_csv writes each cell's str, which is repr-exact only for Python
    # ints and floats: a numpy scalar such as np.float32 would change bytes.
    for text in (json.dumps({"scenario": scenario}), Path(golden_config(scenario)).read_text()):
        rows = run_scenario(parse_config(text)).rows
        assert rows
        assert {type(cell) for row in rows for cell in row} <= {int, float}


# Each scan scenario's options at its default grid and at a grid four times as
# large on one axis.
SCAN_GRIDS = {
    "mode-sweep": ({}, {"n_modes_max": 240}),
    "max-modes": ({}, {"p_int_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                                        1.0, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75,
                                        0.85, 0.95, 0.05]}),
    "storage-decay": ({}, {"n_points": 244}),
    "cavity-design": ({}, {"n_points": 400}),
}


@pytest.mark.parametrize("scenario", sorted(SCAN_GRIDS))
def test_scan_scenarios_build_no_parameters_per_row(scenario, monkeypatch):
    """The scans evaluate their closed forms over whole grids, so the number
    of MemoryParams and CavityParams built does not grow with the grid."""
    built = []
    for cls in (MemoryParams, CavityParams):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=check: (built.append(self), check(self)))

    def count(options):
        cfg = parse_config(json.dumps({"scenario": scenario, "options": options}))
        del built[:]
        result = run_scenario(cfg)
        return len(built), len(result.rows)

    (small, small_rows), (large, large_rows) = map(count, SCAN_GRIDS[scenario])
    assert large_rows == 4 * small_rows
    assert large == small
    # At most one MemoryParams, for a summary value; cavity-design builds a
    # CavityParams for each scan end and one for optimal_outcoupler's loss check.
    assert small <= (3 if scenario == "cavity-design" else 1)


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "echo", "memory": {"bogus": 1}}')
    assert main(["echo", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "memory.bogus" in capsys.readouterr().err


def test_cli_scenario_mismatch_exit_2(tmp_path):
    assert main(["echo", "--config", golden_config("crosstalk"),
                 "--out", str(tmp_path)]) == 2
    # The runner itself names a scenario it does not know.
    with pytest.raises(ValueError, match="^unknown scenario 'nope'$"):
        run_scenario(ScenarioConfig(scenario="nope"))


def test_cli_model_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "zero.json"
    bad.write_text('{"scenario": "storage-decay", "memory": {"p": 0.0}}')
    assert main(["storage-decay", "--config", str(bad), "--out", str(tmp_path)]) == 3
    assert "model error" in capsys.readouterr().err


def test_cli_max_modes_without_retrieval_exit_3(tmp_path, capsys):
    bad = tmp_path / "dark.json"
    bad.write_text('{"scenario": "max-modes", "memory": {"xi_eg": 0.0}, '
                   '"options": {"p_int_values": [0.0, 0.4]}}')
    assert main(["max-modes", "--config", str(bad), "--out", str(tmp_path)]) == 3
    assert "zero read probability" in capsys.readouterr().err


def test_cli_p_int_value_above_one_exit_2(tmp_path, capsys):
    bad = tmp_path / "over.json"
    bad.write_text('{"scenario": "max-modes", "options": {"p_int_values": [0.4, 1.5]}}')
    assert main(["max-modes", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert ("config error: options.p_int_values[1]: must be [0, 1] (efficiency), got 1.5"
            in capsys.readouterr().err)


def test_cli_pulse_too_long_for_the_overlap_exit_3(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text('{"scenario": "pulse-enhancement", "options": {"durations_s": [1e-6, 1e200]}}')
    assert main(["pulse-enhancement", "--config", str(bad), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "model error: duration_fwhm" in err and "Traceback" not in err
    assert not (tmp_path / "pulse-enhancement.csv").exists()


def test_cli_no_rephasing_exit_3(tmp_path, capsys):
    # The release comes after the rephasing horizon, so the echo never forms.
    bad = tmp_path / "late.json"
    bad.write_text('{"scenario": "protocol-run", "schedule": {"policy": "freeze_release", '
                   '"freeze_time_s": 1e-5, "release_time_s": 0.02}}')
    assert main(["protocol-run", "--config", str(bad), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and "does not return to zero" in err
    # A zero gradient never dephases, so it has no echo either.
    flat = tmp_path / "flat.json"
    flat.write_text('{"scenario": "echo", "schedule": {"gradient_g_per_cm": 0}}')
    assert main(["echo", "--config", str(flat), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "model error" in err and "does not return to zero" in err


def test_cli_freeze_at_time_zero_exit_2(tmp_path, capsys):
    bad = tmp_path / "freeze0.json"
    bad.write_text('{"scenario": "protocol-run", "schedule": {"policy": "freeze_release", '
                   '"freeze_time_s": 0.0, "release_time_s": 9e-6}}')
    assert main(["protocol-run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "schedule.freeze_time_s" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, options, message", [
    ("echo", '{"time_start_s": 5e-6, "time_stop_s": 3e-6}',
     "options.time_stop_s: must be greater than time_start_s"),
    ("echo", '{"time_start_s": 4e-6, "time_stop_s": 4e-6}',
     "options.time_stop_s: must be greater than time_start_s"),
    ("cavity-design", '{"t_min": 0.4, "t_max": 0.1}', "options.t_max: must be greater than t_min"),
])
def test_cli_reversed_scan_range_exit_2(tmp_path, capsys, scenario, options, message):
    bad = tmp_path / "reversed.json"
    bad.write_text(f'{{"scenario": "{scenario}", "options": {options}}}')
    assert main([scenario, "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "--seed: must be >= 0, got -1"),
    ("--trials", "0", "--trials: must be >= 1, got 0"),
], ids=["seed", "trials"])
def test_cli_override_out_of_range_exit_2(tmp_path, capsys, flag, value, message):
    assert main(["repeater-rate", "--out", str(tmp_path), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "repeater-rate.csv").exists()


HUGE = "1" + "0" * 400  # a JSON integer that float() cannot hold


@pytest.mark.parametrize("scenario, text, message", [
    ("echo", f'{{"memory": {{"p": {HUGE}}}}}', "memory.p: must be finite"),
    ("mode-sweep", f'{{"options": {{"beta_values": [{HUGE}]}}}}',
     "options.beta_values[0]: must be finite"),
], ids=["block", "list-option"])
def test_cli_huge_integer_exit_2(tmp_path, capsys, scenario, text, message):
    bad = tmp_path / "huge.json"
    bad.write_text(text)
    assert main([scenario, "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b'{"scenario": "echo", "output_path": "caf\xe9"}',  # Latin-1, not UTF-8
    b"[" * 10**5 + b"]" * 10**5,  # nested past the decoder's recursion limit
], ids=["latin-1", "deep"])
def test_cli_undecodable_config_exit_2(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["echo", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


def test_cli_config_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b'\xef\xbb\xbf{"scenario": "repeater-rate"}')
    assert main(["repeater-rate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "repeater-rate.csv").exists()


def test_cli_missing_config_exit_4(tmp_path, capsys):
    assert main(["echo", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 4
    assert "absent.json" in capsys.readouterr().err


def test_cli_unwritable_out_exit_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["repeater-rate", "--out", str(blocker)]) == 4


def test_cli_defaults_without_config(tmp_path):
    assert main(["repeater-rate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "repeater-rate.csv").exists()


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "muxmem.cli", "repeater-rate", "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert (tmp_path / "repeater-rate_summary.json").exists()


def test_repeater_rate_under_freeze_release():
    # The frozen interval from the schedule joins the freeze/release latency;
    # the immediate-reversal latency and the rate table do not depend on it.
    cfg = parse_config(json.dumps({
        "scenario": "repeater-rate",
        "schedule": {"policy": "freeze_release", "freeze_time_s": 1e-6,
                     "release_time_s": 5e-6}}))
    result = run_scenario(cfg)
    latency = readout_latency(cfg.link, FREEZE_RELEASE, frozen_interval=4e-6)
    assert result.summary["latency_freeze_release_s"] == latency
    assert latency == pytest.approx(0.000505, rel=1e-12)
    assert result.summary["latency_immediate_reversal_s"] == pytest.approx(0.001002, rel=1e-12)
    assert result.rows == run_scenario(parse_config('{"scenario": "repeater-rate"}')).rows


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_code_runs():
    # Both python blocks run in one namespace (the engine example reuses the
    # quickstart's ``mem``), and each quickstart print matches the value its
    # comment states, to the digits stated.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        namespace = {}
        for block in blocks:
            exec(block, namespace)
    stated = re.findall(r"^print\(.*# .*?([\d.]+)$", blocks[0], re.M)
    assert stated == ["8.82", "19", "1"]
    for text, line in zip(stated, out.getvalue().splitlines()):
        digits = len(text.partition(".")[2])
        assert f"{float(line):.{digits}f}" == text


# Runs every scenario at its golden (small) config in one fresh interpreter:
# none of them may load scipy, which is a test dependency only.
SCIPY_FREE_CHILD = """
import sys
from muxmem.cli import main
from muxmem.config import SCENARIOS
golden, out = sys.argv[1:]
for scenario in SCENARIOS:
    config = f"{golden}/{scenario}_config.json"
    assert main([scenario, "--config", config, "--out", out]) == 0, scenario
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""


def test_scenarios_run_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_CHILD, str(GOLDEN), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.glob("*.csv")} == {f"{s}.csv" for s in SCENARIOS}


DEMOS = Path(__file__).resolve().parents[1] / "demos"


# SHA-256 of each demo's stdout without its optional "wrote <name>.png" line.
DEMO_DIGESTS = {
    "cavity_design.py": "5ce59dc9a632faeff079e0be29d12c711e4ab3117ba79ab274cda8b9e0256d76",
    "gradient_echo.py": "0029b5fb17e90c7a6532a7e56969fcd84b8cd682d01e2a4c91402632589e8ad8",
    "photon_statistics_tour.py": "b97b0a4b097b128ea73b3e1cede68cf01aecaa2914a3e28618f868d736bec0e4",
    "protocol_monte_carlo.py": "d85a63c285d1686c018f84d9fefa42c6828576230323f43ee628f167e8321f34",
    "repeater_budget.py": "8d2542ebe430289af26822de8f9c8b500a5719733c02fc654fe9fd43e53a44f0",
}


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_runs(demo, tmp_path):
    """Each demo runs to completion and prints the same bytes as recorded.

    The "wrote <name>.png" line appears only when matplotlib is installed,
    so it is left out of the digest.
    """
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    stdout = re.sub(rb"\nwrote \S+\.png\n", b"", proc.stdout)
    assert hashlib.sha256(stdout).hexdigest() == DEMO_DIGESTS[demo]


# Drifting and freeze/release trains through the CLI, which no golden config
# runs: SHA-256 of each CSV and of each summary.
PINNED_RUNS = {
    "protocol-run-drift": {
        "scenario": "protocol-run", "n_trials": 4096,
        "schedule": {"drift_rate_per_s": 2e4},
        "options": {"n_modes_values": [1, 3]},
    },
    "protocol-run-freeze": {
        "scenario": "protocol-run", "n_trials": 4096,
        "ensemble": {"n_atoms": 2000},
        "schedule": {"policy": "freeze_release", "freeze_time_s": 2e-6,
                     "release_time_s": 20e-6, "drift_rate_per_s": 2e4, "bias_g": 0.5},
        "options": {"n_modes_values": [1, 3]},
    },
    "crosstalk-freeze": {
        "scenario": "crosstalk", "n_trials": 2048, "memory": {"n_modes": 3},
        "schedule": {"policy": "freeze_release", "freeze_time_s": 2e-6,
                     "release_time_s": 20e-6},
    },
}

PINNED_RUN_DIGESTS = {
    "crosstalk-freeze": [
        "3d69611acfbbd53ce87d56b99666db1b31779d87f365c5d673251efab6cf152d",
        "6a9d33dd056ed620d9cb017b5408104b8e22071ece336c16c44a19c8c1bf741b",
    ],
    "protocol-run-drift": [
        "e8cbf8ae5b59ac18f8c5ff5c2349554998cc44947ea7b0db4aad932c32857375",
        "27022100a26f90aaf1d11c1cdb54dc1d22f3d99837bb12bb9078ea0da71b42a4",
    ],
    "protocol-run-freeze": [
        "c15c61a4e273cccdae990eb017e926aac43b8d8e74fa73d0b94da22ad1a2770e",
        "29d438926120e7375484f0c0e75d576aa957b315ff848fd0453ad552586a16b1",
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_cycled_train_bytes_pinned(case, tmp_path):
    cfg = PINNED_RUNS[case]
    scenario = cfg["scenario"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([scenario, "--config", str(path), "--out", str(tmp_path)]) == 0
    got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in (f"{scenario}.csv", f"{scenario}_summary.json")]
    assert got == PINNED_RUN_DIGESTS[case]
