"""Scenario runner, CSV/JSON emitters, CLI exit codes, golden files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import muxmem
from muxmem.cli import main
from muxmem.config import SCENARIOS, parse_config
from muxmem.scenarios import ScenarioResult, emit_csv, run_scenario

GOLDEN = Path(__file__).parent / "golden"

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


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "echo", "memory": {"bogus": 1}}')
    assert main(["echo", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "memory.bogus" in capsys.readouterr().err


def test_cli_scenario_mismatch_exit_2(tmp_path):
    assert main(["echo", "--config", golden_config("crosstalk"),
                 "--out", str(tmp_path)]) == 2


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


def test_cli_missing_config_exit_4(tmp_path):
    assert main(["echo", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 4


def test_cli_unwritable_out_exit_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["repeater-rate", "--out", str(blocker)]) == 4


def test_cli_defaults_without_config(tmp_path):
    assert main(["repeater-rate", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "repeater-rate.csv").exists()


def child_env():
    """Environment in which a child process imports the package under test,
    however pytest found it."""
    src = str(Path(muxmem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "muxmem.cli", "repeater-rate", "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert (tmp_path / "repeater-rate_summary.json").exists()


# Runs the engine end to end in a fresh interpreter: only the cavity design
# and the pulse overlap may load scipy.
SCIPY_FREE_CHILD = """
import sys
import muxmem
from muxmem.cli import main
from muxmem.ensemble import FieldTimeline
from muxmem.protocol import build_schedule, run_trials
out = sys.argv[1]
assert main(["protocol-run", "--trials", "2000", "--out", out]) == 0
assert main(["mode-sweep", "--out", out]) == 0
schedule = build_schedule(4, 800e-9, 266e-9, FieldTimeline.reversal(2.0, 2.666e-6))
mem = muxmem.MemoryParams(p=0.045, eta_w=0.3, eta_r=0.25, p_int0=0.4, beta_ratio=14.0,
                          n_modes=4)
run_trials(mem, schedule, 1000, seed=1)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""


def test_engine_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "muxmem.cli", "cavity-design", "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cavity-design.csv").exists()


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["cavity_design.py", "photon_statistics_tour.py",
                                  "protocol_monte_carlo.py", "repeater_budget.py"])
def test_demo_runs(demo, tmp_path):
    """Each demo runs to completion and prints its tables.

    ``gradient_echo.py`` is left out: it computes full echo profiles and
    takes about 6 s on two CPUs, too long for the tier-1 suite.
    """
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
