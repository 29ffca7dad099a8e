"""Helpers shared by the test modules, which import them from ``conftest``."""

import os
from pathlib import Path

import muxmem
from muxmem.ensemble import FieldTimeline
from muxmem.model import MemoryParams
from muxmem.protocol import build_schedule

GOLDEN = Path(__file__).parent / "golden"

# Ten-mode working point of the paper, used throughout.
BASE = MemoryParams(p=0.045, eta_w=0.3, eta_r=0.25, p_int0=0.4,
                    beta_ratio=14.0, xi_eg=1.0, n_modes=10)


def reversal_schedule(n_modes, spacing=800e-9, write_duration=266e-9):
    """A train of ``n_modes`` whose 2 G/cm gradient reverses at the end of the last write."""
    t_last = (n_modes - 1) * spacing + write_duration
    return build_schedule(n_modes, spacing, write_duration,
                          FieldTimeline.reversal(2.0, t_last))


def child_env():
    """Environment in which a child process imports the package under test,
    however pytest found it."""
    src = str(Path(muxmem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
