"""Rate arithmetic for a memory-backed entanglement-distribution link."""

from __future__ import annotations

from dataclasses import dataclass

from .cavity import SPEED_OF_LIGHT
from .model import _integer

IMMEDIATE_REVERSAL = "immediate_after_last"
FREEZE_RELEASE = "freeze_release"


@dataclass(frozen=True)
class LinkParams:
    """Elementary link: distance (m), signal velocity in the channel (m/s),
    number of multiplexed modes, herald wait time (s), and the feed-forward
    decision delay (s)."""

    distance: float
    signal_velocity: float = 2e8
    n_modes: int = 10
    herald_time: float = 500e-6
    decision_delay: float = 1e-6

    def __post_init__(self):
        if not self.distance > 0.0:
            raise ValueError("distance must be positive")
        if not 0.0 < self.signal_velocity <= SPEED_OF_LIGHT:
            raise ValueError("signal_velocity must be positive and at most c")
        if _integer("n_modes", self.n_modes) < 1:
            raise ValueError("n_modes must be >= 1")
        if not (self.herald_time >= 0.0 and self.decision_delay >= 0.0):  # NaN fails too
            raise ValueError("herald_time and decision_delay must be >= 0")


def repetition_rate(link: LinkParams) -> float:
    """Attempt rate limited by signal travel over the link, velocity / distance (Hz)."""
    return link.signal_velocity / link.distance


def multiplexed_rate(link: LinkParams, per_mode_success: float) -> float:
    """Success rate with n_modes parallel attempts per repetition.

        R = repetition_rate * (1 - (1 - q)^n_modes)

    approaching n_modes * q * repetition_rate for small q.
    """
    if not 0.0 <= per_mode_success <= 1.0:
        raise ValueError("per_mode_success must lie in [0, 1]")
    return repetition_rate(link) * (1.0 - (1.0 - per_mode_success) ** link.n_modes)


def readout_latency(link: LinkParams, policy: str, frozen_interval: float = 0.0) -> float:
    """Required storage time between write and conditional retrieval.

    With an immediate gradient reversal the memory echoes the herald-plus-
    decision wait, so retrieval lands at 2 * (herald_time + decision_delay).
    Freezing the dephasing until the decision arrives allows retrieval right
    after release: herald_time + decision_delay + frozen_interval, where
    ``frozen_interval`` is the dephasing accumulated before the freeze that
    still has to be unwound.
    """
    wait = link.herald_time + link.decision_delay
    if policy == IMMEDIATE_REVERSAL:
        return 2.0 * wait
    if policy == FREEZE_RELEASE:
        if not frozen_interval >= 0.0:  # NaN fails too
            raise ValueError("frozen_interval must be >= 0")
        return wait + frozen_interval
    raise ValueError(f"unknown readout policy {policy!r}")
