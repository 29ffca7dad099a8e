"""Link rate and latency arithmetic."""

import json
import math

import pytest
from scipy.constants import c

from muxmem.config import SCHEDULE_POLICIES, parse_config
from muxmem.repeater import (
    FREEZE_RELEASE,
    IMMEDIATE_REVERSAL,
    LinkParams,
    multiplexed_rate,
    readout_latency,
    repetition_rate,
)

LINK = LinkParams(distance=100e3, signal_velocity=2e8)


def test_repetition_rate():
    assert repetition_rate(LINK) == pytest.approx(2000.0, rel=1e-12)
    assert repetition_rate(LinkParams(50e3, 2e8)) == pytest.approx(4000.0)
    assert repetition_rate(LinkParams(100e3, c)) == pytest.approx(2997.92458, rel=1e-9)


def test_multiplexed_rate_gain():
    q = 1e-3
    single = multiplexed_rate(LinkParams(100e3, 2e8, n_modes=1), q)
    ten = multiplexed_rate(LinkParams(100e3, 2e8, n_modes=10), q)
    assert single == pytest.approx(2000.0 * q, rel=1e-12)
    assert ten / single == pytest.approx(9.955119790251764, rel=1e-12)
    assert 9.9 <= ten / single <= 10.0


def test_multiplexed_rate_limits():
    assert multiplexed_rate(LINK, 0.0) == 0.0
    assert multiplexed_rate(LINK, 1.0) == pytest.approx(repetition_rate(LINK))
    # Monotone in mode count, bounded by the repetition rate.
    rates = [multiplexed_rate(LinkParams(100e3, 2e8, n_modes=n), 0.05)
             for n in (1, 2, 5, 20, 200)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < repetition_rate(LINK)


def test_multiplexed_low_success_expansion():
    q, n = 1e-4, 8
    link = LinkParams(100e3, 2e8, n_modes=n)
    linear = repetition_rate(link) * n * q
    assert abs(multiplexed_rate(link, q) / linear - 1.0) <= n * q


def test_readout_latency():
    link = LinkParams(100e3, 2e8, herald_time=10e-6, decision_delay=2e-6)
    assert readout_latency(link, IMMEDIATE_REVERSAL) == pytest.approx(24e-6, rel=1e-12)
    assert readout_latency(link, FREEZE_RELEASE) == pytest.approx(12e-6, rel=1e-12)
    assert readout_latency(link, FREEZE_RELEASE, frozen_interval=3e-6) == pytest.approx(15e-6)
    zero = LinkParams(100e3, 2e8, herald_time=0.0, decision_delay=0.0)
    assert readout_latency(zero, IMMEDIATE_REVERSAL) == 0.0


def test_parsed_policy_is_a_readout_policy():
    # The config's policy names are the readout policies: a parsed
    # schedule.policy, the default too, goes straight to readout_latency.
    assert SCHEDULE_POLICIES == (IMMEDIATE_REVERSAL, FREEZE_RELEASE)
    link = {"herald_time_s": 10e-6, "decision_delay_s": 2e-6}
    freeze = {"freeze_time_s": 1e-6, "release_time_s": 5e-6}
    for schedule, latency in [({}, 24e-6), ({"policy": IMMEDIATE_REVERSAL}, 24e-6),
                              ({"policy": FREEZE_RELEASE, **freeze}, 12e-6)]:
        cfg = parse_config(json.dumps({"scenario": "repeater-rate", "link": link,
                                       "schedule": schedule}))
        assert readout_latency(cfg.link, cfg.schedule.policy) == pytest.approx(latency)


def test_latency_for_full_train_storage():
    # Holding a ~100-mode train at 800 ns spacing until immediate-reversal
    # readout requires storing for twice the 80 us train duration.
    train = LinkParams(100e3, 2e8, herald_time=100 * 800e-9, decision_delay=0.0)
    assert readout_latency(train, IMMEDIATE_REVERSAL) == pytest.approx(160e-6, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        LinkParams(distance=0.0)
    with pytest.raises(ValueError):
        LinkParams(100e3, signal_velocity=c * 1.01)
    with pytest.raises(ValueError):
        LinkParams(100e3, n_modes=0)
    with pytest.raises(ValueError):
        multiplexed_rate(LINK, 1.5)
    with pytest.raises(ValueError):
        readout_latency(LINK, "other")
    with pytest.raises(ValueError):
        readout_latency(LINK, FREEZE_RELEASE, frozen_interval=-1e-6)
    for field in ("herald_time", "decision_delay"):
        with pytest.raises(ValueError,
                           match="^herald_time and decision_delay must be >= 0$"):
            LinkParams(100e3, **{field: -1e-6})


@pytest.mark.parametrize("call", [
    lambda: LinkParams(100e3, herald_time=math.nan),
    lambda: LinkParams(100e3, decision_delay=math.nan),
    lambda: readout_latency(LINK, FREEZE_RELEASE, math.nan),
], ids=["herald_time", "decision_delay", "frozen_interval"])
def test_nan_times_rejected(call):
    # NaN fails every comparison, so each check is written to accept only
    # values that pass it.
    with pytest.raises(ValueError, match="must be >= 0"):
        call()
