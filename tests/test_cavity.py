"""Resonator figures of merit and pulse-bandwidth averaging."""

import math

import numpy as np
import pytest
from scipy.constants import c
from scipy.optimize import brentq

from muxmem.cavity import (
    CavityParams,
    PulseSpec,
    effective_enhancement,
    enhancement_factor,
    enhancement_from_finesse,
    escape_efficiency,
    finesse,
    fsr,
    linewidth,
    optimal_outcoupler,
    rate_gain,
)

CAV = CavityParams(transmission=0.14, loss=0.11, roundtrip_length=0.877)


def test_finesse_frozen():
    assert finesse(CAV) == pytest.approx(23.483642917135057, rel=1e-12)
    assert finesse(CavityParams(0.14, 0.01)) == pytest.approx(39.046222570764115, rel=1e-12)


def test_finesse_grows_as_losses_shrink():
    values = [finesse(CavityParams(t, 0.01)) for t in (0.4, 0.2, 0.1, 0.05)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_escape_efficiency():
    assert escape_efficiency(CAV) == pytest.approx(0.56, rel=1e-12)
    assert escape_efficiency(CavityParams(0.2, 0.2)) == pytest.approx(0.5)


def test_enhancement_factor():
    assert enhancement_factor(CAV) == pytest.approx(14.950151408268084, rel=1e-12)
    assert enhancement_from_finesse(22.2) == pytest.approx(14.132958946560306, rel=1e-12)
    assert enhancement_from_finesse(math.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="^finesse must be positive$"):
        enhancement_from_finesse(0.0)


def test_rate_gain_frozen():
    assert rate_gain(CAV) == pytest.approx(8.372084788630128, rel=1e-12)
    assert rate_gain(CavityParams(0.11, 0.11)) == pytest.approx(8.576346483687823, rel=1e-12)
    assert rate_gain(CavityParams(0.01, 0.01)) == pytest.approx(99.49874371066191, rel=1e-12)


def test_optimal_outcoupler_frozen():
    t_opt, gain = optimal_outcoupler(0.11)
    assert t_opt == pytest.approx(0.10412475965, abs=2e-6)
    assert gain == pytest.approx(8.583610659461712, rel=1e-9)
    t_opt, gain = optimal_outcoupler(0.01)
    assert t_opt == pytest.approx(0.00995005805, abs=2e-6)
    assert gain == pytest.approx(99.49937184235505, rel=1e-9)
    # A loss outside (0, 1) fails with CavityParams' own message.
    for loss in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError) as exc:
            optimal_outcoupler(loss)
        assert str(exc.value) == f"loss must lie in (0, 1), got {loss}"


def test_optimal_outcoupler_beats_grid():
    # The solver must match a dense grid search to solver precision.
    for loss in (0.02, 0.11, 0.3):
        t_opt, gain = optimal_outcoupler(loss)
        grid = np.linspace(1e-4, 0.9, 200001)
        gains = np.array([rate_gain(CavityParams(float(t), loss)) for t in grid])
        assert gain >= gains.max() - 1e-9
        assert abs(t_opt - grid[gains.argmax()]) < 1e-4


def test_optimum_is_interior():
    # Raising T boosts escape but lowers finesse; the best T sits near L.
    t_opt, gain = optimal_outcoupler(0.11)
    assert 0.05 < t_opt < 0.14
    assert gain > rate_gain(CavityParams(0.14, 0.11))
    assert gain > rate_gain(CavityParams(0.08, 0.11))


def test_fsr_and_linewidth():
    assert fsr(CAV) == pytest.approx(c / 0.877, rel=1e-12)
    assert linewidth(CAV) == pytest.approx(fsr(CAV) / finesse(CAV), rel=1e-12)
    # A roundtrip chosen for a 342 MHz spectral range.
    cav342 = CavityParams(0.14, 0.11, roundtrip_length=c / 342e6)
    assert fsr(cav342) == pytest.approx(342e6, rel=1e-12)


def test_measured_finesse_reproduces_quoted_linewidth():
    # Solve for the transmission whose finesse is exactly 22.2 and check the
    # linewidth of the 342 MHz resonator it implies.
    t22 = brentq(lambda t: finesse(CavityParams(t, 0.11)) - 22.2, 0.01, 0.5, xtol=1e-13)
    cav = CavityParams(t22, 0.11, roundtrip_length=c / 342e6)
    assert linewidth(cav) == pytest.approx(342e6 / 22.2, rel=1e-9)
    assert linewidth(cav) == pytest.approx(15.405405e6, rel=1e-6)


def test_pulse_spectral_width():
    assert PulseSpec(266e-9).spectral_fwhm == pytest.approx(1658914.2868620418, rel=1e-12)
    assert PulseSpec(25e-9).spectral_fwhm == pytest.approx(17650848.012212127, rel=1e-12)
    # Time-bandwidth tradeoff: halving the duration doubles the bandwidth.
    assert PulseSpec(133e-9).spectral_fwhm == pytest.approx(
        2 * PulseSpec(266e-9).spectral_fwhm, rel=1e-12)


def test_effective_enhancement_overlap_frozen():
    # Overlap integrals verified against a dense independent quadrature.
    enh = enhancement_factor(CAV)
    eff = effective_enhancement(CAV, PulseSpec(25e-9))
    assert eff / enh == pytest.approx(0.6464881551826502, rel=1e-6)
    eff = effective_enhancement(CAV, PulseSpec(266e-9))
    assert eff / enh == pytest.approx(0.9908829926412024, rel=1e-6)


def test_effective_enhancement_narrowband_limit():
    # A pulse far narrower than the cavity line suffers no filtering.
    enh = enhancement_factor(CAV)
    eff = effective_enhancement(CAV, PulseSpec(100e-6))
    assert 0.999 < eff / enh <= 1.0


def test_effective_enhancement_ordering():
    # Shorter pulses overfill the cavity line and are clipped harder.
    effs = [effective_enhancement(CAV, PulseSpec(dt))
            for dt in (25e-9, 133e-9, 266e-9, 1064e-9)]
    assert all(a < b for a, b in zip(effs, effs[1:]))


def test_effective_enhancement_detuning():
    eff0 = effective_enhancement(CAV, PulseSpec(266e-9))
    eff = effective_enhancement(CAV, PulseSpec(266e-9), cavity_detuning=10e6)
    assert eff / enhancement_factor(CAV) == pytest.approx(0.3481020025941896, rel=1e-6)
    assert eff < eff0
    # Symmetric in the sign of the detuning.
    assert eff == pytest.approx(
        effective_enhancement(CAV, PulseSpec(266e-9), cavity_detuning=-10e6), rel=1e-9)


@pytest.mark.parametrize("detuning, weight", [
    (0.0, 1.0), (0.5, 0.5), (1.0, 0.2), (-1.0, 0.2),
], ids=["resonant", "half-linewidth", "linewidth", "minus-linewidth"])
def test_half_linewidth_detuning_halves_lorentzian_weight(detuning, weight):
    # For a narrow pulse the spectrum factor is the Lorentzian
    # 1 / (1 + (2 delta / linewidth)^2): 1/2 at half a linewidth, 1/5 at one.
    eff = effective_enhancement(CAV, PulseSpec(50e-6),
                                cavity_detuning=detuning * linewidth(CAV))
    assert eff / enhancement_factor(CAV) == pytest.approx(weight, rel=1e-6)


@pytest.mark.parametrize("kwargs", [
    {"transmission": 0.0}, {"transmission": 1.0},
    {"loss": 0.0}, {"loss": 1.2}, {"roundtrip_length": 0.0},
])
def test_cavity_validation(kwargs):
    fields = dict(transmission=0.14, loss=0.11, roundtrip_length=0.877)
    fields.update(kwargs)
    with pytest.raises(ValueError):
        CavityParams(**fields)


def test_pulse_validation():
    with pytest.raises(ValueError):
        PulseSpec(0.0)
