"""Resonator figures of merit and pulse-bandwidth averaging."""

import contextlib
import math
import random
import re

import numpy as np
import pytest
from scipy.constants import c
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from muxmem import _numerics
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
from muxmem.config import parse_config
from muxmem.scenarios import run_scenario

from conftest import GOLDEN

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


@pytest.mark.parametrize("loss", [0.0, 1.0, math.nan])
def test_optimal_outcoupler_checks_the_loss_with_cavity_params_message(loss):
    with pytest.raises(ValueError, match=rf"^loss must lie in \(0, 1\), got {loss}$"):
        optimal_outcoupler(loss)


@pytest.mark.parametrize("duration", [1.8e153, 1e155, 1e161, 1e162, 1e300])
def test_effective_enhancement_rejects_a_pulse_whose_spectral_variance_underflows(duration):
    # 2 sigma^2 is subnormal from about 1.8e153 s and zero from about 1e162 s,
    # where the overlap would be off, then wrong, then a ZeroDivisionError.
    with pytest.raises(ValueError, match=rf"^duration_fwhm .*underflows, got {re.escape(repr(duration))}$"):
        effective_enhancement(CAV, PulseSpec(duration))
    # The longest pulse with a normal variance still has the narrow-band limit.
    assert effective_enhancement(CAV, PulseSpec(1.7e153)) == pytest.approx(
        enhancement_factor(CAV), rel=1e-12)


# --- The scipy-free ports give scipy's bits -------------------------------
# effective_enhancement ran scipy.integrate.quad (QUADPACK dqagpe) and
# optimal_outcoupler scipy.optimize.minimize_scalar (bounded Brent).  The
# references below are those calls, with the integrand as it was written.

def overlap_problem(cav, pulse, cavity_detuning):
    """(integrand, span, points, coef) of effective_enhancement's overlap."""
    gamma = linewidth(cav)
    sigma = pulse.spectral_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    delta = cavity_detuning
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    two_var = 2.0 * sigma * sigma

    def integrand(nu):
        s = norm * math.exp(-nu * nu / two_var)
        return s / (1.0 + (2.0 * (nu - delta) / gamma) ** 2)

    span = 10.0 * sigma + 4.0 * gamma + abs(delta)
    raw = (-8 * sigma, -4 * sigma, -sigma, 0.0, sigma, 4 * sigma, 8 * sigma,
           delta - gamma, delta, delta + gamma)
    points = sorted(p for p in set(raw) if -span < p < span)
    return integrand, span, points, (norm, two_var, delta, gamma / 2.0)


def quad_enhancement(cav, pulse, cavity_detuning=0.0, **tight):
    """quad's enhancement, with full_output's ``neval``; ``tight`` for a reference."""
    integrand, span, points, _ = overlap_problem(cav, pulse, cavity_detuning)
    settings = {"epsrel": 1e-8, "limit": 400, **tight}
    overlap, _, info = quad(integrand, -span, span, points=points, full_output=1,
                            **settings)[:3]
    return enhancement_factor(cav) * min(overlap, 1.0), info["neval"]


def first_pass_converged(neval, points):
    """Whether a quad run stopped after one 21-point rule per break-point interval."""
    return neval == 21 * (len(points) + 1)


@pytest.fixture
def qk21_calls(monkeypatch):
    """Counts the port's 21-point rule evaluations, one per interval."""
    calls = []
    rule = _numerics._qk21

    def counted(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(_numerics, "_qk21", counted)
    return calls


def test_effective_enhancement_same_bits_as_quad_on_scenario_grid():
    cfg = parse_config('{"scenario": "pulse-enhancement"}')
    span = cfg.options["detuning_span_hz"]
    detunings = [0.0] + [float(d) for d in np.linspace(-span / 2, span / 2,
                                                       cfg.options["n_points"])]
    for dur in cfg.options["durations_s"]:
        pulse = PulseSpec(dur)
        for d in detunings:
            assert effective_enhancement(cfg.cavity, pulse, d) == \
                quad_enhancement(cfg.cavity, pulse, d)[0], (dur, d)


@pytest.mark.parametrize("config", [
    '{"scenario": "pulse-enhancement"}',
    (GOLDEN / "pulse-enhancement_config.json").read_text(),
], ids=["default", "golden"])
def test_pulse_enhancement_overlaps_end_after_the_first_pass(config, monkeypatch, qk21_calls):
    # Every overlap these configs compute stops after one 21-point rule per
    # break-point interval, the part of qagp that is quad's bit for bit; a
    # config that needs bisection would make the pinned bytes depend on it.
    qagp, counts = _numerics.qagp, []

    def counted(coef, a, b, points, **tolerances):
        before = len(qk21_calls)
        result = qagp(coef, a, b, points, **tolerances)
        counts.append((len(qk21_calls) - before, len(points) + 1))
        return result

    monkeypatch.setattr(_numerics, "qagp", counted)
    cfg = parse_config(config)
    run_scenario(cfg)
    assert len(counts) == len(cfg.options["durations_s"]) * (cfg.options["n_points"] + 1)
    assert all(rules == intervals for rules, intervals in counts)


# Beyond its first pass the port bisects without QUADPACK's extrapolation,
# so it is held to the requested tolerance against a tight quad run, with
# quad's own distance from that run as slack: |got - ref| <= |quad - ref| + tol.
TIGHT = {"epsabs": 1e-15, "epsrel": 1e-13, "limit": 5000}


def test_effective_enhancement_same_bits_as_quad_on_random_draws(qk21_calls):
    rng = random.Random(2024)
    bisected = 0
    for _ in range(300):
        cav = CavityParams(10 ** rng.uniform(-3, -0.05), 10 ** rng.uniform(-3, -0.05),
                           rng.uniform(0.05, 3.0))
        pulse = PulseSpec(10 ** rng.uniform(math.log10(0.3e-9), -3))
        d = rng.choice([0.0, rng.uniform(-1, 1) * linewidth(cav) * 10 ** rng.uniform(-2, 2)])
        points = overlap_problem(cav, pulse, d)[2]
        qk21_calls.clear()
        got = effective_enhancement(cav, pulse, d)
        want, neval = quad_enhancement(cav, pulse, d)
        if first_pass_converged(neval, points):
            assert got == want, (cav, pulse, d)
            continue
        bisected += len(qk21_calls) > len(points) + 1
        ref = quad_enhancement(cav, pulse, d, **TIGHT)[0]
        tol = max(1.49e-8 * enhancement_factor(cav), 1e-8 * ref)
        assert abs(got - ref) <= abs(want - ref) + tol, (cav, pulse, d)
    # The draws exercise the bisection, not only the first pass.
    assert bisected >= 10


def test_qagp_same_bits_as_quad_on_lines_off_the_break_points(qk21_calls):
    # A unit Gaussian times a line 10 to 10^4 times narrower, placed between
    # 0 to 3 break points, at tight tolerances and small limits: the rule
    # must hunt the line down by bisection.  The reference has break points
    # at the line's centre and half widths, as effective_enhancement does.
    rng = random.Random(5)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    bisected = 0
    for _ in range(1000):
        gamma = 10 ** rng.uniform(-4, -1)
        delta = rng.uniform(-3.0, 3.0)
        points = sorted(rng.sample([-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0], rng.randint(0, 3)))
        epsabs = rng.choice([1.49e-8, 1e-14])
        epsrel = rng.choice([1e-8, 1e-11])
        limit = rng.choice([50, 400])

        def integrand(nu):
            return norm * math.exp(-nu * nu / 2.0) / (1.0 + (2.0 * (nu - delta) / gamma) ** 2)

        want = quad(integrand, -10.0, 10.0, points=points, epsabs=epsabs, epsrel=epsrel,
                    limit=limit, full_output=1)
        qk21_calls.clear()
        # quad warns on 16 of these draws; the port converges on all of them.
        got = _numerics.qagp((norm, 2.0, delta, gamma / 2.0), -10.0, 10.0, points,
                             epsabs, epsrel, limit)
        case = (gamma, delta, points, epsabs, epsrel, limit)
        if first_pass_converged(want[2]["neval"], points):
            assert got == want[0], case
            continue
        bisected += len(qk21_calls) > len(points) + 1
        ref = quad(integrand, -10.0, 10.0, full_output=1, **TIGHT,
                   points=sorted({*points, delta - gamma, delta, delta + gamma}))[0]
        assert abs(got - ref) <= abs(want[0] - ref) + max(epsabs, epsrel * ref), case
    assert bisected >= 900


@pytest.mark.parametrize("limit, epsabs, epsrel, condition", [
    (11, 1.49e-8, 1e-8, "maximum number of subdivisions"),
    (400, 1e-300, 1e-15, "roundoff error"),
], ids=["limit", "roundoff"])
def test_quadrature_warns_when_it_does_not_converge(limit, epsabs, epsrel, condition):
    # A 1 ns pulse needs more than one bisection beyond its 10 break-point
    # intervals, and no rule reaches a relative 1e-15.  As quad did, the
    # port warns, names the condition and returns the estimate.
    integrand, span, points, coef = overlap_problem(CAV, PulseSpec(1e-9), 0.0)
    assert len(points) + 2 == 11
    with pytest.warns(UserWarning, match=condition):
        got = _numerics.qagp(coef, -span, span, points, epsabs, epsrel, limit)
    with pytest.warns(IntegrationWarning):
        want, _ = quad(integrand, -span, span, points=points, epsabs=epsabs,
                       epsrel=epsrel, limit=limit)
    assert abs(got - want) <= max(1.49e-8, 1e-8 * want)


@pytest.mark.parametrize("epsrel, condition", [(1e-13, None), (1e-15, "roundoff error")],
                         ids=["converged", "roundoff"])
def test_quadrature_first_pass_stops_give_quads_bits(epsrel, condition):
    # A 10 us pulse's first pass reaches a relative 1e-13 on the relative
    # tolerance alone, and stops at 1e-15 on dqagpe's roundoff rule, with a
    # warning; both stops return quad's bits.
    integrand, span, points, coef = overlap_problem(CAV, PulseSpec(10e-6), 0.0)
    want = quad(integrand, -span, span, points=points, epsabs=1e-300, epsrel=epsrel,
                limit=400, full_output=1)
    assert first_pass_converged(want[2]["neval"], points)
    with pytest.warns(UserWarning, match=condition) if condition else contextlib.nullcontext():
        got = _numerics.qagp(coef, -span, span, points, 1e-300, epsrel, 400)
    assert got == want[0]


def test_quadrature_bisects_until_limit_intervals(qk21_calls):
    # The 1 ns overlap converges on its second bisection, at 12 intervals:
    # a limit of 12 allows it, 11 stops one bisection short.
    _, span, points, coef = overlap_problem(CAV, PulseSpec(1e-9), 0.0)
    nint = len(points) + 1
    _numerics.qagp(coef, -span, span, points, 1.49e-8, 1e-8, 12)
    assert len(qk21_calls) == nint + 2 * (12 - nint)
    qk21_calls.clear()
    with pytest.warns(UserWarning, match="maximum number of subdivisions"):
        _numerics.qagp(coef, -span, span, points, 1.49e-8, 1e-8, 11)
    assert len(qk21_calls) == nint + 2 * (11 - nint)


def test_optimal_outcoupler_same_bits_as_minimize_scalar():
    rng = random.Random(7)
    for loss in [10 ** rng.uniform(-5, -1e-4) for _ in range(250)] + [0.01, 0.11, 0.5]:
        res = minimize_scalar(lambda t: -rate_gain(CavityParams(t, loss)),
                              bounds=(1e-4, 0.9999), method="bounded",
                              options={"xatol": 1e-10})
        assert optimal_outcoupler(loss) == (float(res.x), float(-res.fun)), loss

