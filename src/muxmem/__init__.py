"""muxmem: design and simulation toolkit for temporally multiplexed
atomic quantum memories with resonator-suppressed readout noise.

The package splits into an analytic layer and a stochastic layer:

``model``
    Closed-form write/read photon statistics of a multimode memory.
``cavity``
    Resonator figures of merit and pulse-bandwidth averaging.
``ensemble``
    Monte Carlo spin-wave dephasing, gradient echoes, rephasing times.
``protocol``
    Click-level trial engine, tallies, and correlation estimators.
``repeater``
    Link rate and latency arithmetic.
``config`` / ``scenarios`` / ``cli``
    JSON-configured scenario runner behind the ``muxmem`` command.
"""

from .model import (
    UNBOUNDED,
    MemoryParams,
    cavity_gain,
    coincidence_prob,
    cross_correlation,
    max_modes,
    noise_given_write,
    read_prob,
    retrieval_given_write,
    write_prob,
)
from .cavity import (
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
from .ensemble import (
    AtomEnsemble,
    FieldTimeline,
    NoRephasingError,
    collective_efficiency,
    echo_profile,
    echo_profiles,
    rephasing_time,
    sample_ensemble,
)
from .protocol import (
    CYCLE,
    FEED_FORWARD,
    CountsTally,
    Estimate,
    ModeSchedule,
    build_schedule,
    coincidence_scaling,
    crosstalk_matrix,
    estimate_statistics,
    heralded_autocorrelation,
    run_trials,
    run_train,
)
from .repeater import (
    FREEZE_RELEASE,
    IMMEDIATE_REVERSAL,
    LinkParams,
    multiplexed_rate,
    readout_latency,
    repetition_rate,
)
from .config import (
    SCENARIOS,
    ConfigError,
    EnsembleConfig,
    ScenarioConfig,
    ScheduleConfig,
    parse_config,
    serialize_config,
)
from .scenarios import ScenarioResult, emit_csv, emit_json, run_scenario

__version__ = "0.1.0"
