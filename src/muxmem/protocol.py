"""Stochastic click-level engine for multiplexed write/read trials.

Each trial writes every temporal mode of a train (at most one excitation per
mode), records heralding write clicks, reads one mode back at its programmed
readout time, and tallies detected read photons together with a virtual
balanced splitter for autocorrelation estimates.  Background light in the
read window is thermal with the analytic model's mean, so the tallies
reproduce the closed-form statistics of :mod:`muxmem.model` in expectation.
Readout times come from a gradient timeline alone (:func:`build_schedule`);
:func:`rephasing_deficit` turns a drifting applied field into per-mode
retrieval factors.

Trials are partitioned into fixed-size blocks, each driven by its own
counter-derived Philox stream.  A block is tallied in one vectorized pass:
the write clicks are listed once, and every count is an ``np.bincount`` by
read mode, or by (herald mode, read mode) cell, over the block's reading
trials and clicks.  The blocks run on a thread pool with one worker per
usable CPU (at most one per block): worker w takes blocks w, w + W, ... into
its own tally, filling each block's dense uniform draws in place, chunk by
chunk, from one small per-worker buffer.  The worker tallies are then added
field by field.  Integer addition is exact and order-free, so every count
has the same bits on any number of CPUs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .ensemble import (
    AtomEnsemble, FieldTimeline, _usable_cpus, collective_efficiency, rephasing_time,
)
from .model import MemoryParams

#: Trials per RNG block.  Fixed: it is part of the determinism contract.
BLOCK_SIZE = 4096

#: Doubles per in-place uniform draw: the size of each worker's draw buffer.
_DRAW_CHUNK = 2 ** 15

#: Readout policies: read the first heralded mode (odd trials run fixed-mode
#: normalization passes), or read mode (trial index mod n_modes) every trial.
FEED_FORWARD = "feed_forward"
CYCLE = "cycle"


@dataclass(frozen=True, eq=False)
class ModeSchedule:
    """Write and readout timing for one train of temporal modes.

    ``write_times[m]`` is the (idealized, instantaneous) creation time of mode
    m and ``readout_times[m]`` its programmed readout, normally the rephasing
    time of the gradient timeline the schedule was built from.  Both are
    stored as float arrays; the mode count is their length.
    """

    write_times: np.ndarray
    readout_times: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.write_times, dtype=float)
        r = np.asarray(self.readout_times, dtype=float)
        if w.ndim != 1 or w.shape != r.shape or w.size == 0:
            raise ValueError("need equal-length, non-empty 1-d write and readout times")
        if np.any(r <= w):
            raise ValueError("each readout must come after its write")
        object.__setattr__(self, "write_times", w)
        object.__setattr__(self, "readout_times", r)

    @property
    def n_modes(self) -> int:
        return len(self.write_times)

    @property
    def storage_times(self) -> np.ndarray:
        return self.readout_times - self.write_times


def build_schedule(
    n_modes: int,
    mode_spacing: float,
    write_duration: float,
    timeline: FieldTimeline,
) -> ModeSchedule:
    """Schedule a train of modes against a gradient timeline.

    Mode m is written at m * mode_spacing and read at the timeline's
    rephasing time for that write.  Readouts must land strictly after the
    final gradient step (the reversal, or the release for a freeze program);
    with a reversal right after the last mode this makes the readout order
    the reverse of the write order.  Readout timing comes from the timeline
    alone; ``write_duration`` must lie in (0, mode_spacing) so writes do not overlap.
    """
    if not 0.0 < write_duration < mode_spacing:
        raise ValueError("need 0 < write_duration < mode_spacing")
    write_times = np.arange(n_modes) * mode_spacing
    readout_times = np.array([rephasing_time(timeline, float(tw)) for tw in write_times])
    final_step = timeline.segments[-1][0]
    if np.any(readout_times <= final_step):
        raise ValueError(
            "schedule is inconsistent: a readout falls before the final gradient step"
        )
    return ModeSchedule(write_times, readout_times)


@dataclass(eq=False)
class CountsTally:
    """Integer click, photon, and pair tallies from :func:`run_trials`.

    Write clicks are binary per trial and mode.  Read tallies count detected
    photons (coherent retrieval plus thermal background), and coincidences
    count write-read photon pairs; ``read_counts`` keeps the thresholded
    click version of the same cells.  Matrix cells are indexed
    (herald mode, read mode).  Unconditional rows come from fixed-mode
    readout passes and normalize the correlation estimates.
    """

    n_trials: int
    n_modes: int
    write_counts: np.ndarray          # (M,)   trials with a write click
    n_reads: np.ndarray               # (M,)   trials in which mode j was read
    herald_reads: np.ndarray          # (M,M)  read-j trials that had a write click in i
    coincidence_counts: np.ndarray    # (M,M)  write-read photon pairs over read-j trials
    read_counts: np.ndarray           # (M,M)  read-j trials with write click i and >=1 photon
    n_uncond_reads: np.ndarray        # (M,)   unconditional (fixed-pass) reads of j
    unconditional_read_counts: np.ndarray  # (M,) photons detected in those passes
    uncond_coincidence_counts: np.ndarray  # (M,M) photon pairs restricted to those passes
    n_heralded_splits: np.ndarray     # (M,)   heralded reads of j sent through the splitter
    split_a: np.ndarray               # (M,)   splitter arm A clicks
    split_b: np.ndarray               # (M,)   splitter arm B clicks
    split_ab: np.ndarray              # (M,)   both-arm coincidences

    @classmethod
    def zeros(cls, n_modes: int) -> "CountsTally":
        m = n_modes
        vec = lambda: np.zeros(m, dtype=np.int64)
        mat = lambda: np.zeros((m, m), dtype=np.int64)
        return cls(0, m, vec(), vec(), mat(), mat(), mat(), vec(), vec(), mat(),
                   vec(), vec(), vec(), vec())


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a first-order standard error; NaN marks undefined."""

    value: float
    stderr: float

    def __bool__(self):
        return not math.isnan(self.value)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def run_trials(
    mem: MemoryParams,
    schedule: ModeSchedule,
    n_trials: int,
    seed: int,
    readout=FEED_FORWARD,
    retrieval_scale=None,
) -> CountsTally:
    """Simulate ``n_trials`` write/read trials and return their tally.

    ``readout`` is :data:`FEED_FORWARD` (read the first heralded mode;
    odd-indexed trials instead run a fixed-mode pass cycling through the modes
    to normalize the statistics), :data:`CYCLE` (every trial is an
    unconditional fixed-mode pass, cycling through the modes), or an integer
    mode index for fixed-mode readout of every trial.  ``retrieval_scale``
    optionally multiplies the decayed intrinsic retrieval per mode, for
    coupling in externally computed rephasing deficits.  Deterministic for
    fixed (seed, n_trials): the blocks run concurrently, one thread per
    usable CPU, but each block has its own Philox stream and the per-worker
    tallies are summed as integers, so the bits do not depend on the CPU count.
    """
    m = mem.n_modes
    if schedule.n_modes != m:
        raise ValueError(
            f"schedule has {schedule.n_modes} modes but params expect {m}"
        )
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if readout not in (FEED_FORWARD, CYCLE):
        readout = int(readout)
        if not 0 <= readout < m:
            raise ValueError(f"fixed readout mode {readout} out of range")
    scale = np.ones(m) if retrieval_scale is None else np.asarray(retrieval_scale, float)
    # written so that NaN, which fails every comparison, is rejected too
    if scale.shape != (m,) or not np.all((scale >= 0.0) & (scale <= 1.0)):
        raise ValueError("retrieval_scale must be per-mode factors in [0, 1]")

    pint_t = mem.p_int(schedule.storage_times)      # decayed retrieval per mode
    pint_eff = pint_t * scale                        # with external deficits
    nbar = mem.p * (m - pint_t) * mem.xi_eg / mem.beta_ratio * mem.eta_r
    p_coh = pint_eff * mem.eta_r
    # Bose-Einstein photon number via inverse-CDF of the geometric law with
    # q = 1 / (1 + nbar); log(1 - q) = -inf for nbar = 0 gives no photons.
    log_q = np.array([math.log1p(-1.0 / (1.0 + n)) if n > 0 else -math.inf
                      for n in nbar])

    n_blocks = (n_trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def count(keys, weights=None, n=m):
        """Integer histogram of ``keys`` over [0, n).

        Weighted bincounts come back as float64; a block's sums stay far
        below 2**53, so the cast back to int64 is exact.
        """
        c = np.bincount(keys, weights, minlength=n)
        return c if weights is None else c.astype(np.int64)

    def draw_below(rng, threshold, buf, out) -> None:
        """Set ``out`` to ``rng.random(out.shape) < threshold``, drawn into ``buf``.

        The uniforms are filled chunk by chunk in row order; consecutive
        fills continue the Philox stream, so the bits equal one dense draw.
        """
        flat = out.reshape(-1)
        for lo in range(0, flat.size, buf.size):
            chunk = buf[:flat.size - lo]
            rng.random(out=chunk)
            np.less(chunk, threshold, out=flat[lo:lo + chunk.size])

    def run_block(b: int, tally: CountsTally, buf, spin, write) -> None:
        """Draw block ``b`` and add its counts into ``tally`` in place.

        ``buf`` is the worker's draw buffer; ``spin`` and ``write`` are its
        (rows, m) bool arrays, of which the block uses the first ``size`` rows.
        """
        start = b * BLOCK_SIZE
        size = min(BLOCK_SIZE, n_trials - start)
        rng = _block_rng(seed, b)
        idx = start + np.arange(size)
        spin, write = spin[:size], write[:size]
        draw_below(rng, mem.p, buf, spin)
        draw_below(rng, mem.eta_w, buf, write)
        write &= spin
        # Every write click as (trial, mode), trials ascending and modes
        # ascending within a trial (flat indices are much faster than 2-D
        # np.nonzero).
        click_t, click_m = np.divmod(np.flatnonzero(write), m)

        # Which mode each trial reads: -1 marks "no read" (unheralded
        # feed-forward trials).  Fixed passes are flagged unconditional.
        if readout == FEED_FORWARD:
            read_mode = np.full(size, -1, dtype=np.int64)
            uncond = idx % 2 == 1
            read_mode[uncond] = (idx[uncond] // 2) % m
            first = np.ones(click_t.size, dtype=bool)    # first click of its trial
            first[1:] = click_t[1:] != click_t[:-1]
            ff = first & ~uncond[click_t]
            read_mode[click_t[ff]] = click_m[ff]
        elif readout == CYCLE:
            read_mode = idx % m
            uncond = np.ones(size, dtype=bool)
        else:
            read_mode = np.full(size, readout, dtype=np.int64)
            uncond = np.ones(size, dtype=bool)

        # Coherent photon and thermal background for every reading trial rt,
        # which reads mode r.
        u_coh = rng.random(size)
        u_geom = rng.random(size)
        rt = np.flatnonzero(read_mode >= 0)
        r = read_mode[rt]
        coh = spin[rt, r] & (u_coh[rt] < p_coh[r])
        noise = np.floor(np.log1p(-u_geom[rt]) / log_q[r]).astype(np.int64)
        ph = coh + noise
        n_photons = np.zeros(size, dtype=np.int64)
        n_photons[rt] = ph

        # Splitter: binomial split of each reading trial's photons.  A
        # binomial with n = 0 draws nothing, so skipping the trials without
        # photons leaves the Philox stream as it is.
        n_a = np.zeros(size, dtype=np.int64)
        lit = np.flatnonzero(n_photons)
        n_a[lit] = rng.binomial(n_photons[lit], 0.5)
        n_b = n_photons - n_a

        tally.n_trials += size
        tally.write_counts += count(click_m)
        us = uncond[rt]
        tally.n_reads += count(r)
        tally.n_uncond_reads += count(r[us])
        tally.unconditional_read_counts += count(r[us], ph[us])

        # (herald mode, read mode) cells: one key per write click of a
        # reading trial.
        click_r = read_mode[click_t]
        reading = click_r >= 0
        ct, cm, cr = click_t[reading], click_m[reading], click_r[reading]
        ph_c = n_photons[ct]
        cells = lambda weights=None: count(cm * m + cr, weights, m * m).reshape(m, m)
        tally.herald_reads += cells()
        tally.coincidence_counts += cells(ph_c)
        tally.read_counts += cells(ph_c > 0)
        tally.uncond_coincidence_counts += cells(ph_c * uncond[ct])

        # Virtual splitter on heralded reads: a write click in the read mode.
        her = cm == cr
        ht, hr = ct[her], cr[her]
        arm_a = n_a[ht] > 0
        arm_b = n_b[ht] > 0
        tally.n_heralded_splits += count(hr)
        tally.split_a += count(hr[arm_a])
        tally.split_b += count(hr[arm_b])
        tally.split_ab += count(hr[arm_a & arm_b])

    # Worker w runs blocks w, w + W, ... into its own tally: a shared tally
    # would race, since += on a large array can release the GIL partway.
    workers = min(n_blocks, _usable_cpus())

    def run_worker(w: int) -> CountsTally:
        tally = CountsTally.zeros(m)
        rows = min(BLOCK_SIZE, n_trials)
        buf = np.empty(min(_DRAW_CHUNK, rows * m))
        spin = np.empty((rows, m), dtype=bool)
        write = np.empty_like(spin)
        for b in range(w, n_blocks, workers):
            run_block(b, tally, buf, spin, write)
        return tally

    with ThreadPoolExecutor(workers) as pool:
        total, *rest = pool.map(run_worker, range(workers))
    for part in rest:
        total.n_trials += part.n_trials
        for f in fields(CountsTally)[2:]:
            getattr(total, f.name)[...] += getattr(part, f.name)
    return total


@dataclass(frozen=True, eq=False)
class TallyStatistics:
    """Per-mode(-pair) estimates derived from a :class:`CountsTally`."""

    p_w: np.ndarray
    p_w_err: np.ndarray
    p_r: np.ndarray
    p_wr: np.ndarray
    g2: np.ndarray
    g2_err: np.ndarray

    def g2_cell(self, i: int, j: int) -> Estimate:
        return Estimate(float(self.g2[i, j]), float(self.g2_err[i, j]))


def _ratio_err(k, n):
    """Binomial-ish standard error of k/n, with a one-count floor for k = 0."""
    k = np.asarray(k, dtype=float)
    p = k / n
    return np.sqrt(np.maximum(k, 1.0) * np.maximum(1.0 - np.minimum(p, 1.0), 0.0)) / n


def estimate_statistics(tally: CountsTally) -> TallyStatistics:
    """Estimate p_w, p_r, p_wr, and g2 per mode (pair); p_w and g2 with standard errors.

    g2(i, j) is computed as p(r|w) / p_r, algebraically identical to
    p_wr / (p_w p_r) but unbiased when reads are herald-conditioned
    (feed-forward data): the heralded retrieval estimate comes from read-j
    trials with a herald in i, the normalization from unconditional passes.
    Cells without data are NaN, and so are cells whose read mode had no
    unconditional photons (p_r = 0); zero coincidences with nonzero singles
    give 0 with a one-sided single-count error.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        p_w = tally.write_counts / tally.n_trials
        p_w_err = _ratio_err(tally.write_counts, tally.n_trials)

        n_ur = tally.n_uncond_reads.astype(float)
        p_r = np.where(n_ur > 0, tally.unconditional_read_counts / np.maximum(n_ur, 1), np.nan)
        p_wr = np.where(n_ur > 0, tally.uncond_coincidence_counts / np.maximum(n_ur, 1), np.nan)

        hr = tally.herald_reads.astype(float)
        pairs = tally.coincidence_counts.astype(float)
        p_rw = np.where(hr > 0, pairs / np.maximum(hr, 1), np.nan)  # p(r|w)
        g2 = np.where(p_r[None, :] > 0, p_rw / p_r[None, :], np.nan)
        rel = np.sqrt(
            1.0 / np.maximum(pairs, 1.0)
            + 1.0 / np.maximum(tally.unconditional_read_counts[None, :], 1.0)
        )
        g2_err = np.where(pairs > 0, g2 * rel, np.nan)
        # zero pairs with data present: report 0 with a one-count upper bound
        zero = (pairs == 0) & (hr > 0) & (p_r[None, :] > 0)
        one_sided = (1.0 / np.maximum(hr, 1)) / p_r[None, :]
        g2 = np.where(zero, 0.0, g2)
        g2_err = np.where(zero, one_sided, g2_err)
    return TallyStatistics(p_w, p_w_err, p_r, p_wr, g2, g2_err)


def heralded_autocorrelation(tally: CountsTally, mode=None) -> Estimate:
    """Heralded read-field autocorrelation from the virtual splitter.

        g2_rr|w = (both-arm coincidences) * (heralded reads) / (A clicks * B clicks)

    Pooled over all modes unless ``mode`` selects one.  A retrieved single
    photon never fires both arms (exactly 0); pure thermal background tends
    to 2.  Zero coincidences with nonzero singles give 0 with a one-sided
    single-count error; zero singles are undefined (NaN).  A mode outside
    [0, n_modes) is a ValueError.
    """
    if mode is not None and not 0 <= mode < tally.n_modes:
        raise ValueError(f"mode {mode} out of range for {tally.n_modes} modes")
    sl = slice(None) if mode is None else slice(mode, mode + 1)
    c = int(tally.split_ab[sl].sum())
    sa = int(tally.split_a[sl].sum())
    sb = int(tally.split_b[sl].sum())
    n = int(tally.n_heralded_splits[sl].sum())
    if sa == 0 or sb == 0 or n == 0:
        return Estimate(math.nan, math.nan)
    if c == 0:
        return Estimate(0.0, n / (sa * sb))
    val = c * n / (sa * sb)
    rel = math.sqrt(1.0 / c + 1.0 / sa + 1.0 / sb + 1.0 / n)
    return Estimate(val, val * rel)


def _child_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence(entropy=[int(seed), int(salt)]).generate_state(1)[0])


def crosstalk_matrix(
    mem: MemoryParams,
    schedule: ModeSchedule,
    n_trials: int,
    seed: int,
):
    """g2 between every write mode and every read mode.

    Column j comes from a fixed-mode-j run of ``n_trials`` trials (reads are
    then unconditional, so every cell of the column is populated).  Returns
    (values, stderrs) as (M, M) arrays indexed (write mode, read mode).
    Diagonal cells follow the analytic cross correlation at each mode's
    storage time; off-diagonal cells sit at the accidental floor of 1.
    """
    m = mem.n_modes
    g2 = np.full((m, m), np.nan)
    err = np.full((m, m), np.nan)
    for j in range(m):
        tally = run_trials(mem, schedule, n_trials, _child_seed(seed, j), readout=j)
        stats = estimate_statistics(tally)
        g2[:, j] = stats.g2[:, j]
        err[:, j] = stats.g2_err[:, j]
    return g2, err


def rephasing_deficit(
    ens: AtomEnsemble, timeline: FieldTimeline, schedule: ModeSchedule
) -> np.ndarray:
    """Per-mode echo contrast at the programmed readouts, clipped to [0, 1].

    Mode m's collective efficiency (unit intrinsic retrieval) under the
    ``timeline`` actually applied, read at ``schedule.readout_times[m]``.
    Used as the ``retrieval_scale`` of :func:`run_trials` when the applied
    gradient drifts; pass a motion-frozen ensemble, since motional decay is
    already in ``MemoryParams.tau_mem``.
    """
    scale = np.array([
        collective_efficiency(ens, timeline, float(tw), float(tr), 1.0)
        for tw, tr in zip(schedule.write_times, schedule.readout_times)
    ])
    return np.clip(scale, 0.0, 1.0)


def coincidence_scaling(
    mem: MemoryParams,
    n_modes_values,
    mode_spacing: float,
    write_duration: float,
    gradient: float,
    drift_rate: float,
    n_trials: int,
    seed: int,
    ens=None,
):
    """Per-train write and coincidence totals versus mode count.

    For each N in ``n_modes_values`` the gradient reverses right after the
    last write, readout times are programmed from the drift-free timeline,
    and trials run with cycled fixed-mode readout so every mode's joint
    write/read-pair probability is sampled.  The totals are

        p_w_total  = sum_m p_hat_w(m)          (write clicks per train)
        p_wr_total = sum_m p_hat_wr(m, m)      (write-read pairs per train,
                                                each mode read in its slot;
                                                a mode never read adds 0)

    With ``drift_rate`` nonzero the actually applied timeline drifts, so each
    mode's retrieval at its programmed time is scaled by the
    :func:`rephasing_deficit` of ``ens`` (pass a motion-frozen ensemble).
    Without decay, drift, and background (xi_eg = 0) the coincidence total is
    exactly linear in N; background pairs add a weak super-linear component
    since every stored mode contributes noise.

    Returns an array of rows (n_modes, p_w_total, p_wr_total).
    """
    if drift_rate != 0.0 and ens is None:
        raise ValueError("drift_rate != 0 requires an ensemble for the deficit factors")
    rows = []
    for n in n_modes_values:
        n = int(n)
        mem_n = replace(mem, n_modes=n)
        t_rev = (n - 1) * mode_spacing + write_duration
        nominal = FieldTimeline.reversal(gradient, t_rev)
        schedule = build_schedule(n, mode_spacing, write_duration, nominal)
        scale = None
        if drift_rate != 0.0:
            drifted = FieldTimeline.reversal(gradient, t_rev, drift_rate=drift_rate)
            scale = rephasing_deficit(ens, drifted, schedule)
        tally = run_trials(mem_n, schedule, n_trials, _child_seed(seed, n),
                           readout=CYCLE, retrieval_scale=scale)
        p_w_total = tally.write_counts.sum() / tally.n_trials
        p_wr_total = float(np.nansum(np.diag(estimate_statistics(tally).p_wr)))
        rows.append((n, p_w_total, p_wr_total))
    return np.array(rows)
