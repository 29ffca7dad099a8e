"""Stochastic click-level engine for multiplexed write/read trials.

Each trial writes every temporal mode of a train (at most one excitation per
mode), records heralding write clicks, reads one mode back at its programmed
readout time, and tallies detected read photons together with a virtual
balanced splitter for autocorrelation estimates.  Background light in the read
window is thermal with mean :func:`muxmem.model.noise_given_write`, so the
tallies reproduce the closed-form statistics of :mod:`muxmem.model` in expectation.
Readout times come from a gradient timeline alone (:func:`build_schedule`).
:func:`run_train` runs one train with every mode read in turn; under a
drifting applied field it scales each mode's retrieval by the echo contrast
at its programmed readout.

:func:`run_trials` states the engine's contract: blocks, streams, passes,
and why no bit depends on the CPU count.  :func:`muxmem._streams.run_workers`
hands the passes out to the CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._streams import block_keys, rekey, run_workers
from .ensemble import FieldTimeline, collective_efficiency, rephasing_time
from .model import MemoryParams, _integer, noise_given_write

#: Trials per RNG block.  Fixed: it is part of the determinism contract.
BLOCK_SIZE = 4096

#: Raw Philox words per Bernoulli draw call, which allocates them.  Whole
#: (4096 x 100) blocks raised ``trial-train``'s peak memory by 6.7 MB; 2**13
#: to 2**16 words peaked within 0.7 MB, lowest at 2**15 (2 vCPU, 3 runs each).
_DRAW_CHUNK = 2 ** 15

#: A pass tallies up to this many consecutive blocks with one set of numpy
#: calls, holding at most ``_PASS_CELLS`` (trial, mode) cells, so its (2, rows)
#: float uniforms are no larger than the raw-word chunk.  A 13-block cap
#: (852 kB of uniforms at M = 1, 12 blocks at M = 10) ran ``scenario-suite``
#: 4.5% slower with 5.7 MB more peak memory (2 vCPU).
_PASS_BLOCKS = 4
_PASS_CELLS = 2 ** 17

#: Largest ``n_trials``: block keys take block indices below 2**32.
_MAX_TRIALS = BLOCK_SIZE << 32

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
        if not (np.isfinite(w).all() and np.isfinite(r).all()):
            raise ValueError("write and readout times must be finite")
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
    write_times = np.arange(_integer("n_modes", n_modes)) * mode_spacing
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


def _pass_blocks(m: int) -> int:
    """Blocks per pass at ``m`` modes: several only while they fit ``_PASS_CELLS``."""
    return max(1, min(_PASS_BLOCKS, _PASS_CELLS // (BLOCK_SIZE * m)))


def _draw_below(rng, q, out) -> None:
    """Set ``out`` to ``rng.random(out.shape) < q`` for q in [0, 1], bit for bit.

    ``random()`` turns the next Philox word w into (w >> 11)·2⁻⁵³, so
    u < q exactly when w < ⌈q·2⁵³⌉·2¹¹.  One word per value, chunk by
    chunk in row order, leaves the stream where the dense draw would.
    At q = 1 the bound is 2⁶⁴; numpy compares Python ints exactly.
    """
    limit = math.ceil(q * 2.0 ** 53) << 11
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _DRAW_CHUNK):
        words = rng.bit_generator.random_raw(min(_DRAW_CHUNK, flat.size - lo))
        np.less(words, limit, out=flat[lo:lo + words.size])


def _background(u, r, q, log_q):
    """Thermal photons ``floor(log1p(-u) / log_q[r])``, taken where u >= q[r]·(1 − 10⁻⁹).

    Elsewhere it is 0 with the same bits: log1p(-u) / log1p(-q) is convex in u,
    0 at 0 and 1 at q, so there it stays under u / q < 1 − 10⁻⁹, a margin that
    rounding (~10⁻¹⁶, relative) cannot close.  At nbar = 0 (q = 1) it is +0.
    """
    n = np.zeros(r.size, dtype=np.int64)
    c = np.flatnonzero(u >= (q * (1.0 - 1e-9))[r])
    n[c] = np.floor(np.log1p(-u[c]) / log_q[r[c]])
    return n


def run_trials(
    mem: MemoryParams,
    schedule: ModeSchedule,
    n_trials: int,
    seed: int,
    readout=FEED_FORWARD,
    retrieval_scale=None,
) -> CountsTally:
    """Simulate ``n_trials`` write/read trials and return their tally.

    ``readout`` is :data:`FEED_FORWARD` (read the first heralded mode; odd
    trials instead run a fixed-mode pass cycling through the modes to normalize
    the statistics), :data:`CYCLE` (every trial a fixed-mode pass, cycling
    through the modes) or a mode index read in every trial.  ``retrieval_scale``
    optionally multiplies the decayed intrinsic retrieval per mode (external
    rephasing deficits); the background mean is ``model.noise_given_write``.
    ``seed`` is an integer under the rule for counts; ``n_trials`` is at most
    2**44, so block indices stay below 2**32.

    Deterministic for fixed (seed, n_trials), with the same bits on any CPU
    count.  Trials run in blocks of ``BLOCK_SIZE``.  Block b draws from the
    Philox stream keyed by ``SeedSequence(entropy=seed, spawn_key=(b,))``,
    all keys from one vectorized pass per call (:func:`_streams.block_keys`).
    Up to four consecutive blocks form a pass (:func:`_pass_blocks`): each
    block draws its Bernoulli words (:func:`_draw_below`), uniforms and
    splitter binomials from its own stream into its own rows, then the pass
    is tallied with one set of numpy calls, so no bit depends on the pass
    layout.  Each pass goes to the first worker to free up, one per usable CPU
    (:func:`_streams.run_workers`), each into its own tally, and the tallies
    add as integers, exact in any order.  The unconditional reads, which no
    draw changes, are set once per call for every readout: the k-th
    unconditional read reads mode k mod M (or the fixed mode), k counting the
    odd trials under feed-forward and every trial otherwise.  ``n_reads`` adds
    them to the heralded reads that the passes count.
    """
    m = mem.n_modes
    if schedule.n_modes != m:
        raise ValueError(
            f"schedule has {schedule.n_modes} modes but params expect {m}"
        )
    n_trials = _integer("n_trials", n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_trials > _MAX_TRIALS:
        raise ValueError("n_trials must be <= 2**44 (block indices below 2**32)")
    seed = _integer("seed", seed)
    fixed = readout not in (FEED_FORWARD, CYCLE)
    if fixed:
        readout = _integer("readout", readout)
        if not 0 <= readout < m:
            raise ValueError(f"fixed readout mode {readout} out of range")
    scale = np.ones(m) if retrieval_scale is None else np.asarray(retrieval_scale, float)
    # written so that NaN, which fails every comparison, is rejected too
    if scale.shape != (m,) or not np.all((scale >= 0.0) & (scale <= 1.0)):
        raise ValueError("retrieval_scale must be per-mode factors in [0, 1]")

    p_coh = mem.p_int(schedule.storage_times) * scale * mem.eta_r
    nbar = noise_given_write(mem, schedule.storage_times)
    # Bose-Einstein photon number via inverse-CDF of the geometric law with
    # q = 1 / (1 + nbar); log(1 - q) = -inf for nbar = 0 gives no photons.
    q = 1.0 / (1.0 + nbar)
    log_q = np.array([math.log1p(-qj) if n > 0 else -math.inf for qj, n in zip(q, nbar)])

    n_blocks = (n_trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    per_pass = _pass_blocks(m)
    n_passes = (n_blocks + per_pass - 1) // per_pass
    keys = block_keys(seed, np.arange(n_blocks, dtype=np.uint32))
    rows = min(per_pass * BLOCK_SIZE, n_trials)
    # Read modes from an even pass start: cycled trial start + k reads
    # pattern[start % m + k]; feed-forward odd row 2k + 1, pattern[(start // 2) % m + k].
    pattern = np.full(rows + m, readout) if fixed else np.arange(rows + m) % m
    odd = np.arange(rows) % 2 == 1

    def count(keys, weights=None, n=m):
        """Integer histogram of ``keys`` over [0, n).

        A key k + K·f, with k < K and f a small integer flag, counts k for
        every value of f in one call.  Weighted bincounts come back as
        float64; the weights are photon counts, some times a 0/1 flag, so a
        pass's sums are integers far below 2**53 and the cast to int64 is exact.
        """
        c = np.bincount(keys, weights, minlength=n)
        return c if weights is None else c.astype(np.int64)

    def run_pass(p: int, tally: CountsTally, spin, write, u, slots) -> None:
        """Draw the blocks of pass ``p`` and add their counts into ``tally`` in place.

        ``spin`` and ``write`` are the worker's (rows, m) bool arrays and
        ``u`` its (2, rows) uniforms, of which the pass uses the first
        ``size`` rows; each block of the pass fills its own rows of them.
        Block i of the pass draws from ``slots[i]``, re-keyed to its stream.
        """
        blocks = range(p * per_pass, min((p + 1) * per_pass, n_blocks))
        start = blocks[0] * BLOCK_SIZE
        size = min(len(blocks) * BLOCK_SIZE, n_trials - start)
        spin, write, u = spin[:size], write[:size], u[:, :size]
        rngs = slots[:len(blocks)]
        for i, (rng, b) in enumerate(zip(rngs, blocks)):
            rekey(rng, keys[b])
            lo, hi = i * BLOCK_SIZE, min((i + 1) * BLOCK_SIZE, size)
            _draw_below(rng, mem.p, spin[lo:hi])
            _draw_below(rng, mem.eta_w, write[lo:hi])
            # Coherent-photon, then background uniforms: one stream, as
            # ``random(2 * (hi - lo))`` would lay them out.
            rng.random(out=u[0, lo:hi])
            rng.random(out=u[1, lo:hi])
        write &= spin
        # Every write click as (trial, mode), trials ascending and modes
        # ascending within a trial (flat indices are much faster than 2-D
        # np.nonzero).
        click_t, click_m = np.divmod(np.flatnonzero(write), m)

        # Each reading trial rt reads mode r.  Feed-forward trials read the first
        # heralded mode (-1: none), odd rows are unconditional fixed-mode reads;
        # cycled and fixed readouts read, unconditionally, in every trial: no gathers.
        if readout == FEED_FORWARD:
            read_mode = np.full(size, -1, dtype=np.int64)
            read_mode[1::2] = pattern[(start // 2) % m:][:size // 2]
            first = np.ones(click_t.size, dtype=bool)    # first click of its trial
            first[1:] = click_t[1:] != click_t[:-1]
            ff = first & ~odd[click_t]
            read_mode[click_t[ff]] = click_m[ff]
            rt = np.flatnonzero(read_mode >= 0)
            r, u = read_mode[rt], u.take(rt, axis=1)
            click_r = read_mode[click_t]
            reading = click_r >= 0
            ct, cm, cr = click_t[reading], click_m[reading], click_r[reading]
        else:
            rt = np.arange(size)
            r = pattern[start % m:][:size]
            ct, cm, cr = click_t, click_m, r[click_t]
        coh = spin.reshape(-1)[rt * m + r] & (u[0] < p_coh[r])
        ph = n_photons = coh + _background(u[1], r, q, log_q)
        if readout == FEED_FORWARD:
            n_photons = np.zeros(size, dtype=np.int64)
            n_photons[rt] = ph

        # Splitter: binomial split of each reading trial's photons, every
        # block on its own stream over its own slice of the lit trials.  A
        # binomial with n = 0 draws nothing, so skipping the trials without
        # photons leaves the Philox stream as it is.
        n_a = np.zeros(size, dtype=np.int64)
        lit = np.flatnonzero(n_photons)
        ends = np.searchsorted(lit, np.arange(1, len(rngs)) * BLOCK_SIZE)
        for rng, sl in zip(rngs, np.split(lit, ends)):
            n_a[sl] = rng.binomial(n_photons[sl], 0.5)

        tally.n_trials += size
        tally.write_counts += count(click_m)
        # (herald mode, read mode) cells: one key per write click of a
        # reading trial.
        key = cm * m + cr
        ph_c = n_photons[ct]
        pairs = count(key, ph_c, m * m).reshape(m, m)
        if readout == FEED_FORWARD:
            tally.n_reads += count(click_m[ff])    # heralded reads
            tally.unconditional_read_counts += count(r, ph * odd[rt])
            tally.uncond_coincidence_counts += count(key, ph_c * odd[ct], m * m).reshape(m, m)
        else:  # every read is unconditional: its pairs are set once per call
            tally.unconditional_read_counts += count(r[lit], ph[lit])
        tally.coincidence_counts += pairs
        lit_cells = count(key + m * m * (ph_c > 0), n=2 * m * m).reshape(2, m, m)
        tally.herald_reads += lit_cells[0] + lit_cells[1]
        tally.read_counts += lit_cells[1]

        # Virtual splitter on heralded reads (a write click in the read mode).
        her = cm == cr
        ht, hr = ct[her], cr[her]
        a = n_a[ht]
        arms = count(hr + m * ((a > 0) + 2 * (n_photons[ht] > a)), n=4 * m).reshape(4, m)
        tally.n_heralded_splits += arms.sum(axis=0)
        tally.split_a += arms[1] + arms[3]
        tally.split_b += arms[2] + arms[3]
        tally.split_ab += arms[3]

    # Each worker runs its passes into its own tally: a shared tally would
    # race, since += on a large array can release the GIL partway.
    def run_worker(passes) -> CountsTally:
        tally = CountsTally.zeros(m)
        spin = np.empty((rows, m), dtype=bool)
        write = np.empty_like(spin)
        u = np.empty((2, rows))
        slots = [np.random.Generator(np.random.Philox(0)) for _ in range(per_pass)]
        for p in passes:
            run_pass(p, tally, spin, write, u, slots)
        return tally

    total, *rest = run_workers(run_worker, n_passes)
    for part in rest:
        total.n_trials += part.n_trials
        for f in fields(CountsTally)[2:]:
            getattr(total, f.name)[...] += getattr(part, f.name)
    # Unconditional read k reads pattern[k % m]: feed-forward odd trial 2k + 1,
    # cycled or fixed trial k.
    k = n_trials // 2 if readout == FEED_FORWARD else n_trials
    total.n_uncond_reads[:] = count(pattern[:k % m]) + k // m * count(pattern[:m])
    total.n_reads += total.n_uncond_reads
    if readout != FEED_FORWARD:
        total.uncond_coincidence_counts[:] = total.coincidence_counts
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
        g2_err = np.where(zero, one_sided, g2_err)
    return TallyStatistics(p_w, p_w_err, p_r, p_wr, g2, g2_err)


def heralded_autocorrelation(tally: CountsTally) -> Estimate:
    """Heralded read-field autocorrelation from the virtual splitter, pooled over all modes.

        g2_rr|w = (both-arm coincidences) * (heralded reads) / (A clicks * B clicks)

    A retrieved single photon never fires both arms (exactly 0); pure thermal
    background tends to 2.  Zero coincidences with nonzero singles give 0 with
    a one-sided single-count error; zero singles are undefined (NaN).
    """
    c = int(tally.split_ab.sum())
    sa = int(tally.split_a.sum())
    sb = int(tally.split_b.sum())
    n = int(tally.n_heralded_splits.sum())
    if sa == 0 or sb == 0 or n == 0:
        return Estimate(math.nan, math.nan)
    if c == 0:
        return Estimate(0.0, n / (sa * sb))
    val = c * n / (sa * sb)
    rel = math.sqrt(1.0 / c + 1.0 / sa + 1.0 / sb + 1.0 / n)
    return Estimate(val, val * rel)


def _child_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence(entropy=[_integer("seed", seed), salt]).generate_state(1)[0])


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


def run_train(mem: MemoryParams, schedule: ModeSchedule, timeline: FieldTimeline,
              n_trials: int, seed: int, ens=None):
    """Run one train with every mode read in turn; return its per-train totals.

    ``n_trials`` trials read the M = ``schedule.n_modes`` modes of ``mem`` in
    turn (:data:`CYCLE`), seeded by (``seed``, M).  When the applied
    ``timeline`` drifts, each mode's retrieval is scaled by the collective
    efficiency of ``ens`` at its programmed readout, clipped to [0, 1]; pass a
    motion-frozen ensemble (motional decay is already in ``tau_mem``), or get
    a ValueError.  Returns (p_w_total, p_wr_total, stats) with

        p_w_total  = sum_m p_hat_w(m)       (write clicks per train)
        p_wr_total = sum_m p_hat_wr(m, m)   (write-read pairs per train; a
                                             mode never read adds 0)
    """
    m = schedule.n_modes
    scale = None
    if timeline.drift_rate != 0.0:
        if ens is None:
            raise ValueError("a drifting timeline requires an ensemble for the deficit factors")
        scale = np.clip([collective_efficiency(ens, timeline, float(tw), float(tr))
                         for tw, tr in zip(schedule.write_times, schedule.readout_times)],
                        0.0, 1.0)
    tally = run_trials(replace(mem, n_modes=m), schedule, n_trials, _child_seed(seed, m),
                       readout=CYCLE, retrieval_scale=scale)
    stats = estimate_statistics(tally)
    p_w_total = float(tally.write_counts.sum()) / tally.n_trials
    return p_w_total, float(np.nansum(np.diag(stats.p_wr))), stats


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
    and the train runs through :func:`run_train` under the reversal with
    ``drift_rate`` (a nonzero rate needs ``ens``, a motion-frozen ensemble).
    Without decay, drift, and background (xi_eg = 0) the coincidence total is
    exactly linear in N; background pairs add a weak super-linear component
    since every stored mode contributes noise.

    Returns an array of rows (n_modes, p_w_total, p_wr_total).
    """
    rows = []
    for n in n_modes_values:
        n = _integer("n_modes_values", n)
        t_rev = (n - 1) * mode_spacing + write_duration
        schedule = build_schedule(n, mode_spacing, write_duration,
                                  FieldTimeline.reversal(gradient, t_rev))
        applied = FieldTimeline.reversal(gradient, t_rev, drift_rate=drift_rate)
        p_w_total, p_wr_total, _ = run_train(mem, schedule, applied, n_trials, seed, ens)
        rows.append((n, p_w_total, p_wr_total))
    return np.array(rows)
