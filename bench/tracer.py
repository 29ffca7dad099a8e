"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer patches every public function of each muxmem module, in every
muxmem namespace that binds it, with a wrapper that records a span
(name, start, end, parent, trace id).  Nothing under ``src/`` is changed:
patches are installed on the imported modules and removed after each traced
pass.  Self time of a span is its duration minus the durations of its direct
child spans.  A few boundaries also count work (trials, blocks, atom
evaluations, bytes emitted) from their arguments and results.
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import os
import statistics
import sys
import time

MODULES = ("model", "cavity", "ensemble", "protocol", "repeater",
           "config", "scenarios", "cli")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_run_trials(counts, fn, args, kwargs, result, duration):
    a = _bound(fn, args, kwargs)
    m = a["mem"].n_modes
    n = int(a["n_trials"])
    counts["protocol.trials"] += n
    counts[f"protocol.M{m}.trials"] += n
    counts[f"protocol.M{m}.s"] += duration
    block = getattr(sys.modules["muxmem.protocol"], "BLOCK_SIZE", None)
    if block:
        counts["protocol.blocks"] += -(-n // block)
    splits = getattr(result, "n_heralded_splits", None)
    if splits is not None:
        counts["protocol.heralded_reads"] += int(splits.sum())


def _count_echo_profile(counts, fn, args, kwargs, result, duration):
    a = _bound(fn, args, kwargs)
    counts["ensemble.atom_evals"] += (
        a["ens"].n_atoms * len(a["times"]) * int(a["nodes"]))


def _count_emit(counts, fn, args, kwargs, result, duration):
    counts["scenarios.emit.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])


HOOKS = {
    "protocol.run_trials": _count_run_trials,
    "ensemble.echo_profile": _count_echo_profile,
    "scenarios.emit_csv": _count_emit,
    "scenarios.emit_json": _count_emit,
}


class Tracer:
    """Keeps spans and counts in memory for one traced run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, trace id)
        self.counts = collections.Counter()
        self.trace_id = None
        self.targets = {}        # span name -> original function
        self._stack = []
        self._patches = []
        self._find_targets()

    def _find_targets(self):
        for short in MODULES:
            mod = sys.modules.get(f"muxmem.{short}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self.targets[f"{short}.{name}"] = obj
        tally = getattr(sys.modules.get("muxmem.protocol"), "CountsTally", None)
        if tally is not None and "merge" in vars(tally):
            self.targets["protocol.merge"] = vars(tally)["merge"]

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.trace_id))
        self._stack.append(len(self.spans) - 1)

    def _end(self):
        idx = self._stack.pop()
        name, start, _, parent, trace = self.spans[idx]
        end = time.perf_counter()
        self.spans[idx] = (name, start, end, parent, trace)
        return end - start

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a benchmark-side span named ``name``."""
        self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._end()
            if hook is not None:
                hook(tracer.counts, fn, args, kwargs, result, duration)
            return result
        return traced

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.targets.items()}
        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "muxmem" or n.startswith("muxmem."))]
        tally = getattr(sys.modules.get("muxmem.protocol"), "CountsTally", None)
        if tally is not None:
            owners.append(tally)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_totals(self, trace_ids):
        """{span name: [calls, total s, self s]} over spans of ``trace_ids``."""
        child = collections.defaultdict(float)
        for name, start, end, parent, trace in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, trace) in enumerate(self.spans):
            if trace in trace_ids:
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child[i]
        return out


def layer_metrics(tracer, n_passes, pass_ids):
    """Per-layer metrics, per traced pass, from the tracer's spans and counts.

    Returns {metric name: value} holding only the metrics whose layer was
    reached; the caller marks the rest absent.
    """
    tot = tracer.layer_totals(set(pass_ids))
    setup = tracer.layer_totals({"setup"})
    c = tracer.counts
    per = 1.0 / n_passes
    out = {}

    def span(name, calls=None, self_ms=None, self_s=None):
        if name not in tracer.targets:
            return
        calls_n, _, self_t = tot.get(name, (0, 0.0, 0.0))
        if calls:
            out[calls] = calls_n * per
        if self_ms:
            out[self_ms] = 1e3 * self_t * per
        if self_s:
            out[self_s] = self_t * per

    span("protocol.run_trials", "protocol.run_trials.calls",
         self_s="protocol.run_trials.self_s")
    span("protocol.merge", "protocol.merge.calls", "protocol.merge.self_ms")
    span("protocol.estimate_statistics", self_ms="protocol.estimate_statistics.self_ms")
    span("ensemble.echo_profile", self_s="ensemble.echo_profile.self_s")
    for fn in ("collective_efficiency", "rephasing_time", "sample_ensemble"):
        span(f"ensemble.{fn}", f"ensemble.{fn}.calls", f"ensemble.{fn}.self_ms")
    span("config.parse_config", "config.parse_config.calls", "config.parse_config.self_ms")
    span("scenarios.run_scenario", self_ms="scenarios.run_scenario.self_ms")
    span("cli.main", self_ms="cli.main.self_ms")

    if "protocol.run_trials" in tracer.targets:
        out["protocol.run_trials.trials"] = c["protocol.trials"] * per
        if hasattr(sys.modules["muxmem.protocol"], "BLOCK_SIZE"):
            out["protocol.run_trials.blocks"] = c["protocol.blocks"] * per
        if c["protocol.trials"] and "protocol.heralded_reads" in c:
            out["protocol.heralded_read_ratio"] = (
                c["protocol.heralded_reads"] / c["protocol.trials"])
        for key in list(c):
            if key.startswith("protocol.M") and key.endswith(".s") and c[key] > 0:
                m = key[len("protocol."):-len(".s")]
                out[f"protocol.trials_per_s.{m}"] = c[f"protocol.{m}.trials"] / c[key]

    emits = [n for n in ("scenarios.emit_csv", "scenarios.emit_json") if n in tracer.targets]
    if emits:
        out["scenarios.emit.self_ms"] = 1e3 * per * sum(tot[n][2] for n in emits if n in tot)
        out["scenarios.emit.bytes"] = c["scenarios.emit.bytes"] * per

    if "ensemble.echo_profile" in tracer.targets:
        out["ensemble.atom_evals"] = c["ensemble.atom_evals"] * per
        busy = tot["ensemble.echo_profile"][1] if "ensemble.echo_profile" in tot else 0.0
        if busy > 0:
            out["ensemble.atom_evals_per_s"] = c["ensemble.atom_evals"] / busy

    for layer in ("model", "cavity", "repeater"):
        names = [n for n in tracer.targets if n.startswith(layer + ".")]
        if names:
            out[f"{layer}.calls"] = per * sum(tot[n][0] for n in names if n in tot)
            out[f"{layer}.self_ms"] = 1e3 * per * sum(tot[n][2] for n in names if n in tot)

    names = [n for n in tracer.targets if n.startswith("ensemble.")]
    out["setup.ensemble.calls"] = sum(setup[n][0] for n in names if n in setup)
    out["setup.ensemble.self_ms"] = 1e3 * sum(setup[n][2] for n in names if n in setup)
    return out


def draw_floor(protocol, mem, n_trials, seed, repeats=3):
    """Seconds for a replay of run_trials' per-block Philox draws alone.

    Replays, for ``n_trials`` trials in blocks of ``BLOCK_SIZE``, the block
    generator construction and the five draws of one feed-forward block at
    the engine's shapes: two (size, M) uniforms, two size-long uniforms, and
    the splitter binomial on geometric background counts of the engine's
    mean.  No tally is built.  Median of ``repeats`` replays.
    """
    import numpy as np

    block = protocol.BLOCK_SIZE
    m = mem.n_modes
    nbar = mem.p * (m - mem.p_int0) * mem.xi_eg / mem.beta_ratio * mem.eta_r
    log_q = math.log1p(-1.0 / (1.0 + nbar))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for b in range(-(-n_trials // block)):
            size = min(block, n_trials - b * block)
            ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(b,))
            rng = np.random.Generator(np.random.Philox(ss))
            rng.random((size, m))
            rng.random((size, m))
            rng.random(size)
            u_geom = rng.random(size)
            photons = np.floor(np.log1p(-u_geom) / log_q).astype(np.int64)
            rng.binomial(photons, 0.5)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
