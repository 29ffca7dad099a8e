"""muxmem benchmark: one workload, closed loop, in this fresh process.

Usage::

    python3 bench/run.py --workload trial-train --seed 1 --seconds 20 --trace 0

Run from the root of a muxmem source tree; the program is imported from
``src/`` of that tree and nowhere else.  Set-up (importing muxmem in a fresh
interpreter and building the workload's inputs) is timed once here and
several times in child interpreters between the passes, and its median
reported.  Passes over the workload's fixed job list are timed until they
add up to ``--seconds``.  Every job's output is checked in every pass.

Between jobs, the workload's calibration chunk, which does not touch muxmem
(``calib.py``), is timed, so that chunks take about ``CALIBRATION_SHARE`` of
the job time.  ``pass_s``, the mean pass, is rescaled by the chunk's nominal
time over its mean time in the run, which cancels the shared host's speed
phases; the run record keeps the raw pass times and the factor.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` timed passes alternate between traced
and untraced, and it holds the per-layer metrics.  The line before it is the
run record: versions, config digest, pass quartiles and absent metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

#: Set-up samples per run: this many child interpreters, plus this process.
#: One probe runs after each timed pass, so that the samples spread over the
#: run's slow and fast phases; the rest run after the last pass.
SETUP_PROBES = 6

#: Fewest timed passes in an untraced run.
MIN_PASSES = 2

#: Calibration seconds per second of job time.
CALIBRATION_SHARE = 0.25


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up, print its seconds and exit")
    p.add_argument("--record-reference", action="store_true",
                   help="write this workload's outputs at the default seed to reference.json")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


class Modules:
    """The muxmem modules the workloads call, looked up at call time."""

    def __init__(self):
        import muxmem
        from muxmem import cli, config, ensemble, model, protocol

        if not os.path.abspath(muxmem.__file__).startswith(SRC + os.sep):
            raise ImportError(f"muxmem imported from {muxmem.__file__}, not from {SRC}")
        self.cli, self.config, self.ensemble = cli, config, ensemble
        self.model, self.protocol = model, protocol


def setup(args, workdir, traced=False):
    """Import muxmem and build the workload; returns (seconds, modules, workload, tracer)."""
    start = time.perf_counter()
    mx = Modules()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.trace_id = "setup"
        tracer.install()
    try:
        wl = workloads.WORKLOADS[args.workload](mx, args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start, mx, wl, tracer


def probe_setup(args):
    """Set-up seconds measured in a fresh child interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Calibration:
    """Calibration chunks run between jobs, about CALIBRATION_SHARE of job time."""

    def __init__(self, chunk):
        self.chunk = chunk
        self.samples = []
        self.job_s = 0.0

    def after_job(self, seconds):
        self.job_s += seconds
        while sum(self.samples) < CALIBRATION_SHARE * self.job_s:
            self.samples.append(self.chunk())

    def factor(self):
        """Nominal over mean chunk time: below 1 when the host runs slow.

        A mean, like a pass time, integrates the host's speed over time; a
        median chunk would follow the host's most common speed instead.
        """
        return self.chunk.nominal_s / statistics.mean(self.samples)


def run_pass(wl, calibration, tracer=None, trace_id=None):
    """Run every job once; returns (job seconds, {job: result or None}).

    Calibration chunks, which call no muxmem code, run after each job and are
    not counted.
    """
    results = {}
    elapsed = 0.0
    if tracer is not None:
        tracer.trace_id = trace_id
        tracer.install()
    try:
        for job, fn in wl.jobs():
            start = time.perf_counter()
            try:
                if tracer is not None:
                    results[job] = tracer.call(f"bench.{job}", fn)
                else:
                    results[job] = fn()
            except Exception:
                traceback.print_exc()
                results[job] = None
            seconds = time.perf_counter() - start
            elapsed += seconds
            calibration.after_job(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def src_record():
    """Line count and content digest of the program's source files."""
    h = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return lines, h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    args = parse_args(argv)
    # Let a terminated run remove its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "muxmem", "__init__.py")):
        print(f"bench: no muxmem package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # The program picks its own parallelism.
    os.environ.pop("MUXMEM_THREADS", None)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.probe_setup:
            print(repr(setup(args, workdir)[0]))
            return 0
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass


def measure(args, spec, workdir):
    elapsed, mx, wl, tracer = setup(args, workdir, traced=bool(args.trace))
    setup_times = [elapsed]

    ref_path = os.path.join(BENCH, "reference.json")
    with open(ref_path) as fh:
        references = json.load(fh)
    refs = references.get(wl.name, {}) if args.seed == workloads.DEFAULT_SEED else {}

    calibration = Calibration(wl.calibration())
    first = None
    attempted = failed = 0
    untraced, traced, traced_ids = [], [], []
    timed = 0.0
    n = 0
    while True:
        is_traced = bool(args.trace) and n % 2 == 1
        elapsed, results = run_pass(wl, calibration, tracer if is_traced else None,
                                    trace_id=n)
        outputs = {}
        for job, result in results.items():
            attempted += 1
            errors = ["job raised"] if result is None else []
            if result is not None:
                outputs[job] = out = wl.output(job, result)
                errors = wl.check(job, out, None if first is None else first.get(job),
                                  None if args.record_reference else refs.get(job))
            if errors:
                failed += 1
                print(f"bench: pass {n} job {job}: {'; '.join(errors)}", file=sys.stderr)
        if first is None:
            first = outputs
        if args.record_reference:
            return record_reference(args, wl, references, ref_path, outputs, failed)
        if is_traced:
            traced.append(elapsed)
            traced_ids.append(n)
        else:
            untraced.append(elapsed)
        n += 1
        timed += elapsed
        if len(setup_times) <= SETUP_PROBES:
            setup_times.append(probe_setup(args))
        done = timed >= args.seconds
        if args.trace:
            enough = bool(traced) and bool(untraced)
        else:
            enough = len(untraced) >= MIN_PASSES
        if done and enough:
            break

    while len(setup_times) <= SETUP_PROBES:
        setup_times.append(probe_setup(args))
    q1, q3 = quartiles(untraced)
    factor = calibration.factor()
    lines, src_digest = src_record()
    import numpy
    import scipy

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "commit": git_commit(),
        "src_sha256": src_digest,
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "config_sha256": hashlib.sha256(
            json.dumps(wl.describe(), sort_keys=True).encode()).hexdigest(),
        "input_size": wl.size,
        "setup_s_samples": setup_times,
        "pass_s_samples": untraced,
        "pass_s_q1": q1,
        "pass_s_q3": q3,
        "calibration_s_samples": calibration.samples,
        "speed_factor": factor,
        "check_fail_ratio": failed / attempted,
    }

    if args.trace:
        found = tracing.layer_metrics(tracer, len(traced), traced_ids)
        found.update(extra_layer_metrics(mx, wl, found, first))
        found["trace.overhead"] = (statistics.median(traced)
                                   / statistics.median(untraced) - 1)
        found["src.lines"] = lines
        wanted = spec["per_layer"]
        record["traced_passes"] = len(traced)
        record["spans"] = len(tracer.spans)
    else:
        found = {
            "pass_s": statistics.mean(untraced) * factor,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    record["absent"] = [m["name"] for m in wanted if m["name"] not in found]
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference(args, wl, references, ref_path, outputs, failed):
    """Store one pass's outputs at the default seed as the workload's reference."""
    if args.seed != workloads.DEFAULT_SEED or failed:
        print(f"bench: references need --seed {workloads.DEFAULT_SEED} and a clean pass",
              file=sys.stderr)
        return 1
    references[wl.name] = {job: wl.reference(out) for job, out in outputs.items()}
    with open(ref_path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def extra_layer_metrics(mx, wl, found, first):
    """Draw floor, tally share and the node-count error table (untraced)."""
    from dataclasses import replace

    out = {}
    protocol = mx.protocol
    if hasattr(protocol, "BLOCK_SIZE"):
        memory = mx.config.parse_config("", scenario="protocol-run").memory
        for m, n_trials in workloads.TRAIN_TRIALS.items():
            floor_s = tracing.draw_floor(protocol, replace(memory, n_modes=m), n_trials,
                                         seed=wl.seed)
            out[f"protocol.draw_floor.trials_per_s.M{m}"] = n_trials / floor_s
            rate = found.get(f"protocol.trials_per_s.M{m}")
            if rate:
                out[f"protocol.tally_share.M{m}"] = 1.0 - floor_s / (n_trials / rate)
    if hasattr(wl, "node_errors"):
        for n, err in wl.node_errors(first["echo"]).items():
            out[f"ensemble.nodes_err.{n}"] = err
    return out


if __name__ == "__main__":
    sys.exit(main())
