"""The benchmark's three workloads.

Each workload builds its inputs in ``__init__`` (the set-up), exposes a fixed
list of jobs that one timed pass runs in order, and checks each job's output.
Jobs call the program through module attributes looked up at call time, so
the tracer's patches apply to them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os

import calib

#: Seed at which outputs are compared against ``reference.json``.
DEFAULT_SEED = 1

#: Non-echo scenarios, run at default config by the scenario-suite workload.
SUITE_SCENARIOS = ("mode-sweep", "max-modes", "cavity-design", "pulse-enhancement",
                   "protocol-run", "crosstalk", "storage-decay", "repeater-rate")

#: Feed-forward trials per mode count: 300, 80 and 40 blocks of 4096, which
#: cost about the same at the seed's tally speed.
TRAIN_TRIALS = {10: 1_228_800, 50: 327_680, 100: 163_840}

#: Largest accepted |g2 - closed form| in standard errors, per diagonal cell
#: and pooled over a job's diagonal.
G2_MAX_Z = 5.0

#: Echo values may move this much from the reference (last-bit kernel changes).
ECHO_ABS_TOL = 1e-9

#: Node counts compared against the default 33-node echo profile.
ERROR_NODES = (9, 17, 25)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tally_digest(tally) -> str:
    """Digest of every field of a CountsTally, as little-endian int64."""
    import numpy as np

    h = hashlib.sha256()
    for f in dataclasses.fields(tally):
        h.update(f.name.encode())
        h.update(np.ascontiguousarray(getattr(tally, f.name), dtype="<i8").tobytes())
    return h.hexdigest()


class CliJobs:
    """Jobs that run ``muxmem.cli.main`` into their own output directories."""

    def __init__(self, mx, workdir, argvs):
        self.mx = mx
        self.argvs = argvs
        self.dirs = {}
        for name, argv in argvs.items():
            out = os.path.join(workdir, name)
            os.makedirs(out, exist_ok=True)
            self.dirs[name] = out
            argv.extend(["--out", out])

    def run(self, name):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mx.cli.main(self.argvs[name])

    def files(self, name):
        """{file name: bytes} of everything the job wrote."""
        out = self.dirs[name]
        result = {}
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                result[fname] = fh.read()
        return result

    @staticmethod
    def digest(files):
        return sha256(b"".join(name.encode() + b"\0" + data for name, data in files.items()))


class EchoProfile:
    """The default ``echo`` scenario through the command line entry point."""

    name = "echo-profile"
    calibration = calib.EchoChunk

    def __init__(self, mx, seed, workdir):
        self.mx = mx
        self.seed = seed
        self.cfg = mx.config.parse_config("", scenario="echo")
        self.cli = CliJobs(mx, workdir, {"echo": ["echo", "--seed", str(seed)]})
        opts = self.cfg.options
        self.size = {
            "atoms": self.cfg.ensemble.n_atoms,
            "times": opts["n_points"],
            "nodes": 33,
            "pulses": len(opts["durations_s"]),
        }

    def describe(self):
        return {"argv": self.cli.argvs["echo"][:3],
                "config": self.mx.config.serialize_config(self.cfg), "size": self.size}

    def jobs(self):
        return [("echo", lambda: self.cli.run("echo"))]

    def output(self, job, code):
        files = self.cli.files(job)
        rows = list(csv.reader(io.StringIO(files["echo.csv"].decode())))[1:]
        return {"code": code, "digest": self.cli.digest(files),
                "values": [float(r[2]) for r in rows]}

    def check(self, job, out, first, ref):
        errors = []
        if out["code"] != 0:
            errors.append(f"exit code {out['code']}")
        if not out["values"]:
            errors.append("no echo values")
        elif max(out["values"]) > self.cfg.memory.p_int0:
            errors.append(f"echo peak {max(out['values'])} exceeds p_int0")
        if first is not None and out["digest"] != first["digest"]:
            errors.append("output differs from the first pass")
        if ref is not None:
            if len(ref) != len(out["values"]):
                errors.append("echo value count differs from the reference")
            else:
                dev = max(abs(a - b) for a, b in zip(out["values"], ref))
                if dev > ECHO_ABS_TOL:
                    errors.append(f"echo deviates {dev:.3g} from the reference")
        return errors

    def reference(self, out):
        return out["values"]

    def node_errors(self, out):
        """Max |echo_profile(nodes=n) - the 33-node profile in ``out``| over the inputs.

        Empty when ``echo_profile`` no longer takes a node count.
        """
        import inspect

        import numpy as np

        ens_mod, cfg = self.mx.ensemble, self.cfg
        if "nodes" not in inspect.signature(ens_mod.echo_profile).parameters:
            return {}
        ens = ens_mod.sample_ensemble(
            cfg.ensemble.n_atoms, cfg.ensemble.cloud_sigma, cfg.ensemble.temperature,
            seed=self.seed, k_sw=cfg.ensemble.k_sw_value,
            zeeman_coeff=cfg.ensemble.zeeman_coeff)
        timeline = ens_mod.FieldTimeline.reversal(
            cfg.schedule.gradient, cfg.options["reverse_time_s"],
            bias=cfg.schedule.bias, drift_rate=cfg.schedule.drift_rate)
        times = np.linspace(cfg.options["time_start_s"], cfg.options["time_stop_s"],
                            cfg.options["n_points"])
        durations = cfg.options["durations_s"]
        # The CSV holds one block of len(times) rows per pulse duration.
        full = np.array(out["values"]).reshape(len(durations), len(times))
        errors = {}
        for n in ERROR_NODES:
            errors[n] = max(
                float(np.abs(ens_mod.echo_profile(
                    ens, timeline, 0.0, dataclasses.replace(cfg.pulse, duration_fwhm=d),
                    cfg.memory.p_int0, times, nodes=n)[:, 1] - f).max())
                for d, f in zip(durations, full))
        return errors

class TrialTrain:
    """Feed-forward run_trials at M = 10, 50, 100, each with its estimators."""

    name = "trial-train"
    calibration = calib.MixedChunk

    def __init__(self, mx, seed, workdir):
        from dataclasses import replace

        import numpy as np

        self.mx = mx
        self.seed = seed
        cfg = mx.config.parse_config("", scenario="protocol-run")
        self.cfg = cfg
        sch = cfg.schedule
        self.inputs = {}
        for m, n_trials in TRAIN_TRIALS.items():
            mem = replace(cfg.memory, n_modes=m)
            t_last = (m - 1) * sch.mode_spacing + sch.write_duration
            timeline = mx.ensemble.FieldTimeline.reversal(
                sch.gradient, t_last, bias=sch.bias, drift_rate=sch.drift_rate)
            schedule = mx.protocol.build_schedule(m, sch.mode_spacing, sch.write_duration,
                                                  timeline)
            expected = np.array([mx.model.cross_correlation(mem, storage_time=float(t))
                                 for t in schedule.storage_times])
            job_seed = int(np.random.SeedSequence([seed, m]).generate_state(1)[0])
            self.inputs[f"M{m}"] = (mem, schedule, n_trials, job_seed, expected)
        self.size = {job: inp[2] for job, inp in self.inputs.items()}

    def describe(self):
        return {"config": self.mx.config.serialize_config(self.cfg),
                "trials": self.size,
                "seeds": {job: inp[3] for job, inp in self.inputs.items()}}

    def jobs(self):
        return [(job, lambda job=job: self.run(job)) for job in self.inputs]

    def run(self, job):
        protocol = self.mx.protocol
        mem, schedule, n_trials, seed, _ = self.inputs[job]
        tally = protocol.run_trials(mem, schedule, n_trials, seed)
        return (tally, protocol.estimate_statistics(tally),
                protocol.heralded_autocorrelation(tally))

    def output(self, job, result):
        tally, stats, _ = result
        return {"digest": tally_digest(tally),
                "pairs": tally.coincidence_counts.diagonal().astype(float),
                "herald_reads": tally.herald_reads.diagonal().astype(float),
                "uncond_photons": tally.unconditional_read_counts.astype(float),
                "p_r": stats.p_r}

    def check(self, job, out, first, ref):
        import numpy as np

        errors = []
        # g2 = pairs / (herald_reads * p_r), so the closed form predicts
        # `expected` pairs.  The standard error is the engine's first-order
        # one, taken at the closed-form value rather than at the estimate:
        # taken at the estimate it shrinks with low counts and gives a heavy
        # low tail at M = 100 (see README.md).
        expected = out["herald_reads"] * self.inputs[job][4] * out["p_r"]
        with np.errstate(invalid="ignore", divide="ignore"):
            var = expected + expected * expected / out["uncond_photons"]
            z = np.abs(out["pairs"] - expected) / np.sqrt(var)
            # All modes pooled, which catches a bias too small to show per mode.
            pooled = abs((out["pairs"] - expected).sum()) / np.sqrt(var.sum())
        if not np.all(np.isfinite(z)):
            errors.append("diagonal g2 undefined for some mode")
        elif max(z.max(), pooled) > G2_MAX_Z:
            errors.append(f"diagonal g2 is {z.max():.2f} stderr (pooled {pooled:.2f}) "
                          "from the closed form")
        if first is not None and out["digest"] != first["digest"]:
            errors.append("tally differs from the first pass")
        if ref is not None and out["digest"] != ref:
            errors.append("tally digest differs from the reference")
        return errors

    def reference(self, out):
        return out["digest"]


class ScenarioSuite:
    """The eight non-echo scenarios, plus protocol-run under field drift."""

    name = "scenario-suite"
    calibration = calib.MixedChunk

    #: Config of the extra drifting protocol-run job.
    DRIFT_CONFIG = {"scenario": "protocol-run", "schedule": {"drift_rate_per_s": 2e4}}

    def __init__(self, mx, seed, workdir):
        self.mx = mx
        self.seed = seed
        drift_path = os.path.join(workdir, "protocol-run-drift.json")
        with open(drift_path, "w") as fh:
            json.dump(self.DRIFT_CONFIG, fh)
        argvs = {s: [s, "--seed", str(seed)] for s in SUITE_SCENARIOS}
        argvs["protocol-run-drift"] = ["protocol-run", "--config", drift_path,
                                       "--seed", str(seed)]
        self.cli = CliJobs(mx, workdir, argvs)
        # The configs the jobs will parse, for the run record.
        self.configs = {s: mx.config.serialize_config(mx.config.parse_config("", scenario=s))
                        for s in SUITE_SCENARIOS}
        self.configs["protocol-run-drift"] = mx.config.serialize_config(
            mx.config.parse_config(json.dumps(self.DRIFT_CONFIG)))
        self.size = {"jobs": len(argvs)}

    def describe(self):
        return {"configs": self.configs, "size": self.size}

    def jobs(self):
        return [(job, lambda job=job: self.cli.run(job)) for job in self.cli.argvs]

    def output(self, job, code):
        return {"code": code, "digest": self.cli.digest(self.cli.files(job))}

    def check(self, job, out, first, ref):
        errors = []
        if out["code"] != 0:
            errors.append(f"exit code {out['code']}")
        if first is not None and out["digest"] != first["digest"]:
            errors.append("output bytes differ from the first pass")
        if ref is not None and out["digest"] != ref:
            errors.append("output bytes differ from the reference")
        return errors

    def reference(self, out):
        return out["digest"]


WORKLOADS = {w.name: w for w in (EchoProfile, TrialTrain, ScenarioSuite)}
