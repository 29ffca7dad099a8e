"""Machine-speed calibration for a shared host.

The host that runs the benchmark lends its cores to other tenants, and its
speed drifts by up to 1.5x in phases from seconds to minutes long.  So a
fixed piece of work that does not touch muxmem is timed between the jobs of
each run, and the run's times are rescaled by the ratio of that work's
nominal time to its mean time in the run.

Host contention slows kinds of work unequally: interpreter-bound loops lose
more than long vectorized passes.  So each workload is calibrated with the
chunk whose work resembles its own:

- :class:`MixedChunk` for ``trial-train`` and ``scenario-suite``;
- :class:`EchoChunk` for ``echo-profile``.

Only numpy and the interpreter run here, so a chunk's cost does not change
with the program under test.  numpy is imported on first use, so that
set-up, which imports muxmem and with it numpy, is timed in full.
"""

from __future__ import annotations

import time


class MixedChunk:
    """Trial-engine, echo-kernel and interpreter work in one chunk.

    - seeded Philox draws, boolean masks, ``argmax`` and a per-column integer
      tally loop (the trial engine);
    - complex exponentials over an atoms x times array averaged over atoms
      (the echo kernel);
    - plain interpreter work on dicts, strings and floats (config parsing,
      emission, imports).

    Its arrays stay in the core's cache, so a chunk raises peak memory by
    about 1.4 MB over the imported program.
    """

    #: Mean seconds of one chunk on the machine the benchmark was tuned on
    #: (2-vCPU Intel Xeon VM, 2.1 GHz, Python 3.11, numpy 2), midway between
    #: its slow and fast phases.  Rescaled times read as seconds on it.
    nominal_s = 0.075

    def __call__(self) -> float:
        """Run one chunk; returns its wall seconds."""
        import numpy as np

        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(20200319))
        acc = 0
        for _ in range(10):
            write = rng.random((1024, 50)) < 0.3
            u = rng.random(1024)
            first = write.argmax(axis=1)
            for r in range(50):
                sel = first == r
                acc += int((write[sel].astype(np.int64).T @ (u[sel] < 0.5)).sum())

        z = rng.standard_normal(500)[:, None]
        v = rng.standard_normal(500)[:, None]
        t = np.linspace(0.0, 3.0, 64)[None, :]
        for _ in range(16):
            acc += float((np.abs(np.exp(1j * (z * t + v * t * t)).mean(axis=0)) ** 2).sum())

        table = {}
        for i in range(72_000):
            key = f"k{i % 251}"
            table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
        acc += len(repr(sorted(table.items())))
        return time.perf_counter() - start


class EchoChunk:
    """One pass of the echo kernel's arithmetic over an atoms x times array.

    A phase array (position x rate), its complex exponential and its mean
    over atoms, at the default echo scenario's 10^4 atoms and 181 times.
    The buffers (43 MB) are allocated once and kept, so they add a constant
    to the process's peak memory rather than setting it.
    """

    #: See :attr:`MixedChunk.nominal_s`.
    nominal_s = 0.06

    def __init__(self, atoms=10_000, times=181):
        import numpy as np

        rng = np.random.Generator(np.random.Philox(20200319))
        self.positions = rng.standard_normal((atoms, 1))
        self.rates = np.linspace(0.0, 40.0, times)[None, :]
        self.phase = np.empty((atoms, times))
        self.field = np.empty((atoms, times), dtype=complex)

    def __call__(self) -> float:
        """Run one chunk; returns its wall seconds."""
        import numpy as np

        start = time.perf_counter()
        np.multiply(self.positions, self.rates, out=self.phase)
        np.multiply(self.phase, 1j, out=self.field)
        np.exp(self.field, out=self.field)
        float((np.abs(self.field.mean(axis=0)) ** 2).sum())
        return time.perf_counter() - start
