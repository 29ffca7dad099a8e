"""Philox streams of the trial engine's blocks, and the threads that draw them.

:func:`block_keys` derives the key of every block of a call at once, in the
uint32 arithmetic of numpy's ``SeedSequence`` hash; :func:`rekey` points a
worker's generator at a block's stream; :func:`run_workers` runs a call's
tasks on one worker per usable CPU, each worker taking the next task from one
shared queue as it frees up.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# numpy's SeedSequence hash constants (uint32 arithmetic).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: MULT_A ** i, to step the mixing hash constant through four hashes.
_POWERS_A = np.array([pow(_MULT_A, i, 2 ** 32) for i in range(5)], dtype=np.uint32)
#: generate_state's hash constant before and after each of its four rounds.
_STATE_B = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2 ** 32) % 2 ** 32 for i in range(5)],
                    dtype=np.uint32)


def block_keys(seed: int, blocks) -> np.ndarray:
    """Philox keys of ``blocks`` (indices below 2**32), one (2,) uint64 row each.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(blocks[i],))
    .generate_state(2, np.uint64)``.  The spawn word comes last in the
    entropy, so the pool of ``SeedSequence(entropy=seed)`` is the state just
    before it, after 16 + 4·max(0, words − 4) hash steps for a seed of
    ``words`` uint32 words.  Mixing the word into the four pool words and the
    four ``generate_state`` rounds then run on all blocks at once, one column
    per pool word.
    """
    pool = np.random.SeedSequence(entropy=seed).pool
    steps = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)
    h = np.uint32(_INIT_A * pow(_MULT_A, steps, 2 ** 32) % 2 ** 32) * _POWERS_A
    b = np.asarray(blocks, dtype=np.uint32)[:, None]
    v = (b ^ h[:4]) * h[1:]                    # hashmix(b), once per pool word
    v ^= v >> 16
    x = pool * _MIX_L - v * _MIX_R
    x ^= x >> 16                               # mix(pool word, hashmix(b))
    x ^= _STATE_B[:4]                          # generate_state's rounds
    x *= _STATE_B[1:]
    x ^= x >> 16
    return x.view("<u8").astype(np.uint64)


def rekey(rng: np.random.Generator, key) -> None:
    """Set ``rng`` to a fresh Philox stream under ``key``: counter 0, empty buffer."""
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Workers 1 ... W - 1 of every call run on one pool of (usable CPUs - 1)
# threads, made on first use and replaced when the CPU count changes.
_pool = None            # (threads, ThreadPoolExecutor), or None at one CPU
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: none of the parent's threads, nor its lock holder, exist."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_workers(fn, tasks: int) -> list:
    """``fn(queue)`` on W = min(tasks, usable CPUs) workers; the results of those that ran.

    The workers' queues share one lock-guarded ``iter(range(tasks))``, so each
    index goes exactly once, to whichever worker frees up first.  Worker 0
    runs on the calling thread, and its result comes first; workers 1 ... W - 1
    are queued on the shared pool, so a call starts no thread of its own.
    Once worker 0 has emptied the queue, a pool worker that has not started
    (it may wait behind another call's) is cancelled, not waited for.  Every
    call first sizes the pool to the usable CPUs less one (no pool, and no
    ``concurrent.futures`` import, at one CPU), so a pool sized for CPUs that
    went away does not keep its threads.  A forked child makes its own pool.
    """
    global _pool
    cpus = _usable_cpus()
    indices, lock = iter(range(tasks)), threading.Lock()

    def take():
        with lock:
            return next(indices, None)

    old = None
    with _pool_lock:    # no call submits to a pool that another shuts down
        if (_pool[0] if _pool else 0) != cpus - 1:
            from concurrent.futures import ThreadPoolExecutor  # loads logging
            old, _pool = _pool, None
            if cpus > 1:
                _pool = (cpus - 1, ThreadPoolExecutor(cpus - 1, "muxmem-engine"))
        futures = [_pool[1].submit(fn, iter(take, None)) for _ in range(1, min(tasks, cpus))]
    if old is not None:
        old[1].shutdown()  # its queued work still runs; then its threads exit
    first = fn(iter(take, None))
    return [first] + [future.result() for future in futures if not future.cancel()]
