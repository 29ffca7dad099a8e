"""Philox streams of the trial engine's blocks, and the threads that draw them.

:func:`block_keys` derives the key of every block of a call at once, in the
uint32 arithmetic of numpy's ``SeedSequence`` hash; :func:`rekey` points a
worker's generator at a block's stream; :func:`run_workers` runs a call's
tasks on one worker per usable CPU, the calling thread and threads that the
call starts and joins, each worker taking the next task from one shared
queue as it frees up.
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


def run_workers(fn, tasks: int) -> list:
    """``fn(queue)`` on W = min(tasks, usable CPUs) workers (at least one); their results.

    The workers' queues share one lock-guarded ``iter(range(tasks))``, so each
    index goes at most once, to whichever worker frees up first.  Worker 0
    runs on the calling thread, and its result comes first; workers 1 ... W - 1
    run on threads that the call starts and joins before it returns, so no
    engine thread outlives a call.  An exception in any worker stops the
    hand-out, and once every worker has returned the first one is raised here.
    """
    indices, lock, errors = iter(range(tasks)), threading.Lock(), []

    def take():
        with lock:
            return None if errors else next(indices, None)

    def work(i):
        try:
            results[i] = fn(iter(take, None))
        except BaseException as exc:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,), name=f"muxmem-engine-{i}")
               for i in range(1, min(tasks, _usable_cpus()))]
    results = [None] * (1 + len(threads))
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results
