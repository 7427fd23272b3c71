"""Process-based fan-out of solver fits, and the package's random streams.

The package's one replicate pipeline (``mle._fit_drawn``) certifies drawn
tables in the calling process and hands only those that need the solver to
``run_blocks``, each table as the (a, b) pair of its strata's (x11, x10,
x01) counts. It cuts them into blocks sized by solver columns (``blocks``)
and runs one task per block through ``run_indexed``; its worker
(``mle._fit_block``) fits a whole block in one batched solve, and the data
shared by a block's tables is pickled once per block.
Every replicate draws from its own random stream, keyed by the full 64-bit
seed and the replicate's index (``stream``; ``Streams`` reaches many keys
in turn through one generator), and a table's fit does not depend on the
other tables of its block, so results are identical whatever the block
size, worker count or completion order; ``run_indexed`` returns them in
submission order. Neither function uses more workers than the CPUs the
process may run on (``cpus``).
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import ValidationError

# Solver columns per block: one column per start of each fit, so a block
# holds BLOCK_COLUMNS // width tables of ``width`` starts each (25 fits from
# the 12-start grid). Only tables that reach the solver count: the
# bootstrap's and the studies' draws that the certificate declines
# (``mle._fit_drawn``; no draw of a Q1-Q4 bootstrap or of study 1, but
# most draws of a tiny table, of a parent on a bound and of study 2's
# extremes).
# Larger blocks spread numpy's fixed per-call overhead over more columns but
# hold more memory. Measured in process before the certificate, when every
# Q1 bootstrap draw was a solver refit from one start (2-core x86_64 VM, a
# fresh process per budget), in blocks of 25, 100, 300 and 1000 columns (CPU
# time, medians of 80 and 30 runs):
# - 100 refits: 31, 17, 16 and 14 ms; peak RSS 38.2, 38.6, 38.5 and 38.6 MB;
# - 500 refits: 151, 89, 72 and 72 ms; peak RSS 38.4, 38.6, 39.4 and 41.5 MB.
# Study 2 at 0.01, 0.15 and 0.35 with 500 replicates each (1,500 fits from
# the grid, medians of 3 runs): 2.08 s peaking at 51.4 MB in blocks of 25
# fits, 1.94 s peaking at 55.5 MB in blocks of 100.
BLOCK_COLUMNS = 300


def _key(seed: int, key: int) -> np.ndarray:
    """The Philox key of stream ``key`` under ``seed``: both numbers modulo
    2**64, as unsigned 64-bit integers (a Python list of them would go
    through float64 above 2**63 and lose the low bits)."""
    return np.array([int(seed) % 2**64, int(key) % 2**64], dtype=np.uint64)


def stream(seed: int, key: int) -> np.random.Generator:
    """The random stream numbered ``key`` under ``seed``: a counter-based
    Philox generator (Salmon et al. 2011) keyed by both numbers modulo
    2**64, so any stream is reached directly by its key, in any order and
    in any process. Every random stream of the package is built here or set
    to its start by ``Streams``. Its purposes share one key space:

    - bootstrap replicate k: key k;
    - study-1 and coverage replicate k: key k;
    - study-2 replicate ``rep`` at grid point ``grid``: key ``(grid << 32) | rep``;
    - the seeded starting points beyond the fixed grid of 12: key 0.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, key)))


class Streams:
    """The streams of one seed through one reused generator, for callers that
    draw from many keys in turn: ``at(key)`` sets the generator to the start
    of ``stream(seed, key)`` (its key, counter 0 and an empty buffer) and
    returns it, so what it draws next is that stream's draws, bit for bit.
    Setting the state costs a fraction of building a generator, and less
    again with the state's arrays held as lists of Python ints, which the
    setter reads faster than numpy scalars. The generator is shared: once
    ``at`` moves it to another key, a stream drawn before is reached again
    only from its start."""

    def __init__(self, seed: int):
        bits = np.random.Philox(key=_key(seed, 0))
        state = bits.state
        self._bits, self._rng = bits, np.random.Generator(bits)
        self._state = {**state, "buffer": state["buffer"].tolist(),
                       "state": {name: value.tolist() for name, value in state["state"].items()}}
        self._key = self._state["state"]["key"]  # set in place by ``at``

    def at(self, key: int) -> np.random.Generator:
        self._key[1] = int(key) % 2**64
        self._bits.state = self._state
        return self._rng


def check_threads(threads: int) -> None:
    """Raise ValidationError unless ``threads``, the worker processes a
    caller asks for, is at least 1."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def blocks(count: int, width: int, threads: int = 1) -> list[range]:
    """The indices 0..count-1 in consecutive blocks of near-equal size, for
    items of ``width`` solver columns each: each block holds at most
    BLOCK_COLUMNS // width items (at least one). Items that fill more than
    one block are cut into at least as many blocks as the workers
    ``threads`` asks for (no more than ``cpus``), so that each worker gets
    one; items that fit in one block stay in one, which runs in process."""
    n = -(-count // max(1, BLOCK_COLUMNS // width))
    if n > 1:
        n = max(n, min(threads, cpus(), count))
    return [range(count * i // n, count * (i + 1) // n) for i in range(n)]


def run_blocks(worker, items: list, width: int, threads: int, *shared) -> list:
    """``worker(block, *shared)`` over ``items`` cut into ``blocks`` of items
    of ``width`` solver columns, the blocks spread over ``threads`` processes
    (``run_indexed``); ``worker`` returns one result per item of its block,
    and the results come back one per item, in item order. No items, no
    task."""
    if not items:
        return []
    tasks = [(worker, items[part.start:part.stop], shared)
             for part in blocks(len(items), width, threads)]
    return [result for part in run_indexed(_run_block, tasks, threads) for result in part]


def _run_block(task) -> list:
    """One task of ``run_blocks``: its worker over its block."""
    worker, items, shared = task
    return worker(items, *shared)


def run_indexed(worker, tasks, threads: int) -> list:
    """``worker`` over ``tasks``, results in task order: in this process for
    one thread or one task, else in a pool of at most ``threads`` processes,
    one per task and no more than ``cpus``."""
    workers = min(threads, cpus(), len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    # imported here, so a serial run does not pay for the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))
