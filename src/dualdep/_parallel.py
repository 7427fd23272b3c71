"""Process-based fan-out for blocks of independent replicates.

Callers split their replicates into blocks sized by solver columns
(``blocks``) and hand one task per block to ``run_indexed``; a worker fits a
whole block in one batched solve, and the data shared by a block's
replicates is pickled once per block. Every replicate derives its random
stream (``stream``) from its own index and its fit does not depend on the
other replicates of its block, so results are identical whatever the block
size, worker count or completion order; ``run_indexed`` returns them in
submission order. Neither function uses more workers than the CPUs the
process may run on (``cpus``).
"""

from __future__ import annotations

import os

import numpy as np

# Solver columns per block: one column per start of each fit, so a block
# holds BLOCK_COLUMNS // width replicates of ``width`` starts each (300 warm
# bootstrap refits, or 25 fits from the 12-start grid). Larger blocks spread
# numpy's fixed per-call overhead over more columns but hold more memory.
# Measured in process on the Q1 fit (2-core x86_64 VM, CPU time, medians of
# 80 and 30 bootstraps, a fresh process per budget), warm refits in blocks
# of 25, 100, 300 and 1000 columns:
# - B=100: 31, 17, 16 and 14 ms; peak RSS 38.2, 38.6, 38.5 and 38.6 MB;
# - B=500: 151, 89, 72 and 72 ms; peak RSS 38.4, 38.6, 39.4 and 41.5 MB.
# Study 2 at 0.01, 0.15 and 0.35 with 500 replicates each (1,500 fits from
# the grid, medians of 3 runs): 2.08 s peaking at 51.4 MB in blocks of 25
# fits, 1.94 s peaking at 55.5 MB in blocks of 100.
BLOCK_COLUMNS = 300


def stream(seed: int, key: int) -> np.random.Generator:
    """The random stream numbered ``key`` under ``seed``: a counter-based
    Philox generator (Salmon et al. 2011) keyed by both numbers modulo
    2**64, so any stream is reached directly by its key, in any order and
    in any process. Every random stream of the package is built here. Its
    purposes share one key space:

    - bootstrap replicate k: key k;
    - study-1 and coverage replicate k: key k;
    - study-2 replicate ``rep`` at grid point ``grid``: key ``(grid << 32) | rep``;
    - the seeded starting points beyond the fixed grid of 12: key 0.
    """
    return np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, int(key) % 2**64]))


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
