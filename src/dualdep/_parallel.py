"""Process-based fan-out for blocks of independent replicates.

Callers split their replicates into fixed-size blocks (``blocks``) and hand
one task per block to ``run_indexed``; a worker fits a whole block in one
batch, and the data shared by a block's replicates is pickled once per
block. Every replicate derives its random stream (``stream``) from its own
index and its fit does not depend on the other replicates of its block, so
results are identical whatever the worker count or completion order;
``run_indexed`` returns them in submission order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

# Replicates per block. A block of bootstrap refits is one batched solve of
# BLOCK_SIZE x n_starts rows. Larger blocks spread numpy's per-call overhead
# over more rows but hold more memory: on the published quarters (2-core
# x86_64 VM), 100 refits took about 60 ms in blocks of 100 and 110 ms in
# blocks of 25, and a process running hundreds of bootstraps peaked about
# 2 MB above the one-start-at-a-time solver with blocks of 100 and 1 MB
# with blocks of 25.
BLOCK_SIZE = 25


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


def blocks(count: int) -> list[range]:
    """Consecutive blocks of at most BLOCK_SIZE of the indices 0..count-1."""
    return [range(start, min(start + BLOCK_SIZE, count)) for start in range(0, count, BLOCK_SIZE)]


def run_indexed(worker, tasks, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(worker, tasks))
