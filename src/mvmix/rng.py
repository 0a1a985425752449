"""Deterministic random-number plumbing for the samplers.

Every sampler consumes randomness through fixed-size path blocks.  Block b
draws from a Philox counter-based generator keyed by (seed, b), so the
numbers attached to a given path never depend on how many workers run or
in which order blocks complete.  Workers only change scheduling; output
arrays are filled positionally.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = ["substream", "path_blocks", "worker_count", "run_blocks", "BLOCK_SIZE"]

# Fixed block size: part of the reproducibility contract, do not tune per run.
BLOCK_SIZE = 16384

WORKERS_ENV_VAR = "MVMIX_WORKERS"


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for block `index` of the stream identified by `seed`, both in [0, 2**64).

    The pair is Philox's 128-bit key as two unsigned 64-bit words, so
    distinct pairs give distinct streams.
    """
    seed, index = int(seed), int(index)
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError(f"seed and block index must lie in [0, 2**64), got {seed} and {index}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def path_blocks(paths: int) -> list[tuple[int, int, int]]:
    """Partition of range(paths) into (block_index, start, stop) triples."""
    if paths < 1:
        raise ValueError("need at least one path")
    return [
        (b, start, min(start + BLOCK_SIZE, paths))
        for b, start in enumerate(range(0, paths, BLOCK_SIZE))
    ]


def worker_count(workers: int | None = None) -> int:
    """Resolve the worker count: explicit argument, else env var, else 1."""
    source = "worker count"
    if workers is None:
        source = WORKERS_ENV_VAR
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def run_blocks(
    fn: Callable[[int, int, int], None],
    blocks: Sequence[tuple[int, int, int]],
    workers: int | None = None,
) -> None:
    """Run fn(block_index, start, stop) over all blocks, possibly threaded.

    fn must write only to its own [start, stop) slice of any shared output.
    """
    nworkers = worker_count(workers)
    if nworkers == 1 or len(blocks) == 1:
        for b, start, stop in blocks:
            fn(b, start, stop)
        return
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futures = [pool.submit(fn, b, start, stop) for b, start, stop in blocks]
        for fut in futures:
            fut.result()
