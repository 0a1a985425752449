"""Deterministic random-number plumbing for the samplers.

Every sampler consumes randomness through fixed-size path blocks.  Block b
draws from a Philox counter-based generator keyed by (seed, b), so the
numbers attached to a given path never depend on how many workers run or
in which order blocks complete.  Workers only change scheduling; output
arrays are filled positionally.

A `run_blocks` call at w workers runs its blocks on the calling thread beside
at most w - 1 helper threads of its own, all taking blocks from one shared
cursor; it joins its helpers before it returns, so no state outlives a call.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["substream", "path_blocks", "worker_count", "run_blocks", "BLOCK_SIZE"]

# Fixed block size: part of the reproducibility contract, do not tune per run.
BLOCK_SIZE = 16384

WORKERS_ENV_VAR = "MVMIX_WORKERS"


def _whole(name: str, value) -> int:
    """value as an int, if it is a Python or numpy integer and not a bool (int(1.5) would quietly give 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for block `index` of the stream identified by `seed`, both integers in [0, 2**64).

    The pair is Philox's 128-bit key as two unsigned 64-bit words, so
    distinct pairs give distinct streams.
    """
    seed, index = _whole("seed", seed), _whole("block index", index)
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ValueError(f"seed and block index must lie in [0, 2**64), got {seed} and {index}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def path_blocks(paths: int) -> list[tuple[int, int, int]]:
    """Partition of range(paths) into (block_index, start, stop) triples."""
    if _whole("paths", paths) < 1:
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
    workers = _whole(source, workers)
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
    The caller takes blocks from a shared cursor, in order, beside at most
    workers - 1 helper threads that this call starts and joins, so a block
    may itself call run_blocks.  The first error a block raises stops the
    hand-out of further blocks and is re-raised here.
    """
    nworkers = worker_count(workers)
    cursor = iter(blocks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain() -> None:  # records its error for the caller to re-raise
        while True:
            with lock:
                block = None if errors else next(cursor, None)
            if block is None:
                return
            try:
                fn(*block)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=drain, name="mvmix-block") for _ in range(min(nworkers, len(blocks)) - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
    finally:  # a helper that could not start was never alive
        for helper in helpers:
            if helper.is_alive():
                helper.join()
    if errors:
        raise errors[0]
