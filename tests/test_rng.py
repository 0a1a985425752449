"""The block scheduler: positional output, errors, nesting, per-call helper threads and fork; integer stream keys and path counts."""

import inspect
import multiprocessing
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from mvmix import BasketSpec, greeks_mvmd, price_mvmd_mc, rng
from mvmix.benchmarks import benchmark_spec
from mvmix.montecarlo import (
    SimulationConfig,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
)
from mvmix.rng import run_blocks


def _blocks(count: int, size: int = 7) -> list[tuple[int, int, int]]:
    return [(b, b * size, (b + 1) * size) for b in range(count)]


def _fill(out: np.ndarray):
    def fn(b: int, start: int, stop: int) -> None:
        out[start:stop] = 1000 * b + np.arange(start, stop)

    return fn


def _in_thread(target, timeout: float = 60.0) -> None:
    """Run target on a daemon thread; a deadlock fails the test instead of hanging it."""
    errors = []

    def run():
        try:
            target()
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_blocks did not return"
    if errors:
        raise errors[0]


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", range(1, 10))
def test_positional_fill_is_independent_of_workers_and_blocks(count, workers):
    expected = np.concatenate([1000 * b + np.arange(b * 7, (b + 1) * 7) for b in range(count)])
    out = np.full(7 * count, -1.0)
    run_blocks(_fill(out), _blocks(count), workers)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("workers", [2, 3])
def test_error_on_the_caller_stops_the_hand_out_and_propagates(workers):
    caller, ran, helper_started = threading.current_thread(), [], threading.Event()

    def fn(b, start, stop):
        ran.append(b)
        if threading.current_thread() is caller:
            helper_started.wait(30.0)  # fail only while helpers are taking blocks
            raise RuntimeError(f"block {b} failed")
        helper_started.set()
        time.sleep(0.005)

    with pytest.raises(RuntimeError, match="failed"):
        run_blocks(fn, _blocks(40), workers)
    assert len(ran) < 40  # no block is handed out once one has failed
    out = np.zeros(7 * 5)
    run_blocks(_fill(out), _blocks(5), workers)
    assert out[-1] == 4034.0


@pytest.mark.parametrize("workers", [2, 3])
def test_error_on_a_helper_propagates(workers):
    caller, helper_failed = [], threading.Event()

    def fn(b, start, stop):
        if threading.current_thread() is caller[0]:
            helper_failed.wait(30.0)  # hold the caller until a helper has taken a block
        else:
            helper_failed.set()
            raise KeyError("helper block")

    def call():
        caller.append(threading.current_thread())
        with pytest.raises(KeyError, match="helper block"):
            run_blocks(fn, _blocks(8), workers)

    _in_thread(call)
    assert helper_failed.is_set()
    out = np.zeros(7 * 5)
    run_blocks(_fill(out), _blocks(5), workers)
    assert out[-1] == 4034.0


def test_one_worker_runs_blocks_in_order_on_the_caller_until_one_fails():
    caller, baseline, ran = threading.current_thread(), threading.active_count(), []

    def fn(b, start, stop):
        ran.append((b, threading.current_thread(), threading.active_count()))
        if b == 3:
            raise RuntimeError("block 3 failed")

    with pytest.raises(RuntimeError, match="block 3 failed"):
        run_blocks(fn, _blocks(8), 1)
    assert ran == [(b, caller, baseline) for b in range(4)]
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [2, 3])
def test_a_block_may_call_run_blocks(workers):
    inner, together = np.zeros((6, 7 * 5)), threading.Barrier(workers)

    def outer(b, start, stop):
        together.wait(30.0)  # every thread is in an outer block, so no helper is free for the inner calls
        run_blocks(_fill(inner[b]), _blocks(5), workers)

    _in_thread(lambda: run_blocks(outer, _blocks(6), workers))
    expected = np.concatenate([1000 * b + np.arange(b * 7, (b + 1) * 7) for b in range(5)])
    assert all(np.array_equal(row, expected) for row in inner)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_every_call_joins_the_helpers_it_started(workers):
    caller, helper_failed, seen = [], threading.Event(), []

    def record(b, start, stop):
        seen.append((b, threading.active_count()))

    def caller_raises(b, start, stop):
        if threading.current_thread() is caller[0]:
            raise RuntimeError("caller block")
        time.sleep(0.001)

    def helper_raises(b, start, stop):
        if threading.current_thread() is caller[0]:
            helper_failed.wait(30.0)  # hold the caller until a helper has taken a block
        else:
            helper_failed.set()
            raise KeyError("helper block")

    def nested(b, start, stop):
        run_blocks(record, _blocks(4), workers)

    def calls():
        caller.append(threading.current_thread())
        for count in [1, 2, 3, 7] * 25:
            baseline, seen[:] = threading.active_count(), []
            run_blocks(record, _blocks(count), workers)
            assert sorted(b for b, _ in seen) == list(range(count))  # each block handed out once
            assert max(active for _, active in seen) <= baseline + min(workers, count) - 1
            assert threading.active_count() == baseline
        for fn, error in [(caller_raises, RuntimeError), (helper_raises, KeyError), (nested, None)]:
            baseline = threading.active_count()
            if error is None:
                run_blocks(fn, _blocks(6), workers)
            else:
                with pytest.raises(error):
                    run_blocks(fn, _blocks(8), workers)
            assert threading.active_count() == baseline

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race in the hand-out shows
    try:
        _in_thread(calls)
    finally:
        sys.setswitchinterval(interval)


def _scmd_child(conn, model, config):
    conn.send_bytes(simulate_scmd(model, config, workers=2).values.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs os.fork")
def test_forked_child_runs_blocks_with_its_own_helpers(vanilla_model):
    config = SimulationConfig(paths=40_000, steps=8, maturity=1.0, seed=5)
    expected = simulate_scmd(vanilla_model, config, workers=2).values
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_scmd_child, args=(send, vanilla_model, config))
    child.start()
    send.close()
    try:
        assert receive.poll(60.0), "the forked child returned nothing"
        got = np.frombuffer(receive.recv_bytes(), dtype=float).reshape(expected.shape)
    finally:
        child.join(60.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "seed, index, named",
    [(1.5, 0, "seed"), (np.float64(2.0), 0, "seed"), ("3", 0, "seed"), (True, 0, "seed"), (0, 1.0, "block index")],
)
def test_substream_takes_only_integer_keys(seed, index, named):
    with pytest.raises(ValueError, match=f"{named} must be an integer"):
        rng.substream(seed, index)


@pytest.mark.parametrize("paths", [2.5, 100.0, "100"])
def test_path_blocks_take_only_a_whole_number_of_paths(paths):
    with pytest.raises(ValueError, match="paths must be an integer"):
        rng.path_blocks(paths)


def test_pricer_refuses_a_fractional_seed_or_path_count(vanilla_model):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0)
    with pytest.raises(ValueError, match="seed must be an integer"):
        price_mvmd_mc(vanilla_model, spec, paths=100, seed=1.5)  # used to price seed 1
    with pytest.raises(ValueError, match="paths must be an integer"):
        price_mvmd_mc(vanilla_model, spec, paths=2.5)
    numpy_ints = price_mvmd_mc(vanilla_model, spec, paths=np.int32(100), seed=np.uint64(1))
    assert numpy_ints == price_mvmd_mc(vanilla_model, spec, paths=100, seed=1)


@pytest.mark.parametrize("workers", [1.5, True, np.float64(2.0)])
def test_worker_count_takes_only_a_whole_number(vanilla_model, workers):
    with pytest.raises(ValueError, match="worker count must be an integer"):
        rng.worker_count(workers)
    config = SimulationConfig(paths=20_000, steps=1, maturity=1.0, seed=0)
    with pytest.raises(ValueError, match="worker count must be an integer"):
        simulate_scmd(vanilla_model, config, workers=workers)


THREE_BLOCKS = 2 * rng.BLOCK_SIZE + 1  # the last block holds one path, so 3 workers start two helpers
VANILLA_CALL = benchmark_spec("vanilla", 1.0)
MIXTURE_LAYER = {  # each public pricer and sampler that takes no worker count, run on three blocks
    price_mvmd_mc: lambda m: price_mvmd_mc(m, VANILLA_CALL, paths=THREE_BLOCKS, seed=4),
    greeks_mvmd: lambda m: greeks_mvmd(m, VANILLA_CALL, 0.01, paths=THREE_BLOCKS, seed=5),
    sample_mvmd_terminal: lambda m: sample_mvmd_terminal(m, 1.0, THREE_BLOCKS, 6).values,
    sample_muvm_terminal: lambda m: sample_muvm_terminal(m, 1.0, THREE_BLOCKS, 7).values,
    simulate_md_euler: lambda m: simulate_md_euler(m.assets[0], 1.0, 4, THREE_BLOCKS, 8),
}


@pytest.mark.parametrize("fn", MIXTURE_LAYER, ids=lambda fn: fn.__name__)
def test_mixture_layer_reads_its_worker_count_only_from_the_environment(vanilla_model, monkeypatch, fn):
    assert "workers" not in inspect.signature(fn).parameters
    outputs = set()
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("MVMIX_WORKERS", workers)
        outputs.add(pickle.dumps(MIXTURE_LAYER[fn](vanilla_model)))  # the float bits of every output
    assert len(outputs) == 1
