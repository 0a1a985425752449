"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mvmix import benchmarks, multivariate  # noqa: E402


def _row(price, se=0.0005, paths=workloads.MVMD_PATHS, product="vanilla", strike=1.0):
    return {"product": product, "scheme": "mvmd", "strike": str(strike), "price": str(price),
            "std_error": str(se), "paths": str(paths)}


def _outcome(job, status, out):
    outcomes = run.Outcomes()
    outcomes.check_job(job, status, out)
    return outcomes


def test_cell_checks_flag_wrong_price_nan_and_path_count():
    oracle = workloads._reference(2)
    ref, _ = benchmarks.REFERENCE[(2, "vanilla", "mvmd", 1.0)]
    assert workloads._check_cells([_row(ref)], workloads.MVMD_PATHS, oracle) == []
    assert workloads._check_cells([_row(ref + 0.01)], workloads.MVMD_PATHS, oracle)
    assert workloads._check_cells([_row(math.nan)], workloads.MVMD_PATHS, oracle)
    assert workloads._check_cells([_row(ref, paths=5)], workloads.MVMD_PATHS, oracle)
    assert workloads._check_cells([_row(math.nan)], workloads.MVMD_PATHS)


def test_outcomes_count_wrong_output_exception_and_worker_mismatch():
    job = workloads.Job("j", lambda: 1.0, lambda out: [] if out == 1.0 else ["wrong"])
    assert _outcome(job, "ok", 1.0).failed == 0
    assert _outcome(job, "ok", 2.0).failed == 1
    assert _outcome(job, "error", "unexpected RuntimeError: boom").failed == 1

    outcomes = run.Outcomes()
    outcomes.check_job(job, "ok", 1.0)  # 1-worker execution
    outcomes.check_job(job, "ok", 1.0000000000000002)  # 2-worker execution, last bit differs
    assert (outcomes.attempted, outcomes.failed) == (2, 1)


def test_a_check_that_raises_is_a_failure():
    job = workloads.Job("j", lambda: None, lambda out: out["missing"])
    assert _outcome(job, "ok", {}).failed == 1


def test_cli_digest_ignores_only_the_wall_time_column():
    text = "product,price,wall_time_s\nvanilla,0.1,0.5\n"
    same = "product,price,wall_time_s\nvanilla,0.1,0.7\n"
    other = "product,price,wall_time_s\nvanilla,0.2,0.5\n"
    digest = lambda t: workloads._without_column(t, "wall_time_s")  # noqa: E731
    assert digest(text) == digest(same)
    assert digest(text) != digest(other)


def test_missing_n10_cutoff_error_is_a_failure(tmp_path):
    job = next(j for j in workloads.wide_basket(1, tmp_path).jobs if j.name == "truncate-n10")
    assert job.check(job.run()) == []
    assert job.check(None)  # truncate returned instead of raising


def test_tuples_kept_at_n6_and_n8():
    tracer = tracing.Tracer()
    gen = np.random.default_rng(3)
    models = {n: workloads.wide_model(n, gen) for n in (6, 8)}
    kept = {}
    with tracer.installed():
        for n, model in models.items():
            with tracer.span("bench.job", job=f"n{n}"):
                multivariate.truncate(model, workloads.WIDE_KAPPA)
    for (job, key), value in tracer.counts.items():
        if key == "multivariate.tuples_kept":
            kept[job] = value
    assert kept == {"n6": 314, "n8": 45}
    built = {job: v for (job, key), v in tracer.counts.items() if key == "multivariate.tuples_built"}
    assert built == {"n6": 3**6, "n8": 3**8}


def test_tracer_restores_the_library():
    from mvmix import cli, pricing, runner

    originals = (cli.main, cli.run_price, runner.pricing.price_mvmd_mc, multivariate.ComponentTuple)
    with tracing.Tracer().installed():
        assert cli.main is not originals[0]
        assert pricing.price_mvmd_mc is not originals[2]
    assert (cli.main, cli.run_price, runner.pricing.price_mvmd_mc, multivariate.ComponentTuple) == originals


@pytest.mark.parametrize("name", ["tables-mvmd", "wide-basket"])
def test_traced_self_times_sum_to_the_pass_wall_time(name, tmp_path):
    workload = workloads.BUILDERS[name](2, tmp_path)
    tracer = tracing.Tracer()
    outcomes = run.Outcomes()
    elapsed = run.run_pass(workload, 1, outcomes, tracer, tag="p")
    assert outcomes.failed == 0, outcomes.messages
    selfs = tracing.self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s[1] == "bench.pass"]
    total = sum(selfs[s[0]] for s in tracer.spans)
    assert total == pytest.approx(root[3] - root[2], rel=1e-9)
    assert root[3] - root[2] <= elapsed
    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "config.load_config", "runner.run_price", "multivariate.truncate", "rng.run_blocks"} <= names


def test_self_time_subtracts_overlapping_children_once():
    spans = [(1, "a", 0.0, 10.0, None, "j"), (2, "b", 1.0, 4.0, 1, "j"), (3, "c", 3.0, 6.0, 1, "j")]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 3.0}
