#!/usr/bin/env python3
"""mvmix benchmark: one closed-loop caller drives one workload and checks every output.

    python3 perfbench/run.py --workload tables-euler --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` of the
checkout the script sits in, nothing is installed.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run instead.
``--crosscheck`` runs the full-size ROADMAP baseline figures once.
See perfbench/README.md for the workloads, metrics and checks.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# One caller and at most two compute threads: the two MVMIX_WORKERS pool
# threads.  BLAS gets one thread so it cannot add more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# setup_s is the median of this process's set-up and those of
# SETUP_REPEATS - 1 fresh interpreters started one at a time, spread over the
# timed loop so that they do not all fall in one slow spell of the machine.
SETUP_REPEATS = 4
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s_w2": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "rng.draw_us": "us",
    "rng.blocks": "count",
    "rng.busy_frac_w2": "ratio",
    "univariate.nu_us": "us",
    "univariate.inverse_cdf_ms": "ms",
    "montecarlo.euler_step_us": "us",
    "montecarlo.path_steps": "count",
    "montecarlo.simulate_scmd_self_s": "s",
    "montecarlo.sample_mvmd_ms": "ms",
    "montecarlo.sample_muvm_ms": "ms",
    "multivariate.truncate_ms_n4": "ms",
    "multivariate.truncate_ms_n6": "ms",
    "multivariate.truncate_ms_n8": "ms",
    "multivariate.tuples_built": "count",
    "multivariate.tuples_kept": "count",
    "multivariate.keep_ratio": "ratio",
    "multivariate.factorizations": "count",
    "multivariate.factor_ms": "ms",
    "pricing.tuple_paths_per_s_n2": "1/s",
    "pricing.tuple_paths_per_s_n6": "1/s",
    "pricing.tuple_paths_per_s_n8": "1/s",
    "pricing.greeks_ms": "ms",
    "pricing.geometric_ms_n6": "ms",
    "dependence.bvn_us": "us",
    "dependence.mvn3_ms": "ms",
    "dependence.tau_empirical_ms": "ms",
    "dependence.copula_ms_n2": "ms",
    "dependence.copula_ms_n3": "ms",
    "config.load_ms": "ms",
    "runner.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}
COUNTS = (
    "rng.blocks",
    "montecarlo.path_steps",
    "multivariate.tuples_built",
    "multivariate.tuples_kept",
    "multivariate.factorizations",
)


def _import_library():
    """Import mvmix from this checkout's src/ and the benchmark's own modules."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import mvmix

    if Path(mvmix.__file__).resolve().parent != ROOT / "src" / "mvmix":
        raise ImportError(f"mvmix imported from {mvmix.__file__}, not from {ROOT / 'src'}")
    import probes
    import tracing
    import workloads

    return workloads, probes, tracing


class Outcomes:
    """Attempted and failed job executions; every output is checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._digests: dict[str, bytes] = {}
        self._problems: dict[str, list] = {}

    def record(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{name}: {problems[0]}")

    def check_job(self, job, status: str, out) -> None:
        """Check one execution's output.

        An output identical to the job's first one inherits that one's check
        result; any other output is checked afresh and fails for differing.
        """
        if status == "error":
            self.record(job.name, [out])
            return
        try:
            digest = job.digest(out)
            if self._digests.setdefault(job.name, digest) != digest:
                problems = list(job.check(out)) + ["output differs from its first execution (rerun or other worker count)"]
            else:
                if job.name not in self._problems:
                    self._problems[job.name] = list(job.check(out))
                problems = self._problems[job.name]
        except Exception as exc:  # a malformed output is a failed job, not a crashed benchmark
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.record(job.name, problems)


def run_pass(workload, workers: int, outcomes: Outcomes, tracer=None, tag: str = "") -> float:
    """One pass over the job list at `workers` workers; returns its wall time.

    Only the job calls are timed; checks run after the pass with the tracer
    removed.
    """
    os.environ["MVMIX_WORKERS"] = str(workers)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("bench.pass", job=tag) if tracer else nullcontext():
            for job in workload.jobs:
                with tracer.span("bench.job", job=f"{tag}/{job.name}") if tracer else nullcontext():
                    try:
                        results.append(("ok", job.run()))
                    except Exception as exc:  # counted as a failure; the loop goes on
                        traceback.print_exc(file=sys.stderr)
                        results.append(("error", f"unexpected {type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    for job, (status, out) in zip(workload.jobs, results):
        outcomes.check_job(job, status, out)
    return elapsed


def set_up(workloads, name: str, seed: int):
    """Build the workload and run one warm-up job at 2 workers (it starts the thread pool)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    built = workloads.BUILDERS[name](seed, workdir)
    os.environ["MVMIX_WORKERS"] = "2"
    built.jobs[0].run()
    return built


def child_set_up(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as `run.py --setup-only` reports it."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(child.stdout.split()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_loop(seconds: float, passes, between=None, every: float = math.inf) -> None:
    """Run passes from the iterator until `seconds` of passes have run and each kind ran once.

    `between()` runs after a pass once `every` seconds have passed since the
    loop started or it last ran; its own time does not count.
    """
    deadline = time.perf_counter() + seconds
    next_between = time.perf_counter() + every
    for i, one_pass in enumerate(passes):
        one_pass()
        if between is not None and time.perf_counter() >= next_between:
            start = time.perf_counter()
            between()
            deadline += time.perf_counter() - start
            next_between = time.perf_counter() + every
        if i >= 1 and time.perf_counter() >= deadline:
            break


def _alternate(first, second):
    """first, second, first, second, ... (the loop's pass order)."""
    while True:
        yield first
        yield second


def end_to_end(workload, seed: int, seconds: float, setup_s: float, outcomes: Outcomes) -> tuple[dict, dict]:
    w1, w2, setups = [], [], [setup_s]

    def another_set_up():
        if len(setups) < SETUP_REPEATS:
            setups.append(child_set_up(workload.name, seed))

    _timed_loop(
        seconds,
        _alternate(
            lambda: w1.append(run_pass(workload, 1, outcomes)),
            lambda: w2.append(run_pass(workload, 2, outcomes)),
        ),
        another_set_up,
        seconds / SETUP_REPEATS,
    )
    while len(setups) < SETUP_REPEATS:
        another_set_up()
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w1),
        "wall_s_w2": statistics.median(w2),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, {"setup_s": len(setups), "wall_s": len(w1), "wall_s_w2": len(w2)}


def layer_metrics(tracing, tracer, scope: set, w2_scope: set) -> dict:
    """Span- and count-derived metrics over the traced spans whose job root is in `scope`."""

    def root(job):
        return job.split("/", 1)[0] if job else None

    selfs = tracing.self_times(tracer.spans)
    spans = [s for s in tracer.spans if root(s[5]) in scope]

    def self_sum(*names):
        return sum(selfs[s[0]] for s in spans if s[1] in names)

    def count(key):
        return sum(v for (job, k), v in tracer.counts.items() if k == key and root(job) in scope)

    w2 = [s for s in tracer.spans if root(s[5]) in w2_scope]
    busy = sum(s[3] - s[2] for s in w2 if s[1].endswith(".block"))
    dispatch = sum(s[3] - s[2] for s in w2 if s[1] == "rng.run_blocks")
    loads = [s[3] - s[2] for s in spans if s[1] == "config.load_config"]
    built, kept = count("multivariate.tuples_built"), count("multivariate.tuples_kept")
    return {
        "rng.blocks": count("rng.blocks"),
        "rng.busy_frac_w2": busy / (2.0 * dispatch) if dispatch else 0.0,
        "montecarlo.path_steps": count("montecarlo.path_steps"),
        "montecarlo.simulate_scmd_self_s": self_sum("montecarlo.simulate_scmd", "montecarlo.simulate_scmd.block"),
        "multivariate.tuples_built": built,
        "multivariate.tuples_kept": kept,
        "multivariate.keep_ratio": kept / built if built else 0.0,
        "multivariate.factorizations": sum(1 for s in spans if s[1] == "multivariate.psd_factor"),
        "multivariate.factor_ms": 1e3 * self_sum("multivariate.psd_factor", "multivariate.integrated_covariance"),
        "config.load_ms": 1e3 * statistics.median(loads) if loads else 0.0,
        "runner.self_ms": 1e3 * self_sum("runner.run_price", "runner.run_copula"),
        "cli.self_ms": 1e3 * self_sum("cli.main"),
    }


def traced(probes, tracing, workload, seed: int, seconds: float, outcomes: Outcomes) -> dict:
    """Per-layer metrics: traced passes alternate with untraced ones, then the probes.

    Span and count metrics cover the last traced 1-worker pass plus one
    traced round of probes; rng.busy_frac_w2 covers a traced 2-worker pass
    plus a 2-worker round of probes.
    """
    tracer = tracing.Tracer()
    plain, traced_times = [], []

    _timed_loop(
        seconds,
        _alternate(
            lambda: plain.append(run_pass(workload, 1, outcomes)),
            lambda: traced_times.append(run_pass(workload, 1, outcomes, tracer, tag=f"pass{len(traced_times)}")),
        ),
    )
    run_pass(workload, 2, outcomes, tracer, tag="w2")

    probe_list = probes.build(seed)
    os.environ["MVMIX_WORKERS"] = "1"
    values, problems = probes.measure(probe_list)
    for workers, tag in ((1, "probes"), (2, "probes-w2")):
        os.environ["MVMIX_WORKERS"] = str(workers)
        with tracer.installed(), tracer.span("bench.probes", job=tag):
            for probe in probe_list:
                with tracer.span("bench.probe", job=f"{tag}/{probe.metric}"):
                    probe.call()
    for metric, problem in problems.items():
        outcomes.record(metric, [problem] if problem else [])

    last = f"pass{len(traced_times) - 1}"
    values.update(layer_metrics(tracing, tracer, {last, "probes"}, {"w2", "probes-w2"}))
    for i in range(len(traced_times) - 1):
        earlier = layer_metrics(tracing, tracer, {f"pass{i}", "probes"}, set())
        moved = [k for k in COUNTS if earlier[k] != values[k]]
        outcomes.record(f"traced pass {i}", [f"counts differ from the last pass: {moved}"] if moved else [])
    values["trace.overhead_frac"] = (statistics.median(traced_times) - statistics.median(plain)) / statistics.median(plain)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-{seed}.jsonl")
    return values


BASELINE = {  # ROADMAP "Baseline": 2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1
    "simulate_scmd 1e5x360, 1 worker (s)": 3.84,
    "simulate_scmd 1e5x360, 2 workers (s)": 2.41,
    "kendall_tau_empirical 1e5 (ms)": 1168.0,
    "copula_value n=3 (ms)": 644.0,
    "truncate n=6 (ms)": 7.5,
    "truncate n=8 (ms)": 57.0,
}


def crosscheck(probes, seed: int) -> None:
    """Full-size runs of the ROADMAP baseline figures, three times each, medians."""
    from mvmix import benchmarks, montecarlo

    model = benchmarks.benchmark_model("vanilla", benchmarks.TABLES[2]["rho"])
    sim = montecarlo.SimulationConfig(100_000, 360, 1.0, seed)
    measured = {}
    for workers in (1, 2):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            montecarlo.simulate_scmd(model, sim, workers)
            times.append(time.perf_counter() - start)
        measured[f"simulate_scmd 1e5x360, {workers} worker{'s' if workers > 1 else ''} (s)"] = statistics.median(times)
    os.environ["MVMIX_WORKERS"] = "1"
    values, _ = probes.measure(probes.build(seed))
    measured["kendall_tau_empirical 1e5 (ms)"] = values["dependence.tau_empirical_ms"]
    measured["copula_value n=3 (ms)"] = values["dependence.copula_ms_n3"]
    measured["truncate n=6 (ms)"] = values["multivariate.truncate_ms_n6"]
    measured["truncate n=8 (ms)"] = values["multivariate.truncate_ms_n8"]
    print(json.dumps({"machine": machine(), "baseline": BASELINE, "measured": measured}, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("tables-euler", "tables-mvmd", "wide-basket", "dependence"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--crosscheck", action="store_true", help="compare with the ROADMAP baseline and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.crosscheck and args.workload is None:
        parser.error("--workload is required")

    try:
        workloads, probes, tracing = _import_library()
    except ImportError as exc:
        print(f"cannot import mvmix from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.crosscheck:
        crosscheck(probes, args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    outcomes = Outcomes()
    workload = set_up(workloads, args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            values = traced(probes, tracing, workload, args.seed, args.seconds, outcomes)
            units, samples = LAYER_UNITS, {}
        else:
            values, samples = end_to_end(workload, args.seed, args.seconds, setup_s, outcomes)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    for message in outcomes.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    fail_frac = outcomes.failed / outcomes.attempted
    print(f"machine {json.dumps(machine())}")
    print(f"workload {args.workload} seed {args.seed}: {outcomes.attempted} checked, fail_frac {fail_frac:.6g}")
    for name, count in samples.items():
        print(f"{name}: median of {count} samples")
    print(
        json.dumps(
            {
                "correct": outcomes.failed == 0,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
