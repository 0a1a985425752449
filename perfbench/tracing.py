"""In-memory span recorder that wraps mvmix from the outside.

`Tracer.install()` replaces each mvmix function whose name has no leading
underscore with a recording wrapper, under every name a layer module looks
it up by (``runner`` calls ``pricing.price_mvmd_mc`` through the
``pricing`` module, ``cli`` calls its own ``run_price`` global, and so
on).  `Tracer.remove()` puts the originals back, so untraced passes run the
library unchanged.  Nothing
under ``src/`` is edited.

A span is (id, name, start, end, parent id, job id).  Names are
``<module>.<function>``; the block callbacks that ``rng.run_blocks``
schedules are named after the function that defined them (for example
``montecarlo.simulate_scmd.block``), so per-block work is charged to the
caller's layer and ``rng.run_blocks`` keeps only its scheduling time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# The modules whose public functions get spans, i.e. the benchmark's layers.
# volcurve is reached only through univariate and multivariate, and
# benchmarks holds only data, so neither is wrapped.
LAYERS = ("rng", "univariate", "multivariate", "pricing", "montecarlo", "dependence", "config", "runner", "cli")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (job id, key) -> count
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._parent = contextvars.ContextVar("parent_span", default=None)
        self._job = contextvars.ContextVar("job_id", default=None)
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent, job = self._parent.get(), self._job.get()
        token = self._parent.set(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._parent.reset(token)
            self.spans.append((sid, name, start, end, parent, job))

    def count(self, key: str, amount: int = 1) -> None:
        """Add to counter `key` of the current job."""
        with self._lock:
            self.counts[self._job.get(), key] += amount

    @contextmanager
    def span(self, name: str, job: str | None = None):
        """Open a span around a block of benchmark code; `job` tags everything inside."""
        jtoken = self._job.set(job) if job is not None else None
        sid, parent = next(self._ids), self._parent.get()
        ptoken = self._parent.set(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._parent.reset(ptoken)
            self.spans.append((sid, name, start, end, parent, self._job.get()))
            if jtoken is not None:
                self._job.reset(jtoken)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn):
        name = _span_name(fn)
        tracer = self

        if name == "rng.run_blocks":

            @functools.wraps(fn)
            def wrapper(block_fn, blocks, *args, **kwargs):
                tracer.count("rng.blocks", len(blocks))

                def dispatch():  # inside the run_blocks span, which becomes the blocks' parent
                    return fn(tracer._block_wrapper(block_fn), blocks, *args, **kwargs)

                return tracer._call(name, dispatch, (), {})

        elif name == "multivariate.truncate":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer._call(name, fn, args, kwargs)
                tracer.count("multivariate.tuples_kept", len(result))
                return result

        elif name == "montecarlo.simulate_scmd":

            @functools.wraps(fn)
            def wrapper(model, config, *args, **kwargs):
                tracer.count("montecarlo.path_steps", config.paths * config.steps * model.n)
                return tracer._call(name, fn, (model, config) + args, kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _block_wrapper(self, block_fn):
        """Run each block as a span under the current run_blocks span.

        Pool threads start with an empty context, so the parent span and job
        id are handed over explicitly.
        """
        name = f"{block_fn.__module__.rsplit('.', 1)[-1]}.{block_fn.__qualname__.split('.')[0]}.block"
        parent, job = self._parent.get(), self._job.get()

        def run_block(b, start, stop):
            ptoken, jtoken = self._parent.set(parent), self._job.set(job)
            try:
                self._call(name, block_fn, (b, start, stop), {})
            finally:
                self._job.reset(jtoken)
                self._parent.reset(ptoken)

        return run_block

    def _counted_class(self, cls, key):
        def build(*args, **kwargs):
            self.count(key)
            return cls(*args, **kwargs)

        return build

    def install(self) -> None:
        """Wrap every public mvmix function under each name it is looked up by."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mvmix.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("mvmix.") and not obj.__name__.startswith("_"):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        multivariate = importlib.import_module("mvmix.multivariate")
        cls = multivariate.ComponentTuple
        self._saved.append((multivariate, "ComponentTuple", cls))
        multivariate.ComponentTuple = self._counted_class(cls, "multivariate.tuples_built")

    def remove(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, job in self.spans:
                out.write(
                    json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job})
                    + "\n"
                )


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for cstart, cend in sorted(children.get(sid, ())):
            cstart, cend = max(cstart, reach), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                reach = cend
        out[sid] = (end - start) - covered
    return out
