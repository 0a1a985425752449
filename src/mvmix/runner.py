"""Batch jobs: pricing runs, dependence runs and the table-reproduction pipeline.

Row dictionaries are the common currency here; the CLI renders them as CSV
or JSON.  The reproduction pipeline writes one CSV per benchmark table with
fixed columns and documented seeds, so reruns are byte-identical.  These jobs
take no worker count: their draws read it from the MVMIX_WORKERS environment
variable (`rng.worker_count`), and the output is the same for any value.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import benchmarks, dependence, montecarlo, pricing  # noqa: F401 (perfbench reads runner.pricing)
from .config import ExperimentConfig

__all__ = ["run_price", "run_tau", "run_copula", "reproduce_tables", "rows_to_csv", "rows_to_json"]

TABLE_COLUMNS = (
    "product",
    "scheme",
    "strike",
    "rho",
    "price",
    "std_error",
    "paths",
    "seed",
    "ref_price",
    "ref_se",
    "z_score",
)


def run_price(experiments: ExperimentConfig | Sequence[ExperimentConfig]) -> list[dict]:
    """Price every (strike, scheme) pair of one experiment or of a run of them.

    Each ``montecarlo.SCHEMES`` entry is a pair ``(key, price)``.  For each
    scheme, in first-use order, the run's experiments are grouped by draw
    key; each group's distinct specs, in first-use order, are priced once by
    ``price(exp, specs)`` off the draw of the group's first experiment,
    whatever the experiments' basket, strikes, direction or rate.  Rows come
    per experiment, then per scheme, then per strike; the first row of each
    (scheme, key) carries its group's wall time in ``wall_time_s``, every
    other row 0.0.
    """
    if isinstance(experiments, ExperimentConfig):
        experiments = [experiments]
    priced, wall = {}, {}
    for scheme in dict.fromkeys(s for config in experiments for s in config.schemes):
        key, price = montecarlo.SCHEMES[scheme]
        groups = {}
        for config in (c for c in experiments if scheme in c.schemes):
            groups.setdefault(key(config), []).append(config)
        for k, group in groups.items():
            start = time.perf_counter()
            specs = tuple(dict.fromkeys(c.spec(strike) for c in group for strike in c.strikes))
            priced[scheme, k] = dict(zip(specs, price(group[0], specs)))
            wall[scheme, k] = time.perf_counter() - start
    rows = []
    for config in experiments:
        for scheme in config.schemes:
            k = (scheme, montecarlo.SCHEMES[scheme][0](config))
            for strike in config.strikes:
                est = priced[k][config.spec(strike)]
                rows.append(
                    {
                        "product": config.name,
                        "scheme": scheme.split("-")[0],
                        "strike": strike,
                        "rho": config.rho,
                        "price": est.price,
                        "std_error": est.std_error,
                        "paths": est.samples,
                        "wall_time_s": wall.pop(k, 0.0),
                        "seed": config.seed,
                    }
                )
    return rows


def run_tau(config: ExperimentConfig) -> list[dict]:
    """Kendall tau rows of assets 1 and 2 over the whole mixture (no kappa): closed form, then empirical per scheme."""
    t = config.maturity
    rows = [{"method": "mvmd-closed-form", "tau": dependence.kendall_tau_mvmd(config.model, t), "paths": 0, "note": ""}]
    sim = montecarlo.SimulationConfig(config.paths, config.steps, t, config.seed)
    for sample in (
        montecarlo.sample_mvmd_terminal(config.model, t, config.paths, config.seed),
        montecarlo.simulate_scmd(config.model, sim),
    ):
        tau = dependence.kendall_tau_empirical(sample.values[:, 0], sample.values[:, 1])
        method = sample.scheme.split("-")[0] + "-empirical"
        rows.append({"method": method, "tau": tau, "paths": config.paths, "note": ""})
    return rows


def run_copula(config: ExperimentConfig, grid: int) -> list[dict]:
    """Mixture copula values on the interior grid (i/(grid+1))_i per axis.

    The grid's points share their quantiles and tuple laws in one call to
    the copula evaluator; each value has the bits of `copula_value` there.
    """
    n = config.model.n
    if n > 3:
        raise ValueError("copula grids are supported for up to 3 assets")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    levels = [(i + 1) / (grid + 1) for i in range(grid)]
    points = np.stack(np.meshgrid(*([levels] * n), indexing="ij"), axis=-1).reshape(-1, n)
    values = dependence._copula_values(config.model, config.maturity, points, config.kappa)
    rows = []
    for point, value in zip(points, values):
        row = {f"u{i + 1}": float(ui) for i, ui in enumerate(point)}
        row["copula"] = float(value)
        rows.append(row)
    return rows


def _check_finite(rows: list[dict]) -> None:
    """Refuse to emit a non-finite price, error bar, tau or copula value."""
    for i, row in enumerate(rows):
        for key in ("price", "std_error", "tau", "copula"):
            value = row.get(key)
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"non-finite {key} ({value}) in output row {i}")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def rows_to_csv(rows: list[dict], columns=None) -> str:
    if not rows:
        return ""
    columns = list(columns or rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(c, "")) for c in columns])
    return buf.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _reference_annotated(rows: list[dict], table: int) -> list[dict]:
    out = []
    for row in rows:
        key = (table, row["product"], row["scheme"], row["strike"])
        ref = benchmarks.REFERENCE.get(key)
        annotated = {c: row[c] for c in TABLE_COLUMNS if c in row}
        if ref is None:
            annotated.update({"ref_price": "", "ref_se": "", "z_score": ""})
        else:
            ref_price, ref_se = ref
            annotated["ref_price"] = ref_price
            annotated["ref_se"] = ref_se
            annotated["z_score"] = round(abs(row["price"] - ref_price) / ref_se, 3)
        out.append(annotated)
    return out


def _check_writable(path: Path, directory: bool = False) -> None:
    """Raise, before any pricing, the OSError that writing file `path` (or making directory `path`) would raise."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path:
        code = 0 if existing.is_dir() == directory else errno.EEXIST if directory else errno.EISDIR
    elif not existing.is_dir():
        code = errno.ENOTDIR
    else:  # mkdir makes the missing directories; a file write makes none
        code = 0 if directory or existing == path.parent else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), str(path))


def reproduce_tables(outdir, paths: int = 100_000) -> dict[str, list[dict]]:
    """Run every benchmark table and write its CSV into `outdir`.

    Produces table2.csv .. table6.csv (price, SE and reference annotations
    per cell, z_score = |price - ref| / ref_se) plus table1_parameters.csv
    echoing the model parameters.  Seeds are the documented constants
    benchmarks.SEED_BASE + table number; reruns produce byte-identical files.
    An `outdir` that cannot be made is refused before any pricing, and a
    non-finite price or error bar before `outdir` is made: a failed run writes no file.
    """
    outdir = Path(outdir)
    _check_writable(outdir, directory=True)
    results: dict[str, list[dict]] = {}

    param_rows = []
    for product, p in benchmarks.PRODUCTS.items():
        for i in range(2):
            param_rows.append(
                {
                    "product": product,
                    "asset": i + 1,
                    "spot": p["spots"][i],
                    "drift": p["drifts"][i],
                    "component_weights": " ".join(map(str, p["weights"][i])),
                    "component_vols": " ".join(map(str, p["vols"][i])),
                    "basket_weight": p["basket_weights"][i],
                    "kind": p["kind"],
                }
            )
    results["table1_parameters"] = param_rows

    for table in benchmarks.TABLES:  # no draw key spans two tables: each has its own seed
        rows = run_price(benchmarks.table_configs(table, paths))
        _check_finite(rows)
        results[f"table{table}"] = _reference_annotated(rows, table)

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "table1_parameters.csv").write_text(rows_to_csv(param_rows))
    for table in benchmarks.TABLES:
        name = f"table{table}"
        (outdir / f"{name}.csv").write_text(rows_to_csv(results[name], TABLE_COLUMNS))
    return results
