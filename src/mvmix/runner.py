"""Batch jobs: pricing runs, dependence runs and the table-reproduction pipeline.

Row dictionaries are the common currency here; the CLI renders them as CSV
or JSON.  The reproduction pipeline writes one CSV per benchmark table with
fixed columns and documented seeds, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from pathlib import Path

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


def run_price(config: ExperimentConfig, workers: int | None = None) -> list[dict]:
    """Price every (strike, scheme) pair of one experiment.

    Each scheme prices along its route in ``montecarlo.SCHEMES``.  Sampling
    schemes simulate once per scheme and price all strikes off the shared
    terminal sample, so the first strike's wall time carries the
    simulation cost.
    """
    rows = []
    for scheme in config.schemes:
        price = montecarlo.SCHEMES[scheme](config, workers)
        for strike in config.strikes:
            start = time.perf_counter()
            est = price(config.spec(strike))
            rows.append(
                {
                    "product": config.name,
                    "scheme": scheme.split("-")[0],
                    "strike": strike,
                    "rho": config.rho,
                    "price": est.price,
                    "std_error": est.std_error,
                    "paths": est.samples if est.samples else config.paths,
                    "wall_time_s": time.perf_counter() - start,
                    "seed": config.seed,
                }
            )
    return rows


def run_tau(config: ExperimentConfig, workers: int | None = None) -> list[dict]:
    """Kendall tau rows: closed form plus empirical estimates per scheme."""
    if config.model.n < 2:
        raise ValueError("Kendall tau needs at least two assets")
    t = config.maturity
    rows = []
    try:
        tau_cf = dependence.kendall_tau_mvmd(config.model, t)
        rows.append(
            {"method": "mvmd-closed-form", "tau": tau_cf, "paths": 0, "note": ""}
        )
    except ValueError as exc:
        rows.append({"method": "mvmd-closed-form", "tau": "", "paths": 0, "note": f"unsupported: {exc}"})
    sim = montecarlo.SimulationConfig(config.paths, config.steps, t, config.seed)
    for sample in (
        montecarlo.sample_mvmd_terminal(config.model, t, config.paths, config.seed, config.kappa, workers),
        montecarlo.simulate_scmd(config.model, sim, workers),
    ):
        tau = dependence.kendall_tau_empirical(sample.values[:, 0], sample.values[:, 1])
        method = sample.scheme.split("-")[0] + "-empirical"
        rows.append({"method": method, "tau": tau, "paths": config.paths, "note": ""})
    return rows


def run_copula(config: ExperimentConfig, grid: int, workers: int | None = None) -> list[dict]:
    """Mixture copula values on the interior grid (i/(grid+1))_i per axis."""
    if config.model.n > 3:
        raise ValueError("copula grids are supported for up to 3 assets")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    levels = [(i + 1) / (grid + 1) for i in range(grid)]
    rows = []
    for point in np.stack(np.meshgrid(*([levels] * config.model.n), indexing="ij"), axis=-1).reshape(
        -1, config.model.n
    ):
        value = dependence.copula_value(config.model, config.maturity, point, config.kappa)
        row = {f"u{i + 1}": float(ui) for i, ui in enumerate(point)}
        row["copula"] = value
        rows.append(row)
    return rows


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


def reproduce_tables(
    outdir, paths: int = 100_000, workers: int | None = None
) -> dict[str, list[dict]]:
    """Run every benchmark table and write its CSV into `outdir`.

    Produces table2.csv .. table6.csv (price, SE and reference annotations
    per cell, z_score = |price - ref| / ref_se) plus table1_parameters.csv
    echoing the model parameters.  Seeds are the documented constants
    benchmarks.SEED_BASE + table number; reruns produce byte-identical files.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
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
    (outdir / "table1_parameters.csv").write_text(rows_to_csv(param_rows))

    for table, info in benchmarks.TABLES.items():
        rows: list[dict] = []
        for product in info["products"]:
            config = benchmarks.benchmark_config(product, info["rho"], info["seed"], paths)
            rows.extend(run_price(config, workers))
        annotated = _reference_annotated(rows, table)
        name = f"table{table}"
        results[name] = annotated
        (outdir / f"{name}.csv").write_text(rows_to_csv(annotated, TABLE_COLUMNS))
    return results
