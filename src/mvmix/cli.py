"""Command line entry points.

Subcommands: ``price`` and ``tau`` run experiments from a JSON config file
(bundled fixture names like ``table2`` resolve too), ``copula`` evaluates
the terminal copula on a grid, and ``reproduce-tables`` regenerates the
benchmark CSVs.  Exit codes: 0 success, 1 invalid configuration, 2
numerical failure.  The MVMIX_WORKERS environment variable sets the worker
count for the samplers.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .multivariate import SingularCovarianceError
from .runner import reproduce_tables, rows_to_csv, rows_to_json, run_copula, run_price, run_tau

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _resolve_config(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = resources.files("mvmix") / "configs" / (name if name.endswith(".json") else f"{name}.json")
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config file not found: {name}")


def _load(args) -> list:
    configs = load_config(_resolve_config(args.config))
    if getattr(args, "seed", None) is not None:
        configs = [replace(c, seed=args.seed) for c in configs]
    if getattr(args, "kappa", None) is not None:
        configs = [replace(c, kappa=args.kappa) for c in configs]
    return configs


def _check_finite(rows: list[dict]) -> None:
    """Refuse to emit a non-finite price, error bar, tau or copula value."""
    for i, row in enumerate(rows):
        for key in ("price", "std_error", "tau", "copula"):
            value = row.get(key)
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"non-finite {key} ({value}) in output row {i}")


def _emit(rows: list[dict], fmt: str, path: str | None, columns=None) -> None:
    text = rows_to_json(rows) if fmt == "json" else rows_to_csv(rows, columns)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price every (strike, scheme) pair of a config")
    price.add_argument("--config", required=True, help="config file path or bundled name")
    price.add_argument("--seed", type=int, default=None, help="override the engine seed")
    price.add_argument("--kappa", type=float, default=None, help="override the weight cutoff")
    price.add_argument("--out", choices=("csv", "json"), default=None)
    price.add_argument("--out-path", default=None, help="write output here instead of stdout")

    tau = sub.add_parser("tau", help="closed-form and empirical Kendall tau of a config")
    tau.add_argument("--config", required=True)
    tau.add_argument("--seed", type=int, default=None)
    tau.add_argument("--out", choices=("csv", "json"), default=None)
    tau.add_argument("--out-path", default=None)

    copula = sub.add_parser("copula", help="terminal copula values on a uniform grid")
    copula.add_argument("--config", required=True)
    copula.add_argument("--grid", type=int, required=True, help="points per axis")
    copula.add_argument("--out", choices=("csv", "json"), default=None)
    copula.add_argument("--out-path", default=None)

    repro = sub.add_parser("reproduce-tables", help="regenerate the benchmark table CSVs")
    repro.add_argument("--out", required=True, help="output directory")
    repro.add_argument("--paths", type=int, default=100_000)

    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce-tables":
            results = reproduce_tables(args.out, paths=args.paths)
            for name in sorted(results):
                print(f"wrote {Path(args.out) / (name + '.csv')} ({len(results[name])} rows)")
            return EXIT_OK

        configs = _load(args)
        rows: list[dict] = []
        if args.command == "price":
            for config in configs:
                rows.extend(run_price(config))
        elif args.command == "tau":
            for config in configs:
                for row in run_tau(config):
                    rows.append({"product": config.name, **row})
        elif args.command == "copula":
            for config in configs:
                for row in run_copula(config, args.grid):
                    rows.append({"product": config.name, **row})
        _check_finite(rows)
        fmt = args.out or configs[0].output_format
        path = args.out_path or configs[0].output_path
        _emit(rows, fmt, path)
        return EXIT_OK
    except (SingularCovarianceError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
