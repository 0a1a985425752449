"""Command line entry points.

Subcommands: ``price``, ``tau`` and ``copula`` run the experiments of a JSON
config file (``copula`` on a uniform grid), and ``reproduce-tables``
regenerates the benchmark CSVs.  ``--config table2`` … ``table6`` (with or
without ``.json``) loads that paper table from ``benchmarks.TABLES`` unless a
file of that name exists.  Exit codes: 0 success, 1 invalid configuration
or an output that cannot be written, 2 numerical failure.  The MVMIX_WORKERS
environment variable is the only setting of the samplers' worker count; no
option sets it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmarks import TABLES, table_configs
from .config import ConfigError, check_engine, load_config
from .multivariate import SingularCovarianceError
from .runner import _check_finite, _check_writable, reproduce_tables, rows_to_csv, rows_to_json
from .runner import run_copula, run_price, run_tau

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_BUNDLED = {f"table{n}": n for n in TABLES}


def _load(args) -> list:
    table = _BUNDLED.get(args.config.removesuffix(".json"))
    if table is not None and not Path(args.config).exists():
        configs = table_configs(table)
    else:
        configs = load_config(args.config)
    for key in ("seed", "kappa"):
        if getattr(args, key, None) is not None:
            value = check_engine(key, getattr(args, key), f"--{key}")
            configs = [replace(c, **{key: value}) for c in configs]
    return configs


def _emit(rows: list[dict], fmt: str, path: str | None) -> None:
    text = rows_to_json(rows) if fmt == "json" else rows_to_csv(rows)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mvmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # the options of every config-driven command
    shared.add_argument("--config", required=True, help="config file path or bundled name")
    shared.add_argument("--out", choices=("csv", "json"), default="csv")
    shared.add_argument("--out-path", default=None, help="write output here instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override the engine seed")

    price = sub.add_parser("price", parents=[shared, seeded], help="price every (strike, scheme) pair of a config")
    price.add_argument("--kappa", type=float, default=None, help="override the weight cutoff")
    sub.add_parser("tau", parents=[shared, seeded], help="closed-form and empirical Kendall tau of a config")
    copula = sub.add_parser("copula", parents=[shared], help="terminal copula values on a uniform grid")
    copula.add_argument("--grid", type=int, required=True, help="points per axis")

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

        if args.command == "copula" and args.grid < 1:
            raise ConfigError(f"--grid: must be >= 1, got {args.grid}")
        if args.out_path:
            _check_writable(Path(args.out_path))
        configs = _load(args)
        if args.command == "price":
            rows = run_price(configs)
        else:  # the runners are looked up here, as module globals, so a wrapper set on them is called
            run = run_tau if args.command == "tau" else lambda c: run_copula(c, args.grid)
            rows = [{"product": c.name, **row} for c in configs for row in run(c)]
        _check_finite(rows)
        _emit(rows, args.out, args.out_path)
        return EXIT_OK
    except (SingularCovarianceError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output path in a missing directory, a directory, or a file in the way
        print(f"error: cannot write {exc.filename} ({exc.strerror})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
