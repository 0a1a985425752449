"""Experiment configuration: strict JSON schema with canonical round trips.

A config file holds one experiment object or a list of them.  Every block is
validated against the model invariants on load and unknown keys are
rejected, so mistakes surface with the offending key path in the message,
and ``dump_config`` writes the canonical form back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .montecarlo import SCHEMES
from .multivariate import CorrelationMatrix, MultiAssetModel
from .pricing import BasketSpec
from .univariate import AssetMixture
from .volcurve import VolCurve

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "dump_config"]


class ConfigError(ValueError):
    """A config document failed validation; the message names the key."""


def _require_keys(block: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in block:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in block:
            raise ConfigError(f"{where}.{key}: missing key")


def _parse_vol(entry, where: str) -> VolCurve:
    if not isinstance(entry, dict):
        return VolCurve.constant(_number(entry, where))
    _require_keys(entry, where, ("times", "values"))
    times = _number(entry["times"], f"{where}.times", many=True)
    values = _number(entry["values"], f"{where}.values", many=True)
    try:
        return VolCurve(times, values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(block: dict, key: str, default: int, where: str) -> int:
    """An integral number (bools and fractions rejected), as an int."""
    value = block.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _number(value, where: str, many: bool = False):
    """A JSON number as a float, or with `many` a list of them as a tuple; bools and strings refused."""
    if many:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
        return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


_ENGINE_RULES = {
    "paths": (lambda v: v >= 1, "must be >= 1"),
    "steps": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: 0 <= v < 2**64, "must lie in [0, 2**64)"),
    "kappa": (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
}


def check_engine(key: str, value, where: str):
    """`value` if it obeys the rule of engine `key`; else a ConfigError naming `where` and the value."""
    holds, rule = _ENGINE_RULES[key]
    if not holds(value):
        raise ConfigError(f"{where}: {rule}, got {value}")
    return value


def _vol_to_json(vol: VolCurve):
    if vol.is_constant:
        return vol.values[0]
    return {"times": list(vol.times), "values": list(vol.values)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One pricing/dependence experiment: model + product + engine."""

    name: str
    model: MultiAssetModel
    kind: str
    basket_weights: tuple[float, ...]
    strikes: tuple[float, ...]
    maturity: float
    direction: str
    rate: float
    schemes: tuple[str, ...]
    paths: int
    steps: int
    seed: int
    kappa: float

    def spec(self, strike: float) -> BasketSpec:
        omega = 1 if self.direction == "call" else -1
        return BasketSpec(self.basket_weights, self.kind, strike, self.maturity, omega, self.rate)

    @property
    def rho(self) -> float:
        """Convenience: the (0,1) instantaneous correlation (0 for one asset)."""
        return float(self.model.corr[0, 1]) if self.model.n > 1 else 0.0

    @classmethod
    def from_dict(cls, doc: dict, where: str = "config") -> "ExperimentConfig":
        _require_keys(doc, where, ("model", "product", "engine"), ("name",))
        name = doc.get("name", "experiment")
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string")

        mblock = doc["model"]
        _require_keys(mblock, f"{where}.model", ("assets", "correlation"))
        assets = []
        if not isinstance(mblock["assets"], list) or not mblock["assets"]:
            raise ConfigError(f"{where}.model.assets: expected a nonempty list")
        for i, ablock in enumerate(mblock["assets"]):
            awhere = f"{where}.model.assets[{i}]"
            _require_keys(ablock, awhere, ("spot", "drift", "weights", "vols"))
            spot = _number(ablock["spot"], f"{awhere}.spot")
            drift = _number(ablock["drift"], f"{awhere}.drift")
            weights = _number(ablock["weights"], f"{awhere}.weights", many=True)
            if not isinstance(ablock["vols"], list) or len(weights) != len(ablock["vols"]):
                raise ConfigError(f"{awhere}.vols: need one vol per weight")
            vols = [_parse_vol(v, f"{awhere}.vols[{j}]") for j, v in enumerate(ablock["vols"])]
            try:
                assets.append(AssetMixture.from_arrays(spot, drift, weights, vols))
            except ValueError as exc:
                raise ConfigError(f"{awhere}: {exc}") from exc
        cwhere = f"{where}.model.correlation"
        if not isinstance(mblock["correlation"], list):
            raise ConfigError(f"{cwhere}: expected a list of rows")
        rows = [_number(row, f"{cwhere}[{i}]", many=True) for i, row in enumerate(mblock["correlation"])]
        try:
            model = MultiAssetModel(tuple(assets), CorrelationMatrix(rows))
        except ValueError as exc:
            raise ConfigError(f"{where}.model.correlation: {exc}") from exc

        pblock = doc["product"]
        _require_keys(
            pblock, f"{where}.product", ("kind", "weights", "strikes", "maturity", "direction", "rate")
        )
        if pblock["direction"] not in ("call", "put"):
            raise ConfigError(f"{where}.product.direction: expected 'call' or 'put'")
        strikes = _number(pblock["strikes"], f"{where}.product.strikes", many=True)
        if not strikes:
            raise ConfigError(f"{where}.product.strikes: expected a nonempty list")
        basket_weights = _number(pblock["weights"], f"{where}.product.weights", many=True)
        if len(basket_weights) != model.n:
            raise ConfigError(f"{where}.product.weights: need one weight per asset")

        eblock = doc["engine"]
        ewhere = f"{where}.engine"
        _require_keys(eblock, ewhere, (), ("schemes", "paths", "steps", "seed", "kappa"))
        raw_schemes = eblock.get("schemes", ["mvmd-terminal"])
        if not isinstance(raw_schemes, list):
            raise ConfigError(f"{ewhere}.schemes: expected a list of scheme names")
        for i, s in enumerate(raw_schemes):
            if not isinstance(s, str) or s not in SCHEMES:
                raise ConfigError(f"{ewhere}.schemes: unknown scheme {s!r}")
            if s in raw_schemes[:i]:  # run_price would price and report it twice
                raise ConfigError(f"{ewhere}.schemes: duplicate scheme {s!r}")
        paths = check_engine("paths", _integer(eblock, "paths", 100_000, ewhere), f"{ewhere}.paths")
        steps = check_engine("steps", _integer(eblock, "steps", 360, ewhere), f"{ewhere}.steps")
        seed = check_engine("seed", _integer(eblock, "seed", 0, ewhere), f"{ewhere}.seed")
        kappa = check_engine("kappa", _number(eblock.get("kappa", 0.0), f"{ewhere}.kappa"), f"{ewhere}.kappa")

        cfg = cls(
            name=name,
            model=model,
            kind=pblock["kind"],
            basket_weights=basket_weights,
            strikes=strikes,
            maturity=_number(pblock["maturity"], f"{where}.product.maturity"),
            direction=pblock["direction"],
            rate=_number(pblock["rate"], f"{where}.product.rate"),
            schemes=tuple(raw_schemes),
            paths=paths,
            steps=steps,
            seed=seed,
            kappa=kappa,
        )
        try:
            for strike in strikes:  # validates the product block against BasketSpec
                cfg.spec(strike)
        except ValueError as exc:
            raise ConfigError(f"{where}.product: {exc}") from exc
        return cfg

    def to_dict(self) -> dict:
        """Canonical serialization; from_dict(to_dict(c)) rebuilds the same model."""
        return {
            "name": self.name,
            "model": {
                "assets": [
                    {
                        "spot": a.spot,
                        "drift": a.drift,
                        "weights": [c.weight for c in a.components],
                        "vols": [_vol_to_json(c.vol) for c in a.components],
                    }
                    for a in self.model.assets
                ],
                "correlation": self.model.corr.values.tolist(),
            },
            "product": {
                "kind": self.kind,
                "weights": list(self.basket_weights),
                "strikes": list(self.strikes),
                "maturity": self.maturity,
                "direction": self.direction,
                "rate": self.rate,
            },
            "engine": {
                "schemes": list(self.schemes),
                "paths": self.paths,
                "steps": self.steps,
                "seed": self.seed,
                "kappa": self.kappa,
            },
        }


def load_config(source) -> list[ExperimentConfig]:
    """Parse a config file (path) or document (dict / list of dicts)."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"{source}: cannot read config file ({exc.strerror})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON ({exc})") from exc
    else:
        doc = source
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not doc:
        raise ConfigError("config: expected an experiment object or nonempty list")
    return [ExperimentConfig.from_dict(item, f"config[{i}]") for i, item in enumerate(doc)]


def dump_config(configs: list[ExperimentConfig], path) -> None:
    docs = [c.to_dict() for c in configs]
    Path(path).write_text(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2) + "\n")
