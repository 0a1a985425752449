"""Experiment configuration: strict JSON schema with canonical round trips.

A config file holds one experiment object or a list of them.  Every block is
validated against the model invariants on load and unknown keys are
rejected, so fixture files stay diffable and mistakes surface with the
offending key path in the message.
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
    if isinstance(entry, (int, float)):
        return VolCurve.constant(float(entry))
    _require_keys(entry, where, ("times", "values"))
    try:
        return VolCurve(tuple(entry["times"]), tuple(entry["values"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(block: dict, key: str, default: int, where: str) -> int:
    """An integral number (bools and fractions rejected), as an int."""
    value = block.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _vol_to_json(vol: VolCurve):
    if vol.is_constant:
        return vol.values[0]
    return {"times": list(vol.times), "values": list(vol.values)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One pricing/dependence experiment: model + product + engine (+ output)."""

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
    output_format: str = "csv"
    output_path: str | None = None

    def spec(self, strike: float) -> BasketSpec:
        omega = 1 if self.direction == "call" else -1
        return BasketSpec(self.basket_weights, self.kind, strike, self.maturity, omega, self.rate)

    @property
    def rho(self) -> float:
        """Convenience: the (0,1) instantaneous correlation (0 for one asset)."""
        return float(self.model.corr[0, 1]) if self.model.n > 1 else 0.0

    @classmethod
    def from_dict(cls, doc: dict, where: str = "config") -> "ExperimentConfig":
        _require_keys(doc, where, ("model", "product", "engine"), ("name", "output"))
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
            if len(ablock["weights"]) != len(ablock["vols"]):
                raise ConfigError(f"{awhere}.vols: need one vol per weight")
            vols = [_parse_vol(v, f"{awhere}.vols[{j}]") for j, v in enumerate(ablock["vols"])]
            try:
                assets.append(
                    AssetMixture.from_arrays(ablock["spot"], ablock["drift"], ablock["weights"], vols)
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{awhere}: {exc}") from exc
        try:
            model = MultiAssetModel(tuple(assets), CorrelationMatrix(mblock["correlation"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.model.correlation: {exc}") from exc

        pblock = doc["product"]
        _require_keys(
            pblock, f"{where}.product", ("kind", "weights", "strikes", "maturity", "direction", "rate")
        )
        if pblock["direction"] not in ("call", "put"):
            raise ConfigError(f"{where}.product.direction: expected 'call' or 'put'")
        strikes = tuple(float(k) for k in pblock["strikes"])
        if not strikes:
            raise ConfigError(f"{where}.product.strikes: expected a nonempty list")
        if len(pblock["weights"]) != model.n:
            raise ConfigError(f"{where}.product.weights: need one weight per asset")

        eblock = doc["engine"]
        _require_keys(
            eblock, f"{where}.engine", (), ("scheme", "schemes", "paths", "steps", "seed", "kappa")
        )
        if "scheme" in eblock and "schemes" in eblock:
            raise ConfigError(f"{where}.engine.scheme: give either scheme or schemes, not both")
        raw_schemes = eblock.get("schemes", eblock.get("scheme", ["mvmd-terminal"]))
        if isinstance(raw_schemes, str):
            raw_schemes = [raw_schemes]
        for s in raw_schemes:
            if s not in SCHEMES:
                raise ConfigError(f"{where}.engine.schemes: unknown scheme {s!r}")
        paths = _integer(eblock, "paths", 100_000, f"{where}.engine")
        steps = _integer(eblock, "steps", 360, f"{where}.engine")
        seed = _integer(eblock, "seed", 0, f"{where}.engine")
        kappa = float(eblock.get("kappa", 0.0))
        if paths < 1:
            raise ConfigError(f"{where}.engine.paths: must be >= 1")
        if steps < 1:
            raise ConfigError(f"{where}.engine.steps: must be >= 1")
        if not 0.0 <= kappa < 1.0:
            raise ConfigError(f"{where}.engine.kappa: must lie in [0, 1)")

        oblock = doc.get("output", {})
        _require_keys(oblock, f"{where}.output", (), ("format", "path"))
        ofmt = oblock.get("format", "csv")
        if ofmt not in ("csv", "json"):
            raise ConfigError(f"{where}.output.format: expected 'csv' or 'json'")
        opath = oblock.get("path")
        if opath is not None and not isinstance(opath, str):
            raise ConfigError(f"{where}.output.path: expected a string or null")

        cfg = cls(
            name=name,
            model=model,
            kind=pblock["kind"],
            basket_weights=tuple(float(w) for w in pblock["weights"]),
            strikes=strikes,
            maturity=float(pblock["maturity"]),
            direction=pblock["direction"],
            rate=float(pblock["rate"]),
            schemes=tuple(raw_schemes),
            paths=paths,
            steps=steps,
            seed=seed,
            kappa=kappa,
            output_format=ofmt,
            output_path=opath,
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
            "output": {"format": self.output_format, "path": self.output_path},
        }


def load_config(source) -> list[ExperimentConfig]:
    """Parse a config file (path) or document (dict / list of dicts)."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
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
