import copy
import json

import numpy as np
import pytest

from mvmix import ConfigError, ExperimentConfig, load_config
from mvmix.cli import main
from mvmix.runner import reproduce_tables, run_price, run_tau

BASE_DOC = {
    "name": "toy",
    "model": {
        "assets": [
            {"spot": 1.0, "drift": 0.05, "weights": [0.6, 0.4], "vols": [0.3, 0.2]},
            {"spot": 1.0, "drift": 0.05, "weights": [0.7, 0.3], "vols": [0.25, 0.35]},
        ],
        "correlation": [[1.0, 0.6], [0.6, 1.0]],
    },
    "product": {
        "kind": "arithmetic",
        "weights": [0.5, 0.5],
        "strikes": [1.0],
        "maturity": 1.0,
        "direction": "call",
        "rate": 0.05,
    },
    "engine": {"schemes": ["mvmd-terminal"], "paths": 2000, "steps": 12, "seed": 5, "kappa": 0.0},
}


def doc_with(path, value):
    doc = copy.deepcopy(BASE_DOC)
    node = doc
    *front, last = path
    for key in front:
        node = node[key]
    node[last] = value
    return doc


def test_config_loads_and_round_trips():
    cfg = ExperimentConfig.from_dict(BASE_DOC)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.model.assets == cfg.model.assets
    assert np.array_equal(again.model.corr.values, cfg.model.corr.values)


def test_unknown_keys_rejected():
    doc = copy.deepcopy(BASE_DOC)
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        ExperimentConfig.from_dict(doc)
    doc = doc_with(("model", "assets", 0, "smile"), 1.0)
    with pytest.raises(ConfigError, match="smile"):
        ExperimentConfig.from_dict(doc)
    doc = doc_with(("engine", "pathz"), 10)
    with pytest.raises(ConfigError, match="pathz"):
        ExperimentConfig.from_dict(doc)


def test_invalid_values_name_the_key():
    with pytest.raises(ConfigError, match="strikes"):
        ExperimentConfig.from_dict(doc_with(("product", "strikes"), []))
    with pytest.raises(ConfigError, match="schemes"):
        ExperimentConfig.from_dict(doc_with(("engine", "schemes"), ["exact"]))
    with pytest.raises(ConfigError, match="kappa"):
        ExperimentConfig.from_dict(doc_with(("engine", "kappa"), 1.5))
    with pytest.raises(ConfigError, match="direction"):
        ExperimentConfig.from_dict(doc_with(("product", "direction"), "straddle"))
    with pytest.raises(ConfigError, match="assets"):
        ExperimentConfig.from_dict(doc_with(("model", "assets", 0, "weights"), [0.6, 0.9]))
    with pytest.raises(ConfigError, match="product"):
        ExperimentConfig.from_dict(doc_with(("product", "kind"), "rainbow"))


@pytest.mark.parametrize(
    "path,value,where,key",
    [
        (("product", "rate"), float("nan"), "config[0].product", "rate"),
        (("product", "maturity"), float("inf"), "config[0].product", "maturity"),
        (("product", "strikes"), [1.0, float("nan")], "config[0].product", "strike"),
        (("model", "assets", 0, "drift"), float("nan"), "config[0].model.assets[0]", "drift"),
    ],
)
def test_non_finite_values_name_the_key(path, value, where, key):
    with pytest.raises(ConfigError) as info:
        load_config(doc_with(path, value))
    assert str(info.value).startswith(where + ":") and key in str(info.value)


@pytest.mark.parametrize(
    "key,value",
    [("paths", True), ("paths", 2.7), ("steps", False), ("steps", "12"), ("seed", 1.9), ("seed", float("nan"))],
)
def test_engine_integers_reject_bools_and_fractions(key, value):
    with pytest.raises(ConfigError, match=rf"^config\[0\]\.engine\.{key}: expected an integer"):
        load_config(doc_with(("engine", key), value))


def test_engine_integers_accept_integral_floats():
    (cfg,) = load_config(doc_with(("engine", "paths"), 2000.0))
    assert cfg.paths == 2000 and type(cfg.paths) is int


def test_piecewise_vol_round_trip():
    doc = doc_with(
        ("model", "assets", 0, "vols"), [{"times": [0.0, 0.5], "values": [0.2, 0.4]}, 0.2]
    )
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.model.assets[0].components[0].vol.values == (0.2, 0.4)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.model.assets == cfg.model.assets


def test_load_config_list(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps([BASE_DOC, BASE_DOC]))
    configs = load_config(path)
    assert len(configs) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(ConfigError):
        load_config(empty)


def test_run_price_rows():
    cfg = ExperimentConfig.from_dict(
        doc_with(("engine", "schemes"), ["mvmd-terminal", "scmd-euler", "muvm-terminal"])
    )
    rows = run_price(cfg)
    assert len(rows) == 3  # one strike x three schemes
    assert {r["scheme"] for r in rows} == {"mvmd", "scmd", "muvm"}
    for row in rows:
        assert row["product"] == "toy"
        assert row["rho"] == 0.6
        assert row["paths"] == 2000
        assert row["wall_time_s"] >= 0
        assert row["std_error"] > 0


def test_run_tau_rows():
    rows = run_tau(ExperimentConfig.from_dict(BASE_DOC))
    methods = [r["method"] for r in rows]
    assert methods == ["mvmd-closed-form", "mvmd-empirical", "scmd-empirical"]
    assert all(isinstance(r["tau"], float) for r in rows)
    # out-of-scope closed form still emits the empirical rows
    doc = doc_with(("model", "assets", 0, "weights"), [0.5, 0.3, 0.2])
    doc = {**doc}
    doc["model"]["assets"][0]["vols"] = [0.3, 0.2, 0.1]
    rows = run_tau(ExperimentConfig.from_dict(doc))
    assert rows[0]["note"].startswith("unsupported")
    assert rows[0]["tau"] == ""
    assert len(rows) == 3


def test_cli_price_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(cfg_path)]) == 0
    out1 = capsys.readouterr().out
    assert out1.splitlines()[0].startswith("product,scheme,strike")
    assert main(["price", "--config", str(cfg_path)]) == 0
    out2 = capsys.readouterr().out
    # identical except for wall-time measurements
    strip = lambda text: [
        ",".join(c for i, c in enumerate(line.split(",")) if i != 7) for line in text.splitlines()
    ]
    assert strip(out1) == strip(out2)


def test_cli_price_json_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(cfg_path), "--out", "json", "--seed", "9"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["seed"] == 9


def test_cli_bundled_config(capsys):
    assert main(["tau", "--config", "table2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mvmd-closed-form" in out
    assert out.count("scmd-empirical") == 2  # vanilla and spread experiments


def test_cli_validation_exit_codes(tmp_path, capsys):
    assert main(["price", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc_with(("product", "strikes"), [])))
    assert main(["price", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "strikes" in err


def test_cli_cutoff_removing_all_components(tmp_path, capsys):
    cfg = doc_with(("engine", "kappa"), 0.0)
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(path), "--kappa", "0.9"]) == 1
    assert "removed all components" in capsys.readouterr().err


def test_cli_copula_grid(tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    assert main(["copula", "--config", str(path), "--grid", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "product,u1,u2,copula"
    assert len(lines) == 1 + 9


def test_reproduce_tables_structure_and_determinism(tmp_path):
    a = reproduce_tables(tmp_path / "a", paths=2000)
    b = reproduce_tables(tmp_path / "b", paths=2000)
    names = {f"table{i}" for i in range(2, 7)} | {"table1_parameters"}
    assert set(a) == names
    for name in names:
        fa = (tmp_path / "a" / f"{name}.csv").read_bytes()
        fb = (tmp_path / "b" / f"{name}.csv").read_bytes()
        assert fa == fb
    header = (tmp_path / "a" / "table2.csv").read_text().splitlines()[0]
    assert header == "product,scheme,strike,rho,price,std_error,paths,seed,ref_price,ref_se,z_score"
    assert len(a["table2"]) == 12  # 2 products x 2 schemes x 3 strikes
    assert all(r["ref_price"] != "" for r in a["table2"])


def test_reproduce_tables_worker_independent(tmp_path, monkeypatch):
    reproduce_tables(tmp_path / "w1", paths=2000)
    monkeypatch.setenv("MVMIX_WORKERS", "4")
    reproduce_tables(tmp_path / "w4", paths=2000)
    for i in range(2, 7):
        assert (tmp_path / "w1" / f"table{i}.csv").read_bytes() == (
            tmp_path / "w4" / f"table{i}.csv"
        ).read_bytes()


def test_run_tau_degenerate_config_matches_arcsine():
    doc = copy.deepcopy(BASE_DOC)
    for asset in doc["model"]["assets"]:
        asset["weights"] = [1.0]
        asset["vols"] = [0.3]
    doc["engine"]["paths"] = 100_000
    rows = run_tau(ExperimentConfig.from_dict(doc))
    expect = 2.0 / np.pi * np.arcsin(0.6)
    assert rows[0]["method"] == "mvmd-closed-form"
    for row in rows:
        assert abs(row["tau"] - expect) < 0.01


def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from mvmix import SingularCovarianceError
    import mvmix.cli as cli

    def boom(config, workers=None):
        raise SingularCovarianceError((0, 0), 1.0)

    monkeypatch.setattr(cli, "run_price", boom)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,runner,row",
    [
        ("price", "run_price", {"product": "toy", "price": float("nan"), "std_error": 0.0}),
        ("price", "run_price", {"product": "toy", "price": 0.1, "std_error": float("inf")}),
        ("tau", "run_tau", {"method": "mvmd-empirical", "tau": float("nan")}),
        ("copula", "run_copula", {"u1": 0.5, "u2": 0.5, "copula": float("nan")}),
    ],
)
def test_cli_non_finite_output_exits_numerical(tmp_path, capsys, monkeypatch, command, runner, row):
    import mvmix.cli as cli

    monkeypatch.setattr(cli, runner, lambda config, *args, **kwargs: [dict(row)])
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    argv = [command, "--config", str(path)] + (["--grid", "2"] if command == "copula" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: non-finite")
    assert captured.out == ""


def test_cli_tau_needs_two_assets(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)
    doc["model"]["assets"] = doc["model"]["assets"][:1]
    doc["model"]["correlation"] = [[1.0]]
    doc["product"]["weights"] = [1.0]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["tau", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "two assets" in err


def test_reproduce_tables_golden_checksums(tmp_path):
    # pins the whole randomness contract: block size, stream keying, draw
    # order and CSV formatting; an intentional change to any of these must
    # update the hashes (and invalidates previously published golden files)
    import hashlib

    reproduce_tables(tmp_path, paths=2000)
    golden = {
        "table2": "289d9bfdc91e6abaf9f24ec0f65925a301de06640dd7a3bcdebd3a5798060c33",
        "table5": "4f58d66e0416d58b8a8cc51e11ae684e4fcb2a36ac17ca348009f43ccec23041",
    }
    for name, digest in golden.items():
        data = (tmp_path / f"{name}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
