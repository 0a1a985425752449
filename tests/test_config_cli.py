import copy
import csv
import dataclasses
import hashlib
import io
import json
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from mvmix import ConfigError, ExperimentConfig, load_config
from mvmix.benchmarks import benchmark_config, table_configs
from mvmix.cli import _load, main
from mvmix.pricing import price_mvmd_mc
from mvmix.rng import BLOCK_SIZE
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


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("output",), {"format": "csv"}, "config[0].output: unknown key"),
        (("engine", "scheme"), "mvmd-terminal", "config[0].engine.scheme: unknown key"),
        (("engine", "schemes"), "mvmd-terminal", "config[0].engine.schemes: expected a list of scheme names"),
    ],
    ids=["output-block", "scheme-alias", "bare-scheme-string"],
)
def test_removed_spellings_are_refused_by_key(path, value, message):
    with pytest.raises(ConfigError) as info:
        load_config(doc_with(path, value))
    assert str(info.value) == message


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    (cfg,) = load_config(json.loads(example))
    assert cfg.name == "vanilla" and cfg.schemes == ("mvmd-terminal", "scmd-euler")


def test_invalid_values_name_the_key():
    with pytest.raises(ConfigError, match="strikes"):
        ExperimentConfig.from_dict(doc_with(("product", "strikes"), []))
    with pytest.raises(ConfigError, match="schemes"):
        ExperimentConfig.from_dict(doc_with(("engine", "schemes"), ["exact"]))
    twice = doc_with(("engine", "schemes"), ["mvmd-terminal", "scmd-euler", "mvmd-terminal"])
    with pytest.raises(ConfigError) as refused:
        load_config(twice)  # from_dict, named as the first experiment of a config
    assert str(refused.value) == "config[0].engine.schemes: duplicate scheme 'mvmd-terminal'"
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


@pytest.mark.parametrize(
    "path,value,key",
    [
        (("model", "assets", 0, "weights"), ["0.5", True], r"model\.assets\[0\]\.weights\[0\]: expected a number"),
        (("model", "assets", 0, "weights"), [0.5, True], r"model\.assets\[0\]\.weights\[1\]: expected a number"),
        (("model", "assets", 0, "weights"), 5, r"model\.assets\[0\]\.weights: expected a list of numbers"),
        (("model", "assets", 0, "spot"), "1.0", r"model\.assets\[0\]\.spot: expected a number"),
        (("model", "assets", 0, "vols"), [True, 0.2], r"model\.assets\[0\]\.vols\[0\]: expected a number"),
        (("model", "correlation"), [[1.0, "0.6"], [0.6, 1.0]], r"model\.correlation\[0\]\[1\]: expected a number"),
        (("product", "rate"), "0.05", r"product\.rate: expected a number"),
        (("product", "maturity"), True, r"product\.maturity: expected a number"),
        (("product", "strikes"), ["1.0"], r"product\.strikes\[0\]: expected a number"),
        (("engine", "kappa"), False, r"engine\.kappa: expected a number"),
    ],
    ids=["weights-str", "weights-bool", "weights-scalar", "spot-str", "vols-bool", "corr-str", "rate-str",
         "maturity-bool", "strikes-str", "kappa-bool"],
)
def test_config_numbers_reject_bools_strings_and_non_lists(path, value, key):
    with pytest.raises(ConfigError, match=rf"^config\[0\]\.{key}"):
        load_config(doc_with(path, value))


@pytest.mark.parametrize("value", ["two", "0"])
def test_cli_bad_worker_variable_names_it(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MVMIX_WORKERS", value)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: MVMIX_WORKERS") and captured.out == ""


def test_worker_count_defaults_to_one(monkeypatch):
    from mvmix.rng import worker_count

    monkeypatch.delenv("MVMIX_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("MVMIX_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("MVMIX_WORKERS", "1")
    assert worker_count() == 1
    assert worker_count(2) == 2
    for bad in ("two", "0", ""):
        monkeypatch.setenv("MVMIX_WORKERS", bad)
        with pytest.raises(ValueError, match="MVMIX_WORKERS"):
            worker_count()


@pytest.mark.parametrize("value", [-5, -1, 1e20, 2**64])
def test_engine_seed_outside_64_bits_names_the_key(value):
    with pytest.raises(ConfigError, match=r"^config\[0\]\.engine\.seed: must lie in \[0, 2\*\*64\)"):
        load_config(doc_with(("engine", "seed"), value))


def test_engine_seed_accepts_every_64_bit_value():
    for value in (0, 2**64 - 1):
        (cfg,) = load_config(doc_with(("engine", "seed"), value))
        assert cfg.seed == value


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


@pytest.mark.parametrize("workers", [1, 2])
def test_run_price_strikes_share_one_draw(workers, monkeypatch):
    # The mvmd route prices all strikes in one pass; each must equal its own
    # price_mvmd_mc call exactly, a repeated strike included.
    monkeypatch.setenv("MVMIX_WORKERS", str(workers))
    cfg = dataclasses.replace(
        benchmark_config("vanilla", 0.6, 5, 20_000, schemes=("mvmd-terminal",)),
        strikes=(0.7, 1.0, 1.3, 1.0),
        kappa=0.15,
    )
    rows = run_price(cfg)
    assert [r["strike"] for r in rows] == list(cfg.strikes)
    for row in rows:
        est = price_mvmd_mc(cfg.model, cfg.spec(row["strike"]), cfg.kappa, cfg.paths, cfg.seed)
        assert (row["price"], row["std_error"], row["paths"]) == (est.price, est.std_error, est.samples)


def _one_draw_key_run():
    """Arithmetic, geometric and put-at-another-rate experiments with one mvmd draw key."""
    base = dataclasses.replace(
        benchmark_config("vanilla", 0.6, 5, 20_000, schemes=("mvmd-terminal",)), kappa=0.15
    )
    return [
        base,
        dataclasses.replace(base, name="geometric", kind="geometric"),
        dataclasses.replace(base, name="put", direction="put", rate=0.03, strikes=(1.0, 1.1)),
    ]


def _priced(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_price_experiments_on_one_draw_key_equal_separate_runs(workers, monkeypatch):
    monkeypatch.setenv("MVMIX_WORKERS", str(workers))
    run = _one_draw_key_run()
    rows = run_price(run)
    assert _priced(rows) == _priced([row for cfg in run for row in run_price(cfg)])
    assert [r["product"] for r in rows] == ["vanilla"] * 3 + ["geometric"] * 3 + ["put"] * 2


def test_run_price_makes_one_kernel_pass_per_draw_key(monkeypatch):
    from mvmix import pricing

    passes = []
    kernel = pricing._tuple_mc_prices
    monkeypatch.setattr(pricing, "_tuple_mc_prices", lambda *args: passes.append(args[2]) or kernel(*args))
    run = _one_draw_key_run()
    # Each of these changes the draw key, so none may share the run's draw.
    others = [
        dataclasses.replace(run[0], name=field, **{field: value})
        for field, value in (("seed", 6), ("kappa", 0.0), ("paths", 20_001), ("maturity", 0.5))
    ]
    rows = run_price(run + others)
    assert [len(specs) for specs in passes] == [8, 3, 3, 3, 3]
    monkeypatch.setattr(pricing, "_tuple_mc_prices", kernel)
    assert _priced(rows[8:]) == _priced([row for cfg in others for row in run_price(cfg)])


@pytest.mark.parametrize("scheme,sampler", [("scmd-euler", "simulate_scmd"), ("muvm-terminal", "sample_muvm_terminal")])
def test_equal_sampling_experiments_draw_one_sample(monkeypatch, scheme, sampler):
    from mvmix import montecarlo

    draws, estimates = [], []
    draw, estimate = getattr(montecarlo, sampler), montecarlo.estimate
    monkeypatch.setattr(montecarlo, sampler, lambda *args: draws.append(args) or draw(*args))
    monkeypatch.setattr(montecarlo, "estimate", lambda *args: estimates.append(args) or estimate(*args))
    cfg = dataclasses.replace(benchmark_config("vanilla", 0.6, 5, 2000, schemes=(scheme,)), steps=10)
    again = dataclasses.replace(cfg, name="again", direction="put", rate=0.03)
    rows = run_price([cfg, again])
    assert len(draws) == 1
    assert len(estimates) == 6
    assert _priced(rows[3:]) == _priced(run_price(again))
    # a repeated strike and an experiment with the first one's specs add no estimate
    repeated = dataclasses.replace(cfg, strikes=(*cfg.strikes, cfg.strikes[0]))
    twin = dataclasses.replace(cfg, name="twin")
    draws.clear()
    estimates.clear()
    rows = run_price([repeated, twin])
    assert len(draws) == 1
    assert len(estimates) == 3
    assert _priced(rows) == _priced(run_price(repeated) + run_price(twin))
    draws.clear()
    changed = [
        dataclasses.replace(cfg, **{field: value})
        for field, value in (("seed", 6), ("paths", 2001), ("maturity", 0.5), ("steps", 11))
    ]
    run_price([cfg, *changed])
    assert len(draws) == (5 if scheme == "scmd-euler" else 4)  # the terminal sampler takes no steps


def test_one_row_per_draw_key_carries_its_cost():
    # "put" shares vanilla's draw key under both schemes and "seed 6" has keys
    # of its own: the first row of each (scheme, key) carries the cost of
    # pricing its group, every other row 0.0.
    cfg = dataclasses.replace(benchmark_config("vanilla", 0.6, 5, 2000), steps=10)  # mvmd and scmd
    run = [cfg, dataclasses.replace(cfg, name="put", direction="put"), dataclasses.replace(cfg, name="seed 6", seed=6)]
    rows = run_price(run)
    costly = [(r["product"], r["scheme"], r["strike"]) for r in rows if r["wall_time_s"] > 0]
    assert costly == [(name, scheme, cfg.strikes[0]) for name in ("vanilla", "seed 6") for scheme in ("mvmd", "scmd")]
    assert sum(r["wall_time_s"] == 0.0 for r in rows) == len(rows) - 4


def test_run_tau_rows():
    rows = run_tau(ExperimentConfig.from_dict(BASE_DOC))
    methods = [r["method"] for r in rows]
    assert methods == ["mvmd-closed-form", "mvmd-empirical", "scmd-empirical"]
    assert all(isinstance(r["tau"], float) for r in rows)
    # three components: the closed form covers it and agrees with the terminal sample
    doc = doc_with(("model", "assets", 0, "weights"), [0.5, 0.3, 0.2])
    doc["model"]["assets"][0]["vols"] = [0.3, 0.2, 0.1]
    doc["engine"]["paths"] = 100_000
    rows = run_tau(ExperimentConfig.from_dict(doc))
    assert [set(r) for r in rows] == [{"method", "tau", "paths", "note"}] * 3
    closed, empirical = rows[0], rows[1]
    assert (closed["method"], empirical["method"]) == ("mvmd-closed-form", "mvmd-empirical")
    assert isinstance(closed["tau"], float) and abs(closed["tau"] - empirical["tau"]) < 0.01


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


def test_cli_output_is_csv_on_stdout_unless_out_and_out_path_say_otherwise(tmp_path, capsys):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(cfg_path)]) == 0
    csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    out_path = tmp_path / "rows.json"
    assert main(["price", "--config", str(cfg_path), "--out", "json", "--out-path", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    json_rows = json.loads(out_path.read_text())
    assert [r["price"] for r in csv_rows] == [format(r["price"], ".10g") for r in json_rows]


def test_cli_bundled_config(capsys):
    assert main(["tau", "--config", "table2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mvmd-closed-form" in out
    assert out.count("scmd-empirical") == 2  # vanilla and spread experiments


# sha256 of json.dumps([c.to_dict() for c in configs], sort_keys=True) for each
# table.  The experiments are those of the JSON fixture files the package
# shipped before the tables were built from benchmarks.TABLES; each digest
# was taken again when `to_dict` lost its constant "output" block.
BUNDLED_DIGESTS = {
    "table2": "df09c75d552552daa5c8d31b7aa76c88596c34922f7ebb8e349500882bd9a8ed",
    "table3": "c87688b2b03448eac7bf5bafb8c260cbec2929d2940a55556fefe6067a5ef9f5",
    "table4": "5159bb27a9eef71a5a9bbaa52d3680397c23e4fa4ec03bed80233f4a4c908a67",
    "table5": "015efecbfdfeb772488d4e38208d7bf5adca7ed2b2bbe51b98a4dee463c08b55",
    "table6": "d04fa8a025c8a5229831dd3ad620bffca0d1a6d4e6c9266f524464aa834c0e18",
}


def _digest(configs) -> str:
    return hashlib.sha256(json.dumps([c.to_dict() for c in configs], sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_names_load_the_pinned_experiments(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert _digest(_load(Namespace(config=name))) == BUNDLED_DIGESTS[name]
    assert _digest(_load(Namespace(config=name + ".json"))) == BUNDLED_DIGESTS[name]
    assert _digest(table_configs(int(name.removeprefix("table")))) == BUNDLED_DIGESTS[name]


def test_local_file_wins_over_bundled_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table2").write_text(json.dumps(BASE_DOC))
    assert _load(Namespace(config="table2")) == [ExperimentConfig.from_dict(BASE_DOC)]
    assert _digest(_load(Namespace(config="table2.json"))) == BUNDLED_DIGESTS["table2"]


@pytest.mark.parametrize("name", ["a_directory", "missing.json", "table7"])
def test_cli_unreadable_config_names_the_path(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    assert main(["price", "--config", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: cannot read config file (")
    assert "Traceback" not in err


def test_reproduce_tables_rejects_zero_paths_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce-tables", "--out", str(out), "--paths", "0"]) == 1
    assert capsys.readouterr().err == "error: paths: must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,target",
    [
        ("price", "missing/x.csv"),  # a missing directory
        ("tau", "."),  # a directory
        ("reproduce-tables", "file"),  # an existing file where the output directory goes
        ("reproduce-tables", "file/sub"),  # a file on the way to the output directory
    ],
)
def test_cli_unwritable_output_names_the_path(tmp_path, capsys, monkeypatch, command, target):
    import mvmix.cli as cli
    import mvmix.runner as runner

    def priced(*args, **kwargs):
        pytest.fail("priced before the output was checked")

    for module in (cli, runner):
        monkeypatch.setattr(module, "run_price", priced)
    monkeypatch.setattr(cli, "run_tau", priced)
    config = tmp_path / "toy.json"
    config.write_text(json.dumps(BASE_DOC))
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    path = str(tmp_path / target)
    if command == "reproduce-tables":
        argv = [command, "--out", path, "--paths", "100"]
    else:
        argv = [command, "--config", str(config), "--out-path", path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path} (") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_validation_exit_codes(tmp_path, capsys):
    assert main(["price", "--config", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc_with(("product", "strikes"), [])))
    assert main(["price", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "strikes" in err
    bad.write_text(json.dumps(doc_with(("model", "assets", 0, "weights"), 5)))
    assert main(["price", "--config", str(bad)]) == 1
    assert "model.assets[0].weights: expected a list of numbers" in capsys.readouterr().err
    for grid in ("0", "-3"):
        assert main(["copula", "--config", "table2", "--grid", grid]) == 1
        assert capsys.readouterr().err == f"error: --grid: must be >= 1, got {grid}\n"


def test_cli_cutoff_removing_all_components(tmp_path, capsys):
    cfg = doc_with(("engine", "kappa"), 0.0)
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(path), "--kappa", "0.9"]) == 1
    assert "removed all components" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["nan", "2", "-1", "1"])
def test_cli_kappa_override_follows_the_config_rule(tmp_path, capsys, kappa):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(path), "--kappa", kappa]) == 1
    assert "--kappa: must lie in [0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_cli_seed_override_follows_the_config_rule(tmp_path, capsys, seed):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(BASE_DOC))
    assert main(["price", "--config", str(path), "--seed", seed]) == 1
    assert "--seed: must lie in [0, 2**64)" in capsys.readouterr().err


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
    # two path blocks, so the four workers have more than one block to split
    monkeypatch.setenv("MVMIX_WORKERS", "1")
    reproduce_tables(tmp_path / "w1", paths=BLOCK_SIZE + 1)
    monkeypatch.setenv("MVMIX_WORKERS", "4")
    reproduce_tables(tmp_path / "w4", paths=BLOCK_SIZE + 1)
    for i in range(2, 7):
        assert (tmp_path / "w1" / f"table{i}.csv").read_bytes() == (
            tmp_path / "w4" / f"table{i}.csv"
        ).read_bytes()


@pytest.mark.parametrize("command", ["price", "tau"])
def test_cli_output_is_the_same_at_one_and_three_workers(tmp_path, capsys, monkeypatch, command):
    # Three path blocks, so three workers split them unevenly; the CLI's only
    # worker setting is the variable.  Price rows differ only in wall_time_s.
    doc = copy.deepcopy(BASE_DOC)
    doc["engine"].update(schemes=["mvmd-terminal", "scmd-euler", "muvm-terminal"], paths=2 * BLOCK_SIZE + 1000)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    outputs = []
    for workers in ("1", "3"):
        monkeypatch.setenv("MVMIX_WORKERS", workers)
        assert main([command, "--config", str(path)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        if command == "price":
            wall = rows[0].index("wall_time_s")
            rows = [row[:wall] + row[wall + 1 :] for row in rows]
        outputs.append(rows)
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]  # a header and three rows


def test_run_tau_reads_the_whole_mixture_at_any_kappa():
    # at kappa = 0.3 one tuple of table 2's vanilla survives, whose tau is (2/pi) asin(0.6) = 0.4097
    whole = dataclasses.replace(benchmark_config("vanilla", 0.6, 5, 20_000), steps=12)
    assert run_tau(dataclasses.replace(whole, kappa=0.3)) == run_tau(whole)


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

    def boom(config):
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


def test_reproduce_tables_with_a_non_finite_cell_writes_nothing(tmp_path, capsys, monkeypatch):
    from mvmix import montecarlo
    from mvmix.pricing import PriceEstimate

    nan = PriceEstimate(float("nan"), 0.0, 1, "mvmd")
    nan_price = lambda exp, specs: [nan] * len(specs)
    monkeypatch.setitem(montecarlo.SCHEMES, "mvmd-terminal", (montecarlo.SCHEMES["mvmd-terminal"][0], nan_price))
    out = tmp_path / "out"
    assert main(["reproduce-tables", "--out", str(out), "--paths", "100"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: non-finite price")
    assert not out.exists()


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
