import contextlib
import io
import json
import os
import re
import warnings

import jsonschema
import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import cli, scenarios, textform
from cocyclelab.errors import ConfigError

REQUIRED = {
    "nolimit", "nolimit-geometric", "fx-depth-k", "gap-blocks", "nonergodic-4",
    "thue-morse-positive", "squarefree-positive", "fibonacci-periodic", "besicovitch",
}


def test_registry_contract():
    table = scenarios.registry_table()
    names = {row["name"] for row in table}
    assert len(table) >= 8
    assert REQUIRED <= names
    assert len(names) == len(table)  # unique
    for row in table:
        assert row["citation"]
        assert row["expected"] in scenarios.TAGS
        steps = scenarios.REGISTRY[row["name"]].steps
        assert steps and set(steps) <= set(scenarios.STEPS)
        assert row["analysis"] == "+".join(steps)


def test_registry_json_schema():
    doc = {"scenarios": scenarios.registry_table()}
    jsonschema.validate(doc, scenarios.LIST_JSON_SCHEMA)


def test_unknown_scenario_and_override():
    with pytest.raises(ConfigError):
        scenarios.resolve_config("no-such-thing")
    with pytest.raises(ConfigError):
        scenarios.resolve_config("fibonacci-periodic", {"bogus": 1})


def test_scenario_descriptions_round_trip():
    # every default scenario's part is its description in canonical form,
    # and its word source serializes and replays
    for name, s in scenarios.REGISTRY.items():
        _, config = scenarios.resolve_config(name)
        parts = s.build(config)
        for key, desc in s.descriptions(config).items():
            assert parts[key].describe() == desc, (name, key)
        for key in ("source", "weighted_average"):
            obj = parts.get(key)
            if obj is None:
                continue
            desc = obj.describe()
            _, data = textform.loads(textform.dumps(key, desc))
            if key == "source":
                rebuilt = cl.source_from_description(data)
                assert rebuilt.prefix(300) == obj.prefix(300)
            else:
                rebuilt = cl.spectrum.weighted_average_from_description(data)
            assert rebuilt.describe() == desc
        if parts.get("cocycle") is not None:
            desc = parts["cocycle"].describe()
            _, data = textform.loads(textform.dumps("cocycle", desc))
            assert cl.CocycleSpec.from_description(data).describe() == desc


def test_fibonacci_scenario_passes_and_verdict_is_pure():
    doc, files, passed = scenarios.run_scenario("fibonacci-periodic")
    assert passed and doc["observed"] == "converges"
    assert doc["quantities"]["exponent_estimate"] == pytest.approx(
        doc["quantities"]["golden_log"], abs=1e-6
    )
    assert doc["quantities"]["periodic_exact"] == pytest.approx(
        doc["quantities"]["golden_log"], abs=1e-12
    )
    # re-grade the saved artifact document byte-for-byte through JSON
    reloaded = json.loads(json.dumps(doc))
    assert scenarios.verdict_from_artifacts(reloaded) == doc["observed"]
    assert "trace.csv" in files


def test_nilpotent_scenario():
    doc, _, passed = scenarios.run_scenario("nilpotent-halt")
    assert passed and doc["observed"] == "minus-infinity"
    assert doc["quantities"]["zero_index"] == 2


def test_besicovitch_scenario():
    doc, files, passed = scenarios.run_scenario("besicovitch")
    assert passed
    assert doc["quantities"]["max_error_vs_entropy"] <= 1e-3
    assert "spectrum.csv" in files


def test_nolimit_tower_scenario():
    doc, files, passed = scenarios.run_scenario("nolimit")
    assert passed and doc["observed"] == "oscillates"
    assert doc["quantities"]["positivity_witness"] is None


def test_fx_scenario_oscillates():
    doc, _, passed = scenarios.run_scenario("fx-depth-k")
    assert passed and doc["observed"] == "oscillates"


def test_gap_scenario_small_horizons():
    doc, _, passed = scenarios.run_scenario(
        "gap-blocks", {"horizons": [20_000, 60_000]}
    )
    assert passed
    assert min(doc["quantities"]["long_mass"]) > 0.2


def test_nolimit_geometric_short_horizon():
    doc, _, passed = scenarios.run_scenario("nolimit-geometric", {"horizon": 50_000})
    assert passed and doc["observed"] == "oscillates"


def test_bernoulli_scenario_quick():
    doc, _, passed = scenarios.run_scenario(
        "bernoulli-positive",
        {"horizon": 50_000, "lambda_n": 2_000, "replicas": 30},
    )
    assert passed and doc["observed"] == "converges"
    q = doc["quantities"]
    assert q["orbit_vs_lambda_gap"] <= 5 * q["lambda_stderr"]


def test_byte_identical_reruns():
    a_doc, a_files, _ = scenarios.run_scenario("fibonacci-periodic")
    b_doc, b_files, _ = scenarios.run_scenario("fibonacci-periodic")
    assert a_files == b_files
    assert json.dumps(a_doc, sort_keys=True) == json.dumps(b_doc, sort_keys=True)
    a_doc, a_files, _ = scenarios.run_scenario("bernoulli-positive",
                                               {"horizon": 5_000, "lambda_n": 500,
                                                "replicas": 10})
    b_doc, b_files, _ = scenarios.run_scenario("bernoulli-positive",
                                               {"horizon": 5_000, "lambda_n": 500,
                                                "replicas": 10})
    assert a_files == b_files
    assert json.dumps(a_doc, sort_keys=True) == json.dumps(b_doc, sort_keys=True)


# the shorter horizons the benchmark's cli-registry workload runs every
# scenario at (SCALED in bench/cli_registry.py); every verdict passes there
SCALED = {
    "thue-morse-positive": {"horizon": 5_000},
    "squarefree-positive": {"horizon": 5_000, "capacity": 1 << 13},
    "bernoulli-positive": {"horizon": 30_000, "lambda_n": 500, "replicas": 10},
    "nolimit-geometric": {"horizon": 5_000},
    "fx-depth-k": {"horizon": 4_000},
    "gap-blocks": {"horizons": [10_000, 30_000]},
    "nonergodic-4": {"horizon": 5_000},
}


@pytest.mark.parametrize("name", list(scenarios.REGISTRY))
def test_every_scenario_passes_and_its_source_round_trips(name):
    doc, files, passed = scenarios.run_scenario(name, SCALED.get(name))
    assert passed, (doc["expected"], doc["observed"])
    scenario, config = scenarios.resolve_config(name, SCALED.get(name))
    parts = scenario.build(config)
    source = parts["source"] if "source" in parts else parts["weighted_average"].weight_source
    desc = source.describe()
    _, data = textform.loads(textform.dumps("source", desc))
    rebuilt = cl.source_from_description(data)
    assert rebuilt.describe() == desc
    assert rebuilt.prefix(2000) == source.prefix(2000)


@pytest.mark.parametrize("name", [name for name, s in scenarios.REGISTRY.items()
                                  if "trace" in s.steps])
def test_cli_trace_on_the_scenario_descriptions_reproduces_its_trace(name, tmp_path):
    scenario, config = scenarios.resolve_config(name, SCALED.get(name))
    _, files, _ = scenarios.run_scenario(name, SCALED.get(name))
    paths = {}
    for part in ("source", "cocycle"):
        paths[part] = tmp_path / f"{part}.txt"
        paths[part].write_text(textform.dumps(part, scenario.descriptions(config)[part]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["trace", "--cocycle", str(paths["cocycle"]), "--source",
                         str(paths["source"]), "--horizon", str(config["horizon"]),
                         "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trace.csv").read_text() == files["trace.csv"]


# the file option each block is read from, and each step's artifact with the
# command options that make it from the run's config
FILE_OPTIONS = {"source": "--source", "cocycle": "--cocycle", "weighted_average": "--spec"}
COMMANDS = {
    "trace": ("trace.csv", lambda c: ["--horizon", str(c["horizon"])]),
    "returns": ("returns.json", lambda c: ["--n", str(c["horizon"]), "--k0", str(c["k0"]),
                                           "--cutoff", str(c["cutoff"])]),
    "spectrum": ("spectrum.csv", lambda c: [
        f"--beta-min={c['beta_min']}", f"--beta-max={c['beta_max']}",
        "--beta-count", str(c["beta_count"]), "--horizon", str(c["horizon"])]),
}


@pytest.mark.parametrize("scaled", [False, True], ids=["defaults", "scaled"])
@pytest.mark.parametrize("name", list(scenarios.REGISTRY))
def test_each_part_as_a_file_is_what_its_command_reads(name, scaled, tmp_path):
    overrides = SCALED.get(name) if scaled else None
    scenario, config = scenarios.resolve_config(name, overrides)
    _, files, _ = scenarios.run_scenario(name, overrides)
    options = []
    for part, desc in scenario.descriptions(config).items():
        block, path = scenarios.block_name(part), tmp_path / f"{part}.txt"
        path.write_text(textform.dumps(block, desc))
        assert cli._load(str(path), block).describe() == desc, part
        if part == block:
            options += [FILE_OPTIONS[block], str(path)]
    for step in set(scenario.steps) & set(COMMANDS):
        artifact, config_options = COMMANDS[step]
        out = tmp_path / step
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([step, *options, *config_options(config), "--out", str(out)]) == 0
        assert (out / artifact).read_text() == files[artifact], step


def test_readme_lists_the_part_names_the_registry_uses():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        listed = handle.read().split("the descriptions of its parts (", 1)[1].split(")", 1)[0]
    used = {part for s in scenarios.REGISTRY.values() for part in s.parts}
    assert sorted(re.findall(r"`([a-z_]+)`", listed)) == sorted(used)
    assert set(map(scenarios.block_name, used)) == set(scenarios.READERS)


@pytest.mark.parametrize("name", list(scenarios.REGISTRY))
def test_numeric_overrides_of_0_and_minus_1_exit_cleanly(name, tmp_path):
    # every int, float or list key at 0 and -1 (a list as one item) either
    # runs or is refused with an exit code; no exception or warning escapes
    scenario = scenarios.REGISTRY[name]
    for key, default in scenario.defaults.items():
        if isinstance(default, bool) or not isinstance(default, (int, float, list)):
            continue
        for value in (0, -1):
            value = [value] if isinstance(default, list) else value
            overrides = {**SCALED.get(name, {}), key: value}
            argv = ["run", name, *(f"--override={k}={v}" for k, v in overrides.items()),
                    "--out", str(tmp_path)]
            with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                warnings.simplefilter("error")
                assert cli.main(argv) in (0, 2, 3, 4), (key, value)


@pytest.mark.parametrize("name", list(scenarios.REGISTRY))
def test_every_scenario_reruns_byte_identically(name):
    (a_doc, a_files, _), (b_doc, b_files, _) = (
        scenarios.run_scenario(name, SCALED.get(name)) for _ in range(2))
    assert a_files == b_files
    assert json.dumps(a_doc, sort_keys=True) == json.dumps(b_doc, sort_keys=True)


@pytest.mark.parametrize("name, overrides", [
    ("fibonacci-periodic", {"horizon": "abc"}),
    ("bernoulli-positive", {"seed": "x"}),
    ("thue-morse-positive", {"k0": "abc"}),
    ("gap-blocks", {"horizons": 5}),
    ("gap-blocks", {"horizons": [10_000, 2.5]}),
    ("bernoulli-positive", {"seed": 7.9}),
    ("bernoulli-positive", {"seed": True}),
    ("fibonacci-periodic", {"oscillation_threshold": "1"}),
    ("nolimit", {"schedule": 2}),
])
def test_override_of_the_wrong_type_is_a_config_error(name, overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        scenarios.run_scenario(name, overrides)


def test_overrides_are_stored_with_their_default_type():
    _, config = scenarios.resolve_config("gap-blocks", {
        "cutoff": np.int64(16), "mass_floor": 1, "horizons": (np.int64(20_000), 40_000)})
    assert config["cutoff"] == 16 and type(config["cutoff"]) is int
    assert config["mass_floor"] == 1.0 and type(config["mass_floor"]) is float
    assert config["horizons"] == [20_000, 40_000]
    assert all(type(n) is int for n in config["horizons"])
    doc, _, passed = scenarios.run_scenario("nilpotent-halt", {"horizon": np.int64(32)})
    assert passed and doc["config"]["horizon"] == 32 and type(doc["config"]["horizon"]) is int
