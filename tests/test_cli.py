import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import pytest

import cocyclelab as cl
from cocyclelab import scenarios, textform
from cocyclelab.cli import _parser, main
from cocyclelab.scenarios import LIST_JSON_SCHEMA
from conftest import prefix_doubling_description

FIB_COCYCLE = textform.dumps("cocycle", {
    "alphabet": 1, "depth": 1, "matrices": {"0": [[1.0, 1.0], [1.0, 0.0]]},
})
ZERO_SOURCE = textform.dumps("source", {
    "kind": "periodic", "alphabet": 1, "cycle": "0",
})
TM_SOURCE = textform.dumps("source", {
    "kind": "substitution", "alphabet": 2, "seed_letter": 0,
    "rules": {"0": "01", "1": "10"},
})
POSITIVE_COCYCLE = textform.dumps("cocycle", {
    "alphabet": 2, "depth": 1,
    "matrices": {"0": [[2.0, 1.0], [1.0, 1.0]], "1": [[1.0, 1.0], [1.0, 2.0]]},
})
BESICOVITCH = textform.dumps("weighted_average", {
    "states": 2, "potential": [[0.0, 0.0], [1.0, 1.0]], "weights": [1.0],
    "weight_source": {"kind": "periodic", "alphabet": 1, "cycle": "0"},
})


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in [
        ("fib.cocycle", FIB_COCYCLE), ("zero.source", ZERO_SOURCE),
        ("tm.source", TM_SOURCE), ("pos.cocycle", POSITIVE_COCYCLE),
        ("bes.wavg", BESICOVITCH),
    ]:
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
    return paths


def test_list_plain(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fibonacci-periodic" in out and "gap-blocks" in out


def test_list_json_validates(capsys):
    assert main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, LIST_JSON_SCHEMA)
    assert len(doc["scenarios"]) >= 8


def test_run_scenario_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "artifacts")
    assert main(["run", "fibonacci-periodic", "--out", out]) == 0
    line = capsys.readouterr().out
    assert "observed=converges" in line and "PASS" in line
    verdict = json.loads((tmp_path / "artifacts" / "verdict.json").read_text())
    assert verdict["pass"] is True
    assert (tmp_path / "artifacts" / "trace.csv").exists()


def test_run_unknown_scenario_exit_2(tmp_path):
    assert main(["run", "nope", "--out", str(tmp_path)]) == 2


def test_run_bad_override_exit_2(tmp_path):
    assert main(["run", "fibonacci-periodic", "--override", "bogus=1",
                 "--out", str(tmp_path)]) == 2


def test_run_verdict_mismatch_exit_4(tmp_path, capsys):
    # force an absurd threshold so every trace counts as oscillating
    code = main(["run", "fibonacci-periodic", "--override",
                 "oscillation_threshold=-1.0", "--out", str(tmp_path / "o")])
    assert code == 4
    assert "MISMATCH" in capsys.readouterr().out


def test_trace_command(files, tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["trace", "--cocycle", files["fib.cocycle"], "--source",
                 files["zero.source"], "--horizon", "4096", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "slope_estimate=0.4812118" in text
    csv = (tmp_path / "t" / "trace.csv").read_text()
    assert csv.splitlines()[0] == "n,log_norm,exponent,zero_flag"


def test_trace_custom_checkpoints(files, tmp_path):
    assert main(["trace", "--cocycle", files["fib.cocycle"], "--source",
                 files["zero.source"], "--checkpoints", "10,20,40",
                 "--out", str(tmp_path / "t2")]) == 0
    csv = (tmp_path / "t2" / "trace.csv").read_text()
    assert len(csv.strip().splitlines()) == 4


def test_returns_command(files, tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["returns", "--cocycle", files["pos.cocycle"], "--source",
                 files["tm.source"], "--n", "20000", "--k0", "4", "--out", out]) == 0
    doc = json.loads((tmp_path / "r" / "returns.json").read_text())
    assert "estimate" in doc and doc["selection"]["u"] == "0"


def test_returns_condition_failure_exit_3(files, tmp_path):
    diag = textform.dumps("cocycle", {
        "alphabet": 2, "depth": 1,
        "matrices": {"0": [[10.0, 0.0], [0.0, 0.1]], "1": [[10.0, 0.0], [0.0, 0.1]]},
    })
    p = tmp_path / "diag.cocycle"
    p.write_text(diag)
    assert main(["returns", "--cocycle", str(p), "--source", files["tm.source"],
                 "--n", "4096", "--out", str(tmp_path / "x")]) == 3


def test_spectrum_command(files, tmp_path):
    out = str(tmp_path / "s")
    assert main(["spectrum", "--spec", files["bes.wavg"], "--beta-min", "-2",
                 "--beta-max", "2", "--beta-count", "9", "--out", out]) == 0
    csv = (tmp_path / "s" / "spectrum.csv").read_text()
    assert csv.splitlines()[0] == "beta,psi,alpha,dim"
    assert len(csv.strip().splitlines()) == 10


def test_spectrum_with_a_nan_beta_exit_3(files, tmp_path):
    assert main(["spectrum", "--spec", files["bes.wavg"], "--beta-min", "nan",
                 "--beta-count", "3", "--out", str(tmp_path / "s")]) == 3
    assert not (tmp_path / "s" / "spectrum.csv").exists()


@pytest.mark.parametrize("count", ["-1", "0"])
def test_spectrum_with_no_beta_exit_3(count, files, tmp_path, capsys):
    assert main(["spectrum", "--spec", files["bes.wavg"], "--beta-count", count,
                 "--out", str(tmp_path / "s")]) == 3
    assert f"beta count must be >= 1, got {count}" in capsys.readouterr().err
    assert not (tmp_path / "s" / "spectrum.csv").exists()


@pytest.mark.parametrize("seed_letter", [-1, 2])
def test_trace_on_a_seed_letter_outside_the_alphabet_exit_3(seed_letter, files, tmp_path, capsys):
    path = tmp_path / "seed.source"
    path.write_text(textform.dumps("source", {**textform.loads(TM_SOURCE)[1],
                                              "seed_letter": seed_letter}))
    assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(path),
                 "--horizon", "64", "--out", str(tmp_path / "t")]) == 3
    assert f"symbol {seed_letter} outside alphabet of size 2" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["--beta-min=inf", "--beta-min=-inf",
                                   "--beta-max=inf", "--beta-max=-inf"])
def test_spectrum_with_an_infinite_beta_exit_3(bound, files, tmp_path, capsys):
    # warnings are errors under pytest, so this also fails on any numpy warning
    assert main(["spectrum", "--spec", files["bes.wavg"], bound, "--beta-count", "3",
                 "--out", str(tmp_path / "s")]) == 3
    assert "beta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s" / "spectrum.csv").exists()


def test_trace_over_symbols_outside_the_table_alphabet_exit_3(files, tmp_path, capsys):
    p = tmp_path / "three.source"
    p.write_text(textform.dumps("source", {"kind": "periodic", "alphabet": 3, "cycle": "012"}))
    assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(p),
                 "--horizon", "64", "--out", str(tmp_path / "t")]) == 3
    assert "symbol 2 outside the cocycle table's alphabet of size 2" in capsys.readouterr().err
    assert not (tmp_path / "t" / "trace.csv").exists()


def test_check_command(files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # check.json goes to ./cocyclelab-out
    assert main(["check", "--cocycle", files["pos.cocycle"], "--source",
                 files["tm.source"], "--n", "256"]) == 0
    assert "witness u=0 ell0=1" in capsys.readouterr().out


def test_check_negative_start_exit_3(files):
    assert main(["check", "--cocycle", files["pos.cocycle"], "--source",
                 files["tm.source"], "--n", "256", "--start", "-2"]) == 3


def test_bad_config_file_exit_2(files, tmp_path):
    broken = tmp_path / "broken.cocycle"
    broken.write_text("cocycle {\n  oops\n}")
    assert main(["trace", "--cocycle", str(broken), "--source",
                 files["zero.source"], "--out", str(tmp_path / "b")]) == 2


def test_env_var_default_outdir(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COCYCLELAB_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--cocycle", files["fib.cocycle"], "--source",
                 files["zero.source"], "--horizon", "64"]) == 0
    assert (tmp_path / "envout" / "trace.csv").exists()


def test_check_writes_into_the_env_var_outdir(files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COCYCLELAB_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--cocycle", files["pos.cocycle"], "--source",
                 files["tm.source"], "--n", "256"]) == 0
    doc = json.loads((tmp_path / "envout" / "check.json").read_text())
    assert doc == {"witness": {"u": "0", "ell0": 1, "b": 1.0}}
    assert not (tmp_path / "cocyclelab-out").exists()


@pytest.mark.parametrize("override", ["horizon=abc", "seed=x", "k0=abc", "horizons=5", "seed=7.9"])
def test_run_override_of_the_wrong_type_exit_2(override, tmp_path):
    name = {"horizon": "fibonacci-periodic", "seed": "bernoulli-positive",
            "k0": "thue-morse-positive", "horizons": "gap-blocks"}[override.split("=")[0]]
    assert main(["run", name, "--override", override, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "verdict.json").exists()


BERNOULLI = {"kind": "bernoulli", "alphabet": 2, "probabilities": [0.5, 0.5], "seed": 3}


@pytest.mark.parametrize("change", [{"seed": None}, {"seed": "x"}, {"alphabet": "two"}])
def test_trace_on_a_bad_source_description_exit_2(change, files, tmp_path):
    desc = {key: value for key, value in {**BERNOULLI, **change}.items() if value is not None}
    path = tmp_path / "bad.source"
    path.write_text(textform.dumps("source", desc))
    assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(path),
                 "--horizon", "64", "--out", str(tmp_path / "o")]) == 2


def test_trace_on_a_cocycle_without_depth_exit_2(files, tmp_path):
    path = tmp_path / "bad.cocycle"
    path.write_text(textform.dumps("cocycle", {
        "alphabet": 2, "matrices": {"0": [[1.0, 1.0], [1.0, 0.0]], "1": [[1.0, 0.0], [1.0, 1.0]]}}))
    assert main(["trace", "--cocycle", str(path), "--source", files["tm.source"],
                 "--horizon", "64", "--out", str(tmp_path / "o")]) == 2


def test_spectrum_with_states_other_than_the_potential_size_exit_3(tmp_path, capsys):
    path = tmp_path / "five.wavg"
    path.write_text(textform.dumps("weighted_average", {**textform.loads(BESICOVITCH)[1],
                                                        "states": 5}))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "states = 5, but the potential is 2 x 2" in capsys.readouterr().err
    assert not (tmp_path / "o" / "spectrum.csv").exists()


def test_spectrum_without_potential_exit_2(tmp_path):
    path = tmp_path / "bad.wavg"
    path.write_text(textform.dumps("weighted_average", {
        "states": 2, "weights": [1.0],
        "weight_source": {"kind": "periodic", "alphabet": 1, "cycle": "0"}}))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2


def test_trace_bad_checkpoint_list_exit_2(files, tmp_path):
    assert main(["trace", "--cocycle", files["fib.cocycle"], "--source",
                 files["zero.source"], "--checkpoints", "10,abc",
                 "--out", str(tmp_path / "o")]) == 2


def test_source_field_outside_the_domain_exit_3(files, tmp_path):
    for change in ({"alphabet": 0}, {"seed": -1}):
        path = tmp_path / "outside.source"
        path.write_text(textform.dumps("source", {**BERNOULLI, **change}))
        assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(path),
                     "--horizon", "64", "--out", str(tmp_path / "o")]) == 3


def test_run_with_a_negative_seed_exit_3(tmp_path):
    assert main(["run", "bernoulli-positive", "--override", "seed=-1",
                 "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "verdict.json").exists()


def test_trace_on_a_number_list_with_a_string_exit_2(files, tmp_path):
    path = tmp_path / "bad.source"
    path.write_text(textform.dumps("source", {**BERNOULLI, "probabilities": ["a", 0.5]}))
    assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(path),
                 "--horizon", "64", "--out", str(tmp_path / "o")]) == 2


MARKOV = {"kind": "markov", "alphabet": 2, "transition": [[0.5, 0.5], [0.5, 0.5]],
          "initial": [0.5, 0.5], "seed": 3}
# a ragged or non-numeric array in each kind of description that holds arrays
RAGGED_INPUTS = {
    "cocycle-value": ("cocycle", {**textform.loads(POSITIVE_COCYCLE)[1], "matrices": {
        "0": [3, [1.0, 1.0]], "1": [[1.0, 1.0], [1.0, 2.0]]}}),
    "cocycle-block": ("cocycle", {**textform.loads(POSITIVE_COCYCLE)[1], "matrices": {
        "0": [[2.0, 1.0], [1.0, 1.0]], "1": {}}}),
    "markov-transition": ("source", {**MARKOV, "transition": [[0.5, 0.5], [1.0]]}),
    "weighted-potential": ("weighted_average", {**textform.loads(BESICOVITCH)[1],
                                                "potential": [[0.0, 1.0], [1.0]]}),
}


@pytest.mark.parametrize("case", RAGGED_INPUTS)
def test_a_ragged_or_non_numeric_array_exit_3(case, files, tmp_path, capsys):
    block, data = RAGGED_INPUTS[case]
    path = tmp_path / f"bad.{block}"
    path.write_text(textform.dumps(block, data))
    if block == "weighted_average":
        argv = ["spectrum", "--spec", str(path), "--beta-count", "3"]
    else:
        inputs = {"cocycle": files["pos.cocycle"], "source": files["tm.source"], block: str(path)}
        argv = ["trace", "--cocycle", inputs["cocycle"], "--source", inputs["source"],
                "--horizon", "64"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert "must form a rectangular array of floats" in capsys.readouterr().err


def test_spectrum_with_weights_past_the_exp_range_exit_3(tmp_path, capsys):
    # warnings are errors under pytest, so this also fails on an overflow warning
    path = tmp_path / "huge.wavg"
    path.write_text(textform.dumps("weighted_average", {
        **textform.loads(BESICOVITCH)[1], "weights": [1e308, -1.0],
        "weight_source": {"kind": "periodic", "alphabet": 2, "cycle": "01"}}))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "s")]) == 3
    assert "reaches inf > 700.0" in capsys.readouterr().err
    assert not (tmp_path / "s" / "spectrum.csv").exists()


def test_spectrum_past_the_exp_range_names_a_short_peak_exit_3(files, tmp_path, capsys):
    assert main(["spectrum", "--spec", files["bes.wavg"], "--beta-max", "1.7e308",
                 "--beta-count", "3", "--out", str(tmp_path / "s")]) == 3
    # the grid -5, 8.5e307, 1.7e308 first passes the limit at its midpoint
    assert capsys.readouterr().err == ("computation error: |beta * v * f| reaches 8.5e+307 > "
                                       "700.0; rescale the potential or weights\n")


def test_spectrum_on_a_zero_potential_with_overflowing_weights_exit_3(tmp_path, capsys):
    # |beta * v| overflows to inf, and inf times the zero potential is nan
    path = tmp_path / "zero.wavg"
    path.write_text(textform.dumps("weighted_average", {
        **textform.loads(BESICOVITCH)[1], "potential": [[0.0, 0.0], [0.0, 0.0]],
        "weights": [1e308, -1.0],
        "weight_source": {"kind": "periodic", "alphabet": 2, "cycle": "01"}}))
    assert main(["spectrum", "--spec", str(path), "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert "|beta * v| overflows at beta = -5;" in err and "nan" not in err
    assert not (tmp_path / "s" / "spectrum.csv").exists()


@pytest.mark.parametrize("command", ["trace", "returns"])
def test_a_table_entry_sum_past_the_float_range_exit_3(command, files, tmp_path, capsys):
    # finite entries whose sum overflows; warnings are errors under pytest
    path = tmp_path / "huge.cocycle"
    path.write_text(textform.dumps("cocycle", {**textform.loads(POSITIVE_COCYCLE)[1],
                                               "matrices": {"0": [[1e308, 1e308], [1e308, 1e308]],
                                                            "1": [[1.0, 1.0], [1.0, 2.0]]}}))
    size = "--horizon" if command == "trace" else "--n"
    assert main([command, "--cocycle", str(path), "--source", files["tm.source"], size, "512",
                 "--out", str(tmp_path / "o")]) == 3
    assert "entry sum overflows" in capsys.readouterr().err


def test_returns_on_a_table_entry_near_the_float_limit(files, tmp_path):
    # c(P) = min / max / d: d * max would overflow; warnings are errors under pytest
    path = tmp_path / "big.cocycle"
    path.write_text(textform.dumps("cocycle", {**textform.loads(POSITIVE_COCYCLE)[1],
                                               "matrices": {"0": [[1e308, 1.0], [1.0, 1.0]],
                                                            "1": [[1.0, 1.0], [1.0, 2.0]]}}))
    assert main(["returns", "--cocycle", str(path), "--source", files["tm.source"],
                 "--n", "4096", "--k0", "4", "--out", str(tmp_path / "r")]) == 0
    selection = json.loads((tmp_path / "r" / "returns.json").read_text())["selection"]
    assert selection["c1"] == 1.0 / 1e308 / 2 > 0.0


def test_trace_on_a_squarefree_source_of_unbounded_capacity(files, tmp_path):
    # a read sieves what it appends, whatever capacity bounds it
    path = tmp_path / "squarefree.source"
    path.write_text(textform.dumps("source", {"kind": "squarefree", "alphabet": 2,
                                              "capacity": 2**70}))
    assert main(["trace", "--cocycle", files["pos.cocycle"], "--source", str(path),
                 "--horizon", "1000", "--out", str(tmp_path / "t")]) == 0
    assert (tmp_path / "t" / "trace.csv").exists()


QUAD_COCYCLE = textform.dumps("cocycle", {
    "alphabet": 4, "depth": 1,
    "matrices": {str(a): [[1.0 + a, 1.0], [1.0, 2.0]] for a in range(4)},
})
PRESET_SYMBOL_FIELDS = {
    "type2_suffix": lambda: prefix_doubling_description(
        cl.BernoulliSource([0.5, 0.5], seed=3), cl.EpochSchedule(kind="geometric", base=4)),
    "offset": lambda: cl.BlockScheduleSource(cl.words.paired_growth_program(
        cl.BernoulliSource([0.5, 0.5], seed=11), cl.PeriodicSource("01", cl.Alphabet(2)))).describe(),
    "swap_symbol": lambda: cl.BlockScheduleSource(cl.words.triple_growth_program(
        cl.EpochSchedule(kind="geometric"))).describe(),
}


@pytest.mark.parametrize("key", PRESET_SYMBOL_FIELDS)
def test_trace_on_a_preset_symbol_past_the_alphabet_exit_3(key, tmp_path):
    cocycle = tmp_path / "quad.cocycle"
    cocycle.write_text(QUAD_COCYCLE)
    desc = PRESET_SYMBOL_FIELDS[key]()
    for value, code in [(desc[key], 0), (4, 3), (300, 3)]:  # 300 does not fit a byte
        path = tmp_path / f"{value}.source"
        path.write_text(textform.dumps("source", {**desc, key: value}))
        assert main(["trace", "--cocycle", str(cocycle), "--source", str(path),
                     "--horizon", "256", "--out", str(tmp_path / "o")]) == code


def test_run_with_an_empty_horizon_list_exit_2(tmp_path):
    assert main(["run", "gap-blocks", "--override", "horizons=[]",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "verdict.json").exists()


@pytest.mark.parametrize("divisor", [0, -1])
def test_run_with_a_late_divisor_below_one_exit_2(divisor, tmp_path, capsys):
    # 0 divided the horizon by zero; -1 counted every checkpoint as late
    assert main(["run", "fibonacci-periodic", "--override", f"late_divisor={divisor}",
                 "--out", str(tmp_path)]) == 2
    assert "late_divisor" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()


@pytest.mark.parametrize("depth", [-1, 0, 10])
def test_run_fx_at_a_depth_outside_1_to_9_exit_2(depth, tmp_path, capsys):
    assert main(["run", "fx-depth-k", "--override", f"depth={depth}",
                 "--override", "horizon=256", "--out", str(tmp_path)]) == 2
    assert "depth must lie in 1..9" in capsys.readouterr().err


@pytest.mark.parametrize("base", [-1, 0, 1])
def test_run_nolimit_with_a_schedule_base_below_two_exit_3(base, tmp_path, capsys):
    assert main(["run", "nolimit-geometric", "--override", f"schedule_base={base}",
                 "--out", str(tmp_path)]) == 3
    assert f"schedule needs base >= 2, got {base}" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()


def test_run_nolimit_with_a_schedule_base_exit_2(tmp_path, capsys):
    # nolimit's tower schedule has no base, so there is no such key to set
    assert main(["run", "nolimit", "--override", "schedule_base=7",
                 "--out", str(tmp_path)]) == 2
    assert "unknown override 'schedule_base'" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()


def test_run_with_a_tower_schedule_and_a_base_exit_2(tmp_path, capsys):
    # a tower schedule reads no base, so a config that sets one is refused
    assert main(["run", "nonergodic-4", "--override", "schedule=tower",
                 "--out", str(tmp_path)]) == 2
    assert "a tower schedule has no 'base' field" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()


def test_check_on_a_witness_product_past_the_float_range_exit_3(files, tmp_path, capsys):
    # every entry is finite, but the 2-step product's entries reach 2e400
    p = tmp_path / "huge.cocycle"
    p.write_text(textform.dumps("cocycle", {
        "alphabet": 1, "depth": 1, "matrices": {"0": [[1e200, 1e200], [1.0, 0.0]]},
    }))
    assert main(["check", "--cocycle", str(p), "--source", files["zero.source"],
                 "--n", "64"]) == 3
    assert "the witness's 2-step product overflows" in capsys.readouterr().err


# --- one parser per process ---------------------------------------------------


def test_run_after_an_override_run_uses_the_default_config(tmp_path):
    assert main(["run", "fibonacci-periodic", "--override", "horizon=2000",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "fibonacci-periodic", "--out", str(tmp_path / "b")]) == 0
    first = json.loads((tmp_path / "a" / "verdict.json").read_text())
    second = json.loads((tmp_path / "b" / "verdict.json").read_text())
    assert first["config"]["horizon"] == 2000
    assert second["config"] == scenarios.resolve_config("fibonacci-periodic")[1]


def test_check_after_an_exhaustive_check_runs_observed_mode(files, tmp_path):
    # only symbol 1 is observed, so the two modes name different witnesses
    source = tmp_path / "ones.source"
    source.write_text(textform.dumps("source", {"kind": "periodic", "alphabet": 2, "cycle": "1"}))
    witnesses = []
    for extra in (["--exhaustive"], []):
        out = tmp_path / f"o{len(witnesses)}"
        assert main(["check", "--cocycle", files["pos.cocycle"], "--source", str(source),
                     "--n", "64", "--out", str(out), *extra]) == 0
        witnesses.append(json.loads((out / "check.json").read_text())["witness"]["u"])
    assert witnesses == ["0", "1"]


def test_main_from_threads_writes_what_serial_calls_write(files, tmp_path, capsys):
    commands = [
        ["run", "fibonacci-periodic", "--override", "horizon=3000"],
        ["trace", "--cocycle", files["pos.cocycle"], "--source", files["tm.source"],
         "--horizon", "4096"],
        ["check", "--cocycle", files["pos.cocycle"], "--source", files["tm.source"],
         "--exhaustive", "--max-ell", "3"],
        ["spectrum", "--spec", files["bes.wavg"], "--beta-count", "5"],
    ]

    def call(side, k):
        return main([*commands[k % 4], "--out", str(tmp_path / side / str(k))])

    for k in range(8):
        assert call("serial", k) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(call, "threads", k) for k in range(8)]
            codes = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert codes == [0] * 8
    for k in range(8):
        serial, threads = tmp_path / "serial" / str(k), tmp_path / "threads" / str(k)
        names = sorted(os.listdir(serial))
        assert names and sorted(os.listdir(threads)) == names
        for name in names:
            assert (threads / name).read_bytes() == (serial / name).read_bytes()


def test_readme_synopsis_lists_every_option_of_each_subcommand():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        synopsis = handle.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[1]: set(re.findall(r"--[a-z0-9][a-z0-9-]*", line))
              for line in synopsis.splitlines()}
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {opt for action in p._actions for opt in action.option_strings
                       if opt.startswith("--")} - {"--help"}
                for name, p in commands.choices.items()}
    assert listed == declared
