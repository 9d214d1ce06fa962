import json
import os

import jsonschema
import pytest

import cocyclelab as cl
from cocyclelab import textform
from cocyclelab.cli import main
from cocyclelab.scenarios import LIST_JSON_SCHEMA

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


def test_check_command(files, tmp_path, capsys):
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
