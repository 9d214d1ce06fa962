"""cli-registry: the user-facing path, `cli.main` in-process.

`run <scenario>` for all eleven registry scenarios, then `trace`,
`returns`, `spectrum` and `check` on textform input files written during
set-up. It is the only part through `scenarios`, `cli`, `textform` and
artifact writing; a pass succeeds when every command exits 0 (every
verdict passes) and every artifact byte-matches the first pass's.

Scenarios keep their published seeds and thresholds; the seven whose
default runs take over 0.1 s get shorter horizons (SCALED). At the
defaults one pass takes about 8 s, so a run would get only a few samples
of each command.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

from cocyclelab import cli, scenarios, textform

from common import Check

NAME = "cli-registry"
TRACE_HORIZON = 5_000
RETURNS_N = 10_000
CHECK_N = 5_000
SPECTRUM_BETAS = 5
# shorter horizons at which every verdict still passes (checked on every pass)
SCALED = {
    "thue-morse-positive": {"horizon": 5_000},
    "squarefree-positive": {"horizon": 5_000, "capacity": 1 << 13},
    "bernoulli-positive": {"horizon": 30_000, "lambda_n": 500, "replicas": 10},
    "nolimit-geometric": {"horizon": 5_000},
    "fx-depth-k": {"horizon": 4_000},
    "gap-blocks": {"horizons": [10_000, 30_000]},
    "nonergodic-4": {"horizon": 5_000},
}


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_tree(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir
        self.names = list(scenarios.REGISTRY)
        docs = {
            "cocycle.txt": ("cocycle", {"alphabet": 2, "depth": 1, "matrices": {
                "0": rng.uniform(0.5, 2.0, (2, 2)).tolist(),
                "1": rng.uniform(0.5, 2.0, (2, 2)).tolist()}}),
            "bernoulli.txt": ("source", {"kind": "bernoulli", "alphabet": 2,
                                         "probabilities": [0.5, 0.5],
                                         "seed": int(rng.integers(1 << 30))}),
            "thue-morse.txt": ("source", {"kind": "substitution", "alphabet": 2,
                                          "seed_letter": 0, "rules": {"0": "01", "1": "10"}}),
            "weighted.txt": ("weighted_average", {
                "states": 2, "potential": rng.uniform(0.0, 1.0, (2, 2)).tolist(),
                "weights": [1.0, -1.0],
                "weight_source": {"kind": "substitution", "alphabet": 2, "seed_letter": 0,
                                  "rules": {"0": "01", "1": "10"}}}),
        }
        self.inputs = {}
        for fname, (block, data) in docs.items():
            path = os.path.join(workdir, fname)
            with open(path, "w") as handle:
                handle.write(textform.dumps(block, data))
            self.inputs[fname] = (path, block, data)
        self.calls = len(self.names) + 4  # cli commands per pass
        self.size = (f"{len(self.names)} registry scenarios ({len(SCALED)} at shorter "
                     f"horizons) + trace {TRACE_HORIZON}, returns {RETURNS_N}, spectrum "
                     f"{SPECTRUM_BETAS} betas, check {CHECK_N}")
        self.artifacts: dict[int, dict] = {}

    def _commands(self, out):
        f = {name: path for name, (path, _, _) in self.inputs.items()}
        cmds = {}
        for name in self.names:
            overrides = [f"--override={k}={v}" for k, v in SCALED.get(name, {}).items()]
            cmds[f"run.{name}"] = ["run", name, *overrides, "--out", os.path.join(out, name)]
        cmds["cmd.trace"] = ["trace", "--cocycle", f["cocycle.txt"], "--source",
                             f["bernoulli.txt"], "--horizon", str(TRACE_HORIZON),
                             "--out", os.path.join(out, "trace")]
        cmds["cmd.returns"] = ["returns", "--cocycle", f["cocycle.txt"], "--source",
                               f["thue-morse.txt"], "--n", str(RETURNS_N),
                               "--out", os.path.join(out, "returns")]
        cmds["cmd.spectrum"] = ["spectrum", "--spec", f["weighted.txt"], "--beta-min", "-2",
                                "--beta-max", "2", "--beta-count", str(SPECTRUM_BETAS),
                                "--out", os.path.join(out, "spectrum")]
        cmds["cmd.check"] = ["check", "--cocycle", f["cocycle.txt"], "--source",
                             f["bernoulli.txt"], "--n", str(CHECK_N),
                             "--out", os.path.join(out, "check")]
        return cmds

    def run_pass(self, p):
        out = os.path.join(self.workdir, f"pass-{p.index}")
        for fname, (path, block, data) in self.inputs.items():
            text = p.piece(f"textform.dumps.{fname}", "textform.dumps", textform.dumps, block, data)
            p.piece(f"textform.loads.{fname}", "textform.loads", textform.loads, text)
        for key, argv in self._commands(out).items():
            if key.startswith("run."):
                # the scenario alone, right before cli.main runs it again
                p.piece(key + ".run_scenario", "scenarios.run_scenario",
                        scenarios.run_scenario, argv[1], SCALED.get(argv[1]))
            p.op(key, "cli.main", _main, argv)
        self.artifacts[p.index] = _read_tree(out)
        if p.index > 0:
            shutil.rmtree(out)

    def check(self, results) -> list[Check]:
        return [Check(key, results[key] == 0, None, f"exit code {results[key]!r}")
                for key in self._commands("")]

    def pass_check(self, index) -> list[str]:
        """Keys of commands whose artifacts differ from the first pass's."""
        first, this = self.artifacts[0], self.artifacts.pop(index)
        keys = self._commands("")
        bad = set()
        for path in set(first) | set(this):
            if first.get(path) != this.get(path):
                top = path.split(os.sep)[0]
                bad |= {k for k, argv in keys.items() if argv[-1] == top}
        return sorted(bad)

    def layer_metrics(self, t: dict, results) -> dict:
        m = {}
        run_main = run_scen = 0.0
        for name in self.names:
            m[f"scenarios.run_s.{name}"] = t[f"run.{name}.run_scenario"]
            run_main += t[f"run.{name}"]
            run_scen += t[f"run.{name}.run_scenario"]
        m["cli.overhead_s"] = run_main - run_scen
        for cmd in ("trace", "returns", "spectrum", "check"):
            m[f"cli.cmd_s.{cmd}"] = t[f"cmd.{cmd}"]
        m["cli.bytes_written"] = sum(len(v) for v in self.artifacts[0].values())
        dumps = [v for k, v in t.items() if k.startswith("textform.dumps.")]
        loads = [v for k, v in t.items() if k.startswith("textform.loads.")]
        m["textform.dumps_us"] = sum(dumps) / len(dumps) * 1e6
        m["textform.loads_us"] = sum(loads) / len(loads) * 1e6
        return m
