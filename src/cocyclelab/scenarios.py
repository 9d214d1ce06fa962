"""Scenario registry: each entry describes its parts (a word source and a
cocycle, or a weighted-average spec) in the text form the CLI reads, runs
its analysis steps in order through one step table, and grades the
observed behavior against an expected qualitative tag.

Tags: converges | oscillates | minus-infinity | condition-fails. The
verdict is a pure function of the saved artifact document, so re-grading
a run's verdict.json reproduces the exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycles import (
    CocycleSpec,
    _FIRST_CHECKPOINT,
    check_positivity_condition,
    geometric_checkpoints,
    lambda_estimate,
    lyapunov_trace,
    periodic_exponent,
)
from .errors import ConfigError
from .textform import typed
from .returns import return_formula_estimate, select_marker
from .spectrum import _beta_grid, spectrum_curve, spectrum_to_csv, weighted_average_from_description
from .words import decompose_returns, long_word_mass, source_from_description

TAGS = ("converges", "oscillates", "minus-infinity", "condition-fails")

_POSITIVE_PAIR = {
    "0": [[2.0, 1.0], [1.0, 1.0]],
    "1": [[1.0, 1.0], [1.0, 2.0]],
}
# pair with distinct growth rates: per-step variance large enough that
# Monte-Carlo standard errors dominate the O(1/n) norm-constant bias
_VARIED_PAIR = {
    "0": [[2.0, 1.0], [1.0, 1.0]],
    "1": [[0.4, 0.4], [0.4, 0.8]],
}
_DIAG = [[10.0, 0.0], [0.0, 0.1]]
_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_ONES = [[1.0, 1.0], [1.0, 1.0]]
_FIB = [[1.0, 1.0], [1.0, 0.0]]


# --- part descriptions ------------------------------------------------------
# A part is the description its reader takes, in the canonical form the
# built object's describe() gives back. A field that a run's config sets
# is the config key, marked as one.


class _Key(str):
    """A description field filled from the run's config under this key."""


def _table(alphabet: int, matrices: dict) -> dict:
    return {"alphabet": alphabet, "depth": 1, "matrices": matrices}


def _coin(seed: str) -> dict:
    return {"kind": "bernoulli", "alphabet": 2, "probabilities": [0.5, 0.5], "seed": _Key(seed)}


def _blocks(alphabet: int, preset: str, **fields) -> dict:
    return {"kind": "block_schedule", "alphabet": alphabet, "preset": preset, **fields}


_FIXED_LETTER = {"kind": "periodic", "alphabet": 1, "cycle": "0"}
_SCHEDULE = {"kind": _Key("schedule"), "base": _Key("schedule_base")}


def _nolimit_parts(schedule: dict) -> dict:
    return {
        "source": _blocks(4, "prefix_doubling", head="3", type2_suffix=2, schedule=schedule,
                          base_source=_coin("seed")),
        "cocycle": _table(4, {"0": _DIAG, "1": _DIAG, "2": _SWAP, "3": _ONES}),
    }


def _fx_table(config) -> dict:
    # Window with its first 1 at position j carries the rank-one matrix
    # exp(-2^j) * ones; the all-zero window takes the cylinder supremum
    # exp(-2^depth). Depth is capped so exp stays in float range.
    depth = config["depth"]
    if not 1 <= depth <= 9:
        raise ConfigError(f"depth must lie in 1..9, got {depth}: "
                          "exp(-2^depth) underflows float64 past 9")
    matrices = {}
    for idx in range(2**depth):
        word = format(idx, f"0{depth}b")
        j = word.index("1") if "1" in word else depth
        f = math.exp(-(2.0**j))
        matrices[word] = [[f, f], [f, f]]
    return {"alphabet": 2, "depth": depth, "matrices": matrices}


def _fill(desc, config):
    """desc with each config key replaced by its config value, and a
    computed part by the description it computes from the config."""
    if callable(desc):
        return desc(config)
    if isinstance(desc, _Key):
        return config[desc]
    if isinstance(desc, dict):
        return {key: _fill(value, config) for key, value in desc.items()}
    return desc


# the CLI's reader of each part
_READERS = {
    "source": source_from_description,
    "marker_base": source_from_description,
    "cocycle": CocycleSpec.from_description,
    "weighted": weighted_average_from_description,
}


@dataclass(frozen=True)
class Scenario:
    """The descriptions of the scenario's parts (names from ``_READERS``),
    the analysis steps that run on them, in order (names from ``STEPS``),
    and reference quantities copied into the artifact document."""

    name: str
    citation: str
    expected: str
    defaults: dict
    parts: dict
    steps: tuple[str, ...]
    reference: dict = field(default_factory=dict)

    @property
    def analysis(self) -> str:
        return "+".join(self.steps)

    def descriptions(self, config: dict) -> dict:
        """Each part's description with the config's fields filled in."""
        return {name: _fill(desc, config) for name, desc in self.parts.items()}

    def build(self, config: dict) -> dict:
        """Each part, read from its description by the CLI's reader."""
        return {name: _READERS[name](desc) for name, desc in self.descriptions(config).items()}


def verdict_from_artifacts(doc: dict) -> str:
    """Grade a saved artifact document; pure and re-runnable."""
    vi = doc["verdict_inputs"]
    kind = vi["kind"]
    if kind == "trace":
        if vi.get("zero_index") is not None:
            return "minus-infinity"
        if vi["oscillation_gap"] > vi["oscillation_threshold"]:
            return "oscillates"
        if vi["relative_step"] < vi["convergence_threshold"]:
            return "converges"
        return "inconclusive"
    if kind == "long-mass":
        if min(vi["long_mass"]) > vi["mass_floor"]:
            return "condition-fails"
        return "inconclusive"
    if kind == "spectrum":
        if vi["max_error"] <= vi["tolerance"] and vi["dim_at_zero_error"] <= vi["zero_tolerance"]:
            return "converges"
        return "inconclusive"
    raise ConfigError(f"unknown verdict kind {kind!r}")


def _trace_verdict_inputs(trace, config) -> dict:
    cps = trace.checkpoints
    exps = trace.exponents
    horizon = int(cps[-1])
    late = cps >= horizon / config["late_divisor"]
    finite = np.isfinite(exps)
    window = exps[late & finite]
    gap = float(window.max() - window.min()) if len(window) >= 2 else 0.0
    if len(cps) >= 2 and np.isfinite(exps[-1]) and np.isfinite(exps[-2]):
        rel = float(abs(exps[-1] - exps[-2]) / max(1e-12, abs(exps[-1])))
    else:
        rel = float("inf") if trace.zero_index is None else 0.0
    return {
        "kind": "trace",
        "zero_index": trace.zero_index,
        "oscillation_gap": gap,
        "oscillation_threshold": config["oscillation_threshold"],
        "relative_step": rel,
        "convergence_threshold": config["convergence_threshold"],
    }


_TRACE_DEFAULTS = {
    "oscillation_threshold": 1.0,
    "convergence_threshold": 1e-3,
    "late_divisor": 16,
}


# --- analysis steps ---------------------------------------------------------
# Each step reads the built parts and the config, adds its quantities (and,
# for the step that grades the run, the verdict inputs) to the artifact
# document, and may add artifact files.


def _step_trace(parts, config, artifacts, files):
    if config["late_divisor"] < 1:  # the late window [horizon / late_divisor, horizon]
        raise ConfigError(f"late_divisor must be >= 1, got {config['late_divisor']}")
    cps = geometric_checkpoints(_FIRST_CHECKPOINT, config["horizon"])
    trace = lyapunov_trace(parts["cocycle"], parts["source"], cps)
    artifacts["quantities"].update({
        "exponent_estimate": trace.slope_estimate(),
        "final_exponent": float(trace.exponents[-1]),
        "zero_index": trace.zero_index,
    })
    artifacts["verdict_inputs"] = _trace_verdict_inputs(trace, config)
    files["trace.csv"] = trace.to_csv()


def _step_periodic(parts, config, artifacts, files):
    exact = periodic_exponent(parts["cocycle"], parts["source"].cycle)
    artifacts["quantities"]["periodic_exact"] = exact


def _step_returns(parts, config, artifacts, files):
    spec, source = parts["cocycle"], parts["source"]
    prefix = source.prefix(config["horizon"] + spec.depth - 1)
    sel = select_marker(spec, prefix, k0=config["k0"], max_ell=4)
    est = return_formula_estimate(spec, prefix, sel, cutoff=config["cutoff"])
    q = artifacts["quantities"]
    q["return_estimate"] = est.estimate
    q["correction_band"] = est.correction_band
    q["long_mass"] = est.long_mass
    q["cross_check_gap"] = abs(est.estimate - q["final_exponent"])
    files["returns.json"] = est.to_json()


def _step_lambda(parts, config, artifacts, files):
    # replica streams are keyed by the orbit seed + 1, so they never replay
    # the orbit the trace step follows
    est = lambda_estimate(
        parts["cocycle"],
        parts["source"].measure,
        n=config["lambda_n"],
        replicas=config["replicas"],
        seed=config["seed"] + 1,
    )
    q = artifacts["quantities"]
    q["lambda_mean"] = est.mean
    q["lambda_stderr"] = est.stderr
    q["orbit_vs_lambda_gap"] = abs(q["exponent_estimate"] - est.mean)


def _step_check(parts, config, artifacts, files):
    # The head word occurs once and is transient, so scan the observed
    # windows from position 1 when judging the positivity condition.
    sample = parts["source"].prefix(min(config["horizon"], 100_000))
    hit = check_positivity_condition(
        parts["cocycle"], sample, max_ell=config["max_ell"], start=1
    )
    artifacts["quantities"]["positivity_witness"] = (
        None if hit is None else {"u": hit.u.to_text(), "ell0": hit.ell0, "b": hit.b}
    )


def _step_mass(parts, config, artifacts, files):
    marker = parts["marker_base"].prefix(config["marker_length"])
    masses = []
    for n in config["horizons"]:
        decomp = decompose_returns(parts["source"].prefix(n), marker)
        masses.append(long_word_mass(decomp, config["cutoff"]))
    artifacts["quantities"].update({
        "marker": marker.to_text(),
        "cutoff": config["cutoff"],
        "horizons": config["horizons"],
        "long_mass": masses,
    })
    artifacts["verdict_inputs"] = {
        "kind": "long-mass",
        "long_mass": masses,
        "mass_floor": config["mass_floor"],
    }


def _step_spectrum(parts, config, artifacts, files):
    betas = _beta_grid(config["beta_min"], config["beta_max"], config["beta_count"])
    points = spectrum_curve(parts["weighted"], betas, horizon=config["horizon"])
    errs = []
    dim0 = None
    for pt in points:
        alpha = min(max(pt.alpha, 1e-300), 1 - 1e-300)
        entropy = -(alpha * math.log(alpha) + (1 - alpha) * math.log(1 - alpha)) / math.log(2)
        errs.append(abs(pt.dim - entropy))
        if abs(pt.beta) < 1e-12:
            dim0 = pt.dim
    artifacts["quantities"].update({
        "max_error_vs_entropy": max(errs),
        "dim_at_beta_zero": dim0,
    })
    artifacts["verdict_inputs"] = {
        "kind": "spectrum",
        "max_error": max(errs),
        "tolerance": config["tolerance"],
        "dim_at_zero_error": abs((dim0 if dim0 is not None else 0.0) - 1.0),
        "zero_tolerance": config["zero_tolerance"],
    }
    files["spectrum.csv"] = spectrum_to_csv(points)


STEPS = {
    "trace": _step_trace,
    "periodic": _step_periodic,
    "returns": _step_returns,
    "lambda": _step_lambda,
    "check": _step_check,
    "mass": _step_mass,
    "spectrum": _step_spectrum,
}


REGISTRY: dict[str, Scenario] = {}


def _register(s: Scenario) -> None:
    if s.name in REGISTRY:
        raise ConfigError(f"duplicate scenario {s.name}")
    if s.expected not in TAGS:
        raise ConfigError(f"bad expected tag {s.expected}")
    REGISTRY[s.name] = s


_register(Scenario(
    name="fibonacci-periodic",
    citation="Fibonacci matrix on a fixed letter: exponent is log of the golden ratio",
    expected="converges",
    defaults={**_TRACE_DEFAULTS, "horizon": 10_000},
    parts={"source": _FIXED_LETTER, "cocycle": _table(1, {"0": _FIB})},
    steps=("trace", "periodic"),
    reference={"golden_log": math.log((1 + math.sqrt(5)) / 2)},
))

_register(Scenario(
    name="thue-morse-positive",
    citation="Thue-Morse substitution stream with a strictly positive pair; trace vs return-word estimate",
    expected="converges",
    defaults={**_TRACE_DEFAULTS, "horizon": 200_000, "k0": 8, "cutoff": 64},
    parts={
        "source": {"kind": "substitution", "alphabet": 2, "seed_letter": 0,
                   "rules": {"0": "01", "1": "10"}},
        "cocycle": _table(2, _POSITIVE_PAIR),
    },
    steps=("trace", "returns"),
))

_register(Scenario(
    name="squarefree-positive",
    citation="Squarefree indicator (Moebius-square) stream with a strictly positive pair",
    expected="converges",
    defaults={**_TRACE_DEFAULTS, "horizon": 200_000, "capacity": 1 << 21},
    parts={
        "source": {"kind": "squarefree", "alphabet": 2, "capacity": _Key("capacity")},
        "cocycle": _table(2, _POSITIVE_PAIR),
    },
    steps=("trace",),
))

_register(Scenario(
    name="bernoulli-positive",
    citation="Fair-coin stream with a strictly positive pair; single orbit against the sampled mean",
    expected="converges",
    # checkpoint-to-checkpoint steps of a coin-driven orbit carry CLT noise
    # of a few 1e-4 at these horizons; the verdict threshold is set above it
    defaults={**_TRACE_DEFAULTS, "convergence_threshold": 5e-3,
              "horizon": 400_000, "seed": 7,
              "lambda_n": 10_000, "replicas": 100},
    parts={"source": _coin("seed"), "cocycle": _table(2, _VARIED_PAIR)},
    steps=("trace", "lambda"),
))

_register(Scenario(
    name="nolimit",
    citation="Walters-style doubled-prefix blocks over diagonal/antidiagonal matrices, tower epochs",
    expected="oscillates",
    defaults={**_TRACE_DEFAULTS, "horizon": 1_200, "seed": 3,
              "schedule": "tower", "max_ell": 6},
    parts=_nolimit_parts({"kind": _Key("schedule")}),
    steps=("trace", "check"),
))

_register(Scenario(
    name="nolimit-geometric",
    citation="Walters-style doubled-prefix blocks, geometric epochs sized for desk horizons",
    expected="oscillates",
    defaults={**_TRACE_DEFAULTS, "horizon": 400_000, "seed": 3,
              "schedule": "geometric", "schedule_base": 4, "max_ell": 6},
    parts=_nolimit_parts(_SCHEDULE),
    steps=("trace", "check"),
))

_register(Scenario(
    name="fx-depth-k",
    citation="Rank-one family with entries vanishing near the all-zero word, truncated at finite depth",
    expected="oscillates",
    defaults={**_TRACE_DEFAULTS, "horizon": 16_500, "depth": 9,
              "pair_base": 2, "run_slope": 1, "run_offset": 5},
    parts={
        "source": _blocks(2, "run_alternation", **{
            key: _Key(key) for key in ("pair_base", "run_slope", "run_offset")}),
        "cocycle": _fx_table,
    },
    steps=("trace",),
))

_register(Scenario(
    name="gap-blocks",
    citation="Interleaved prefixes of two independent streams: long return words keep positive mass",
    expected="condition-fails",
    defaults={"horizons": [100_000, 1_000_000], "cutoff": 32, "marker_length": 2,
              "seed_x": 11, "seed_y": 12, "mass_floor": 0.2},
    parts={
        "source": _blocks(4, "paired_growth", offset=2, first_source=_coin("seed_x"),
                          second_source=_coin("seed_y")),
        "marker_base": _coin("seed_x"),
    },
    steps=("mass",),
))

_register(Scenario(
    name="nonergodic-4",
    citation="Two diagonal letters with a swap letter under a non-ergodic three-run schedule",
    expected="oscillates",
    defaults={**_TRACE_DEFAULTS, "horizon": 600_000, "schedule": "geometric",
              "schedule_base": 4},
    parts={
        "source": _blocks(4, "triple_growth", swap_symbol=3, schedule=_SCHEDULE),
        "cocycle": _table(4, {"0": _DIAG, "1": _DIAG, "2": _ONES, "3": _SWAP}),
    },
    steps=("trace",),
))

_register(Scenario(
    name="besicovitch",
    citation="Besicovitch-Eggleston digit frequencies: spectrum against the binary entropy curve",
    expected="converges",
    defaults={"beta_min": -5.0, "beta_max": 5.0, "beta_count": 21, "horizon": 1_000,
              "tolerance": 1e-3, "zero_tolerance": 1e-9},
    parts={"weighted": {"states": 2, "potential": [[0.0, 0.0], [1.0, 1.0]],
                        "weights": [1.0], "weight_source": _FIXED_LETTER}},
    steps=("spectrum",),
))

_register(Scenario(
    name="nilpotent-halt",
    citation="A nilpotent letter: the product is structurally zero from step two on",
    expected="minus-infinity",
    defaults={**_TRACE_DEFAULTS, "horizon": 64},
    parts={"source": _FIXED_LETTER, "cocycle": _table(1, {"0": [[0.0, 1.0], [0.0, 0.0]]})},
    steps=("trace",),
))


def resolve_config(name: str, overrides: dict | None = None) -> tuple[Scenario, dict]:
    if name not in REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}; see `list`")
    scenario = REGISTRY[name]
    config = dict(scenario.defaults)
    for key, value in (overrides or {}).items():
        if key not in config:
            raise ConfigError(f"unknown override {key!r} for scenario {name}")
        # an override takes its default's type, and a list its items' type
        default = scenario.defaults[key]
        listed = isinstance(default, list)
        config[key] = typed(key, value, list[type(default[0])] if listed else type(default))
        if listed and not config[key]:
            raise ConfigError(f"{key} must not be empty")
    return scenario, config


def run_scenario(name: str, overrides: dict | None = None) -> tuple[dict, dict, bool]:
    """Execute a registry entry; returns (artifact doc, files, passed)."""
    scenario, config = resolve_config(name, overrides)
    parts = scenario.build(config)
    artifacts = {"quantities": dict(scenario.reference)}
    files: dict[str, str] = {}  # filename -> text content
    for step in scenario.steps:
        STEPS[step](parts, config, artifacts, files)
    observed = verdict_from_artifacts(artifacts)
    doc = {
        "scenario": name,
        "config": config,
        "expected": scenario.expected,
        "observed": observed,
        "pass": observed == scenario.expected,
        **artifacts,
    }
    return doc, files, doc["pass"]


def registry_table() -> list[dict]:
    return [
        {
            "name": s.name,
            "citation": s.citation,
            "expected": s.expected,
            "analysis": s.analysis,
        }
        for s in REGISTRY.values()
    ]


LIST_JSON_SCHEMA = {
    "type": "object",
    "required": ["scenarios"],
    "properties": {
        "scenarios": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "citation", "expected", "analysis"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "citation": {"type": "string", "minLength": 1},
                    "expected": {"enum": list(TAGS)},
                    "analysis": {"type": "string"},
                },
            },
        }
    },
}
