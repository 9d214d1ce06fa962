import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cocyclelab as cl
from cocyclelab import textform
from cocyclelab.errors import ConfigError, DomainError, InvalidProgramError


def test_dumps_loads_round_trip_nested():
    data = {
        "kind": "markov",
        "alphabet": 2,
        "transition": [[0.9, 0.1], [0.4, 0.6]],
        "initial": [0.5, 0.5],
        "seed": 7,
        "nested": {"a": "text", "b": None, "c": True},
    }
    name, back = textform.loads(textform.dumps("source", data))
    assert name == "source" and back == data


def test_loads_rejects_bad_documents():
    for text in ("", "source {", "x = 1", "source {\n  ?!\n}", "a {\n}\nb {\n}"):
        with pytest.raises(ConfigError):
            textform.loads(text)


def test_comments_and_blank_lines_ignored():
    text = "source {\n\n  # a comment\n  kind = 'periodic'  # trailing\n}\n"
    _, data = textform.loads(text)
    assert data == {"kind": "periodic"}


_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_TEXT = st.text(alphabet="ab #{}='\" \\", max_size=10) | st.text(max_size=10)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | _TEXT)
_LITERALS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6
)
_BLOCKS = st.recursive(
    st.dictionaries(_KEYS, _LITERALS, max_size=4),
    lambda inner: st.dictionaries(_KEYS, _LITERALS | inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(_BLOCKS)
@example({"note": "a#b", "brace": "x {", "eq": "k = v # c", "inner": {"close": "}"}})
def test_round_trip_of_literal_values(data):
    assert textform.loads(textform.dumps("doc", data)) == ("doc", data)


def test_dumps_rejects_non_finite_floats():
    for value in (float("inf"), float("-inf"), float("nan"), [1.0, float("inf")],
                  (0, [float("nan")])):
        with pytest.raises(ConfigError):
            textform.dumps("x", {"v": value})
    with pytest.raises(ConfigError):
        textform.dumps("x", {"inner": {"v": float("inf")}})
    assert textform.loads(textform.dumps("x", {"v": [1e308, -0.0]})) == ("x", {"v": [1e308, -0.0]})


SOURCES = [
    cl.PeriodicSource("0110", cl.Alphabet(2)),
    cl.SubstitutionSource({0: "01", 1: "10"}, 0, cl.Alphabet(2)),
    cl.BernoulliSource([0.25, 0.75], seed=9),
    cl.MarkovSource([[0.9, 0.1], [0.4, 0.6]], [0.5, 0.5], seed=4),
    cl.SquarefreeSource(capacity=4096),
]


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.describe()["kind"])
def test_source_description_round_trip(source):
    text = textform.dumps("source", source.describe())
    name, data = textform.loads(text)
    rebuilt = cl.source_from_description(data)
    assert rebuilt.describe() == source.describe()
    assert rebuilt.prefix(200) == source.prefix(200)


def test_block_program_round_trip():
    base = cl.BernoulliSource([0.5, 0.5], seed=3)
    program = cl.words.prefix_doubling_program(
        base, cl.EpochSchedule(kind="geometric", base=4)
    )
    src = cl.BlockScheduleSource(program)
    rebuilt = cl.source_from_description(src.describe())
    assert rebuilt.prefix(500) == src.prefix(500)
    assert rebuilt.describe() == src.describe()


PRESETS = {
    "paired_growth": lambda: cl.words.paired_growth_program(
        cl.BernoulliSource([0.5, 0.5], seed=11), cl.SquarefreeSource(capacity=4096)),
    "triple_growth": lambda: cl.words.triple_growth_program(cl.EpochSchedule(kind="tower")),
    "run_alternation": lambda: cl.words.run_alternation_preset(pair_base=3, run_offset=2),
}


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_round_trips_through_textform(preset):
    src = cl.BlockScheduleSource(PRESETS[preset]())
    desc = src.describe()
    assert desc["preset"] == preset
    name, data = textform.loads(textform.dumps("source", desc))
    rebuilt = cl.source_from_description(data)
    assert rebuilt.describe() == desc
    assert list(rebuilt.describe()) == list(desc)
    assert rebuilt.prefix(3000) == src.prefix(3000)


def _doubling_description():
    program = cl.words.prefix_doubling_program(cl.PeriodicSource("01", cl.Alphabet(2)),
                                               cl.EpochSchedule(kind="geometric", base=4))
    return cl.BlockScheduleSource(program).describe()


def test_description_rejects_unknown_preset_kind_and_missing_head():
    with pytest.raises(ConfigError, match="preset"):
        cl.source_from_description({**_doubling_description(), "preset": "spiral"})
    with pytest.raises(ConfigError, match="kind"):
        cl.source_from_description({"kind": "fractal", "alphabet": 2})
    # prefix_doubling's head word has no default
    desc = _doubling_description()
    del desc["head"]
    with pytest.raises(ConfigError, match="head"):
        cl.source_from_description(desc)


def test_run_alternation_negative_run_length_is_invalid():
    src = cl.BlockScheduleSource(cl.words.run_alternation_preset(run_slope=-3, run_offset=1))
    with pytest.raises(InvalidProgramError):
        src.prefix(10)


def test_raw_program_has_no_description():
    program = cl.BlockProgram(cl.Alphabet(2), np.empty(0, np.uint8),
                              lambda j: np.zeros(j, np.uint8))
    src = cl.BlockScheduleSource(program)
    assert src.prefix(3).to_text() == "000"
    with pytest.raises(DomainError):
        src.describe()


@pytest.mark.parametrize("field, value", [("seed", None), ("seed", "x"), ("seed", 7.9),
                                          ("seed", True), ("alphabet", "two"),
                                          ("probabilities", None)])
def test_bad_source_field_is_a_config_error(field, value):
    desc = {"kind": "bernoulli", "alphabet": 2, "probabilities": [0.5, 0.5], "seed": 3}
    if value is None:
        del desc[field]
    else:
        desc[field] = value
    with pytest.raises(ConfigError, match=field):
        cl.source_from_description(desc)


def test_well_typed_field_outside_the_domain_stays_a_domain_error():
    desc = {"kind": "bernoulli", "alphabet": 0, "probabilities": [0.5, 0.5], "seed": 3}
    with pytest.raises(DomainError):  # not a ConfigError, so the CLI exits 3
        cl.source_from_description(desc)


def test_cocycle_description_round_trip():
    spec = cl.CocycleSpec(
        cl.Alphabet(2), 2,
        {"00": [[1.0, 1.0], [1.0, 0.0]], "01": [[2.0, 1.0], [1.0, 1.0]]},
        default=[[1.0, 1.0], [1.0, 1.0]],
    )
    text = textform.dumps("cocycle", spec.describe())
    name, data = textform.loads(text)
    rebuilt = cl.CocycleSpec.from_description(data)
    assert rebuilt.describe() == spec.describe()
    for w in ("00", "01", "10", "11"):
        a = spec.evaluate(cl.FiniteWord(w, cl.Alphabet(2)))
        b = rebuilt.evaluate(cl.FiniteWord(w, cl.Alphabet(2)))
        assert np.array_equal(a.entries, b.entries)


def test_cocycle_description_with_declared_ell0_key_still_loads():
    data = {"alphabet": 1, "depth": 1, "matrices": {"0": [[2.0]]}, "declared_ell0": 3}
    spec = cl.CocycleSpec.from_description(data)
    assert spec.describe() == {"alphabet": 1, "depth": 1, "matrices": {"0": [[2.0]]}}


def test_weighted_average_round_trip():
    wspec = cl.WeightedAverageSpec(
        np.array([[0.0, 1.0], [0.5, 2.0]]),
        np.array([1.0, 2.0]),
        cl.BernoulliSource([0.5, 0.5], seed=11),
    )
    text = textform.dumps("weighted_average", wspec.describe())
    _, data = textform.loads(text)
    rebuilt = cl.spectrum.weighted_average_from_description(data)
    assert rebuilt.describe() == wspec.describe()
