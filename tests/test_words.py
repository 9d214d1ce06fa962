import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cocyclelab as cl
from cocyclelab import words
from cocyclelab.errors import (
    CapacityError,
    DomainError,
    InvalidProgramError,
    MarkerNotFoundError,
)

from conftest import naive_markov_symbols, naive_occurrences, prefix_doubling_description, word

A2 = cl.Alphabet(2)


# --- sources ----------------------------------------------------------------


def test_thue_morse_prefix():
    src = cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)
    assert src.prefix(8).to_text() == "01101001"


def test_periodic_prefix():
    src = cl.PeriodicSource("01", A2)
    assert src.prefix(5).to_text() == "01010"


def test_bernoulli_replay_determinism():
    a = cl.BernoulliSource([0.5, 0.5], seed=42)
    b = cl.BernoulliSource([0.5, 0.5], seed=42)
    assert a.prefix(10) == b.prefix(10)
    assert a.prefix(10) == a.prefix(10)


def test_prefix_consistency_across_lengths():
    # emitting 2n then truncating equals emitting n, for every source kind
    sources = [
        cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2),
        cl.PeriodicSource("011", A2),
        cl.BernoulliSource([0.3, 0.7], seed=5),
        cl.MarkovSource([[0.9, 0.1], [0.4, 0.6]], [0.5, 0.5], seed=5),
        cl.SquarefreeSource(capacity=4096),
    ]
    for src in sources:
        long = src.prefix(2 * 600)
        fresh = type(src)(**_rebuild_kwargs(src))
        assert fresh.prefix(600) == long[:600]


def _rebuild_kwargs(src):
    d = src.describe()
    if d["kind"] == "substitution":
        return dict(rules={int(k): v for k, v in d["rules"].items()},
                    seed_letter=d["seed_letter"], alphabet=cl.Alphabet(d["alphabet"]))
    if d["kind"] == "periodic":
        return dict(cycle=d["cycle"], alphabet=cl.Alphabet(d["alphabet"]))
    if d["kind"] == "bernoulli":
        return dict(probabilities=d["probabilities"], seed=d["seed"])
    if d["kind"] == "markov":
        return dict(transition=d["transition"], initial=d["initial"], seed=d["seed"])
    if d["kind"] == "squarefree":
        return dict(capacity=d["capacity"])
    raise AssertionError(d["kind"])


@pytest.mark.parametrize("desc, mismatch", [
    ({"kind": "bernoulli", "alphabet": 3, "probabilities": [0.5, 0.5], "seed": 1},
     "need one probability per symbol"),
    ({"kind": "markov", "alphabet": 3, "transition": [[0.5, 0.5], [0.5, 0.5]],
      "initial": [0.5, 0.5], "seed": 1}, "transition must be m x m and initial length m"),
])
def test_sampler_description_alphabet_must_match_its_parameters(desc, mismatch):
    with pytest.raises(DomainError, match=mismatch):
        cl.source_from_description(desc)
    desc = {**desc, "alphabet": 2}
    assert cl.source_from_description(desc).describe() == desc


def test_markov_rows_must_be_stochastic():
    with pytest.raises(DomainError):
        cl.MarkovSource([[0.5, 0.4], [0.5, 0.5]], [0.5, 0.5], seed=1)


def test_bernoulli_source_rejects_nan_probability():
    with pytest.raises(DomainError):
        cl.BernoulliSource([float("nan"), 1.0], 1)
    with pytest.raises(DomainError):
        cl.BernoulliSource([float("inf"), 0.0], 1)


def test_markov_source_rejects_nan_probability():
    with pytest.raises(DomainError):
        cl.MarkovSource([[float("nan"), 1.0], [0.5, 0.5]], [0.5, 0.5], 1)
    with pytest.raises(DomainError):
        cl.MarkovSource([[0.5, 0.5], [0.5, 0.5]], [float("nan"), 1.0], 1)


def test_samplers_reject_a_negative_seed():
    spec = cl.CocycleSpec(A2, 1, {"0": [[1.0]], "1": [[2.0]]})
    for draw in (lambda: cl.BernoulliSource([0.5, 0.5], seed=-1).prefix(10),
                 lambda: cl.MarkovSource([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], seed=-1).prefix(10),
                 lambda: cl.BernoulliMeasure([0.5, 0.5]).sample_symbols(10, -1, 0),
                 lambda: cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), 10, seed=-2)):
        with pytest.raises(DomainError):
            draw()


def _bernoulli():
    return cl.BernoulliSource([0.3, 0.7], seed=11)


def _markov():
    return cl.MarkovSource([[0.1, 0.6, 0.3], [0.5, 0.5, 0.0], [0.2, 0.2, 0.6]],
                           [0.2, 0.3, 0.5], seed=12)


# one source of every kind; each read appends to the cache from carried state
EVERY_KIND = [
    lambda: cl.PeriodicSource("01101", A2),
    lambda: cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2),
    lambda: cl.SubstitutionSource({0: "0121", 1: "2", 2: "10"}, 0, cl.Alphabet(3)),
    _bernoulli,
    _markov,
    lambda: cl.SquarefreeSource(capacity=3000),
    lambda: cl.BlockScheduleSource(words.triple_growth_program(cl.EpochSchedule(kind="geometric"))),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(EVERY_KIND), st.lists(st.integers(0, 3000), min_size=1, max_size=12))
def test_sampler_prefixes_match_a_fresh_source(make, lengths):
    src = make()
    for n in lengths:
        assert src.prefix(n) == make().prefix(n)


@pytest.mark.parametrize("make", [_bernoulli, _markov])
def test_growing_sampler_prefix_is_drawn_log_times(make):
    src, calls = make(), []
    draw = src._emit
    src._emit = lambda n: calls.append(n) or draw(n)
    for n in range(1, 2049):
        assert len(src.prefix(n)) == n
        assert len(calls) <= n.bit_length()  # floor(log2 n) + 1


@pytest.mark.parametrize("make", [_bernoulli, _markov])
def test_growing_sampler_prefix_draws_each_uniform_once(make, monkeypatch):
    drawn, generator = [], words._generator

    def counted(seed, stream):
        gen = generator(seed, stream)
        return SimpleNamespace(random=lambda n: drawn.append(n) or gen.random(n))

    monkeypatch.setattr(words, "_generator", counted)
    src = make()
    for n in range(1, 2048):
        src.prefix(n)
    # the stream continues across reads: redrawn from position 0 on each
    # read, the cache of 2047 symbols took 4083 draws
    assert sum(drawn) == len(src._cache) == 2047
    assert src.prefix(2047) == make().prefix(2047)


def test_sieve_and_block_schedules_materialize_exact_lengths():
    # one symbol past what is asked would pass the sieve's capacity or
    # reach a block that cannot be built
    sieve = cl.SquarefreeSource(capacity=64)
    for n in range(1, 65):
        sieve.prefix(n)

    def block(j):
        if j > 3:
            raise InvalidProgramError(f"block {j} cannot be built")
        return np.full(j, j % 2, dtype=np.uint8)

    blocks = cl.BlockScheduleSource(words.BlockProgram(A2, np.empty(0, np.uint8), block))
    for n in range(1, 7):
        blocks.prefix(n)
    assert blocks.prefix(6).to_text() == "100111"
    with pytest.raises(InvalidProgramError):
        blocks.prefix(7)


def test_substitution_fixed_point_requirements():
    with pytest.raises(InvalidProgramError):
        cl.SubstitutionSource({0: "10", 1: "01"}, 0, A2)  # image doesn't start with seed
    with pytest.raises(InvalidProgramError):
        cl.SubstitutionSource({0: "01", 1: ""}, 0, A2)  # erasing


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def test_squarefree_read_sieves_only_the_segment_it_appends():
    src = cl.SquarefreeSource(capacity=1 << 24)
    tracemalloc.start()
    try:
        got = src.prefix(1000).symbols
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a sieve of the whole capacity takes 16 MiB
    assert peak < 0.1 * 2**20
    assert got.tolist() == [int(_is_squarefree(k)) for k in range(1, 1001)]
    assert cl.SquarefreeSource(capacity=2**70).prefix(1000) == src.prefix(1000)


def test_squarefree_values_and_capacity():
    src = cl.SquarefreeSource(capacity=500)
    got = src.prefix(200).symbols
    expect = np.array([1 if _is_squarefree(k) else 0 for k in range(1, 201)], dtype=np.uint8)
    assert np.array_equal(got, expect)
    with pytest.raises(CapacityError) as err:
        src.prefix(501)
    assert err.value.required == 501


# --- block schedules --------------------------------------------------------


def _nolimit_program(schedule):
    desc = prefix_doubling_description(cl.PeriodicSource("01", A2), schedule)
    return cl.source_from_description(desc).program


def test_prefix_doubling_block_matches_hand_expansion():
    program = _nolimit_program(cl.EpochSchedule(kind="tower"))
    # index 2 sits in the first (type-1) epoch; with base (01)^inf the block
    # is the doubled two-letter prefix.
    assert cl.EpochSchedule(kind="tower").block_type(2) == 1
    np.testing.assert_array_equal(program.block_fn(2), [0, 1, 0, 1])
    assert cl.BlockScheduleSource(program).prefix(1).to_text() == "3"


def test_block_schedule_total_length_recurrence():
    schedule = cl.EpochSchedule(kind="geometric", base=4)
    program = _nolimit_program(schedule)
    total = 1  # head
    blocks = []
    for j in range(1, 25):
        length = 2 * (j + (1 if schedule.block_type(j) == 2 else 0))
        blocks.append(length)
        total += length
    prefix = cl.BlockScheduleSource(program).prefix(total)
    # the prefix ends exactly at a block boundary: rebuild independently
    rebuilt = [3]
    for j in range(1, 25):
        u = [0, 1] * ((j + 1) // 2)
        u = u[:j]
        if schedule.block_type(j) == 2:
            u = u + [2]
        rebuilt.extend(u + u)
    assert prefix.to_text() == "".join(str(s) for s in rebuilt)[:total]


def test_growing_block_schedule_prefixes_resume_from_the_last_block():
    calls = []
    program = words.triple_growth_program(cl.EpochSchedule(kind="geometric"))
    block_fn = program.block_fn
    counted = dataclasses.replace(program, block_fn=lambda j: calls.append(j) or block_fn(j))
    source = cl.BlockScheduleSource(counted)
    for n in (10_000, 30_000, 100_000):
        source.prefix(n)
    # every block once, up to the one that reaches 1e5; rebuilt from block 1
    # on each read, the three reads made 480 calls
    assert calls == list(range(1, 259))
    assert source.prefix(100_000) == cl.BlockScheduleSource(program).prefix(100_000)
    source.prefix(100_001)  # still inside block 258, which the source kept
    assert len(calls) == 258


def test_paired_growth_offset_past_the_alphabet_is_refused_not_wrapped():
    # symbol 60 of the second word shifted by 200 is 260, which a byte
    # addition would wrap to the in-alphabet symbol 4
    second = cl.PeriodicSource(cl.FiniteWord([60], cl.Alphabet(61)), cl.Alphabet(61))
    program = words.paired_growth_program(cl.PeriodicSource("01", A2), second,
                                          offset=200, alphabet_size=256)
    with pytest.raises(DomainError, match="symbol 260 outside alphabet of size 256"):
        cl.BlockScheduleSource(program).prefix(4)


def test_empty_block_is_invalid():
    program = cl.BlockProgram(cl.Alphabet(2), np.empty(0, np.uint8),
                              lambda j: np.empty(0, np.uint8))
    with pytest.raises(InvalidProgramError):
        cl.BlockScheduleSource(program).prefix(5)


def test_block_symbols_are_checked_before_any_cast():
    # 258 would wrap to the in-alphabet symbol 2 if cast to a byte first
    program = cl.BlockProgram(cl.Alphabet(4), np.zeros(1, np.uint8),
                              lambda j: np.array([1, 258]))
    with pytest.raises(DomainError, match="symbol 258 outside alphabet of size 4"):
        cl.BlockScheduleSource(program).prefix(3)


def test_block_read_that_fails_the_alphabet_check_leaves_the_source_as_it_was():
    # block 2 holds a symbol outside the alphabet: every read through it
    # raises, and none resumes past it as if it had been cached
    program = cl.BlockProgram(A2, np.zeros(1, np.uint8),
                              lambda j: np.full(j, 7 if j == 2 else 1, dtype=np.uint8))
    source = cl.BlockScheduleSource(program)
    assert source.prefix(2).to_text() == "01"
    for _ in range(2):
        with pytest.raises(DomainError, match="symbol 7 outside alphabet of size 2"):
            source.prefix(5)
    assert source.prefix(2).to_text() == "01"


# --- occurrences ------------------------------------------------------------


def test_overlapping_occurrences():
    assert cl.occurrences(word("0000"), word("00", 1)).tolist() == [1, 2]


def test_occurrences_against_naive_on_thue_morse():
    src = cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)
    prefix = src.prefix(16)
    marker = word("010")
    got = cl.occurrences(prefix, marker).tolist()
    assert got == naive_occurrences(prefix, marker)
    for k in got:
        assert prefix[k : k + 3] == marker


def test_marker_longer_than_prefix():
    assert cl.occurrences(word("01"), word("0101")).size == 0


@settings(max_examples=60, deadline=None)
@given(
    text=st.lists(st.integers(0, 2), min_size=1, max_size=160),
    pat=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    start=st.integers(0, 3),
)
def test_occurrence_soundness_and_completeness(text, pat, start):
    a3 = cl.Alphabet(3)
    prefix, marker = cl.FiniteWord(text, a3), cl.FiniteWord(pat, a3)
    got = cl.occurrences(prefix, marker, start=start)
    assert got.dtype == np.int64
    assert got.tolist() == naive_occurrences(prefix, marker, start=start)


def test_occurrences_against_naive_large():
    src = cl.BernoulliSource([0.5, 0.5], seed=9)
    prefix = src.prefix(10_000)
    for marker in ("0", "011", "0101"):
        got = cl.occurrences(prefix, word(marker, 2)).tolist()
        assert got == naive_occurrences(prefix, word(marker, 2))


# --- return decompositions --------------------------------------------------


def test_periodic_decomposition_by_hand():
    prefix = word("0101010")
    decomp = cl.decompose_returns(prefix, word("01"))
    assert decomp.return_times.tolist() == [2, 4]
    assert decomp.count == 1 and decomp.lengths.tolist() == [2]
    cuts = [0, *decomp.return_times.tolist(), len(prefix)]
    assert [prefix[a:b].to_text() for a, b in zip(cuts, cuts[1:])] == ["01", "01", "010"]


def test_single_occurrence_gives_no_return_words():
    decomp = cl.decompose_returns(word("000100"), word("1", 2))
    assert decomp.count == 0 and decomp.return_times.tolist() == [3]


def test_missing_marker_raises():
    with pytest.raises(MarkerNotFoundError) as err:
        cl.decompose_returns(word("0000"), word("1", 2))
    assert err.value.horizon == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(40, 400))
def test_reconstruction_invariant_random(seed, n):
    prefix = cl.BernoulliSource([0.5, 0.5], seed=seed).prefix(n)
    try:
        decomp = cl.decompose_returns(prefix, word("01", 2))
    except MarkerNotFoundError:
        return
    tau = decomp.return_times
    assert decomp.prefix is prefix and tau[0] >= 1 and decomp.count == len(tau) - 1
    assert np.array_equal(tau, naive_occurrences(prefix, word("01", 2)))
    assert np.array_equal(decomp.lengths, np.diff(tau))


def test_reconstruction_invariant_bernoulli_1e5():
    prefix = cl.BernoulliSource([0.5, 0.5], seed=3).prefix(100_000)
    decomp = cl.decompose_returns(prefix, word("01", 2))
    tau = decomp.return_times
    assert np.array_equal(decomp.lengths, np.diff(tau))
    # spot-check the return words at a sample of junctions
    for j in np.linspace(1, decomp.count, 25, dtype=int):
        a, b = int(tau[j - 1]), int(tau[j])
        # each return word starts with the marker and holds no other occurrence
        w = prefix[a:b]
        assert len(w) == decomp.lengths[j - 1] and w[:2] == word("01", 2)
        assert len(naive_occurrences(prefix[a : b + 1], word("01", 2))) == 0


def test_return_rate_periodic():
    prefix = cl.PeriodicSource("01", A2).prefix(4002)
    decomp = cl.decompose_returns(prefix, word("01", 2))
    rates = cl.return_rate_trace(decomp)
    tau = decomp.return_times
    assert np.array_equal(tau, 2 * np.arange(len(tau)) + 2)  # tau_i = 2i + 2
    assert rates[-1, 1] == pytest.approx(0.5, abs=1e-3)


def test_return_rate_full_period_marker():
    prefix = cl.PeriodicSource("012", cl.Alphabet(3)).prefix(3000)
    decomp = cl.decompose_returns(prefix, cl.FiniteWord("012", cl.Alphabet(3)))
    rates = cl.return_rate_trace(decomp)
    assert rates[-1, 1] == pytest.approx(1 / 3, abs=1e-3)


def test_long_word_mass():
    prefix = cl.PeriodicSource("01", A2).prefix(1000)
    decomp = cl.decompose_returns(prefix, word("01", 2))
    assert cl.long_word_mass(decomp, 2) == 0.0  # cutoff >= period
    tau = decomp.return_times
    expect = float((tau[-1] - tau[0]) / tau[-1])
    assert cl.long_word_mass(decomp, 0) == pytest.approx(expect, abs=1e-15)


def test_long_word_mass_monotone_in_cutoff():
    prefix = cl.BernoulliSource([0.5, 0.5], seed=17).prefix(50_000)
    decomp = cl.decompose_returns(prefix, word("0", 2))
    masses = [cl.long_word_mass(decomp, M) for M in range(0, 12)]
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_long_word_mass_geometric_tail():
    prefix = cl.BernoulliSource([0.5, 0.5], seed=21).prefix(1_000_000)
    decomp = cl.decompose_returns(prefix, word("0", 2))
    assert cl.long_word_mass(decomp, 20) < 1e-4


# --- words ------------------------------------------------------------------


def test_word_bytes_export_and_slicing():
    w = word("0123", 4)
    assert w.symbols.tobytes() == bytes([0, 1, 2, 3])
    assert w[1:3].to_text() == "12"
    assert (w[:2] + w[2:]) == w


VIEW_SOURCES = {
    "periodic": lambda: cl.PeriodicSource("0112", cl.Alphabet(3)),
    "substitution": lambda: cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2),
    "bernoulli": _bernoulli,
    "markov": _markov,
    "squarefree": lambda: cl.SquarefreeSource(capacity=4096),
    "block_schedule": lambda: cl.BlockScheduleSource(words.paired_growth_program(
        cl.BernoulliSource([0.5, 0.5], seed=3), cl.BernoulliSource([0.5, 0.5], seed=4))),
}


@pytest.mark.parametrize("kind", VIEW_SOURCES)
def test_prefixes_slices_and_sums_view_checked_symbols(kind):
    src = VIEW_SOURCES[kind]()
    prefixes = [src.prefix(n) for n in (40, 7, 1000, 0, 999)]  # the cache grows between
    derived = [w[::2] for w in prefixes] + [w[::-3] for w in prefixes] + [w[3:30] for w in prefixes]
    derived += [w[:5] + w[5:] for w in prefixes] + [prefixes[1] + prefixes[0][::2]]
    for w in prefixes + derived:
        arr = w.symbols
        assert arr.dtype == np.uint8 and arr.flags.c_contiguous and not arr.flags.writeable
        if len(arr):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert w == cl.FiniteWord(arr.copy(), src.alphabet)
    assert prefixes[2][:40] == prefixes[0] and prefixes[4] == prefixes[2][:999]


def test_word_does_not_alias_the_callers_array():
    a = np.array([0, 1], np.uint8)
    w = cl.FiniteWord(a, A2)
    h = hash(w)
    a[0] = 7
    assert w.to_text() == "01" and hash(w) == h
    # a read-only view of a writable array is still the caller's memory
    b = np.array([1, 0, 1], np.uint8)
    view = b[:]
    view.setflags(write=False)
    w = cl.FiniteWord(view, A2)
    h = hash(w)
    b[:] = 9
    assert w.to_text() == "101" and hash(w) == h
    # a word's own symbols are immutable, so a word of a word shares them
    prefix = cl.PeriodicSource("01", A2).prefix(100)
    assert np.shares_memory(cl.FiniteWord(prefix, A2).symbols, prefix.symbols)


def test_checked_symbols_are_checked_again_against_another_alphabet():
    w = cl.PeriodicSource("0123", cl.Alphabet(4)).prefix(16)
    for data in (w, w.symbols, w[::2], w[:3] + w[3:], w.symbols + 0):
        with pytest.raises(DomainError, match="outside alphabet of size 2"):
            cl.FiniteWord(data, A2)


def test_alphabet_validation():
    with pytest.raises(DomainError):
        cl.FiniteWord("012", A2)
    with pytest.raises(DomainError):
        cl.Alphabet(0)


def test_word_text_rejects_non_digits():
    a60 = cl.Alphabet(60)
    for text in ("a", "0a1", "0 a", "\u0661", "1\t2"):
        with pytest.raises(DomainError):
            cl.FiniteWord(text, a60)
    for text in ("1 a", "3 -1", "1 +2", "0 1\n2"):
        with pytest.raises(DomainError):
            cl.FiniteWord.from_text(text, a60)
    assert cl.FiniteWord.from_text("12 0 59", a60).symbols.tolist() == [12, 0, 59]
    # a space separates symbols, as in from_text
    assert cl.FiniteWord("0 1", a60).symbols.tolist() == [0, 1]
    assert len(cl.FiniteWord("", a60)) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 256).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=12))))
def test_word_text_round_trips_over_every_alphabet(case):
    m, symbols = case
    alphabet = cl.Alphabet(m)
    w = cl.FiniteWord(symbols, alphabet)
    assert cl.FiniteWord.from_text(w.to_text(), alphabet) == w


def test_word_text_meaning_by_alphabet_size():
    # digit strings keep one symbol per digit up to 10 symbols
    assert cl.FiniteWord.from_text("0110", cl.Alphabet(10)).symbols.tolist() == [0, 1, 1, 0]
    assert cl.FiniteWord.from_text("0 1 1", cl.Alphabet(2)).symbols.tolist() == [0, 1, 1]
    # above 10 symbols a token is one symbol, also without a space
    a30 = cl.Alphabet(30)
    assert cl.FiniteWord([12], a30).to_text() == "12"
    assert cl.FiniteWord.from_text("12", a30).symbols.tolist() == [12]
    assert cl.FiniteWord.from_text("", a30) == cl.FiniteWord([], a30)


def test_str_words_read_like_from_text_over_large_alphabets():
    a30 = cl.Alphabet(30)
    assert cl.FiniteWord("12", a30) == cl.FiniteWord.from_text("12", a30)
    assert cl.PeriodicSource("12", a30).cycle.symbols.tolist() == [12]
    assert cl.PeriodicSource("12 3", a30).prefix(4).symbols.tolist() == [12, 3, 12, 3]
    rules = {s: str(s) for s in range(30)}
    rules[0] = "0 12"
    assert cl.SubstitutionSource(rules, 0, a30).prefix(3).symbols.tolist() == [0, 12, 12]
    spec = cl.CocycleSpec(a30, 1, {"12": [[2.0]]}, default=[[1.0]])
    assert spec.evaluate(cl.FiniteWord("12", a30)).entries.tolist() == [[2.0]]
    assert spec.evaluate(cl.FiniteWord("1", a30)).entries.tolist() == [[1.0]]
    # up to 10 symbols a digit string keeps one symbol per digit
    assert cl.PeriodicSource("0110", A2).cycle.symbols.tolist() == [0, 1, 1, 0]
    assert cl.FiniteWord("907", cl.Alphabet(10)).symbols.tolist() == [9, 0, 7]


def test_substitution_description_round_trips_over_large_alphabet():
    a12 = cl.Alphabet(12)
    rules = {s: [s, (s + 11) % 12] if s else [0, 11, 10] for s in range(12)}
    src = cl.SubstitutionSource(rules, 0, a12)
    back = cl.source_from_description(src.describe())
    assert back.prefix(200) == src.prefix(200)


def test_integer_symbols_outside_byte_range_are_rejected():
    a60 = cl.Alphabet(60)
    for data in (np.array([300, 1]), np.array([-1]), [300, 1], [2, -3]):
        with pytest.raises(DomainError):
            cl.FiniteWord(data, a60)
    with pytest.raises(DomainError):
        cl.FiniteWord(np.array([-1]), cl.Alphabet(256))
    # tokens past 2**64 read as an object array of Python ints
    for text in ("0 99999999999999999999", "0 18446744073709551616"):
        with pytest.raises(DomainError, match="outside alphabet of size 60"):
            cl.FiniteWord(text, a60)
    assert cl.FiniteWord([59, 0], a60).symbols.tolist() == [59, 0]


@pytest.mark.parametrize("bad, shown", [(0.5, "0.5"), (np.nan, "nan"), (np.inf, "inf")])
def test_non_integral_symbols_are_rejected(bad, shown):
    with pytest.raises(DomainError, match=f"symbol {shown} is not an integer"):
        cl.FiniteWord(np.array([1.0, bad]), A2)


def test_integral_float_symbols_are_accepted():
    assert cl.FiniteWord([0.0, 1.0], A2).symbols.tolist() == [0, 1]


def test_byte_symbols_outside_alphabet_are_rejected():
    with pytest.raises(DomainError, match="symbol 7 outside alphabet of size 3"):
        cl.FiniteWord(np.array([0, 7, 1], dtype=np.uint8), cl.Alphabet(3))


class _StrayStream(cl.WordSource):
    """Emits the symbol 2, outside its two-letter alphabet."""

    def __init__(self):
        super().__init__(A2)
        self.calls = 0

    def _emit(self, n):
        self.calls += 1
        return np.full(n, 2, dtype=np.uint8)

    def describe(self):
        return {}


def test_source_emitting_outside_its_alphabet_raises_and_keeps_no_cache():
    src = _StrayStream()
    for calls in (1, 2):
        with pytest.raises(DomainError, match="outside alphabet"):
            src.prefix(5)
        assert src.calls == calls and len(src._cache) == 0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_markov_sampler_matches_per_symbol_walk(m):
    rng = np.random.default_rng(m)
    P = rng.random((m, m)) * (rng.random((m, m)) < 0.7)
    P[np.arange(m), rng.integers(0, m, m)] += 0.1  # every row keeps some mass
    P /= P.sum(axis=1, keepdims=True)
    initial = np.full(m, 1.0 / m)
    # 30000 crosses a chunk edge of the step-map scan for m = 5
    for n in list(range(0, 40)) + [1000, 10_000, 30_000]:
        got = cl.MarkovMeasure(P, initial).sample_symbols(n, seed=17, replica=m)
        assert np.array_equal(got, naive_markov_symbols(P, initial, n, 17, m)), n
