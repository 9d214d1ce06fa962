import itertools
import math
import re
import time

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import scenarios, textform, words
from cocyclelab.cocycles import _factor_table, _reduce
from cocyclelab.errors import DomainError, InsufficientContextError, RangeError, UnderflowError_
from cocyclelab.matrices import NonNegMatrix

from conftest import (
    assert_same_bytes,
    naive_observed_witness,
    naive_positivity,
    naive_product,
    naive_scaled_steps,
    random_positive,
    random_sparse_nonneg,
    reference_cocycle_table,
    unfolded_reduce,
    word,
)

A1, A2, A4 = cl.Alphabet(1), cl.Alphabet(2), cl.Alphabet(4)

POSITIVE_PAIR = {"0": [[2.0, 1.0], [1.0, 1.0]], "1": [[1.0, 1.0], [1.0, 2.0]]}
DIAG = [[10.0, 0.0], [0.0, 0.1]]
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def positive_spec():
    return cl.CocycleSpec(A2, 1, POSITIVE_PAIR)


def nolimit_spec():
    return cl.CocycleSpec(A4, 1, {"0": DIAG, "1": DIAG, "2": SWAP,
                                  "3": [[1.0, 1.0], [1.0, 1.0]]})


def tm_source():
    return cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)


# --- evaluation -------------------------------------------------------------


def test_evaluate_depth_one():
    spec = positive_spec()
    got = spec.evaluate(word("01", 2))
    assert np.array_equal(got.entries, np.array(POSITIVE_PAIR["0"]))


def test_evaluate_depth_two_and_locality():
    table = {
        "00": [[1.0]], "01": [[2.0]], "10": [[3.0]], "11": [[4.0]],
    }
    spec = cl.CocycleSpec(A2, 2, table)
    assert spec.evaluate(word("10110", 2)).entries[0, 0] == 3.0
    a = spec.evaluate(word("0110", 2))
    b = spec.evaluate(word("0101", 2))
    assert np.array_equal(a.entries, b.entries)
    with pytest.raises(InsufficientContextError):
        spec.evaluate(word("0", 2))


def test_table_must_be_total():
    with pytest.raises(DomainError):
        cl.CocycleSpec(A2, 1, {"0": [[1.0]]})
    spec = cl.CocycleSpec(A2, 1, {"0": [[2.0]]}, default=[[1.0]])
    assert spec.evaluate(word("1", 2)).entries[0, 0] == 1.0
    assert spec.entry_floor == 1.0


def _random_table(rng, m, depth, d, form, holes):
    """A depth-r table over m symbols with d x d values (the first positive,
    the third all zero, the rest sparse), keyed by str, tuple or FiniteWord, with every third word left
    to the default when holes is set."""
    alphabet = cl.Alphabet(m)
    table = {}
    for i, w in enumerate(itertools.product(range(m), repeat=depth)):
        if holes and i % 3 == 1:
            continue
        key = {"str": cl.FiniteWord(w, alphabet).to_text(), "tuple": w,
               "word": cl.FiniteWord(np.array(w), alphabet)}[form]
        table[key] = (random_positive(rng, d) if i == 0 else np.zeros((d, d)) if i == 2
                      else random_sparse_nonneg(rng, d))
    return alphabet, table


@pytest.mark.parametrize("m,depth,d", [(1, 1, 1), (2, 1, 16), (2, 9, 2), (3, 4, 5),
                                       (4, 2, 16), (12, 2, 3), (30, 1, 4), (2, 5, 1)])
@pytest.mark.parametrize("form", ["str", "tuple", "word"])
@pytest.mark.parametrize("holes", [False, True])
def test_stacked_table_build_matches_key_by_key_reference(m, depth, d, form, holes):
    rng = np.random.default_rng([m, depth, d, holes])
    alphabet, table = _random_table(rng, m, depth, d, form, holes)
    default = random_sparse_nonneg(rng, d) + np.eye(d) if holes else None
    if holes and len(table) == m**depth:
        default = None  # a one-word table has no hole to fill
    spec = cl.CocycleSpec(alphabet, depth, table, default=default)
    ref = reference_cocycle_table(alphabet, depth, table, default=default)
    want = _factor_table(np.stack([mat.entries for mat in ref.matrices]))
    for got, expected in zip(spec._table, want):
        np.testing.assert_array_equal(got, expected)
    # the folded kernel on the built table, byte for byte the positional one on the reference
    n = 3 * want.block + 5
    rows = rng.integers(0, len(ref.matrices), (2, n))
    cps = np.unique(rng.integers(1, n + 1, 20))
    assert_same_outcome(lambda: _reduce(spec._table, rows, cps),
                        lambda: unfolded_reduce(want, rows, cps))
    assert (spec.entry_floor, spec.a_upper, spec.dim) == (ref.entry_floor, ref.a_upper, d)
    assert len(spec.matrices) == len(ref.matrices)
    for got, expected in zip(spec.matrices, ref.matrices):
        np.testing.assert_array_equal(got.entries, expected.entries)
        np.testing.assert_array_equal(got.support, expected.support)
    assert spec.describe() == ref.describe
    assert textform.dumps("cocycle", spec.describe()) == textform.dumps("cocycle", ref.describe)


def assert_same_outcome(run, reference):
    """Both kernel runs give the same bytes, or both raise the same error at
    the same position (sparse random tables can underflow mid-product)."""
    try:
        want = reference()
    except UnderflowError_ as err:
        with pytest.raises(UnderflowError_) as got:
            run()
        assert got.value.position == err.position
    else:
        assert_same_bytes(run(), want)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("depth,table,default,exc", [
    (1, {"0": [[1.0, 2.0]], "1": [[1.0, 2.0]]}, None, DomainError),  # non-square
    (1, {"0": [[1.0]], "1": np.eye(2)}, None, DomainError),  # mixed d
    (1, {"0": [[1.0]]}, np.eye(2), DomainError),  # mixed d through the default
    (1, {"0": [[NAN]], "1": [[1.0]]}, None, RangeError),
    (1, {"0": [[INF]], "1": [[1.0]]}, None, RangeError),
    (1, {"0": [[1.0]], "1": [[-1.0]]}, None, DomainError),
    (1, {"0": [[1.0]]}, [[NAN]], RangeError),  # a bad default
    (1, {"00": [[1.0]], "1": [[1.0]]}, None, DomainError),  # key of the wrong depth
    (2, {"00": [[1.0]], "01": [[1.0]], "10": [[1.0]], "1": [[1.0]]}, None, DomainError),
    (1, {"0": [[1.0]], "2": [[1.0]]}, None, DomainError),  # key outside the alphabet
    (1, {(0,): [[1.0]], (5,): [[1.0]]}, None, DomainError),
    (1, {(0,): [[1.0]], (257,): [[1.0]]}, None, DomainError),  # would wrap to 1 as a byte
    (1, {(0,): [[1.0]], (-1,): [[1.0]]}, None, DomainError),
    (1, {"0": [[1.0]]}, None, DomainError),  # missing words, no default
    (1, {}, None, DomainError),
    (1, {"0": [[0.0]], "1": [[0.0]]}, None, DomainError),  # all-zero table
    (1, {"0": [[0.0]]}, [[0.0]], DomainError),
])
def test_table_rejections_match_key_by_key_reference(depth, table, default, exc):
    with pytest.raises(exc):
        reference_cocycle_table(A2, depth, table, default=default)
    with pytest.raises(exc):
        cl.CocycleSpec(A2, depth, table, default=default)


def test_duplicate_table_keys_are_rejected():
    A, B = [[1.0]], [[2.0]]
    table = {"01": A, (0, 1): B, "00": A, "10": A, "11": A}
    with pytest.raises(DomainError, match=re.escape("table keys '01' and (0, 1) name the same word")):
        cl.CocycleSpec(A2, 2, table)
    a30 = cl.Alphabet(30)
    with pytest.raises(DomainError, match="name the same word"):
        cl.CocycleSpec(a30, 1, {"12": A, (12,): B}, default=A)


def test_table_build_makes_no_per_key_objects(monkeypatch):
    scenario, config = scenarios.resolve_config("fx-depth-k", {"depth": 9})
    table = scenario.descriptions(config)["cocycle"]
    counts = {"FiniteWord": 0, "NonNegMatrix": 0}
    for cls in (cl.FiniteWord, NonNegMatrix):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    spec = cl.CocycleSpec.from_description(table)
    assert counts == {"FiniteWord": 0, "NonNegMatrix": 0}
    spec.describe()
    assert counts == {"FiniteWord": 0, "NonNegMatrix": 0}
    assert len(spec.matrices) == 512 and counts["NonNegMatrix"] == 512
    assert spec.matrices is spec.matrices  # built once, on first access


# --- partial products -------------------------------------------------------


def test_table_keys_index_by_symbols_over_large_alphabet():
    a30 = cl.Alphabet(30)
    mats = {(i,): np.full((2, 2), float(i + 1)) for i in range(30)}
    for keys in (mats, {cl.FiniteWord(k, a30).to_text(): v for k, v in mats.items()}):
        spec = cl.CocycleSpec(a30, 1, keys)
        for i in (0, 1, 12, 29):
            got = spec.evaluate(cl.FiniteWord([i], a30)).entries
            np.testing.assert_array_equal(got, mats[(i,)])
    back = cl.CocycleSpec.from_description(spec.describe())
    assert all(np.array_equal(a.entries, b.entries) for a, b in zip(back.matrices, spec.matrices))
    depth2 = cl.CocycleSpec(a30, 2, {(12, 3): np.eye(2)}, default=np.ones((2, 2)))
    np.testing.assert_array_equal(depth2.evaluate(cl.FiniteWord([12, 3], a30)).entries, np.eye(2))
    np.testing.assert_array_equal(depth2.evaluate(cl.FiniteWord([1, 2], a30)).entries,
                                  np.ones((2, 2)))


def test_empty_partial_product():
    spec = positive_spec()
    acc = cl.partial_product(spec, word("0101", 2), 2, 2)
    assert acc.log_norm == 0.0 and acc.length == 0
    np.testing.assert_array_equal(acc.unit, np.eye(2))


def test_doubled_prefix_diag_identity():
    # over the diagonal family, (u u) with u of length k gives diag(10^{2k}, 10^{-2k});
    # inserting the swap letter after each half collapses the product to the identity
    spec = nolimit_spec()
    for k in (3, 7, 15):
        u = cl.BernoulliSource([0.5, 0.5], seed=k).prefix(k).symbols
        doubled = cl.FiniteWord(np.concatenate([u, u]), A4)
        acc = cl.partial_product(spec, doubled, 0, 2 * k)
        expect = math.log(10.0 ** (2 * k) + 10.0 ** (-2 * k))
        assert acc.log_norm == pytest.approx(expect, rel=1e-12)
        swapped = cl.FiniteWord(np.concatenate([u, [2], u, [2]]), A4)
        acc2 = cl.partial_product(spec, swapped, 0, 2 * k + 2)
        assert acc2.log_norm == pytest.approx(math.log(2.0), abs=1e-12)  # ||I|| = 2
        np.testing.assert_allclose(acc2.unit, np.eye(2) / 2.0, atol=1e-15)


def test_cocycle_identity_log_norms_add(rng):
    spec = positive_spec()
    prefix = cl.BernoulliSource([0.5, 0.5], seed=5).prefix(600)
    for _ in range(40):
        n, k, m = sorted(rng.integers(0, 500, size=3).tolist())
        whole = cl.partial_product(spec, prefix, n, m)
        left = cl.partial_product(spec, prefix, n, k)
        right = cl.partial_product(spec, prefix, k, m)
        glue = math.log((left.unit @ right.unit).sum())
        assert whole.log_norm == pytest.approx(
            left.log_norm + right.log_norm + glue, abs=1e-9
        )
        np.testing.assert_allclose(
            whole.unit,
            (left.unit @ right.unit) / (left.unit @ right.unit).sum(),
            atol=1e-12,
        )


# --- traces -----------------------------------------------------------------


def test_trace_golden_ratio():
    spec = cl.CocycleSpec(A1, 1, {"0": [[1.0, 1.0], [1.0, 0.0]]})
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource("0", A1),
                              cl.geometric_checkpoints(8, 10_000))
    assert trace.slope_estimate() == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-6)
    assert trace.zero_index is None


def test_trace_nilpotent_zero_index():
    spec = cl.CocycleSpec(A1, 1, {"0": [[0.0, 1.0], [0.0, 0.0]]})
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource("0", A1), [1, 2, 4, 8])
    assert trace.zero_index == 2
    assert trace.values[0] == pytest.approx(math.log(1.0))
    assert np.all(trace.values[1:] == -np.inf)
    assert np.all(trace.exponents[1:] == -np.inf)
    assert trace.slope_estimate() == -np.inf


def test_trace_thue_morse_stabilizes():
    spec = positive_spec()
    trace = cl.lyapunov_trace(spec, tm_source(), [100_000, 200_000])
    e1, e2 = trace.exponents
    assert abs(e2 - e1) < 1e-3


def test_trace_envelope_invariant():
    spec = positive_spec()
    trace = cl.lyapunov_trace(spec, tm_source(), cl.geometric_checkpoints(8, 20_000))
    for n, v in zip(trace.checkpoints, trace.values):
        lo, hi = cl.trace_envelope(spec, int(n))
        assert lo - 1e-9 <= v <= hi + 1e-9


def test_trace_matches_stepwise_scaled_product():
    # the batched accumulator agrees with the naive one-step scaled product
    spec = nolimit_spec()
    prefix = cl.BernoulliSource([0.25, 0.25, 0.25, 0.25], seed=11).prefix(300)
    log_norm, support = naive_scaled_steps(
        [spec.evaluate(prefix[t : t + 1]).entries for t in range(300)])[-1]
    batched = cl.partial_product(spec, prefix, 0, 300)
    assert batched.log_norm == pytest.approx(log_norm, rel=1e-12)
    assert np.array_equal(batched.support, support)


def test_trace_shift_consistency_bounded():
    # |log||A^(n)(w)|| - log||A^(n)(shifted w)||| stays uniformly bounded
    # for strictly positive tables
    spec = positive_spec()
    prefix = tm_source().prefix(5000)
    c2 = max(abs(b) for b in cl.trace_envelope(spec, 1))
    c_min = min(cl.elem_constant(m) for m in spec.matrices)
    bound = 2 * (c2 + abs(math.log(c_min)))
    for n in (10, 100, 1000, 4000):
        a = cl.partial_product(spec, prefix, 0, n).log_norm
        b = cl.partial_product(spec, prefix, 1, 1 + n).log_norm
        assert abs(a - b) <= bound


def test_geometric_checkpoints():
    cps = cl.geometric_checkpoints(8, 1000)
    assert cps[0] >= 8 and cps[-1] == 1000
    assert np.all(np.diff(cps) > 0)


def test_trace_rejects_non_integer_checkpoints():
    spec = positive_spec()
    for cps in ([1.5, 10.9], [1, float("nan")], [1, float("inf")]):
        with pytest.raises(DomainError):
            cl.lyapunov_trace(spec, tm_source(), cps)
    whole = cl.lyapunov_trace(spec, tm_source(), [1.0, 10.0])
    assert np.array_equal(whole.values, cl.lyapunov_trace(spec, tm_source(), [1, 10]).values)


def test_trace_csv_format():
    spec = positive_spec()
    trace = cl.lyapunov_trace(spec, tm_source(), [10, 20])
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "n,log_norm,exponent,zero_flag"
    assert len(lines) == 3
    n, ln, ex, z = lines[1].split(",")
    assert int(n) == 10 and float(ln) > 0 and z == "0"


# --- quasi-additivity -------------------------------------------------------


def test_defect_bounded_for_positive_tables(rng):
    for d in (2, 3):
        table = {"0": random_positive(rng, d), "1": random_positive(rng, d)}
        spec = cl.CocycleSpec(A2, 1, table)
        prefix = cl.BernoulliSource([0.5, 0.5], seed=int(d)).prefix(800)
        pairs = [(int(n), int(m)) for n in (1, 3, 9, 40, 200) for m in (2, 5, 17, 300)]
        report = cl.quasi_additivity_defect(spec, prefix, pairs)
        c_min = min(cl.elem_constant(m) for m in spec.matrices)
        assert report.undefined == 0
        assert report.max_defect <= abs(math.log(c_min)) + 1e-9


def test_defect_scalar_cocycle_is_zero():
    spec = cl.CocycleSpec(A2, 1, {"0": [[2.0]], "1": [[0.5]]})
    prefix = cl.BernoulliSource([0.5, 0.5], seed=2).prefix(400)
    report = cl.quasi_additivity_defect(spec, prefix, [(1, 1), (5, 7), (64, 100)])
    assert report.max_defect <= 1e-12


def test_defect_zero_product_reported_undefined():
    spec = cl.CocycleSpec(A1, 1, {"0": [[0.0, 1.0], [0.0, 0.0]]})
    prefix = cl.PeriodicSource("0", A1).prefix(50)
    report = cl.quasi_additivity_defect(spec, prefix, [(1, 1), (2, 3)])
    assert report.undefined == 2
    assert report.max_defect is None


def test_defect_values_are_python_floats():
    prefix = cl.BernoulliSource([0.5, 0.5], seed=4).prefix(200)
    report = cl.quasi_additivity_defect(positive_spec(), prefix, [(1, 2), (3, 5), (8, 8)])
    assert all(type(pair.defect) is float for pair in report.pairs)
    assert type(report.max_defect) is float


def test_rank_one_family_defect_is_log_two():
    # entries f(w) * ones: norms are exactly multiplicative up to one
    # factor of 2, whatever f does
    depth = 4
    table = {}
    for idx in range(2**depth):
        bits = [(idx >> (depth - 1 - t)) & 1 for t in range(depth)]
        j = bits.index(1) if 1 in bits else depth
        f = math.exp(-(2.0**j))
        table[tuple(bits)] = [[f, f], [f, f]]
    spec = cl.CocycleSpec(A2, depth, table)
    prefix = cl.BernoulliSource([0.5, 0.5], seed=8).prefix(500)
    report = cl.quasi_additivity_defect(spec, prefix, [(1, 2), (10, 20), (100, 50)])
    for row in report.pairs:
        assert row.defect == pytest.approx(math.log(2), abs=1e-9)


# --- positivity condition ---------------------------------------------------


def test_positivity_witness_depth_one():
    spec = positive_spec()
    hit = cl.check_positivity_condition(spec, tm_source().prefix(64), max_ell=3)
    assert hit is not None
    assert hit.ell0 == 1 and hit.u.to_text() == "0" and hit.b == 1.0


def test_positivity_witness_needs_two_steps():
    table = {"0": [[1.0, 1.0], [0.0, 1.0]], "1": [[1.0, 0.0], [1.0, 1.0]]}
    spec = cl.CocycleSpec(A2, 1, table)
    sample = word("0011010", 2)
    hit = cl.check_positivity_condition(spec, sample, max_ell=3)
    assert hit.ell0 == 2
    assert hit.u.to_text() == "01"  # earliest two-step window with full support
    expected = np.array(table["0"]) @ np.array(table["1"])
    assert np.array_equal(hit.product.entries, expected) and hit.b == expected.min()
    exhaustive = cl.check_positivity_condition(spec, sample, max_ell=3, exhaustive=True)
    assert exhaustive.ell0 == 2


def test_positivity_no_witness_for_diagonal_family():
    spec = cl.CocycleSpec(A2, 1, {"0": DIAG, "1": DIAG})
    sample = cl.BernoulliSource([0.5, 0.5], seed=1).prefix(4096)
    assert cl.check_positivity_condition(spec, sample, max_ell=8) is None


@pytest.mark.parametrize("seed", range(6))
def test_observed_positivity_matches_naive_first_occurrence_scan(seed):
    rng = np.random.default_rng(seed)
    m, depth = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    table = {w: random_sparse_nonneg(rng, 3, density=0.45)
             for w in itertools.product(range(m), repeat=depth)}
    spec = cl.CocycleSpec(cl.Alphabet(m), depth, table)
    sample = cl.BernoulliSource(np.full(m, 1.0 / m), seed).prefix(400)
    for start in (0, 7):
        hit = cl.check_positivity_condition(spec, sample, max_ell=6, start=start)
        want = naive_observed_witness(spec, sample.symbols, 6, start)
        if want is None:
            assert hit is None
            continue
        assert hit.u.symbols.tolist() == want[0].tolist() and hit.ell0 == want[1]


@pytest.mark.parametrize("m,depth,d", itertools.product((2, 3), (1, 2, 3), (2, 3, 4)))
def test_positivity_modes_match_the_naive_oracles(m, depth, d):
    rng = np.random.default_rng([m, depth, d])
    max_ell = 4
    for trial in range(3):
        density = float(rng.uniform(0.3, 0.6))
        table = {w: random_sparse_nonneg(rng, d, density=density)
                 for w in itertools.product(range(m), repeat=depth)}
        table[(0,) * depth][0, 0] = 1.0  # the table needs one nonzero entry
        spec = cl.CocycleSpec(cl.Alphabet(m), depth, table)
        sample = cl.BernoulliSource(np.full(m, 1.0 / m), trial).prefix(300)
        want = naive_positivity(spec, max_ell)
        hit = cl.check_positivity_condition(spec, sample, max_ell, exhaustive=True)
        if want is None:
            assert hit is None
        else:
            assert (hit.u.symbols.tolist(), hit.ell0, hit.b) == (want[0].tolist(), want[1], want[2])
        for start in (0, 5):
            scan = naive_observed_witness(spec, sample.symbols, max_ell, start)
            hit = cl.check_positivity_condition(spec, sample, max_ell, start=start)
            if scan is None:
                assert hit is None
                continue
            b = float(naive_product(spec, scan[0], scan[1]).min())
            assert (hit.u.symbols.tolist(), hit.ell0, hit.b) == (scan[0].tolist(), scan[1], b)


def test_exhaustive_positivity_cost_follows_states_not_words():
    # every product has permutation support: 2 contexts x at most 4! supports,
    # where enumerating the words up to ell = 40 would take 2^41 of them
    rng = np.random.default_rng(5)
    table = {k: np.eye(4)[rng.permutation(4)] * rng.uniform(0.5, 2.0, (4, 4))
             for k in ("00", "01", "10", "11")}
    spec = cl.CocycleSpec(A2, 2, table)
    sample = cl.BernoulliSource([0.5, 0.5], seed=5).prefix(64)
    t0 = time.perf_counter()
    assert cl.check_positivity_condition(spec, sample, max_ell=40, exhaustive=True) is None
    assert time.perf_counter() - t0 < 1.0


def test_positivity_search_rejects_negative_start():
    with pytest.raises(DomainError, match="start must be non-negative"):
        cl.check_positivity_condition(positive_spec(), word("0110100110", 2), max_ell=3, start=-2)


# --- symbols outside the table's alphabet -----------------------------------


def _stray_symbol_calls(spec):
    a3 = cl.Alphabet(3)
    source = cl.PeriodicSource("0120", a3)
    prefix, cycle = source.prefix(64), cl.FiniteWord("012", a3)
    return {
        "evaluate": lambda: spec.evaluate(cl.FiniteWord("2" * spec.depth, a3)),
        "lyapunov_trace": lambda: cl.lyapunov_trace(spec, source, [8, 16]),
        "partial_product": lambda: cl.partial_product(spec, prefix, 0, 8),
        "periodic_exponent": lambda: cl.periodic_exponent(spec, cycle),
        "quasi_additivity_defect": lambda: cl.quasi_additivity_defect(spec, prefix, [(2, 2), (4, 4)]),
        "lambda_periodic": lambda: cl.lambda_estimate(spec, cl.PeriodicAtomicMeasure(cycle), 20),
        "lambda_bernoulli": lambda: cl.lambda_estimate(
            spec, cl.BernoulliMeasure([0.4, 0.3, 0.3]), 20, replicas=4, seed=1),
        "positivity": lambda: cl.check_positivity_condition(spec, prefix, max_ell=3),
        "select_marker": lambda: cl.select_marker(spec, prefix, k0=4, max_ell=3),
    }


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("entry", list(_stray_symbol_calls(positive_spec())))
def test_symbols_outside_the_table_alphabet_are_rejected(entry, depth):
    table = {w: random_positive(np.random.default_rng(len(w) + sum(w)), 2)
             for w in itertools.product(range(2), repeat=depth)}
    spec = cl.CocycleSpec(A2, depth, table)
    with pytest.raises(DomainError, match="symbol 2 outside the cocycle table's alphabet of size 2"):
        _stray_symbol_calls(spec)[entry]()


def test_table_alphabet_check_reads_the_symbols_each_factor_reads():
    spec = cl.CocycleSpec(A2, 2, {w: [[1.0]] for w in ("00", "01", "10", "11")})
    w = cl.FiniteWord("01012", cl.Alphabet(3))  # a 3-letter word over 0 and 1 until the end
    assert cl.partial_product(spec, w, 0, 3).log_norm == 0.0  # reads positions 0..3
    with pytest.raises(DomainError, match="symbol 2"):
        cl.partial_product(spec, w, 0, 4)  # the last window reaches position 4
    with pytest.raises(DomainError, match="symbol -1"):
        spec.factor_indices(np.array([0, -1, 1]), 0, 2)


# --- lambda estimates -------------------------------------------------------


def test_bernoulli_measure_rejects_nan_probability():
    with pytest.raises(DomainError):
        cl.BernoulliMeasure([NAN, 1.0])


def test_markov_measure_rejects_nan_probability():
    with pytest.raises(DomainError):
        cl.MarkovMeasure([[NAN, 1.0], [0.5, 0.5]])


def _scaled_power_log_norm(A: np.ndarray, n: int) -> float:
    acc, log = np.array(A, dtype=float), 0.0
    out = np.eye(A.shape[0])
    out_log = 0.0
    for _ in range(n):
        out = out @ A
        s = out.sum()
        out /= s
        out_log += math.log(s)
    return out_log


def test_lambda_periodic_matches_direct_power():
    spec = cl.CocycleSpec(A1, 1, {"0": [[1.0, 1.0], [1.0, 0.0]]})
    measure = cl.PeriodicAtomicMeasure(word("0", 1))
    for n in (5, 50, 500):
        est = cl.lambda_estimate(spec, measure, n=n, replicas=99, seed=123)
        expect = _scaled_power_log_norm(np.array([[1.0, 1.0], [1.0, 0.0]]), n) / n
        assert est.mean == pytest.approx(expect, rel=1e-12)
        assert est.stderr == 0.0
        again = cl.lambda_estimate(spec, measure, n=n, replicas=7, seed=999)
        assert again.mean == est.mean  # seed and replica independent


def test_lambda_symmetric_scalars_centered_at_zero():
    spec = cl.CocycleSpec(A2, 1, {"0": [[2.0]], "1": [[0.5]]})
    est = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), n=2000, replicas=64, seed=4)
    assert abs(est.mean) <= 3 * est.stderr


def test_lambda_seed_stability():
    spec = positive_spec()
    a = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), n=2000, replicas=80, seed=1)
    b = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), n=2000, replicas=80, seed=2)
    assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)
    assert not a.mixed_support


def test_lambda_mixed_support_flag():
    table = {"0": [[0.0, 1.0], [0.0, 0.0]], "1": [[1.0, 1.0], [1.0, 1.0]]}
    spec = cl.CocycleSpec(A2, 1, table)
    est = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), n=50, replicas=20, seed=0)
    assert est.mixed_support and est.minus_inf_count > 0


def test_default_defect_pairs():
    pairs = cl.default_defect_pairs(100)
    assert pairs and all(n + m <= 100 and n >= 1 and m >= 1 for n, m in pairs)


def test_measure_samplers_replay_sources():
    n, seed = 5_000, 17
    bern = cl.BernoulliMeasure([0.3, 0.7])
    assert bern.sample_symbols(n, seed, 0).tobytes() == \
        cl.BernoulliSource([0.3, 0.7], seed).prefix(n).to_bytes()
    markov = cl.MarkovMeasure([[0.9, 0.1], [0.4, 0.6]])
    assert markov.sample_symbols(n, seed, 0).tobytes() == \
        cl.MarkovSource(markov.transition, markov.stationary, seed).prefix(n).to_bytes()
    assert bern.sample_symbols(n, seed, 1).tobytes() != bern.sample_symbols(n, seed, 0).tobytes()


@pytest.mark.parametrize("stationary", [[NAN, 1.0], [-0.5, 1.5], [1.0]])
def test_markov_measure_rejects_bad_explicit_stationary_vector(stationary):
    with pytest.raises(DomainError):
        cl.MarkovMeasure([[0.5, 0.5], [0.5, 0.5]], stationary=stationary)


def test_markov_measure_rejects_several_closed_classes():
    for P in (np.eye(2), [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
              [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
        with pytest.raises(DomainError):
            cl.MarkovMeasure(P)
    explicit = cl.MarkovMeasure(np.eye(2), stationary=[0.5, 0.5])
    assert explicit.stationary.tolist() == [0.5, 0.5]


def test_markov_measure_transient_state_gets_no_mass():
    measure = cl.MarkovMeasure([[0.5, 0.5], [0.0, 1.0]])
    assert measure.stationary.tolist() == [0.0, 1.0]


def test_markov_measure_irreducible_stationary_vector():
    # reference: the eigenvector of P^T nearest eigenvalue 1, normalised
    for P in ([[0.9, 0.1], [0.4, 0.6]], [[0.0, 1.0], [1.0, 0.0]],
              [[0.2, 0.5, 0.3], [0.0, 0.1, 0.9], [0.7, 0.0, 0.3]]):
        P = np.asarray(P)
        vals, vecs = np.linalg.eig(P.T)
        pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
        assert np.array_equal(cl.MarkovMeasure(P).stationary, pi / pi.sum())


def test_cylinder_mass_consistency():
    models = [
        cl.BernoulliMeasure([0.3, 0.7]),
        cl.MarkovMeasure([[0.9, 0.1], [0.4, 0.6]]),
        cl.PeriodicAtomicMeasure(word("0110", 2)),
    ]
    for model in models:
        for text in ("0", "01", "011", "0110"):
            u = word(text, 2)
            total = sum(
                model.cylinder_mass(cl.FiniteWord(list(u.symbols) + [s], A2))
                for s in range(2)
            )
            assert total == pytest.approx(model.cylinder_mass(u), abs=1e-12)
    atomic = cl.PeriodicAtomicMeasure(word("0110", 2))
    deep = sum(
        atomic.cylinder_mass(cl.FiniteWord(atomic.rotation_prefix(t, 6), A2))
        for t in range(4)
    )
    assert deep == pytest.approx(1.0, abs=1e-12)
