"""Contracts of the blocked product kernel: exact first zeros wherever they
fall against the block grid, checkpoints on and off block edges and at
every position, entry ranges that shrink the block to one factor, the
block-size rule, dense d = 16 tables, batches that mix zero and nonzero
rows, 60-digit fidelity, a memory bound, thread safety, folded word
tables that give the positional results byte for byte (random, Thue-Morse,
periodic and rotation rows), the word count of a Thue-Morse trace, and
results that do not depend on where chunks split."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import cocycles
from cocyclelab.errors import UnderflowError_

from conftest import (
    assert_same_bytes,
    mp_log_entry_sum,
    naive_first_zero,
    naive_scaled_steps,
    random_positive,
    unfolded_reduce,
)

A2, A3 = cl.Alphabet(2), cl.Alphabet(3)
SHIFT = [[0.0, 1.0], [0.0, 0.0]]  # nilpotent: two in a row give zero


def stepwise_log_norms(spec, symbols, checkpoints):
    """Reference log-norms through the naive one-step scaled product."""
    steps = range(1, max(checkpoints) + 1)
    logs = naive_scaled_steps([spec.evaluate(cl.FiniteWord(symbols[t - 1 : t - 1 + spec.depth],
                                                           spec.alphabet)).entries for t in steps])
    return np.array([logs[t - 1][0] for t in steps if t in checkpoints])


def shift_spec(rng):
    return cl.CocycleSpec(A3, 1, {"0": random_positive(rng, 2), "1": SHIFT,
                                  "2": np.zeros((2, 2))})


def word_with_zero_at(t, n, letter):
    """The positive letter everywhere except a zero completed at step t:
    the nilpotent pair at t-1, t, or the zero letter alone at t."""
    syms = np.zeros(n, dtype=np.uint8)
    if letter == "2":
        syms[t - 1] = 2
    else:
        syms[t - 2 : t] = 1
    return syms


@pytest.mark.parametrize("where", ["first", "block_end", "block_start", "mid_block"])
def test_first_zero_is_exact_against_the_block_grid(rng, where):
    spec = shift_spec(rng)
    B = spec._table.block
    t, letter = {"first": (1, "2"), "block_end": (B, "1"), "block_start": (B + 1, "1"),
                 "mid_block": (B + B // 2 + 3, "1")}[where]
    n = 3 * B + 5
    syms = word_with_zero_at(t, n, letter)
    assert naive_first_zero(spec, syms, n) == t
    source = cl.PeriodicSource(cl.FiniteWord(syms, A3), A3)
    cps = np.array(sorted({1, max(1, t - 1), t, t + 1, n}))
    trace = cl.lyapunov_trace(spec, source, cps)
    assert trace.zero_index == t
    assert np.all(np.isneginf(trace.values[cps >= t]))
    live = cps < t
    if live.any():
        ref = stepwise_log_norms(spec, syms, cps[live].tolist())
        np.testing.assert_allclose(trace.values[live], ref, rtol=1e-12)
    whole = cl.partial_product(spec, cl.FiniteWord(syms, A3), 0, n)
    assert whole.is_zero and whole.log_norm == -np.inf


def test_checkpoints_on_and_off_block_edges(rng):
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, 3), "1": random_positive(rng, 3)})
    B = spec._table.block
    n = 5 * B + 7  # not a multiple of B
    cps = sorted({1, B - 1, B, B + 1, 2 * B, 3 * B - 5, 4 * B + 1, n})
    source = cl.BernoulliSource([0.5, 0.5], seed=5)
    syms = source.prefix(n).symbols
    trace = cl.lyapunov_trace(spec, source, cps)
    assert trace.zero_index is None
    np.testing.assert_allclose(trace.values, stepwise_log_norms(spec, syms, cps), rtol=1e-12)
    # the same products taken one range at a time
    for c in cps:
        got = cl.partial_product(spec, cl.FiniteWord(syms, A2), 0, c).log_norm
        assert got == pytest.approx(trace.values[cps.index(c)], rel=1e-12)


def test_entry_range_near_1e300_forces_single_factor_blocks():
    tiny = 1e-299
    spec = cl.CocycleSpec(A2, 1, {"0": [[1.0, tiny], [tiny, 1.0]],
                                  "1": [[1.0, 1.0], [tiny, 1.0]]})
    assert spec._table.block == 1
    syms = cl.BernoulliSource([0.5, 0.5], seed=3).prefix(40).symbols
    factors = [spec.matrices[s].entries for s in syms]
    got = cl.partial_product(spec, cl.FiniteWord(syms, A2), 0, 40)
    oracle = mp_log_entry_sum(factors)
    assert abs(got.log_norm - oracle) <= 1e-12 * abs(oracle)
    assert got.support.all()


def test_entry_sum_collapse_raises_underflow():
    # after "0 1" the entry (0, 1) is 1e-400, structurally nonzero but a
    # float zero; the projection "2" then leaves nothing else
    spec = cl.CocycleSpec(A3, 1, {"0": [[1.0, 1e-200], [0.0, 1e-200]],
                                  "1": [[1.0, 0.0], [0.0, 1e-200]],
                                  "2": [[0.0, 0.0], [0.0, 1.0]]})
    w = cl.FiniteWord("012", A3)
    with pytest.raises(UnderflowError_):
        cl.partial_product(spec, w, 0, 3)
    with pytest.raises(UnderflowError_):
        cl.lyapunov_trace(spec, cl.PeriodicSource(w, A3), [1, 2, 3])
    # a structurally nonzero entry that is a float zero in the unit
    probe = cl.CocycleSpec(cl.Alphabet(1), 1, {"0": np.diag([1.0, 1e-200])})
    with pytest.raises(UnderflowError_):
        cl.partial_product(probe, cl.FiniteWord("00", cl.Alphabet(1)), 0, 2).unit_matrix


def test_block_size_from_entry_floor_and_gather_budget():
    budget = cocycles._GATHER_BYTES
    assert cocycles._block_size(0.5, 2) == 512  # 0.5^1024 < 1e-300 <= 0.5^512
    def support_prefix_bytes(B, d):  # a block's supports and their doubling steps
        return 8 * B * d * d * B.bit_length()

    for d in (2, 3, 16):
        B = cocycles._block_size(1.0, d)  # no floor: the budget alone
        assert B & (B - 1) == 0
        assert support_prefix_bytes(B, d) <= budget < support_prefix_bytes(2 * B, d)
    assert cocycles._block_size(1.0, 2) == 2048


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("variant", ["dense", "nilpotent"])
def test_checkpoint_at_every_position(rng, d, variant):
    # letters 0 and 1 are positive, letter 2 strictly upper triangular:
    # d of them in a row give zero, here completed mid-block
    spec = cl.CocycleSpec(A3, 1, {"0": random_positive(rng, d, 1.0, 2.0),
                                  "1": random_positive(rng, d, 1.0, 2.0),
                                  "2": np.triu(random_positive(rng, d, 1.0, 2.0), k=1)})
    B = spec._table.block
    assert B >= (256 if d == 2 else 64)
    n = 3 * B + 5
    syms = cl.BernoulliSource([0.5, 0.5], seed=d).prefix(n).symbols.copy()
    t = B + B // 2 + 3 if variant == "nilpotent" else None
    if t:
        syms[t - d : t] = 2
    assert naive_first_zero(spec, syms, n) == t
    cps = np.arange(1, n + 1)
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource(cl.FiniteWord(syms, A3), A3), cps)
    assert trace.zero_index == t
    live = n if t is None else t - 1
    np.testing.assert_allclose(trace.values[:live],
                               stepwise_log_norms(spec, syms, range(1, live + 1)), rtol=1e-12)
    assert np.all(np.isneginf(trace.values[live:]))


def test_entry_sum_collapse_inside_a_checkpoint_prefix():
    # after two blocks of "0" (B = 256) the running unit's (1, 1) entry is
    # about 1e-512, structurally nonzero but a float zero; the projection
    # "1", factor 522 and ten factors into the third block, leaves nothing
    spec = cl.CocycleSpec(A2, 1, {"0": np.diag([1.0, 0.1]), "1": np.diag([0.0, 1.0])})
    assert spec._table.block == 256
    syms = np.zeros(600, dtype=np.uint8)
    syms[521] = 1
    source = cl.PeriodicSource(cl.FiniteWord(syms, A2), A2)
    with pytest.raises(UnderflowError_) as err:
        cl.lyapunov_trace(spec, source, [100, 522, 600])
    assert err.value.position == 522
    # without a checkpoint there, at the end of the (padded) block
    with pytest.raises(UnderflowError_) as err:
        cl.partial_product(spec, cl.FiniteWord(syms, A2), 0, 600)
    assert err.value.position == 600


def test_checkpoint_prefix_after_a_tiny_unit_keeps_its_range():
    # after block 0 (B = 256) the running unit is about diag(1, 1e-256);
    # the raw prefixes of block 1 at the checkpoints have entry sums near
    # 3e-63 and 7e-105, so their products with that unit are subnormal or
    # zero unless the prefixes are normalised first
    spec = cl.CocycleSpec(A2, 1, {"0": np.diag([1.0, 0.1]), "1": np.diag([0.0, 1.0])})
    assert spec._table.block == 256
    syms = np.zeros(400, dtype=np.uint8)
    syms[256] = 1
    cps = [317, 357]
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource(cl.FiniteWord(syms, A2), A2), cps)
    assert trace.zero_index is None
    np.testing.assert_allclose(trace.values, stepwise_log_norms(spec, syms, cps), rtol=1e-12)


def test_trace_memory_stays_within_two_gather_budgets(rng):
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, 16), "1": random_positive(rng, 16)})
    n = 10_000
    cps = cl.geometric_checkpoints(8, n)
    source = cl.BernoulliSource([0.5, 0.5], seed=9)
    tracemalloc.start()
    try:
        cl.lyapunov_trace(spec, source, cps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cocycles._GATHER_BYTES


@pytest.mark.parametrize("second", ["dense", "nilpotent"])
def test_d16_tables(rng, second):
    # the nilpotent letter is strictly upper triangular: 16 in a row give zero
    other = random_positive(rng, 16)
    if second == "nilpotent":
        other = np.triu(other, k=1)
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, 16), "1": other})
    n = 700
    syms = cl.BernoulliSource([0.7, 0.3], seed=8).prefix(n).symbols.copy()
    if second == "nilpotent":
        syms[316], syms[317:333] = 0, 1  # the zero lands mid-block, at 333
    zero = naive_first_zero(spec, syms, n)
    assert zero == (333 if second == "nilpotent" else None)
    cps = [1, 63, 64, 65, 300, 332, 333, n]
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource(cl.FiniteWord(syms, A2), A2), cps)
    assert trace.zero_index == zero
    live = [c for c in cps if zero is None or c < zero]
    np.testing.assert_allclose(trace.values[: len(live)],
                               stepwise_log_norms(spec, syms, live), rtol=1e-12)
    assert np.all(np.isneginf(trace.values[len(live):]))
    head = [spec.matrices[s].entries for s in syms[:40]]
    got = cl.partial_product(spec, cl.FiniteWord(syms, A2), 0, 40).log_norm
    assert abs(got - mp_log_entry_sum(head)) <= 1e-12 * abs(got)


@pytest.mark.parametrize("d", [2, 16])
def test_replica_batch_mixing_zero_and_nonzero_rows(rng, d):
    # the second letter squares to zero and is rare, so some replicas never
    # see it twice in a row; at d = 16 the batch also spans several row chunks
    nil = np.zeros((d, d))
    nil[: d // 2, d // 2 :] = random_positive(rng, d // 2)
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, d), "1": nil})
    measure = cl.BernoulliMeasure([0.97, 0.03])
    n, replicas = 150, 24
    est = cl.lambda_estimate(spec, measure, n, replicas=replicas, seed=4)
    zeros = 0
    for rep in range(replicas):
        syms = measure.sample_symbols(n, 4, rep)
        one = cl.partial_product(spec, cl.FiniteWord(syms, A2), 0, n)
        expect_zero = naive_first_zero(spec, syms, n) is not None
        zeros += expect_zero
        assert one.is_zero == expect_zero
        if expect_zero:
            assert est.values[rep] == -np.inf
        else:
            assert est.values[rep] == pytest.approx(one.log_norm / n, rel=1e-13)
    assert 0 < zeros < replicas and est.minus_inf_count == zeros


def distinct_pairs_word(count):
    """Digits whose first count adjacent pairs are all distinct, so a
    depth-2 table over them can give every position its own factor: walk
    from 0 back to 0 with step 1, then with step 2, and so on (each step
    is its own difference mod 10)."""
    syms, step = [0], 1
    while len(syms) <= count:
        syms.append((syms[-1] + step) % 10)
        step += syms[-1] == 0
    return np.array(syms, dtype=np.uint8)


def factor_chain_spec(factors):
    syms = distinct_pairs_word(len(factors))
    table = {f"{a}{b}": f for a, b, f in zip(syms[:-1], syms[1:], factors)}
    spec = cl.CocycleSpec(cl.Alphabet(10), 2, table, default=np.ones_like(factors[0]))
    return spec, cl.FiniteWord(syms, cl.Alphabet(10))


def test_partial_product_matches_60_digit_oracle():
    # the trials of acceptance criterion 12, through partial_product
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(500):
        d = 2 + trial % 2
        factors = [rng.uniform(0.1, 2.0, (d, d)) for _ in range(30)]
        spec, w = factor_chain_spec(factors)
        got = cl.partial_product(spec, w, 0, 30)
        oracle = mp_log_entry_sum(factors)
        worst = max(worst, abs(got.log_norm - oracle) / abs(oracle))
    assert worst < 1e-9
    for trial in range(500):
        chain = [rng.uniform(0.5, 2.0, (3, 3)) * (rng.random((3, 3)) < 0.45) for _ in range(8)]
        spec, w = factor_chain_spec(chain)
        got = cl.partial_product(spec, w, 0, 8)
        assert got.is_zero == (naive_first_zero(spec, w.symbols, 8) is not None)
        assert not got.is_zero or got.log_norm == -np.inf


def test_concurrent_calls_match_serial_runs(rng):
    # the kernel keeps no state between calls, so threads interleaving
    # (switching every 10 us, 4 threads on fewer cores) change nothing
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, 4), "1": random_positive(rng, 4)})
    measure = cl.BernoulliMeasure([0.5, 0.5])
    cps = cl.geometric_checkpoints(8, 5000)

    def trace(seed):
        return cl.lyapunov_trace(spec, cl.BernoulliSource([0.5, 0.5], seed), cps).values

    def lam(seed):
        return cl.lambda_estimate(spec, measure, 300, replicas=8, seed=seed).values

    jobs = [(trace, s) for s in range(6)] + [(lam, s) for s in range(6)]
    serial = [fn(s) for fn, s in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn, s) for fn, s in jobs for _ in range(3)]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, got in enumerate(threaded):
        assert np.array_equal(got, serial[k // 3])


@pytest.mark.parametrize("d, n, replicas", [(16, 300, 20), (2, 200_000, 3)])
def test_row_groups_keep_indices_and_gathers_within_budget(rng, monkeypatch, d, n, replicas):
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, d), "1": random_positive(rng, d)})
    idx = spec.factor_indices(cl.BernoulliSource([0.5, 0.5], seed=d).prefix(n).symbols, 0, n)
    top = min(1024, n // 2)
    starts = rng.integers(0, n - top, 400)
    stops = starts + rng.integers(1, top + 1, 400)

    def run():
        lam = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]), n, replicas, seed=1)
        return lam.values, cocycles._range_log_norms(spec._table, idx, starts, stops)

    budget = cocycles._GATHER_BYTES
    shapes = []
    inner = cocycles._reduce
    with monkeypatch.context() as m:
        m.setattr(cocycles, "_reduce", lambda table, rows, *rest: (
            shapes.append(rows.shape), inner(table, rows, *rest))[1])
        grouped = run()
    assert max(R for R, _ in shapes) > 1 and len(shapes) > 1 + replicas
    for R, width in shapes:
        B = min(spec._table.block, 1 << (width - 1).bit_length())
        # one row is reduced alone even when its indices alone pass the budget
        assert R == 1 or (R * width * 8 <= budget and R * B * d * d * 8 <= budget)
    with monkeypatch.context() as m:
        m.setattr(cocycles, "_GATHER_BYTES", 1 << 40)  # every batch in one piece
        whole = run()
    for got, ref in zip(grouped, whole):
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def word_table_rows(spec, n, dying, seed):
    """Factor rows (3, n) over words of the live letters 0..m-2, and the
    step at which the last row dies: if `dying`, d factors of the killer
    word (the last table key, strictly upper triangular) in a row complete
    a zero at t = B + 3, inside a word of every level >= 1."""
    rng = np.random.default_rng(seed)
    m, r, d = spec.alphabet.size, spec.depth, spec.dim
    syms = rng.integers(0, max(m - 1, 1), (3, n + r - 1)).astype(np.uint8)
    t = spec._table.block + 3 if dying else None
    if dying:
        syms[-1, t - d : t + r - 1] = m - 1
    return spec.factor_indices(syms, 0, n), t


def word_table_spec(rng, d, depth, m):
    keys = ["".join(map(str, w)) for w in np.ndindex(*(m,) * depth)]
    table = {key: random_positive(rng, d, 1.0, 2.0) for key in keys}
    if m > 1:  # the killer: d of it in a row give zero
        table[keys[-1]] = np.triu(random_positive(rng, d, 1.0, 2.0), k=1) if d > 1 else [[0.0]]
    return cl.CocycleSpec(cl.Alphabet(m), depth, table)


@pytest.mark.parametrize("d, depth, m", [(1, 1, 2), (1, 3, 2), (2, 1, 2), (2, 3, 2),
                                          (4, 1, 3), (4, 3, 2), (16, 1, 2), (16, 3, 1)])
def test_word_tables_give_the_factor_by_factor_results_bit_for_bit(d, depth, m):
    rng = np.random.default_rng([d, depth, m])
    spec = word_table_spec(rng, d, depth, m)
    table = spec._table
    B = table.block
    edges = [e for j in range(B.bit_length()) for e in ((1 << j) - 1, (1 << j) + 1)]
    folded = 0
    for n in (3, 33, 3 * B + 5):  # no multiple of B, nor of most word lengths
        dying = m > 1 and n > B + 3
        rows, t = word_table_rows(spec, n, dying, seed=n)
        cps = np.unique(np.concatenate([rng.integers(1, n + 1, 40),
                                        [1, 3, B - 1, B + 1, B + 3, n], edges]))
        cps = cps[(cps >= 1) & (cps <= n)]
        got = cocycles._reduce(table, rows, cps)
        assert_same_bytes(got, unfolded_reduce(table, rows, cps))
        zero = got[1]
        assert zero[-1] == (t or 0) and not zero[:-1].any()
        folded = max(folded, len(fold_words(table, rows)) - 1)
    assert folded >= 1


def fold_words(table, rows):
    """The word tables `_reduce` folds for the rows."""
    B = cocycles._row_block(table, rows.shape[1])
    return cocycles._fold(table, rows, B, -(-rows.shape[1] // B), None)[0]


def test_a_level_past_the_byte_budget_is_not_folded():
    # 64 letters at d = 8 over 50,000 uniform symbols: level 1 holds about
    # 4096 distinct pairs of 512 bytes, past _GATHER_BYTES
    rng = np.random.default_rng(64)
    spec = cl.CocycleSpec(cl.Alphabet(64), 1,
                          {str(k): random_positive(rng, 8, 1.0, 2.0) for k in range(64)})
    table = spec._table
    rows = rng.integers(0, 64, (1, 50_000))
    B = cocycles._row_block(table, rows.shape[1])
    u = table.pad + 1  # the level-0 words: the units and the identity pad
    assert 2 * u * u <= -(-rows.shape[1] // B) * (B // 2)  # the positions rule would fold
    assert len(fold_words(table, rows)) == 1
    cps = [1, 777, 50_000]
    assert_same_bytes(cocycles._reduce(table, rows, cps), unfolded_reduce(table, rows, cps))


def tm_rows(spec, n):
    source = cl.SubstitutionSource({0: "01", 1: "10"}, 0, spec.alphabet)
    return spec.factor_indices(source.prefix(n + spec.depth - 1).symbols, 0, n)[None]


def periodic_rows(spec, n):
    cycle = cl.FiniteWord("0010110", spec.alphabet).symbols
    return cocycles._rotation_rows(cocycles._period_indices(spec, cycle)[None], n, [3])


def rotation_rows(spec, n):  # every rotation of two periods, one row each
    cycles = [cl.FiniteWord(text, spec.alphabet).symbols for text in ("0010110", "0111011")]
    periods = np.stack([cocycles._period_indices(spec, c) for c in cycles])
    return cocycles._rotation_rows(periods, n, np.arange(periods.size))


@pytest.mark.parametrize("rows_of", [tm_rows, periodic_rows, rotation_rows])
@pytest.mark.parametrize("d, depth", [(2, 1), (4, 3), (16, 1), (2, 9)])
def test_folded_words_of_structured_rows_match_the_positional_path(rng, rows_of, d, depth):
    spec = word_table_spec(rng, d, depth, 2)
    table = spec._table
    B = table.block
    for n in (B // 2 + 3, 5 * B + 7):
        rows = rows_of(spec, n)
        cps = np.unique(np.concatenate([rng.integers(1, n + 1, 30), [1, B, n]]))
        cps = cps[cps <= n]
        assert_same_bytes(cocycles._reduce(table, rows, cps), unfolded_reduce(table, rows, cps))
    if depth < 9:  # the 2^9 + 1 units of the depth-9 table are too many to fold here
        assert len(fold_words(table, rows)) > 1


def test_thue_morse_d16_trace_forms_at_most_three_words_a_level(rng, monkeypatch):
    spec = cl.CocycleSpec(A2, 1, {"0": random_positive(rng, 16), "1": random_positive(rng, 16)})
    B = spec._table.block
    n = 125 * B + B // 2  # the last block half padding: one pad word a level
    folds, inner = [], cocycles._fold
    monkeypatch.setattr(cocycles, "_fold", lambda *args: folds.append(inner(*args)) or folds[-1])
    source = cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)
    cl.lyapunov_trace(spec, source, cl.geometric_checkpoints(8, n))
    (words, ids, _, _), = folds
    assert len(words) == B.bit_length()  # folded up to whole blocks
    assert [len(w) for w in words] == [3] * len(words)
    assert ids.shape == (1, -(-n // B))


@pytest.mark.parametrize("d", [2, 4, 16])
def test_results_do_not_depend_on_chunk_boundaries(monkeypatch, d):
    rng = np.random.default_rng(d)
    spec = word_table_spec(rng, d, 1, 2)
    B = spec._table.block
    n = 9 * B + 5
    rows, t = word_table_rows(spec, n, True, seed=d)
    cps = np.unique(rng.integers(1, n + 1, 60))
    whole = cocycles._reduce(spec._table, rows, cps)
    assert whole[1][-1] == t
    for blocks in (1, 2, 3):  # blocks per chunk
        monkeypatch.setattr(cocycles, "_chunk_blocks", lambda *sizes: blocks)
        assert_same_bytes(cocycles._reduce(spec._table, rows, cps), whole)
