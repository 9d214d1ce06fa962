import dataclasses
import json
import math

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab.errors import (
    ConditionUnsatisfiedError,
    DomainError,
    InsufficientContextError,
    UnderflowError_,
)

from conftest import word

A1, A2, A4 = cl.Alphabet(1), cl.Alphabet(2), cl.Alphabet(4)

POSITIVE_PAIR = {"0": [[2.0, 1.0], [1.0, 1.0]], "1": [[1.0, 1.0], [1.0, 2.0]]}


def positive_spec():
    return cl.CocycleSpec(A2, 1, POSITIVE_PAIR)


def tm_prefix(n):
    return cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2).prefix(n)


# --- marker selection -------------------------------------------------------


def test_select_marker_depth_one_positive():
    spec = positive_spec()
    prefix = tm_prefix(64)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=3)
    assert sel.u.to_text() == "0" and sel.ell0 == 1
    assert sel.b == 1.0  # min entry of the first window's matrix
    assert sel.v == prefix[:4]  # z is the first occurrence of u, at position 0
    assert sel.k0 == 4 and len(sel.v) == 4
    assert sel.shift_exits_u is True
    assert sel.c1 == pytest.approx(0.25)


def test_select_marker_nested_markers():
    spec = positive_spec()
    prefix = tm_prefix(256)
    sels = [cl.select_marker(spec, prefix, k0=k, max_ell=3) for k in (4, 8, 16)]
    for small, big in zip(sels, sels[1:]):
        assert big.v[: len(small.v)] == small.v  # nested prefixes of the same z
        assert cl.occurrences(big.v, small.u, start=0).size > 0


def test_select_marker_clamps_k0_to_u():
    table = {"0": [[1.0, 1.0], [0.0, 1.0]], "1": [[1.0, 0.0], [1.0, 1.0]]}
    spec = cl.CocycleSpec(A2, 1, table)
    prefix = cl.BernoulliSource([0.5, 0.5], seed=6).prefix(128)
    sel = cl.select_marker(spec, prefix, k0=1, max_ell=4)
    assert sel.k0 == len(sel.u) == 2  # clamped up to |u|


def test_select_marker_condition_unsatisfied():
    spec = cl.CocycleSpec(A2, 1, {"0": [[10.0, 0.0], [0.0, 0.1]],
                                  "1": [[10.0, 0.0], [0.0, 0.1]]})
    with pytest.raises(ConditionUnsatisfiedError):
        cl.select_marker(spec, cl.BernoulliSource([0.5, 0.5], seed=1).prefix(512),
                         k0=4, max_ell=6)


# --- the return formula -----------------------------------------------------


def test_return_estimate_periodic_matches_spectral_radius():
    spec = positive_spec()
    prefix = cl.PeriodicSource("01", A2).prefix(4000)
    sel = cl.select_marker(spec, prefix, k0=2, max_ell=2)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=8)
    exact = cl.periodic_exponent(spec, word("01", 2))
    assert abs(est.estimate - exact) <= est.correction_band + 1e-9
    assert est.long_mass == 0.0
    assert not est.mixed_support


def test_return_estimate_cutoff_below_everything():
    spec = positive_spec()
    prefix = cl.PeriodicSource("01", A2).prefix(1000)
    sel = cl.select_marker(spec, prefix, k0=2, max_ell=2)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=1)
    # every return word has length 2 > cutoff: only the initial block counts
    assert est.short_sum == pytest.approx(
        cl.partial_product(spec, prefix, 0, 2).log_norm, rel=1e-12
    )
    assert est.long_mass == pytest.approx((est.tau_i - 2) / est.tau_i)


def test_return_estimate_vs_trace_thue_morse():
    spec = positive_spec()
    n = 100_000
    src = cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)
    prefix = src.prefix(n)
    sel = cl.select_marker(spec, prefix, k0=8, max_ell=3)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=64)
    trace = cl.lyapunov_trace(spec, src, [n])
    assert abs(est.estimate - float(trace.exponents[-1])) <= est.correction_band + 5e-2
    assert not est.mixed_support  # never fires for strictly positive tables


def test_estimate_sandwich_invariant():
    spec = positive_spec()
    src = cl.BernoulliSource([0.5, 0.5], seed=12)
    prefix = src.prefix(50_000)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=32)
    trace = cl.lyapunov_trace(spec, src, [est.tau_i])
    c2 = cl.trace_envelope(spec, 1)[1]
    slack = est.correction_band + c2 * est.long_mass * (1 + est.cutoff / est.tau_i)
    assert abs(float(trace.exponents[-1]) - est.estimate) <= slack + 1e-9


def test_long_mass_monotone_refinement():
    spec = positive_spec()
    prefix = cl.BernoulliSource([0.5, 0.5], seed=13).prefix(30_000)
    sel = cl.select_marker(spec, prefix, k0=3, max_ell=2)
    masses = [
        cl.return_formula_estimate(spec, prefix, sel, cutoff=M).long_mass
        for M in (1, 2, 4, 8, 16, 32)
    ]
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_estimate_json_document():
    spec = positive_spec()
    prefix = tm_prefix(20_000)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=32)
    text = cl.textform.json_text(est)
    doc = json.loads(text)
    # every field of the estimate and of its selection, words as their text
    assert text.endswith("}\n")
    assert set(doc) == {f.name for f in dataclasses.fields(est)}
    assert doc["selection"] == {**{f.name: getattr(sel, f.name) for f in dataclasses.fields(sel)},
                                "u": sel.u.to_text(), "v": sel.v.to_text()}
    counts = sum(row["count"] for row in doc["histogram"].values())
    assert counts == est.i


def test_block_log_norms_send_only_the_distinct_blocks(monkeypatch):
    # 16,666 return blocks (the prefix block and 16,665 return words), 4 distinct
    spec = positive_spec()
    prefix = tm_prefix(200_000)
    sel = cl.select_marker(spec, prefix, k0=8, max_ell=4)
    sent, inner = [], cl.returns._range_log_norms
    monkeypatch.setattr(cl.returns, "_range_log_norms", lambda table, idx, starts, stops: (
        sent.append(len(starts)) or inner(table, idx, starts, stops)))
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=64)
    assert est.i == 16_665 and sent == [4]


def test_return_estimate_drops_a_last_return_inside_the_depth_lookahead():
    # a hand-built marker shorter than the depth: the factor at the return
    # at 16 reads symbols 16..18, past the 17-symbol prefix
    rng = np.random.default_rng(3)
    spec = cl.CocycleSpec(A2, 3, {"".join(map(str, w)): rng.uniform(0.5, 2.0, (2, 2))
                                  for w in np.ndindex(2, 2, 2)})
    prefix = word("00110101101001101", 2)
    one = word("1", 2)
    sel = cl.MarkerSelection(one, 1, 0.5, 2, one, 1, 0.5, None)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=64)
    assert (est.i, est.tau_i) == (7, 14)
    shorter = cl.return_formula_estimate(spec, prefix[:16], sel, 64)
    assert cl.textform.json_text(est) == cl.textform.json_text(shorter)
    taus = [0, 2, 3, 5, 7, 8, 10, 13, 14]
    blocks = [cl.partial_product(spec, prefix, a, b).log_norm for a, b in zip(taus, taus[1:])]
    assert est.short_sum == pytest.approx(math.fsum(blocks), rel=1e-13)


# --- quasi-multiplicativity -------------------------------------------------


def test_quasi_multiplicativity_ratios_pinned():
    spec = positive_spec()
    prefix = tm_prefix(5_000)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    report = cl.quasi_multiplicativity_check(spec, prefix, sel, ell=8)
    assert report.max_ratio <= 1.0 + 1e-9
    assert report.min_ratio >= report.c1 - 1e-9


def test_quasi_multiplicativity_scalar_is_exact():
    spec = cl.CocycleSpec(A2, 1, {"0": [[2.0]], "1": [[0.5]]})
    prefix = cl.BernoulliSource([0.5, 0.5], seed=3).prefix(2000)
    sel = cl.select_marker(spec, prefix, k0=2, max_ell=2)
    report = cl.quasi_multiplicativity_check(spec, prefix, sel, ell=5)
    np.testing.assert_allclose(report.ratios, 1.0, atol=1e-12)


def test_quasi_multiplicativity_requires_probe_length():
    spec = positive_spec()
    prefix = tm_prefix(1000)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    with pytest.raises(DomainError):
        cl.quasi_multiplicativity_check(spec, prefix, sel, ell=0)


# --- periodic exponents -----------------------------------------------------


def test_periodic_exponent_golden():
    spec = cl.CocycleSpec(A1, 1, {"0": [[1.0, 1.0], [1.0, 0.0]]})
    got = cl.periodic_exponent(spec, word("0", 1))
    assert got == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)


def test_periodic_exponent_rotation_invariant():
    spec = positive_spec()
    a = cl.periodic_exponent(spec, word("01", 2))
    b = cl.periodic_exponent(spec, word("10", 2))
    assert abs(a - b) <= 1e-12
    A0, A1m = np.array(POSITIVE_PAIR["0"]), np.array(POSITIVE_PAIR["1"])
    expect = math.log(max(abs(np.linalg.eigvals(A0 @ A1m)))) / 2
    assert a == pytest.approx(expect, abs=1e-10)


def test_periodic_exponent_nilpotent():
    spec = cl.CocycleSpec(A1, 1, {"0": [[0.0, 1.0], [0.0, 0.0]]})
    assert cl.periodic_exponent(spec, word("0", 1)) == -np.inf


def test_periodic_exponent_underflowed_support_entry_raises():
    # the period product diag(1, 1e-340) holds a float zero on its support
    spec = cl.CocycleSpec(A1, 1, {"0": [[1.0, 0.0], [0.0, 1e-170]]})
    assert cl.periodic_exponent(spec, word("0", 1)) == 0.0
    with pytest.raises(UnderflowError_):
        cl.periodic_exponent(spec, word("00", 1))


def zero_at(position):
    """Positive letters 0 and 1, a zero letter 2, and a fair-coin prefix
    of 400 symbols with a 2 at the given position."""
    a3 = cl.Alphabet(3)
    spec = cl.CocycleSpec(a3, 1, {"0": POSITIVE_PAIR["0"], "1": POSITIVE_PAIR["1"],
                                  "2": [[0.0, 0.0], [0.0, 0.0]]})
    symbols = cl.BernoulliSource([0.5, 0.5], seed=5).prefix(400).symbols.copy()
    symbols[position] = 2
    return spec, cl.FiniteWord(symbols, a3)


def test_quasi_multiplicativity_leaves_out_zero_products():
    spec, prefix = zero_at(300)
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    report = cl.quasi_multiplicativity_check(spec, prefix, sel, ell=4)
    every = cl.decompose_returns(prefix, sel.v).return_times
    # a probe [tau, tau + 4) that reaches position 300 meets the zero letter
    assert report.undefined == np.count_nonzero((every + 4 > 300) & (every + 4 <= 400))
    assert report.undefined > 0 and len(report.taus) == len(report.ratios) > 0
    assert np.all(report.taus + 4 <= 300)
    assert np.all(np.isfinite(report.ratios))
    assert sel.c1 - 1e-9 <= report.min_ratio <= report.max_ratio <= 1.0 + 1e-9


def test_quasi_multiplicativity_every_probe_zero_raises():
    spec, prefix = zero_at(4)  # just past the marker at position 0
    sel = cl.select_marker(spec, prefix, k0=4, max_ell=2)
    assert sel.z_position == 0
    with pytest.raises(InsufficientContextError):
        cl.quasi_multiplicativity_check(spec, prefix, sel, ell=4)
