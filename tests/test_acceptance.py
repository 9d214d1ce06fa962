"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest -s tests/test_acceptance.py` to see
the lines on success)."""

import math
import time

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab import scenarios

from conftest import brute_phi, kernel_product, mp_log_entry_sum

GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)
A1, A2 = cl.Alphabet(1), cl.Alphabet(2)
POSITIVE_PAIR = {"0": [[2.0, 1.0], [1.0, 1.0]], "1": [[1.0, 1.0], [1.0, 2.0]]}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_golden_ratio_periodic_exponent():
    t0 = time.perf_counter()
    spec = cl.CocycleSpec(A1, 1, {"0": [[1.0, 1.0], [1.0, 0.0]]})
    trace = cl.lyapunov_trace(spec, cl.PeriodicSource("0", A1),
                              cl.geometric_checkpoints(8, 10_000))
    slope = trace.slope_estimate()
    exact = cl.periodic_exponent(spec, cl.FiniteWord("0", A1))
    elapsed = time.perf_counter() - t0
    ok = (abs(slope - GOLDEN_LOG) < 1e-6 and abs(exact - GOLDEN_LOG) < 1e-12
          and elapsed < 1.0)
    _report(1, ok,
            f"trace estimate err {abs(slope - GOLDEN_LOG):.2e} (<1e-6), "
            f"periodic err {abs(exact - GOLDEN_LOG):.2e} (<1e-12), {elapsed:.2f}s (<1s)")


def test_02_rotation_invariance_of_spectral_radius():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(1000):
        d = 2 + trial % 3
        A, B = rng.random((d, d)), rng.random((d, d))
        r1 = cl.spectral_radius(A @ B)
        r2 = cl.spectral_radius(B @ A)
        worst = max(worst, abs(r1 - r2) / (1 + r1))
        if trial % 100 == 0:  # independent eigenvalue cross-check
            oracle = max(abs(np.linalg.eigvals(A @ B)))
            assert r1 == pytest.approx(oracle, rel=1e-9, abs=1e-10)
    _report(2, worst < 1e-9, f"max |rho(AB)-rho(BA)|/(1+rho) = {worst:.2e} (<1e-9)")


def test_03_birkhoff_contraction_formula():
    rng = np.random.default_rng(3)
    exact_zero = cl.birkhoff_tau(np.ones((3, 3))) == 0.0
    exact_one = cl.birkhoff_tau([[0.0, 1.0], [1.0, 0.0]]) == 1.0
    expect = (1 - math.sqrt(0.5)) / (1 + math.sqrt(0.5))
    err = abs(cl.birkhoff_tau([[2.0, 1.0], [1.0, 1.0]]) - expect)
    cross = all(
        cl.phi(P := rng.uniform(0.1, 4.0, (d, d))) == pytest.approx(brute_phi(P), rel=1e-12)
        for d in (2, 3, 4) for _ in range(50)
    )
    ok = exact_zero and exact_one and err < 1e-12 and cross
    _report(3, ok,
            f"tau(ones)=0 {exact_zero}, tau(zero-entry)=1 {exact_one}, "
            f"tau([[2,1],[1,1]]) err {err:.2e} (<1e-12), phi brute-force cross-check {cross}")


def test_04_sandwich_inequality_bulk():
    rng = np.random.default_rng(4)
    violations = 0
    per_dim = 10_000 // 3 + 1
    for d in (2, 3, 4):
        L = rng.uniform(0, 3, (per_dim, d, d)) * (rng.random((per_dim, d, d)) < 0.7)
        R = rng.uniform(0, 3, (per_dim, d, d)) * (rng.random((per_dim, d, d)) < 0.7)
        P = rng.uniform(0.2, 5.0, (per_dim, d, d))
        PR = P @ R
        lhs = (L @ PR).sum(axis=(1, 2))
        hi = L.sum(axis=(1, 2)) * PR.sum(axis=(1, 2))
        c = P.min(axis=(1, 2)) / (d * P.max(axis=(1, 2)))
        violations += int(np.sum(lhs > hi * (1 + 1e-12)))
        violations += int(np.sum(lhs < c * hi * (1 - 1e-12)))
    _report(4, violations == 0,
            f"{violations} sandwich violations beyond 1e-12 relative in 3*{per_dim} triples")


def test_05_quasi_additivity_defect_bound():
    rng = np.random.default_rng(5)
    worst_excess = -np.inf
    for d in (2, 3):
        table = {"0": rng.uniform(0.2, 5.0, (d, d)), "1": rng.uniform(0.2, 5.0, (d, d))}
        spec = cl.CocycleSpec(A2, 1, table)
        prefix = cl.BernoulliSource([0.5, 0.5], seed=d).prefix(3200)
        grid = [1, 2, 3, 5, 8, 13, 22, 38, 64, 108, 182, 308, 512]
        pairs = [(n, m) for n in grid for m in grid][:500]
        report = cl.quasi_additivity_defect(spec, prefix, pairs)
        bound = abs(math.log(min(cl.elem_constant(m) for m in spec.matrices)))
        worst_excess = max(worst_excess, report.max_defect - bound)
        assert report.undefined == 0
    _report(5, worst_excess <= 1e-9,
            f"max defect excess over |log c_min| = {worst_excess:.2e} (<=1e-9) on 1000 pairs")


def test_06_return_rate_bernoulli():
    t0 = time.perf_counter()
    prefix = cl.BernoulliSource([0.5, 0.5], seed=17).prefix(1_000_000)
    worst = 0.0
    for text in ("0", "01", "010", "0101"):
        marker = cl.FiniteWord(text, A2)
        rates = cl.return_rate_trace(cl.decompose_returns(prefix, marker))
        worst = max(worst, abs(rates[-1, 1] - 2.0 ** (-len(marker))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-2 and elapsed < 10.0
    _report(6, ok, f"max |i/tau_i - 2^-|v|| = {worst:.2e} (<1e-2) at N=1e6, "
                   f"{elapsed:.1f}s (<10s)")


def test_07_return_formula_vs_trace_thue_morse():
    spec = cl.CocycleSpec(A2, 1, POSITIVE_PAIR)
    src = cl.SubstitutionSource({0: "01", 1: "10"}, 0, A2)
    n = 1_000_000
    prefix = src.prefix(n)
    sel = cl.select_marker(spec, prefix, k0=8, max_ell=4)
    est = cl.return_formula_estimate(spec, prefix, sel, cutoff=64)
    trace = cl.lyapunov_trace(spec, src, [n // 2, n])
    gap = abs(est.estimate - float(trace.exponents[-1]))
    ok = gap <= est.correction_band + 5e-2 and not est.mixed_support
    _report(7, ok,
            f"|estimate - trace| = {gap:.3e} <= band {est.correction_band:.3e} + 5e-2 "
            f"(k0=8, M=64, N=1e6)")


def test_08_single_orbit_vs_expected_exponent():
    # a pair with distinct growth rates, so sampling error (the criterion's
    # yardstick) dominates the O(1/n) bias of the n=1e4 expectation
    t0 = time.perf_counter()
    spec = cl.CocycleSpec(A2, 1, {"0": [[2.0, 1.0], [1.0, 1.0]],
                                  "1": [[0.4, 0.4], [0.4, 0.8]]})
    src = cl.BernoulliSource([0.5, 0.5], seed=2024)
    trace = cl.lyapunov_trace(spec, src, [500_000, 1_000_000])
    orbit = trace.slope_estimate()
    lam = cl.lambda_estimate(spec, cl.BernoulliMeasure([0.5, 0.5]),
                             n=10_000, replicas=200, seed=2024)
    elapsed = time.perf_counter() - t0
    gap = abs(orbit - lam.mean)
    ok = gap <= 3 * lam.stderr and elapsed < 30.0
    _report(8, ok,
            f"|orbit(1e6) - lambda(1e4 x 200)| = {gap:.2e} <= 3*SE = {3 * lam.stderr:.2e}, "
            f"{elapsed:.1f}s (<30s)")


def test_09_oscillation_counterexample_scenario():
    t0 = time.perf_counter()
    doc, _, passed = scenarios.run_scenario("nolimit-geometric")
    elapsed = time.perf_counter() - t0
    gap = doc["verdict_inputs"]["oscillation_gap"]
    no_witness = doc["quantities"]["positivity_witness"] is None
    ok = passed and gap > 1.0 and no_witness and elapsed < 20.0
    _report(9, ok,
            f"late-window oscillation gap {gap:.2f} (>1.0), positivity witness absent "
            f"{no_witness}, {elapsed:.1f}s (<20s)")


def test_10_long_return_words_keep_mass():
    doc, _, passed = scenarios.run_scenario("gap-blocks")
    masses = doc["quantities"]["long_mass"]
    ok = passed and min(masses) > 0.2
    _report(10, ok,
            f"long-word mass at M=32: {masses[0]:.3f} @1e5, {masses[1]:.3f} @1e6 (both >0.2)")


def test_11_besicovitch_spectrum():
    t0 = time.perf_counter()
    doc, _, passed = scenarios.run_scenario("besicovitch")
    elapsed = time.perf_counter() - t0
    err = doc["quantities"]["max_error_vs_entropy"]
    dim0_err = abs(doc["quantities"]["dim_at_beta_zero"] - 1.0)
    ok = passed and err <= 1e-3 and dim0_err <= 1e-9 and elapsed < 5.0
    _report(11, ok,
            f"max |dim - H(alpha)/log 2| = {err:.2e} (<=1e-3) on 21 points, "
            f"|dim(0) - 1| = {dim0_err:.2e} (<=1e-9), {elapsed:.1f}s (<5s)")


def test_12_scaled_product_fidelity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(500):
        d = 2 + trial % 2
        factors = [rng.uniform(0.1, 2.0, (d, d)) for _ in range(30)]
        acc = kernel_product(factors)
        oracle = mp_log_entry_sum(factors)
        worst = max(worst, abs(acc.log_norm - oracle) / abs(oracle))
    zero_mismatch = 0
    for trial in range(500):
        d = 3
        chain = [rng.uniform(0.5, 2.0, (d, d)) * (rng.random((d, d)) < 0.45)
                 for _ in range(8)]
        acc = kernel_product(chain)
        sup = np.eye(d, dtype=bool)
        for f in chain:
            sup = (sup.astype(int) @ (f > 0).astype(int)) > 0
        if acc.is_zero != (not sup.any()):
            zero_mismatch += 1
        if acc.is_zero and acc.log_norm != -np.inf:
            zero_mismatch += 1
    ok = worst < 1e-9 and zero_mismatch == 0
    _report(12, ok,
            f"max log-norm relative error vs 60-digit oracle = {worst:.2e} (<1e-9), "
            f"{zero_mismatch} structural-zero flag mismatches in 500 chains")
