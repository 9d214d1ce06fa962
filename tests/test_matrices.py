import math

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab.errors import (
    DomainError,
    NotPositiveError,
    UnderflowError_,
)
from cocyclelab.matrices import (
    NonNegMatrix,
    reachability,
    spectral_radii,
)

from conftest import (
    allowable,
    brute_phi,
    hilbert_distance,
    kernel_product,
    mp_log_entry_sum,
    mp_spectral_radius,
    random_positive,
    random_sparse_nonneg,
)


def test_allowability_flags():
    # phi needs a support entry in every row and every column: a zero row
    # alone, or a zero column alone, is refused
    for broken in ([[1, 1], [0, 0]], [[1, 0], [1, 0]]):
        with pytest.raises(DomainError):
            cl.phi(broken)


def test_elem_constant():
    assert cl.elem_constant(np.ones((2, 2))) == 0.5
    assert cl.elem_constant([[2, 1], [1, 1]]) == 0.25
    for d in (2, 3, 5):
        assert cl.elem_constant(np.ones((d, d))) == pytest.approx(1 / d)
    with pytest.raises(NotPositiveError):
        cl.elem_constant([[1, 0], [1, 1]])


def test_sandwich_inequality(rng):
    for _ in range(500):
        d = rng.integers(2, 5)
        L = random_sparse_nonneg(rng, d)
        R = random_sparse_nonneg(rng, d)
        P = random_positive(rng, d)
        c = cl.elem_constant(P)
        lhs = (L @ P @ R).sum()
        hi = L.sum() * (P @ R).sum()
        assert lhs <= hi * (1 + 1e-12)
        assert lhs >= c * hi * (1 - 1e-12)


def test_phi_values(rng):
    assert cl.phi([[0, 1], [1, 0]]) == 0.0
    assert cl.phi(np.ones((3, 3))) == 1.0
    assert cl.phi([[2, 1], [1, 1]]) == pytest.approx(brute_phi(np.array([[2.0, 1], [1, 1]])), abs=0)
    for _ in range(25):
        d = rng.integers(2, 5)
        P = random_positive(rng, d)
        assert cl.phi(P) == pytest.approx(brute_phi(P), rel=1e-12)
    with pytest.raises(DomainError):
        cl.phi([[1, 0], [0, 0]])
    with pytest.raises(DomainError):
        cl.phi(np.ones((17, 17)))  # exhaustive scan is capped at d = 16


def test_birkhoff_tau():
    assert cl.birkhoff_tau(np.ones((2, 2))) == 0.0
    assert cl.birkhoff_tau([[0, 1], [1, 0]]) == 1.0
    expect = (1 - math.sqrt(0.5)) / (1 + math.sqrt(0.5))
    assert cl.birkhoff_tau([[2, 1], [1, 1]]) == pytest.approx(expect, abs=1e-12)


def test_tau_properties(rng):
    for _ in range(200):
        d = rng.integers(2, 5)
        B = random_sparse_nonneg(rng, d, density=0.8)
        if not allowable(B):
            continue
        t = cl.birkhoff_tau(B)
        assert 0.0 <= t <= 1.0
        assert cl.birkhoff_tau(B.T) == pytest.approx(t, rel=1e-10, abs=1e-12)
    for _ in range(200):
        d = rng.integers(2, 5)
        B1 = random_sparse_nonneg(rng, d, density=0.9)
        B2 = random_sparse_nonneg(rng, d, density=0.9)
        prod = B1 @ B2
        if not (allowable(B1) and allowable(B2) and allowable(prod)):
            continue
        assert cl.birkhoff_tau(prod) <= cl.birkhoff_tau(B1) * cl.birkhoff_tau(B2) + 1e-9


def test_hilbert_contraction(rng):
    # Birkhoff's bound d_H(Bx, By) <= tau(B) d_H(x, y) on the positive cone
    for _ in range(200):
        d = rng.integers(2, 5)
        x, y = rng.uniform(0.1, 10, d), rng.uniform(0.1, 10, d)
        B = random_positive(rng, d)
        bound = cl.birkhoff_tau(B) * hilbert_distance(x, y)
        assert hilbert_distance(B @ x, B @ y) <= bound + 1e-9


def test_spectral_radius_closed_forms():
    assert cl.spectral_radius([[1, 1], [1, 0]]) == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert cl.spectral_radius(np.diag([10.0, 0.1])) == 10.0
    assert cl.spectral_radius([[5.0]]) == 5.0  # exact for d = 1
    assert cl.spectral_radius([[0, 1], [0, 0]]) == 0.0  # nilpotent support


def test_spectral_radius_vs_eigvals(rng):
    # the eigenvalues come from mpmath at 40 digits, independent of numpy
    for _ in range(100):
        d = rng.integers(2, 5)
        A, B = rng.random((d, d)), rng.random((d, d))
        got = cl.spectral_radius(A @ B)
        assert got == pytest.approx(mp_spectral_radius(A @ B), rel=1e-14)
        assert cl.spectral_radius(B @ A) == pytest.approx(got, rel=1e-14)


def _defective(rng):
    """A permuted [[A, C], [0, A]] with positive 3x3 A and C: its Perron
    root rho(A) is double and defective. Returns the matrix and A."""
    A, C = rng.uniform(0.5, 2.0, (2, 3, 3))
    perm = rng.permutation(6)
    return np.block([[A, C], [np.zeros((3, 3)), A]])[np.ix_(perm, perm)], A


def _mixed_stack():
    """Five permuted 6x6 members: a nilpotent support, a single 1x1 class
    (rho = 2.5), a positive matrix, a defective Perron root and a weighted
    6-cycle, whose support is imprimitive (rho = (product of weights)^(1/6))."""
    rng = np.random.default_rng(6)
    upper = np.triu(rng.uniform(0.5, 2.0, (6, 6)), 1)
    cycle = np.roll(np.diag(rng.uniform(0.5, 2.0, 6)), 1, axis=1)
    members = [upper, upper + np.diag([0.0, 0.0, 2.5, 0.0, 0.0, 0.0]),
               rng.uniform(0.5, 2.0, (6, 6)), _defective(rng)[0], cycle]
    perm = rng.permutation(6)
    return np.stack([m[np.ix_(perm, perm)] for m in members]), math.prod(cycle.sum(axis=1))


def _radii(*members):
    stack = np.stack(members)
    return spectral_radii(stack, stack > 0)


def test_spectral_radii_match_mpmath_on_a_mixed_stack():
    stack, cycle_product = _mixed_stack()
    got = _radii(*stack)
    assert got[0] == 0.0
    for value, member in zip(got[1:], stack[1:]):
        assert value == pytest.approx(mp_spectral_radius(member), rel=1e-14)
    assert got[1] == pytest.approx(2.5, rel=1e-14)
    assert got[4] == pytest.approx(cycle_product ** (1 / 6), rel=1e-14)


def test_spectral_radii_mixed_stack_matches_each_member_alone():
    stack, _ = _mixed_stack()
    got = _radii(*stack)
    for value, member in zip(got, stack):
        assert value == _radii(member)[0] == cl.spectral_radius(member)  # bit-equal


def test_spectral_radii_slowly_settling_members_need_no_budget():
    # members whose power rates settle slowly (a golden-ratio block beside
    # 0.5; an idempotent with a 1e-6 leak) get their values in any stack
    fast = np.diag([1.0, 0.0, 0.0])
    medium = np.array([[1.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    slow = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    got = _radii(fast, slow, medium)
    assert got[0] == 1.0 and got[2] == 1.0
    assert got[1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert got[1] == pytest.approx(mp_spectral_radius(slow), rel=1e-15)
    for value, member in zip(got, (fast, slow, medium)):
        assert value == _radii(member)[0]  # bit-equal


def test_spectral_radii_defective_perron_roots_match_mpmath():
    # plain eigvals misses a defective root by about sqrt(eps) (2e-8 on
    # these draws); dropping the entries between classes makes it simple
    rng = np.random.default_rng(7)
    draws = [_defective(rng) for _ in range(200)]
    got = _radii(*(m for m, _ in draws))
    expect = np.array([mp_spectral_radius(A) for _, A in draws])
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0)


def test_spectral_radii_collapsing_member_gets_its_closed_form():
    # a weighted 3-cycle with entries 1e150, 1e-20 and 1e-20: scaled so
    # badly that its powers underflow, and mpmath's eig returns 0 for it
    collapse = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-170], [1e-170, 0.0, 0.0]]) * 1e150
    expect = math.cbrt(1e150 * 1e-20 * 1e-20)
    assert _radii(collapse)[0] == pytest.approx(expect, rel=1e-14)
    assert _radii(np.eye(3), collapse)[1] == pytest.approx(expect, rel=1e-14)


def test_reachability_is_the_reflexive_transitive_closure(rng):
    for d in (1, 2, 5, 9):
        sup = rng.random((4, d, d)) < 0.2
        expect = np.eye(d, dtype=bool) | sup
        for _ in range(d):
            expect = expect | ((expect.astype(int) @ sup.astype(int)) > 0)
        np.testing.assert_array_equal(reachability(sup), expect)


def test_scaled_product_single_factor():
    acc = kernel_product([[[1, 2], [3, 4]]])
    assert acc.log_norm == pytest.approx(math.log(10), abs=1e-15)
    np.testing.assert_allclose(acc.unit, np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert acc.length == 1


def test_scaled_product_30_diag_factors():
    acc = kernel_product([np.diag([10.0, 0.1])] * 30)
    expect = math.log(10.0**30 + 10.0**-30)
    assert acc.log_norm == pytest.approx(expect, rel=1e-9)


def test_scaled_product_nilpotent_pattern():
    acc = kernel_product([[[0, 1], [0, 0]]] * 2)
    assert acc.is_zero
    assert acc.log_norm == float("-inf")


def test_scaled_product_vs_extended_precision(rng):
    for _ in range(30):
        d = int(rng.integers(2, 4))
        factors = [random_sparse_nonneg(rng, d, density=0.9, low=0.1, high=2.0) for _ in range(20)]
        acc = kernel_product(factors)
        if acc.is_zero:
            continue
        assert acc.log_norm == pytest.approx(mp_log_entry_sum(factors), rel=1e-11, abs=1e-11)
        # exp(log_norm) * unit reconstructs the product
        direct = np.eye(d)
        for f in factors:
            direct = direct @ f
        np.testing.assert_allclose(math.exp(acc.log_norm) * acc.unit, direct, rtol=1e-9)


def test_support_soundness(rng):
    # the scaled product's support is the exact boolean product, and its
    # unit is positive exactly there
    for _ in range(300):
        d = int(rng.integers(2, 5))
        A = NonNegMatrix(random_sparse_nonneg(rng, d, density=0.5))
        B = NonNegMatrix(random_sparse_nonneg(rng, d, density=0.5))
        prod = kernel_product([A.entries, B.entries])
        expect = (A.support.astype(int) @ B.support.astype(int)) > 0
        assert np.array_equal(prod.support, expect)
        assert np.array_equal(prod.unit > 0, expect)


def test_underflow_raises_never_lies():
    acc = kernel_product([np.diag([10.0, 0.1])] * 200)
    assert not acc.is_zero
    assert bool(acc.support[1, 1])  # the support still tells the truth
    with pytest.raises(UnderflowError_):
        _ = acc.unit_matrix  # materializing the underflowed unit must raise


def test_structural_zero_constructor_contract():
    with pytest.raises(UnderflowError_):
        NonNegMatrix([[0.0, 1.0], [1.0, 1.0]], support=[[True, True], [True, True]])
    with pytest.raises(DomainError):
        NonNegMatrix([[0.5, 1.0], [1.0, 1.0]], support=[[False, True], [True, True]])


def test_log_norm_bounds():
    assert cl.log_norm_bounds(5, 1.0, 1.0, 1) == (0.0, 0.0)
    lo, hi = cl.log_norm_bounds(3, 0.1, 10.0, 2)
    assert hi == pytest.approx(3 * math.log(40), abs=1e-12)
    assert lo == -hi
    with pytest.raises(DomainError):
        cl.log_norm_bounds(3, 0.0, 1.0, 2)


def test_log_norm_envelope_holds_for_random_products(rng):
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 12))
        factors = [random_sparse_nonneg(rng, d, density=0.8, low=0.3, high=3.0) for _ in range(n)]
        mats = [NonNegMatrix(f) for f in factors]
        nz = np.concatenate([m.entries[m.support] for m in mats if not m.is_zero])
        if nz.size == 0:
            continue
        acc = kernel_product([m.entries for m in mats])
        if acc.is_zero:
            continue
        lo, hi = cl.log_norm_bounds(n, float(nz.min()), float(nz.max()), d)
        assert lo - 1e-9 <= acc.log_norm <= hi + 1e-9


def test_contraction_coefficient_on_growing_products(rng):
    # tau of the running unit matrix is how forward contraction is
    # observed; for positive factors it decays (no rate asserted)
    factors = [random_positive(rng, 3, low=0.5, high=2.0) for _ in range(12)]
    taus = [cl.birkhoff_tau(kernel_product(factors[:k]).unit_matrix) for k in range(1, 13)]
    assert all(0.0 <= t <= 1.0 for t in taus)
    assert taus[-1] < 0.1 * taus[0]
