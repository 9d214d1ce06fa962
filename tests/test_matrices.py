import math

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab.errors import (
    BudgetExceededError,
    DomainError,
    NotPositiveError,
    UnderflowError_,
)
from cocyclelab.matrices import NonNegMatrix, ScaledProduct, bool_matmul, spectral_radii

from conftest import (
    brute_phi,
    mp_log_entry_sum,
    naive_gelfand,
    random_positive,
    random_sparse_nonneg,
)


def test_entry_sum_norm():
    assert cl.entry_sum_norm([[1, 2], [3, 4]]) == 10
    assert cl.entry_sum_norm(np.eye(3)) == 3
    assert cl.entry_sum_norm(np.ones((2, 2))) == 4


def test_allowability_flags():
    swap = cl.allowability([[0, 1], [1, 0]])
    assert swap.allowable and not swap.positive
    assert cl.allowability([[1, 1], [1, 1]]).positive
    broken = cl.allowability([[1, 0], [0, 0]])
    assert not broken.row_allowable and not broken.column_allowable and broken.none


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
        lhs = cl.entry_sum_norm(L @ P @ R)
        hi = cl.entry_sum_norm(L) * cl.entry_sum_norm(P @ R)
        assert lhs <= hi * (1 + 1e-12)
        assert lhs >= c * hi * (1 - 1e-12)


def test_norm_submultiplicative(rng):
    for _ in range(200):
        d = rng.integers(1, 5)
        A, B = random_sparse_nonneg(rng, d), random_sparse_nonneg(rng, d)
        assert cl.entry_sum_norm(A @ B) <= cl.entry_sum_norm(A) * cl.entry_sum_norm(B) * (1 + 1e-12)


def test_hilbert_metric():
    assert cl.hilbert_metric([1, 2, 3], [1, 2, 3]) == 0.0
    assert cl.hilbert_metric([2, 4], [1, 2]) == 0.0
    assert cl.hilbert_metric([1, 1], [2, 1]) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(DomainError):
        cl.hilbert_metric([1, 0], [1, 1])
    with pytest.raises(DomainError):
        cl.hilbert_metric([1, 1, 1], [1, 1])


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
        if not cl.allowability(B).allowable:
            continue
        t = cl.birkhoff_tau(B)
        assert 0.0 <= t <= 1.0
        assert cl.birkhoff_tau(B.T) == pytest.approx(t, rel=1e-10, abs=1e-12)
    for _ in range(200):
        d = rng.integers(2, 5)
        B1 = random_sparse_nonneg(rng, d, density=0.9)
        B2 = random_sparse_nonneg(rng, d, density=0.9)
        prod = B1 @ B2
        if not (cl.allowability(B1).allowable and cl.allowability(B2).allowable
                and cl.allowability(prod).allowable):
            continue
        assert cl.birkhoff_tau(prod) <= cl.birkhoff_tau(B1) * cl.birkhoff_tau(B2) + 1e-9


def test_hilbert_contraction(rng):
    for _ in range(200):
        d = rng.integers(2, 5)
        x, y = rng.uniform(0.1, 10, d), rng.uniform(0.1, 10, d)
        B = random_sparse_nonneg(rng, d, density=0.7)
        if not cl.allowability(B).row_allowable:
            continue
        dxy = cl.hilbert_metric(x, y)
        assert cl.hilbert_metric(B @ x, B @ y) <= dxy + 1e-9
    for _ in range(200):
        d = rng.integers(2, 5)
        x, y = rng.uniform(0.1, 10, d), rng.uniform(0.1, 10, d)
        B = random_positive(rng, d)
        bound = cl.birkhoff_tau(B) * cl.hilbert_metric(x, y)
        assert cl.hilbert_metric(B @ x, B @ y) <= bound + 1e-9


def test_spectral_radius_closed_forms():
    assert cl.spectral_radius([[1, 1], [1, 0]]) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-11)
    assert cl.spectral_radius(np.diag([10.0, 0.1])) == pytest.approx(10.0, abs=1e-9)
    assert cl.spectral_radius([[5.0]]) == 5.0  # exact for d = 1
    assert cl.spectral_radius([[0, 1], [0, 0]]) == 0.0  # nilpotent support
    with pytest.raises(BudgetExceededError):
        cl.spectral_radius([[1, 1], [1, 0]], tol=1e-14, max_squarings=1)


def test_spectral_radius_vs_eigvals(rng):
    for _ in range(100):
        d = rng.integers(2, 5)
        A, B = rng.random((d, d)), rng.random((d, d))
        got = cl.spectral_radius(A @ B)
        expect = max(abs(np.linalg.eigvals(A @ B)))
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)
        assert cl.spectral_radius(B @ A) == pytest.approx(got, rel=1e-9, abs=1e-12)


# 3x3 members for the batched squaring: a nilpotent support, one that
# settles at the first comparison (||B^n|| = rho^n), one after about 27
# squarings, a generic one after about 46, and a 3-cycle whose unit
# squares lose all mass to underflow at B^8 before its estimate settles
_NILPOTENT = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
_FAST = np.diag([1.0, 0.0, 0.0])
_MEDIUM = np.array([[1.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_SLOW = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
_COLLAPSE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-170], [1e-170, 0.0, 0.0]]) * 1e150


def _radii(*members, **kw):
    stack = np.stack(members)
    return spectral_radii(stack, stack > 0, **kw)


def test_spectral_radii_mixed_stack_matches_each_member_alone():
    members = [_SLOW, _NILPOTENT, _FAST, _MEDIUM]
    got = _radii(*members)
    for value, member in zip(got, members):
        assert value == _radii(member)[0] == cl.spectral_radius(member)  # bit-equal
    assert got[1] == 0.0
    assert got[2] == 1.0 and got[3] == pytest.approx(1.0, abs=1e-13)
    assert got[0] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-13)


def test_spectral_radii_keep_the_scalar_stopping_rule():
    # below 1 the tolerance is absolute, above 1 relative: each member must
    # settle on exactly the squaring the scalar loop settles on
    rng = np.random.default_rng(3)
    members = [_FAST, _MEDIUM, _SLOW]
    for scale in (1e-3, 0.3, 7.0):
        members += [_MEDIUM * scale, rng.uniform(0.0, 1.0, (3, 3)) * scale]
    got = _radii(*members)
    for value, member in zip(got, members):
        est, k = naive_gelfand(member)
        assert value == pytest.approx(est, rel=1e-15)
        assert _radii(member, max_squarings=k)[0] == value
        with pytest.raises(BudgetExceededError):
            _radii(member, max_squarings=k - 1)


def test_spectral_radii_unsettled_member_exceeds_budget():
    np.testing.assert_array_equal(_radii(_FAST, _MEDIUM, max_squarings=30),
                                  _radii(_FAST, _MEDIUM))
    with pytest.raises(BudgetExceededError) as alone:
        _radii(_SLOW, max_squarings=30)
    with pytest.raises(BudgetExceededError) as mixed:
        _radii(_FAST, _SLOW, _MEDIUM, max_squarings=30)
    assert mixed.value.last_estimates == alone.value.last_estimates
    assert alone.value.last_estimates[0] != alone.value.last_estimates[1]
    # a member that settles on the last allowed squaring leaves before the report
    with pytest.raises(BudgetExceededError) as alone:
        _radii(_SLOW, max_squarings=27)
    with pytest.raises(BudgetExceededError) as mixed:
        _radii(_MEDIUM, _SLOW, max_squarings=27)
    assert mixed.value.last_estimates == alone.value.last_estimates


def test_spectral_radii_collapsing_member_underflows():
    with pytest.raises(UnderflowError_) as alone:
        _radii(_COLLAPSE)
    assert alone.value.position == 8
    with pytest.raises(UnderflowError_) as mixed:
        _radii(_FAST, _SLOW, _COLLAPSE, _NILPOTENT)
    assert mixed.value.position == 8


def test_spectral_radius_rejects_non_positive_tol():
    for tol in (0.0, -1e-14):
        with pytest.raises(DomainError):
            cl.spectral_radius([[1.0, 1.0], [1.0, 0.0]], tol=tol)
        with pytest.raises(DomainError):
            _radii(_SLOW, tol=tol)


def test_scaled_product_single_factor():
    acc = ScaledProduct.empty(2).multiply([[1, 2], [3, 4]])
    assert acc.log_norm == pytest.approx(math.log(10), abs=1e-15)
    np.testing.assert_allclose(acc.unit, np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert acc.length == 1


def test_scaled_product_30_diag_factors():
    acc = ScaledProduct.empty(2)
    for _ in range(30):
        acc = acc.multiply(np.diag([10.0, 0.1]))
    expect = math.log(10.0**30 + 10.0**-30)
    assert acc.log_norm == pytest.approx(expect, rel=1e-9)


def test_scaled_product_nilpotent_pattern():
    acc = ScaledProduct.empty(2).multiply([[0, 1], [0, 0]]).multiply([[0, 1], [0, 0]])
    assert acc.is_zero
    assert acc.log_norm == float("-inf")


def test_scaled_product_vs_extended_precision(rng):
    for _ in range(30):
        d = int(rng.integers(2, 4))
        factors = [random_sparse_nonneg(rng, d, density=0.9, low=0.1, high=2.0) for _ in range(20)]
        acc = ScaledProduct.empty(d)
        for f in factors:
            acc = acc.multiply(f)
            if acc.is_zero:
                break
        if acc.is_zero:
            continue
        assert acc.log_norm == pytest.approx(mp_log_entry_sum(factors), rel=1e-11, abs=1e-11)
        # exp(log_norm) * unit reconstructs the product
        direct = np.eye(d)
        for f in factors:
            direct = direct @ f
        np.testing.assert_allclose(math.exp(acc.log_norm) * acc.unit, direct, rtol=1e-9)


def test_support_soundness(rng):
    for _ in range(300):
        d = int(rng.integers(2, 5))
        A = NonNegMatrix(random_sparse_nonneg(rng, d, density=0.5))
        B = NonNegMatrix(random_sparse_nonneg(rng, d, density=0.5))
        prod = A @ B
        expect = bool_matmul(A.support, B.support)
        assert np.array_equal(prod.support, expect)
        assert np.array_equal(prod.entries > 0, expect)


def test_underflow_raises_never_lies():
    tiny = NonNegMatrix([[1e-200, 0.0], [0.0, 1.0]])
    with pytest.raises(UnderflowError_):
        tiny @ tiny  # 1e-400 flushes to zero against a true support bit
    acc = ScaledProduct.empty(2)
    for _ in range(200):
        acc = acc.multiply(np.diag([10.0, 0.1]))
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
        acc = ScaledProduct.empty(d)
        for m in mats:
            acc = acc.multiply(m)
        if acc.is_zero:
            continue
        lo, hi = cl.log_norm_bounds(n, float(nz.min()), float(nz.max()), d)
        assert lo - 1e-9 <= acc.log_norm <= hi + 1e-9


def test_contraction_coefficient_on_growing_products(rng):
    # tau of the running unit matrix is how forward contraction is
    # observed; for positive factors it decays (no rate asserted)
    acc = ScaledProduct.empty(3)
    taus = []
    for _ in range(12):
        acc = acc.multiply(random_positive(rng, 3, low=0.5, high=2.0))
        taus.append(cl.birkhoff_tau(acc.unit_matrix))
    assert all(0.0 <= t <= 1.0 for t in taus)
    assert taus[-1] < 0.1 * taus[0]


def test_matrix_text_round_trip(rng):
    M = NonNegMatrix(random_sparse_nonneg(rng, 3, density=0.7))
    back = cl.matrix_from_text(cl.matrix_to_text(M))
    assert np.array_equal(back.entries, M.entries)
    assert np.array_equal(back.support, M.support)


def test_matrix_binary_round_trip(rng):
    for d in (1, 2, 3, 5):
        M = NonNegMatrix(random_sparse_nonneg(rng, d, density=0.6))
        blob = cl.matrix_to_bytes(M)
        back = cl.matrix_from_bytes(blob)
        assert back.entries.tobytes() == M.entries.tobytes()  # bit exact
        assert np.array_equal(back.support, M.support)
        assert cl.matrix_to_bytes(back) == blob
