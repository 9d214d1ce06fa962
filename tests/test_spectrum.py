import math

import numpy as np
import pytest

import cocyclelab as cl
from cocyclelab.errors import DomainError, RangeError

from conftest import naive_spectrum


def binary_indicator_spec(weights=(1.0,), source=None):
    # f(a, b) = 1 when a = 1: the orbit average counts the digit 1
    if source is None:
        source = cl.PeriodicSource("0", cl.Alphabet(1))
    return cl.WeightedAverageSpec(
        np.array([[0.0, 0.0], [1.0, 1.0]]), np.array(weights), source
    )


def test_beta_cocycle_entries():
    spec = binary_indicator_spec()
    at_zero = cl.beta_cocycle(spec, 0.0)
    np.testing.assert_array_equal(at_zero.matrices[0].entries, np.ones((2, 2)))
    at_one = cl.beta_cocycle(spec, 1.0)
    np.testing.assert_allclose(
        at_one.matrices[0].entries, [[1.0, 1.0], [math.e, math.e]], rtol=1e-15
    )


def test_beta_cocycle_zero_weight_symbol():
    src = cl.BernoulliSource([0.5, 0.5], seed=1)
    spec = binary_indicator_spec(weights=(0.0, 1.0), source=src)
    for beta in (-3.0, 0.5, 7.0):
        mats = cl.beta_cocycle(spec, beta).matrices
        np.testing.assert_array_equal(mats[0].entries, np.ones((2, 2)))


def test_beta_cocycle_overflow_guard():
    spec = binary_indicator_spec()
    with pytest.raises(RangeError):
        cl.beta_cocycle(spec, 800.0)


def test_psi_closed_form_constant_weights():
    spec = binary_indicator_spec()
    for beta in (-2.0, -0.5, 0.0, 0.3, 1.0, 4.0):
        assert cl.psi(spec, beta, horizon=1000) == pytest.approx(
            math.log(1 + math.exp(beta)), abs=1e-6
        )
    assert cl.psi(spec, 0.0, horizon=1000) == pytest.approx(math.log(2), abs=1e-9)


def test_psi_zero_weights_is_log_q():
    src = cl.BernoulliSource([0.5, 0.5], seed=2)
    spec = binary_indicator_spec(weights=(0.0, 0.0), source=src)
    for beta in (-5.0, 0.0, 5.0):
        assert cl.psi(spec, beta, horizon=512) == pytest.approx(math.log(2), abs=1e-9)


def test_psi_nonperiodic_source_agrees_with_closed_form():
    # two weight symbols, both weight 1: the stream does not matter
    src = cl.BernoulliSource([0.5, 0.5], seed=3)
    spec = binary_indicator_spec(weights=(1.0, 1.0), source=src)
    assert cl.psi(spec, 0.7, horizon=2000) == pytest.approx(
        math.log(1 + math.exp(0.7)), abs=1e-6
    )


def _entropy_over_log2(alpha):
    alpha = min(max(alpha, 1e-300), 1 - 1e-300)
    return -(alpha * math.log(alpha) + (1 - alpha) * math.log(1 - alpha)) / math.log(2)


def test_spectrum_matches_binary_entropy():
    spec = binary_indicator_spec()
    betas = np.linspace(-5, 5, 21)
    points = cl.spectrum_curve(spec, betas, horizon=1000)
    for pt in points:
        assert abs(pt.dim - _entropy_over_log2(pt.alpha)) < 1e-3
        assert pt.dim <= 1 + 1e-6
        assert pt.in_domain
    center = points[10]
    assert center.beta == 0.0
    assert abs(center.dim - 1.0) < 1e-9
    assert center.alpha == pytest.approx(0.5, abs=1e-6)


def test_spectrum_convexity_and_right_edge():
    spec = binary_indicator_spec()
    betas = np.linspace(-6, 6, 25)
    points = cl.spectrum_curve(spec, betas, horizon=500)
    alphas = np.array([pt.alpha for pt in points])
    assert np.all(np.diff(alphas) >= -1e-6)  # psi convex
    psis = np.array([pt.psi for pt in points])
    second = np.diff(psis, 2)
    assert np.all(second >= -1e-6)
    right = [pt.dim for pt in points if pt.beta >= 1.0]
    assert all(a >= b - 1e-9 for a, b in zip(right, right[1:]))  # dim falls to 0
    assert right[-1] < 0.1


def test_psi_monotone_for_nonnegative_weighted_potential():
    spec = binary_indicator_spec()  # v * f >= 0 entrywise
    values = [cl.psi(spec, b, horizon=200) for b in np.linspace(-4, 4, 17)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_constant_potential_shift_identity():
    spec = binary_indicator_spec()
    c = 0.75
    shifted = cl.WeightedAverageSpec(
        spec.potential + c, spec.weight_values, spec.weight_source
    )
    betas = np.linspace(-2, 2, 9)
    a = cl.spectrum_curve(spec, betas, horizon=200)
    b = cl.spectrum_curve(shifted, betas, horizon=200)
    wbar = float(spec.weight_values[0])
    for pa, pb in zip(a, b):
        assert pb.psi == pytest.approx(pa.psi + pb.beta * c * wbar, abs=1e-9)
        assert pb.alpha == pytest.approx(pa.alpha + c * wbar, abs=1e-9)
        assert pb.dim == pytest.approx(pa.dim, abs=1e-9)


def test_spectrum_csv():
    spec = binary_indicator_spec()
    points = cl.spectrum_curve(spec, np.linspace(-1, 1, 5), horizon=100)
    csv = cl.spectrum_to_csv(points)
    lines = csv.strip().splitlines()
    assert lines[0] == "beta,psi,alpha,dim"
    assert len(lines) == 6


def test_bad_grids():
    spec = binary_indicator_spec()
    with pytest.raises(DomainError):
        cl.spectrum_curve(spec, [1.0, 1.0], horizon=100)
    with pytest.raises(DomainError):
        cl.psi(spec, 0.0, horizon=0)
    nan, inf = float("nan"), float("inf")
    for bad in (lambda: cl.psi(spec, nan, horizon=100), lambda: cl.beta_cocycle(spec, nan),
                lambda: cl.spectrum_curve(spec, [nan, 1.0], horizon=100),
                lambda: cl.spectrum_curve(spec, [nan], horizon=100),
                lambda: cl.spectrum_curve(spec, [0.0, inf], horizon=100),
                lambda: cl.spectrum_curve(spec, [-inf, 0.0], horizon=100)):
        with pytest.raises(DomainError):
            bad()


def test_spectrum_csv_fields_are_numbers():
    spec = binary_indicator_spec()
    points = cl.spectrum_curve(spec, np.linspace(-1, 1, 5), horizon=100)
    for pt in points:
        assert all(type(v) is float for v in (pt.beta, pt.psi, pt.alpha, pt.dim))
        assert type(pt.in_domain) is bool
    for line in cl.spectrum_to_csv(points).strip().splitlines()[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        for field in fields:
            float(field)


def _mixed_weight_spec(source):
    rng = np.random.default_rng(5)
    return cl.WeightedAverageSpec(rng.uniform(-1.0, 1.0, (3, 3)), np.array([0.5, -1.0, 2.0]),
                                  source)


@pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
def test_spectrum_curve_matches_per_beta_loop(kind):
    a3 = cl.Alphabet(3)
    if kind == "periodic":
        source = cl.PeriodicSource("0120112", a3)
    else:
        source = cl.SubstitutionSource({0: "01", 1: "12", 2: "20"}, 0, a3)
    spec = _mixed_weight_spec(source)
    betas = np.linspace(-3.0, 3.0, 7)
    points = cl.spectrum_curve(spec, betas, horizon=777)
    ref = naive_spectrum(spec, betas, 777)
    for pt, (beta, p0, alpha, dim) in zip(points, ref):
        assert pt.beta == beta
        assert pt.psi == pytest.approx(p0, rel=1e-12)
        assert pt.alpha == pytest.approx(alpha, rel=1e-9, abs=1e-9)
        assert pt.dim == pytest.approx(dim, rel=1e-9, abs=1e-9)
    for beta, p0, _, _ in ref:
        assert cl.psi(spec, beta, 777) == pytest.approx(p0, rel=1e-12)


def test_spectrum_curve_range_error_names_the_first_offending_beta():
    spec = binary_indicator_spec()  # |beta * v * f| = |beta|
    # beta itself, then beta + h, then beta - h, grid point by grid point,
    # with h = 1e-3 * (1 + |beta|): 0.7005 at beta = 699.5
    for grid, peak in (([0.0, 700.5], "700.5"), ([699.0, 699.5], "700.2"),
                       ([-699.6, 0.0], "700.3"), ([-699.9, -699.3], "700.6")):
        with pytest.raises(RangeError) as loop:
            naive_spectrum(spec, grid, 100)
        with pytest.raises(RangeError) as stacked:
            cl.spectrum_curve(spec, grid, 100)
        assert str(stacked.value) == str(loop.value)
        assert f"reaches {peak} >" in str(stacked.value)


def test_periodic_exponent_rejects_rotations_that_disagree(monkeypatch):
    rng = np.random.default_rng(11)
    a2 = cl.Alphabet(2)
    spec = cl.CocycleSpec(a2, 1, {"0": rng.uniform(0.5, 2.0, (4, 4)),
                                  "1": rng.uniform(0.5, 2.0, (4, 4))})
    cycle = cl.FiniteWord("0010111", a2)
    exact = cl.periodic_exponent(spec, cycle)
    # the rotations agree only to rounding, so a zero tolerance must refuse them
    monkeypatch.setattr(cl.cocycles, "_ROTATION_RTOL", 0.0)
    with pytest.raises(DomainError, match="not rotation-invariant"):
        cl.periodic_exponent(spec, cycle)
    assert math.isfinite(exact)
