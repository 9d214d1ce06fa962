"""Multifractal spectrum of weighted orbit averages.

A two-coordinate potential f on a q-symbol space and a weight stream
taking finitely many values define a family of positive matrices
A_j(beta) with entries exp(beta * v_j * f(a, b)). The pressure psi(beta)
is the exponent of that matrix family along the weight stream, and the
dimension spectrum is its Legendre transform divided by log q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycles import CocycleSpec, _factor_table, _periodic_exponents, _reduce_groups, _trace_slope
from .errors import DomainError, RangeError
from .matrices import _floats
from .textform import field
from .words import Alphabet, PeriodicSource, WordSource, source_from_description

_EXP_LIMIT = 700.0  # exp overflows just above this
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class WeightedAverageSpec:
    """Potential table f(a, b) over a q-letter state space, weight values
    v_0..v_{m-1}, and the weight stream selecting one value per step."""

    potential: np.ndarray
    weight_values: np.ndarray
    weight_source: WordSource

    def __post_init__(self):
        pot = _floats(self.potential, "potential")
        if pot.ndim != 2 or pot.shape[0] != pot.shape[1] or pot.shape[0] < 2:
            raise DomainError("potential must be a q x q table with q >= 2")
        if not np.all(np.isfinite(pot)):
            raise DomainError("potential values must be finite")
        w = _floats(self.weight_values, "weight values").reshape(-1)
        if w.size < 1 or not np.all(np.isfinite(w)):
            raise DomainError("need at least one finite weight value")
        if self.weight_source.alphabet.size != w.size:
            raise DomainError("weight source alphabet must match the number of weight values")
        object.__setattr__(self, "potential", pot)
        object.__setattr__(self, "weight_values", w)

    @property
    def q(self) -> int:
        return self.potential.shape[0]

    def describe(self) -> dict:
        return {
            "states": self.q,
            "potential": self.potential.tolist(),
            "weights": self.weight_values.tolist(),
            "weight_source": self.weight_source.describe(),
        }


def _deformed(spec: WeightedAverageSpec, betas: np.ndarray) -> np.ndarray:
    """The matrices exp(beta * v_j * f), (len(betas), m, q, q); raises
    RangeError at the first beta whose exponent could overflow."""
    if not np.all(np.isfinite(betas)):
        raise DomainError("beta must be finite")
    v, f = float(np.abs(spec.weight_values).max()), float(np.abs(spec.potential).max())
    for beta in betas.tolist():  # Python floats: inf, no warning
        scale = abs(beta) * v
        if scale * f <= _EXP_LIMIT:
            continue
        if math.isinf(scale) and f == 0.0:  # inf * 0 is nan, and so are the matrices
            raise RangeError(f"|beta * v| overflows at beta = {beta:.4g}; rescale the weights")
        raise RangeError(f"|beta * v * f| reaches {scale * f:.4g} > {_EXP_LIMIT}; "
                         "rescale the potential or weights")
    return np.exp((betas[:, None] * spec.weight_values)[:, :, None, None] * spec.potential)


def beta_cocycle(spec: WeightedAverageSpec, beta: float) -> CocycleSpec:
    """Depth-1 cocycle over the weight alphabet: symbol j maps to the
    strictly positive matrix exp(beta * v_j * f)."""
    mats = _deformed(spec, np.array([beta], dtype=float))[0]
    return CocycleSpec(Alphabet(len(mats)), 1, {(j,): mat for j, mat in enumerate(mats)})


def _psi_values(spec: WeightedAverageSpec, betas, horizon: int) -> np.ndarray:
    """psi at every beta of the family: the deformed tables of all betas
    form one factor stack, and member k reads the weight stream offset by
    k*m into it, so the whole family takes one kernel batch and, on a
    periodic stream, one batched spectral radius."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    betas = np.asarray(betas, dtype=float)
    m = len(spec.weight_values)
    table = _factor_table(_deformed(spec, betas).reshape(-1, spec.q, spec.q))
    offsets = m * np.arange(len(betas))[:, None]
    src = spec.weight_source
    if isinstance(src, PeriodicSource):
        return _periodic_exponents(table, src.cycle.symbols + offsets)
    half = max(1, horizon // 2)
    cps = [half, horizon] if half < horizon else [horizon]
    weights = src.prefix(horizon).symbols
    values, zero, _, _, _ = _reduce_groups(table, len(betas), horizon,
                                           lambda rows: weights + offsets[rows], cps)
    return np.where(zero > 0, _NEG_INF, _trace_slope(values, cps))


def psi(spec: WeightedAverageSpec, beta: float, horizon: int) -> float:
    """Pressure at beta: exponent of the beta-deformed family along the
    weight stream.

    Periodic weight streams use the exact period spectral radius; other
    streams use the trace slope between horizon/2 and horizon, which
    cancels the O(1) norm constant.
    """
    return float(_psi_values(spec, [beta], horizon)[0])


@dataclass(frozen=True)
class SpectrumPoint:
    beta: float
    psi: float
    alpha: float          # numerical derivative psi'(beta)
    dim: float            # (psi - alpha * beta) / log q
    in_domain: bool       # False when dim < -1e-6 (outside the spectrum)


def _beta_grid(beta_min: float, beta_max: float, count: int) -> np.ndarray:
    """count evenly spaced betas from beta_min to beta_max; bounds that are
    not finite or a count below 1 raise DomainError before np.linspace
    spans them."""
    if not (math.isfinite(beta_min) and math.isfinite(beta_max)):
        raise DomainError("beta must be finite")
    if count < 1:
        raise DomainError(f"beta count must be >= 1, got {count}")
    return np.linspace(beta_min, beta_max, count)


def spectrum_curve(spec: WeightedAverageSpec, betas, horizon: int) -> list[SpectrumPoint]:
    """Dimension spectrum along a beta grid.

    alpha is the central difference (psi(b+h) - psi(b-h)) / 2h with the
    step h = 1e-3 * (1 + |beta|); the dimension at each point is the
    Legendre value (psi - alpha*beta)/log q. The 3 psi values per beta
    (beta, beta+h, beta-h, in that order) are one family for `_psi_values`.
    """
    grid = np.asarray(betas, dtype=float)
    if not np.all(np.isfinite(grid)):  # before the grid is differenced or stepped
        raise DomainError("beta must be finite")
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError("beta grid must be strictly increasing")
    logq = math.log(spec.q)
    steps = 1e-3 * (1.0 + np.abs(grid))
    family = np.stack([grid, grid + steps, grid - steps], axis=1).reshape(-1)
    p0, up, down = _psi_values(spec, family, horizon).reshape(-1, 3).T
    alpha = (up - down) / (2 * steps)
    dim = (p0 - alpha * grid) / logq
    return [SpectrumPoint(b, p, a, x, x >= -1e-6) for b, p, a, x in
            zip(grid.tolist(), p0.tolist(), alpha.tolist(), dim.tolist())]


def spectrum_to_csv(points: list[SpectrumPoint]) -> str:
    lines = ["beta,psi,alpha,dim"]
    for pt in points:
        lines.append(f"{pt.beta!r},{pt.psi!r},{pt.alpha!r},{pt.dim!r}")
    return "\n".join(lines) + "\n"


def weighted_average_from_description(d) -> WeightedAverageSpec:
    spec = WeightedAverageSpec(
        field(d, "potential", list[list[float]]),
        field(d, "weights", list[float]),
        source_from_description(field(d, "weight_source", dict)),
    )
    if field(d, "states", int) != spec.q:
        raise DomainError(f"states = {d['states']}, but the potential is {spec.q} x {spec.q}")
    return spec
