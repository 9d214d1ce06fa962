"""Constructive exponent estimation through return words.

Pick a positivity window u and a marker v extending it, decompose the
orbit prefix at the marker's return times, and average per-return-word
log-norms; quasi-multiplicativity bounds the error by a band proportional
to the return rate. The periodic case is exact: log of the spectral
radius of the period product divided by the period.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cocycles import (
    CocycleSpec,
    _FactorTable,
    _period_indices,
    _range_log_norms,
    _reduce_groups,
    _rotation_rows,
    _split_gaps,
    check_positivity_condition,
)
from .errors import (
    ConditionUnsatisfiedError,
    DomainError,
    InsufficientContextError,
    UnderflowError_,
)
from .matrices import elem_constant, spectral_radii
from .words import FiniteWord, ReturnDecomposition, decompose_returns, long_word_mass, occurrences

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class MarkerSelection:
    """Positivity window u (with horizon ell0 and entry floor b) plus the
    marker v: the first k0 symbols of the first observed point z in [u].

    c1 is the quasi-multiplicativity constant of the ell0-step product on
    [u]; shift_exits_u reports whether shifting z by |u| leaves [u] (None
    when the prefix is too short to tell).
    """

    u: FiniteWord
    ell0: int
    b: float
    z_position: int
    z_prefix: FiniteWord
    v: FiniteWord
    k0: int
    c1: float
    shift_exits_u: bool | None

    def describe(self) -> dict:
        return {
            "u": self.u.to_text(),
            "ell0": self.ell0,
            "b": self.b,
            "z_position": self.z_position,
            "v": self.v.to_text(),
            "k0": self.k0,
            "c1": self.c1,
            "shift_exits_u": self.shift_exits_u,
        }


def select_marker(spec: CocycleSpec, prefix: FiniteWord, k0: int,
                  max_ell: int) -> MarkerSelection:
    """Find the positivity window and cut the marker out of the orbit at
    the first occurrence of u, which the witness search saw in the prefix.

    k0 below |u| is clamped up to |u| so the marker always determines the
    u-cylinder.
    """
    if k0 < 1:
        raise DomainError("k0 must be >= 1")
    witness = check_positivity_condition(spec, prefix, max_ell)
    if witness is None:
        raise ConditionUnsatisfiedError(
            f"no positivity witness among observed windows up to ell={max_ell}"
        )
    u, ell0, b = witness.u, witness.ell0, witness.b
    p = int(occurrences(prefix, u, start=0)[0])
    k0_eff = max(k0, len(u))
    if p + k0_eff > len(prefix):
        raise InsufficientContextError(
            f"prefix of length {len(prefix)} cannot host a k0={k0_eff} marker at {p}",
            required=p + k0_eff,
        )
    z_prefix = prefix[p : min(len(prefix), p + 2 * k0_eff)]
    v = z_prefix[:k0_eff]
    n0 = len(u)
    if p + 2 * n0 <= len(prefix):
        shifted = prefix[p + n0 : p + 2 * n0]
        shift_exits_u = shifted != u
    else:
        shift_exits_u = None
    # The ell0-step product is constant on [u] for a depth-r table, so the
    # quasi-multiplicativity constant is that single product's c(P).
    c1 = elem_constant(witness.product)
    return MarkerSelection(u, ell0, b, p, z_prefix, v, k0_eff, c1, shift_exits_u)


@dataclass(frozen=True)
class ReturnFormulaEstimate:
    """Orbit-average exponent over return blocks below the length cutoff.

    estimate = short_sum / tau_i with the prefix block (tau_{-1} = 0
    convention) always included; correction_band = (i / tau_i)|log c1| is
    the quasi-multiplicativity slack, and long_mass the horizon fraction
    covered by return words above the cutoff.
    """

    i: int
    tau_i: int
    cutoff: int
    short_sum: float
    long_mass: float
    estimate: float
    correction_band: float
    mixed_support: bool
    histogram: dict
    selection: MarkerSelection

    def to_json(self) -> str:
        doc = {
            "selection": self.selection.describe(),
            "i": self.i,
            "tau_i": self.tau_i,
            "cutoff": self.cutoff,
            "short_sum": self.short_sum,
            "long_mass": self.long_mass,
            "estimate": self.estimate,
            "correction_band": self.correction_band,
            "mixed_support": self.mixed_support,
            "histogram": self.histogram,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _block_log_norms(spec: CocycleSpec, prefix: FiniteWord,
                     decomp: ReturnDecomposition) -> np.ndarray:
    """log||A^(tau_{j-1}, tau_j)|| for j = 0..count, grouped by the block's
    symbols (with the depth lookahead) so each distinct block is computed
    once, all in one batch."""
    r = spec.depth
    arr = prefix.symbols
    taus = np.concatenate([[0], decomp.return_times]).astype(np.int64)
    first: dict[bytes, int] = {}
    which = [first.setdefault(arr[a : b + r - 1].tobytes(), len(first))
             for a, b in zip(taus[:-1].tolist(), taus[1:].tolist())]
    distinct = np.unique(which, return_index=True)[1]
    idx = spec.factor_indices(arr, 0, int(taus[-1]))
    logs = _range_log_norms(spec._table, idx, taus[distinct], taus[distinct + 1])
    return logs[np.asarray(which)]


def return_formula_estimate(spec: CocycleSpec, prefix: FiniteWord,
                            selection: MarkerSelection, cutoff: int) -> ReturnFormulaEstimate:
    """Assemble the return-word exponent estimate at length cutoff M."""
    if cutoff < 0:
        raise DomainError("cutoff must be non-negative")
    decomp = decompose_returns(prefix, selection.v)
    if decomp.count < 1:
        raise InsufficientContextError(
            "marker must occur at least twice to form a return word", required=2
        )
    if len(prefix) < int(decomp.return_times[-1]) + spec.depth - 1:
        decomp = ReturnDecomposition(
            prefix, selection.v, decomp.return_times[:-1]
        )  # drop a final return too close to the edge for the depth lookahead
    logs = _block_log_norms(spec, prefix, decomp)
    lengths = np.concatenate([[decomp.return_times[0]], decomp.lengths])
    short = np.ones(len(logs), dtype=bool)
    short[1:] = lengths[1:] <= cutoff
    finite = np.isfinite(logs)
    mixed = bool(np.any(~finite & short))
    used = short & finite
    tau_i = int(decomp.return_times[-1])
    i = decomp.count
    short_sum = float(logs[used].sum())
    hist: dict[str, dict] = {}
    for L in np.unique(lengths[1:]):
        sel = lengths[1:] == L
        vals = logs[1:][sel]
        fin = vals[np.isfinite(vals)]
        hist[str(int(L))] = {
            "count": int(sel.sum()),
            "mean_log_norm": float(fin.mean()) if len(fin) else None,
        }
    return ReturnFormulaEstimate(
        i=i,
        tau_i=tau_i,
        cutoff=cutoff,
        short_sum=short_sum,
        long_mass=long_word_mass(decomp, cutoff),
        estimate=short_sum / tau_i,
        correction_band=(i / tau_i) * abs(math.log(selection.c1)),
        mixed_support=mixed,
        histogram=hist,
        selection=selection,
    )


@dataclass(frozen=True)
class QuasiMultiplicativityReport:
    """Per-return-time ratios ||A^(tau_j + ell)|| / (||A^(tau_j)|| *
    ||A^(tau_j, tau_j + ell)||), pinned to [c1, 1] at positivity markers.

    Return times where one of the three products is structurally zero
    have no ratio: they are left out of taus and ratios and counted in
    undefined.
    """

    taus: np.ndarray
    ratios: np.ndarray
    c1: float
    undefined: int

    @property
    def min_ratio(self) -> float:
        return float(self.ratios.min())

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max())


def quasi_multiplicativity_check(spec: CocycleSpec, prefix: FiniteWord,
                                 selection: MarkerSelection, ell: int) -> QuasiMultiplicativityReport:
    if ell < len(selection.u):
        raise DomainError(f"probe length must be >= |u| = {len(selection.u)}")
    decomp = decompose_returns(prefix, selection.v)
    r = spec.depth
    times = decomp.return_times
    taus = times[times + ell + r - 1 <= len(prefix)]
    if not len(taus):
        raise InsufficientContextError("no return time leaves room for the probe", required=ell)
    gaps = _split_gaps(spec._table, spec.factor_indices(prefix.symbols, 0, int(taus[-1]) + ell),
                       taus, taus + ell)
    defined = ~np.isnan(gaps)
    if not defined.any():
        raise InsufficientContextError("every probe meets a structurally zero product",
                                       required=ell)
    return QuasiMultiplicativityReport(taus[defined], np.exp(gaps[defined]),
                                       selection.c1, int(len(gaps) - defined.sum()))


def periodic_exponent(spec: CocycleSpec, cycle: FiniteWord, rtol: float = 1e-12) -> float:
    """Exact exponent on the periodic orbit cycle^inf: log rho of the
    period product over the period. Computed for every rotation of the
    cycle and asserted rotation-invariant; a nilpotent period product
    gives -inf."""
    if len(cycle) < 1:
        raise DomainError("cycle must be nonempty")
    periods = _period_indices(spec, cycle.symbols)[None]
    return float(_periodic_exponents(spec._table, periods, rtol)[0])


def _periodic_exponents(table: _FactorTable, periods: np.ndarray,
                        rtol: float = 1e-12) -> np.ndarray:
    """`periodic_exponent` of each orbit whose period of factor indices is
    a row of periods (K, p): the period products of all K*p rotations go
    through one kernel batch and their spectral radii through one
    `spectral_radii` call."""
    K, p = periods.shape
    _, _, unit, acc, sup = _reduce_groups(table, K * p, p,
                                          lambda rows: _rotation_rows(periods, p, rows))
    live = sup.any(axis=(1, 2))
    units, sups = unit[live], sup[live]
    if np.any(units[sups > 0] == 0.0):
        raise UnderflowError_("structurally nonzero entry underflowed to float zero", position=p)
    vals = np.full(K * p, _NEG_INF)
    with np.errstate(divide="ignore"):  # a nilpotent product has rho 0
        vals[live] = (acc[live] + np.log(spectral_radii(units, sups))) / p
    for rotations in vals.reshape(K, p):
        finite = np.count_nonzero(rotations != _NEG_INF)
        if finite and finite != p:
            raise DomainError("rotations disagree on nilpotency; inconsistent table")
        spread = float(rotations.max() - rotations.min()) if finite else 0.0
        if spread > rtol * (1.0 + abs(rotations[0])):
            raise DomainError(
                f"period exponent not rotation-invariant within {rtol}: spread {spread}"
            )
    return vals[::p].copy()
