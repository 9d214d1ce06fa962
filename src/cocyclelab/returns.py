"""Constructive exponent estimation through return words.

Pick a positivity window u and a marker v extending it, decompose the
orbit prefix at the marker's return times, and average per-return-word
log-norms; quasi-multiplicativity bounds the error by a band proportional
to the return rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycles import (
    CocycleSpec,
    _range_log_norms,
    _split_gaps,
    check_positivity_condition,
)
from .errors import (
    ConditionUnsatisfiedError,
    DomainError,
    InsufficientContextError,
)
from .matrices import elem_constant
from .words import FiniteWord, ReturnDecomposition, decompose_returns, long_word_mass, occurrences


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
    v: FiniteWord
    k0: int
    c1: float
    shift_exits_u: bool | None


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
    v = prefix[p : p + k0_eff]
    n0 = len(u)
    if p + 2 * n0 <= len(prefix):
        shifted = prefix[p + n0 : p + 2 * n0]
        shift_exits_u = shifted != u
    else:
        shift_exits_u = None
    # The ell0-step product is constant on [u] for a depth-r table, so the
    # quasi-multiplicativity constant is that single product's c(P).
    c1 = elem_constant(witness.product)
    return MarkerSelection(u, ell0, b, p, v, k0_eff, c1, shift_exits_u)


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


def _block_log_norms(spec: CocycleSpec, prefix: FiniteWord,
                     decomp: ReturnDecomposition) -> np.ndarray:
    """log||A^(tau_{j-1}, tau_j)|| for j = 0..count, grouped by the block's
    symbols (with the depth lookahead) so each distinct block is computed
    once, all in one batch; the kernel's per-row work grows with the rows
    sent (16,666 blocks, 4 distinct, in a 200,000-symbol Thue-Morse prefix)."""
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
