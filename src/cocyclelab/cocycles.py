"""Locally constant matrix cocycles along symbolic orbits.

A cocycle assigns a non-negative matrix to every depth-r window of a
symbol stream; products along the orbit are accumulated in scaled form so
log-norms never overflow. This module produces exponent traces, checks
the structural hypotheses (positivity window, quasi-additivity defects),
and estimates the expected exponent under a sampling measure.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    InsufficientContextError,
    RangeError,
    UnderflowError_,
)
from .matrices import NonNegMatrix, ScaledProduct, as_matrix, log_norm_bounds, reachability
from .words import (
    Alphabet,
    FiniteWord,
    WordSource,
    _as_symbol_array,
    _bernoulli_symbols,
    _markov_symbols,
    _probabilities,
    _read_symbols,
    _texts,
    empirical_frequency,
)

_NEG_INF = float("-inf")
_TINY = 1e-300  # floor for structurally positive entries inside a block
_GATHER_BYTES = 1 << 20  # budget for the factors one reduction gathers


class CocycleSpec:
    """Total map from depth-r words to d x d non-negative matrices.

    The table must cover all m^r words; a default matrix may fill the
    unused ones, and two keys naming one word are rejected. The table is
    read in one pass: the keys become one (K, r) symbol array and the
    values one (K, d, d) stack, each checked once, and the stack is filed
    under the keys' word indices. The minimal structural nonzero entry over
    the whole table (the entry floor) and the maximal entry are recorded
    once and drive the norm envelope. The product kernel reads the table
    through `_factor_table`; `matrices` is built on first access.
    """

    def __init__(self, alphabet: Alphabet, depth: int, table: Mapping, default=None):
        if depth < 1:
            raise DomainError("cocycle depth must be >= 1")
        self.alphabet = alphabet
        self.depth = int(depth)
        count = alphabet.size**self.depth
        keys = list(table)
        words = _key_symbols(keys, alphabet, self.depth)
        index = self.factor_indices(words, 0, 1)[:, 0]
        order = np.argsort(index, kind="stable")
        ranked = index[order]
        same = np.flatnonzero(ranked[1:] == ranked[:-1])
        if len(same):
            a, b = order[same[0]], order[same[0] + 1]
            raise DomainError(f"table keys {keys[a]!r} and {keys[b]!r} name the same word")
        fill = len(keys) < count
        if fill and default is None:
            raise DomainError(
                f"table covers {len(keys)}/{count} depth-{self.depth} words "
                "and no default matrix was given"
            )
        stack = _entry_stack([table[key] for key in keys] + ([default] if default is not None else []))
        used = stack if fill else stack[: len(keys)]  # the default counts only where it fills
        positive = used[used > 0]
        if not positive.size:
            raise DomainError("cocycle table must contain at least one nonzero entry")
        self.dim = stack.shape[1]
        self.entry_floor = float(positive.min())  # the uniform lower bound b
        self.a_upper = float(used.max())
        full = np.empty((count, self.dim, self.dim))
        if fill:
            full[:] = stack[-1]
        full[index] = stack[: len(keys)]
        full.setflags(write=False)
        self._stack = full
        self._words, self._index = words[order], ranked
        self._default = stack[-1].copy() if default is not None else None
        self._matrices: list[NonNegMatrix] | None = None
        self._table = _factor_table(full)

    @property
    def matrices(self) -> list[NonNegMatrix]:
        """The matrix of every depth-r word, in `factor_indices` order."""
        if self._matrices is None:
            self._matrices = [NonNegMatrix(entries) for entries in self._stack]
        return self._matrices

    def evaluate(self, window: FiniteWord) -> NonNegMatrix:
        """Matrix attached to the first depth-r symbols of the window."""
        if len(window) < self.depth:
            raise InsufficientContextError(
                f"window of length {len(window)} shorter than depth {self.depth}",
                required=self.depth,
            )
        return self.matrices[int(self.factor_indices(window.symbols, 0, 1)[0])]

    def factor_indices(self, symbols: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Table indices of the factors at positions start..stop-1 (of each
        row, for a 2-D array of symbol rows)."""
        r, m = self.depth, self.alphabet.size
        if stop <= start:
            return np.empty(symbols.shape[:-1] + (0,), dtype=np.intp)
        if symbols.shape[-1] < stop + r - 1:
            raise InsufficientContextError(
                f"prefix of length {symbols.shape[-1]} too short; need {stop + r - 1}",
                required=stop + r - 1,
            )
        idx = symbols[..., start:stop].astype(np.intp)
        for k in range(1, r):  # Horner's rule over the window's r symbols
            idx *= m
            idx += symbols[..., start + k : stop + k]
        return idx

    def describe(self) -> dict:
        d = {
            "alphabet": self.alphabet.size,
            "depth": self.depth,
            "matrices": dict(zip(_texts(self._words, self.alphabet),
                                 self._stack[self._index].tolist())),
        }
        if self._default is not None:
            d["default"] = self._default.tolist()
        return d

    @classmethod
    def from_description(cls, d: Mapping) -> "CocycleSpec":
        return cls(
            Alphabet(int(d["alphabet"])),
            int(d["depth"]),
            dict(d["matrices"]),
            default=d.get("default"),
        )


def _key_symbols(keys: list, alphabet: Alphabet, depth: int) -> np.ndarray:
    """The (K, depth) symbols of the table keys, each read by the word-text
    parser, all checked against the alphabet at once."""
    rows = [_read_symbols(key, alphabet) for key in keys]
    for key, row in zip(keys, rows):
        if len(row) != depth:
            raise DomainError(f"table key {key!r} does not have depth {depth}")
    return _as_symbol_array(np.array(rows), alphabet).reshape(len(keys), depth)


def _entry_stack(values: list) -> np.ndarray:
    """The table values as one (K, d, d) float stack, checked at once; a
    stack that does not form raises what `NonNegMatrix` raises for the
    first bad value, or that the dimensions differ."""
    raw = [v.entries if isinstance(v, NonNegMatrix) else v for v in values]
    try:
        stack = np.asarray(raw, dtype=float)
    except (ValueError, TypeError):  # ragged, or a value is not numeric
        stack = None
    if stack is None or stack.ndim != 3 or not 1 <= stack.shape[1] == stack.shape[2]:
        for v in raw:
            as_matrix(v)
        raise DomainError("all table matrices must share one dimension")
    if not np.isfinite(stack).all():
        raise RangeError("matrix entries must be finite")
    if (stack < 0).any():
        raise DomainError("matrix entries must be non-negative")
    return stack


class _FactorTable(NamedTuple):
    """Product-kernel state of a (F, d, d) factor stack: every factor at
    entry sum 1 with its log sum and exact support (0/1 floats), an
    identity slot at index pad = F that pads short rows, and the block
    size B that the smallest normalised entry fixes."""

    units: np.ndarray
    log_sums: np.ndarray
    supports: np.ndarray
    pad: int
    block: int
    dim: int


def _factor_table(factors: np.ndarray) -> _FactorTable:
    F, d = factors.shape[:2]
    units = np.concatenate([factors, np.eye(d)[None]])
    supports = units > 0
    log_sums = np.append(_normalised(units[:-1]), 0.0)  # the identity pad keeps log 0
    return _FactorTable(units, log_sums, supports.astype(float), F,
                        _block_size(float(units[:-1][supports[:-1]].min())), d)


def _normalised(P: np.ndarray) -> np.ndarray:
    """Scale each matrix of the (..., d, d) stack P in place to entry sum 1
    and return the log sums; a zero matrix stays zero with log sum 0."""
    s = P.sum(axis=(-2, -1))
    s[s == 0.0] = 1.0
    P /= s[..., None, None]
    return np.log(s)


def _block_size(q: float) -> int:
    """Largest power of two B <= 64 with q^B >= _TINY: a product of at most
    B sum-1 factors keeps every structurally positive entry at or above
    q^B, far from float underflow, so inside a block `> 0` is exact."""
    b = 1
    while b < 64 and 2 * b * math.log(q) >= math.log(_TINY):
        b *= 2
    return b


def _ceil_pow2(n):
    """Smallest power of two >= max(n, 1), elementwise."""
    return np.left_shift(1, np.ceil(np.log2(np.maximum(n, 1))).astype(np.int64))


def _tree(table: _FactorTable, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of the factor blocks idx[..., :] (B a power of two), reduced
    pairwise, as units of entry sum 1 and their log scales. A raw product
    of at most B sum-1 factors has sum <= 1 and every structurally positive
    entry >= q^B, so it needs no renormalisation before the block's end.
    A structurally zero block has unit 0."""
    P = table.units[idx]
    while P.shape[-3] > 1:
        P = np.matmul(P[..., 0::2, :, :], P[..., 1::2, :, :])
    P = P[..., 0, :, :]
    return P, table.log_sums[idx].sum(axis=-1) + _normalised(P)


def _support_prefix(carry: np.ndarray, sups: np.ndarray) -> np.ndarray:
    """Exact running supports carry . S_0 ... S_k for every block k along
    axis 1, by doubling over 0/1 floats clipped at 1."""
    k = 1
    while k < sups.shape[1]:
        step = np.minimum(np.matmul(sups[:, :-k], sups[:, k:]), 1.0)
        sups = np.concatenate([sups[:, :k], step], axis=1)
        k *= 2
    return np.minimum(np.matmul(carry[:, None], sups), 1.0)


def _first_zero(table: _FactorTable, sup: np.ndarray, block: np.ndarray, start: int) -> int:
    """Exact step at which the support sup times the factors of block
    vanishes, read from the block's factor-by-factor support prefix."""
    live = _support_prefix(sup[None], table.supports[block][None])[0].any(axis=(-2, -1))
    if live.all():
        raise AssertionError("block support vanished but no factor zeroed it")
    return start + 1 + int(np.argmin(live))


def _reduce(table: _FactorTable, rows: np.ndarray, checkpoints: Sequence[int] = ()):
    """Products of the factor rows (R, n) of table indices, one per row.

    Each row is cut into blocks of B factors and at every checkpoint; the
    blocks are reduced by `_tree` and scanned in order, vectorised across
    rows, with the running support an exact boolean product. Returns
    (values, zero, unit, log_scale, support): values[r, i] is the log
    entry-sum norm after checkpoints[i] factors (-inf from the first
    structural zero on), zero[r] that first zero (0 if none), and
    exp(log_scale) * unit the product with its exact support. Batches of
    many rows are sized by `_reduce_groups`.
    """
    R, n = rows.shape
    d = table.dim
    B = _row_block(table, n)
    cps = np.asarray(checkpoints, dtype=np.int64)
    bounds = np.append(np.arange(0, n, B), n)
    if len(cps):
        bounds = np.union1d(bounds, cps)
    padded = np.concatenate([rows, np.full((R, 1), table.pad)], axis=1)

    values = np.full((R, len(cps)), _NEG_INF)
    zero = np.zeros(R, dtype=np.int64)
    unit = np.tile(np.eye(d), (R, 1, 1))
    sup = unit.copy()  # 0/1 floats: the exact running support
    acc = np.zeros(R)
    chunk = max(1, _GATHER_BYTES // (R * B * d * d * 8))
    for j0 in range(0, len(bounds) - 1, chunk):
        alive = zero == 0
        if not alive.any():
            break
        lo, hi = bounds[:-1][j0 : j0 + chunk], bounds[1:][j0 : j0 + chunk]
        # blocks cut short by a checkpoint are padded to their own power of two
        widths = _ceil_pow2(hi - lo)
        units, logs = np.empty((R, len(lo), d, d)), np.empty((R, len(lo)))
        for w in np.unique(widths):
            sel = np.flatnonzero(widths == w)
            pos = lo[sel, None] + np.arange(w)
            units[:, sel], logs[:, sel] = _tree(table, padded[:, np.where(pos < hi[sel, None], pos, n)])
        sups = _support_prefix(sup, (units > 0).astype(float))
        live = sups.any(axis=(-2, -1))  # per row, a run of True then False
        sums = np.empty_like(logs)
        # a dead row's float product is exactly zero, and nan once divided
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, U in enumerate(units.swapaxes(0, 1)):
                unit = np.matmul(unit, U)
                sums[:, k] = s = unit.sum(axis=(1, 2))
                unit /= s[:, None, None]
            steps = np.cumsum(logs + np.log(sums), axis=1) + acc[:, None]
        bad = live & ~((sums > 0.0) & (sums < math.inf))
        if bad.any():
            r, k = np.argwhere(bad)[0]
            if sums[r, k] == 0.0:
                raise UnderflowError_(
                    "entry-sum collapsed on a structurally nonzero product",
                    position=int(hi[k]),
                )
            raise RangeError("cocycle product overflowed; rescale the table")
        for r in np.flatnonzero(alive & ~live[:, -1]):
            k = int(np.argmin(live[r]))
            zero[r] = _first_zero(table, sups[r, k - 1] if k else sup[r], rows[r, lo[k] : hi[k]],
                                  int(lo[k]))
        if len(cps):
            at = np.searchsorted(cps, hi)
            for k in np.flatnonzero(cps[np.minimum(at, len(cps) - 1)] == hi):
                values[:, at[k]] = np.where(live[:, k], steps[:, k], _NEG_INF)
        acc = steps[:, -1]
        sup = sups[:, -1]
    unit[zero > 0] = 0.0
    return values, zero, unit, acc, sup


def _row_block(table: _FactorTable, n: int) -> int:
    """Block size `_reduce` uses on rows of n factors."""
    return min(table.block, 1 << max(n - 1, 0).bit_length())


def _reduce_groups(table: _FactorTable, count: int, n: int, rows_for, checkpoints=()):
    """`_reduce` of count factor rows of length n; rows_for(range) builds
    the rows of one group. A group holds as many rows as keep both their
    indices (8n bytes a row) and the factors one reduction gathers
    (8Bd^2 bytes a row) within _GATHER_BYTES, and at least one."""
    per_row = 8 * max(n, _row_block(table, n) * table.dim**2)
    group = max(1, _GATHER_BYTES // per_row)
    if count <= group:
        return _reduce(table, rows_for(range(count)), checkpoints)
    parts = [_reduce(table, rows_for(range(i, min(count, i + group))), checkpoints)
             for i in range(0, count, group)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _log_norms(reduced) -> np.ndarray:
    """log entry-sum norm of each row's product from a `_reduce` result;
    -inf on a zero."""
    _, zero, unit, acc, _ = reduced
    s = unit.sum(axis=(1, 2))
    s[zero > 0] = 1.0
    return np.where(zero > 0, _NEG_INF, acc + np.log(s))


def _range_log_norms(table: _FactorTable, idx: np.ndarray, starts, stops) -> np.ndarray:
    """`_log_norms` of the ranges idx[a:b], batched in rows grouped by
    power-of-two padded length."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(stops, dtype=np.int64) - starts
    padded = np.append(idx, table.pad)
    widths = _ceil_pow2(lengths)
    out = np.empty(len(starts))
    for w in np.unique(widths):
        sel = np.flatnonzero(widths == w)
        cols, lens, offs = np.arange(w), lengths[sel, None], starts[sel, None]
        out[sel] = _log_norms(_reduce_groups(table, len(sel), int(w), lambda g: padded[
            np.where(cols < lens[g], offs[g] + cols, len(idx))]))
    return out


def _period_indices(spec: CocycleSpec, cycle: np.ndarray) -> np.ndarray:
    """Table indices of the p factors of one period of cycle^inf."""
    p = len(cycle)
    return spec.factor_indices(np.tile(cycle, -(-(p + spec.depth - 1) // p)), 0, p)


def _rotation_rows(periods: np.ndarray, n: int, rows) -> np.ndarray:
    """Table indices of the first n factors of rotated periodic orbits.
    periods (K, p) holds one period of each orbit; row r is orbit r // p
    shifted by r % p."""
    p = periods.shape[1]
    rows = np.asarray(rows)[:, None]
    return periods[rows // p, (rows % p + np.arange(n)) % p]


def partial_product(spec: CocycleSpec, prefix: FiniteWord, n: int, m: int) -> ScaledProduct:
    """Scaled product of the cocycle factors at positions n..m-1; the
    empty range returns the identity accumulator with log_norm 0."""
    if not 0 <= n <= m:
        raise DomainError("need 0 <= n <= m")
    if n == m:
        return ScaledProduct.empty(spec.dim)
    idx = spec.factor_indices(prefix.symbols, n, m)
    _, _, unit, acc, sup = _reduce(spec._table, idx[None])
    return ScaledProduct.from_raw(unit[0], sup[0] > 0, float(acc[0]), m - n)


@dataclass(frozen=True)
class LyapunovTrace:
    """log-norms of the running cocycle product at chosen horizons.

    values[i] = log ||product of the first checkpoints[i] factors||, or
    -inf from the first structural zero onward (zero_index records where).
    """

    checkpoints: np.ndarray
    values: np.ndarray
    zero_index: int | None

    @property
    def exponents(self) -> np.ndarray:
        return self.values / self.checkpoints

    def slope_estimate(self) -> float:
        """Difference quotient across the last two checkpoints; cancels
        the O(1) offset of log-norms so periodic and quasi-additive traces
        converge at machine precision instead of O(1/n)."""
        if self.zero_index is not None:
            return _NEG_INF
        if len(self.checkpoints) == 1:
            return float(self.values[0] / self.checkpoints[0])
        return float(
            (self.values[-1] - self.values[-2])
            / (self.checkpoints[-1] - self.checkpoints[-2])
        )

    def to_csv(self) -> str:
        lines = ["n,log_norm,exponent,zero_flag"]
        exps = self.exponents
        for i, n in enumerate(self.checkpoints):
            zero = int(self.zero_index is not None and n >= self.zero_index)
            lines.append(f"{int(n)},{repr(float(self.values[i]))},{repr(float(exps[i]))},{zero}")
        return "\n".join(lines) + "\n"


def geometric_checkpoints(n0: int, n_max: int) -> np.ndarray:
    """Default checkpoint grid ceil(n0 * 2^(k/2)) up to n_max (n_max always
    included); dense enough to expose oscillation on log scale."""
    if not 1 <= n0 <= n_max:
        raise DomainError("need 1 <= n0 <= n_max")
    pts = []
    k = 0
    while True:
        n = math.ceil(n0 * 2 ** (k / 2))
        if n > n_max:
            break
        pts.append(n)
        k += 1
    if not pts or pts[-1] != n_max:
        pts.append(n_max)
    return np.unique(np.array(pts, dtype=np.int64))


def lyapunov_trace(spec: CocycleSpec, source: WordSource, checkpoints) -> LyapunovTrace:
    cps = np.asarray(checkpoints, dtype=np.int64)
    if len(cps) == 0 or cps[0] < 1 or np.any(np.diff(cps) <= 0):
        raise DomainError("checkpoints must be strictly increasing and >= 1")
    n_max = int(cps[-1])
    prefix = source.prefix(n_max + spec.depth - 1)
    idx = spec.factor_indices(prefix.symbols, 0, n_max)
    values, zero, _, _, _ = _reduce(spec._table, idx[None], cps)
    return LyapunovTrace(cps, values[0], int(zero[0]) or None)


def trace_envelope(spec: CocycleSpec, n: int) -> tuple[float, float]:
    """Norm envelope for any nonzero n-fold product from this table."""
    return log_norm_bounds(n, spec.entry_floor, spec.a_upper, spec.dim)


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectPair:
    n: int
    m: int
    defect: float | None  # None when a zero product made it undefined


@dataclass(frozen=True)
class DefectReport:
    pairs: list[DefectPair]
    max_defect: float | None
    undefined: int


def default_defect_pairs(max_total: int) -> list[tuple[int, int]]:
    """Geometric (n, m) grid with n + m <= max_total."""
    if max_total < 2:
        raise DomainError("max_total must be >= 2")
    grid = sorted(
        {int(math.ceil(2 ** (k / 2))) for k in range(0, 2 * int(math.log2(max_total)) + 1)}
    )
    return [(n, m) for n in grid for m in grid if n + m <= max_total]


def quasi_additivity_defect(spec: CocycleSpec, prefix: FiniteWord,
                            pairs: Sequence[tuple[int, int]]) -> DefectReport:
    """|log||A^(n+m)|| - log||A^(n)|| - log||A^(n,n+m)||| per pair.

    Pairs touching a structural zero are reported as undefined and
    excluded from the maximum.
    """
    if not pairs:
        raise DomainError("need at least one (n, m) pair")
    for n, m in pairs:
        if n < 1 or m < 1:
            raise DomainError("defect pairs need n >= 1 and m >= 1")
    need = max(n + m for n, m in pairs)
    if len(prefix) < need + spec.depth - 1:
        raise InsufficientContextError(
            f"prefix of length {len(prefix)} too short for pairs up to {need}",
            required=need + spec.depth - 1,
        )
    gaps = _split_gaps(spec._table, spec.factor_indices(prefix.symbols, 0, need),
                       [n for n, _ in pairs], [n + m for n, m in pairs])
    out = [DefectPair(n, m, None if math.isnan(g) else abs(g))
           for (n, m), g in zip(pairs, gaps.tolist())]
    finite = [p.defect for p in out if p.defect is not None]
    return DefectReport(out, max(finite) if finite else None, len(out) - len(finite))


def _split_gaps(table: _FactorTable, idx: np.ndarray, starts, stops) -> np.ndarray:
    """log||A^(b)|| - log||A^(a)|| - log||A^(a,b)|| for each split a < b,
    where A^(k) is the product of the first k factors of the row idx and
    A^(a,b) that of idx[a:b]; nan where one of the three is structurally
    zero, so the split is undefined."""
    starts, stops = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    marks = np.union1d(starts, stops)
    values = _reduce(table, idx[None, : marks[-1]], marks)[0][0]
    pieces = np.stack([values[np.searchsorted(marks, stops)],
                       values[np.searchsorted(marks, starts)],
                       _range_log_norms(table, idx, starts, stops)])
    with np.errstate(invalid="ignore"):  # -inf - -inf
        return np.where(np.isfinite(pieces).all(axis=0), pieces[0] - pieces[1] - pieces[2], np.nan)


@dataclass(frozen=True)
class PositivityWitness:
    """Observed window u whose ell0-step product is strictly positive,
    together with that product and its entry floor b."""

    u: FiniteWord
    ell0: int
    b: float
    product: NonNegMatrix


def check_positivity_condition(spec: CocycleSpec, sample_prefix: FiniteWord,
                               max_ell: int, start: int = 0,
                               exhaustive: bool = False) -> PositivityWitness | None:
    """Search for a window whose ell-step product has all-true support.

    Scans windows observed in the sample prefix (positions >= start) for
    ell = 1..max_ell, shortest ell first, earliest window first; the
    exhaustive mode enumerates all m^(ell+r-1) words instead. An absent
    witness returns None: the condition may genuinely fail.
    """
    if max_ell < 1:
        raise DomainError("max_ell must be >= 1")
    if start < 0:
        raise DomainError("start must be non-negative")
    r, m, d = spec.depth, spec.alphabet.size, spec.dim
    arr = sample_prefix.symbols
    supports = spec._table.supports
    chunk = max(1, _GATHER_BYTES // (d * d * 8))
    observed = arr[start:]
    # names[k]: rank of the observed window of length `named` at k, renamed
    # by one np.unique per added symbol; ranks stay below len(observed) * m
    names, named = np.zeros(len(observed) + 1, dtype=np.intp), 0

    def first_witness(windows: np.ndarray, ell: int) -> PositivityWitness | None:
        # exact support products of all windows at once, first hit in order
        idx = spec.factor_indices(windows, 0, ell)
        sup = supports[idx[:, 0]]
        for t in range(1, ell):
            sup = np.minimum(np.matmul(sup, supports[idx[:, t]]), 1.0)
        hits = np.flatnonzero(sup.all(axis=(1, 2)))
        if len(hits) == 0:
            return None
        P = np.eye(d)
        for f in idx[hits[0]]:
            P = P @ spec._stack[f]
        b = float(P.min())
        if b <= 0.0:
            raise UnderflowError_("positive support product underflowed to float zero",
                                  position=ell)
        return PositivityWitness(FiniteWord(windows[hits[0]], spec.alphabet), ell, b,
                                 NonNegMatrix(P))

    for ell in range(1, max_ell + 1):
        wlen = ell + r - 1
        if exhaustive:
            # all m^wlen words in lexicographic order, decoded chunk by chunk
            place = m ** np.arange(wlen - 1, -1, -1, dtype=np.int64)
            count = m**wlen
            take = lambda c0, c1: (
                np.arange(c0, c1, dtype=np.int64)[:, None] // place % m).astype(np.uint8)
        else:
            if len(observed) < wlen:
                break
            while named < wlen:
                _, first, names = np.unique(names[:-1] * m + observed[named:],
                                            return_index=True, return_inverse=True)
                named += 1
            distinct = sliding_window_view(observed, wlen)[np.sort(first)]
            count = len(distinct)
            take = lambda c0, c1: distinct[c0:c1]
        for c0 in range(0, count, chunk):
            hit = first_witness(take(c0, min(count, c0 + chunk)), ell)
            if hit is not None:
                return hit
    return None


# ---------------------------------------------------------------------------
# Sampling measures and the expected exponent
# ---------------------------------------------------------------------------


class MeasureModel(ABC):
    """Shift-invariant sampling model with an explicit cylinder mass."""

    alphabet: Alphabet

    @abstractmethod
    def cylinder_mass(self, word: FiniteWord) -> float: ...


class BernoulliMeasure(MeasureModel):
    def __init__(self, probabilities):
        probs = _probabilities(probabilities)
        if probs.ndim != 1:
            raise DomainError("probabilities must form a vector")
        self.probabilities = probs
        self.alphabet = Alphabet(len(probs))

    def cylinder_mass(self, word: FiniteWord) -> float:
        return float(np.prod(self.probabilities[word.symbols]))

    def sample_symbols(self, n: int, seed: int, replica: int) -> np.ndarray:
        return _bernoulli_symbols(self.probabilities, n, seed, replica)


class MarkovMeasure(MeasureModel):
    def __init__(self, transition, stationary=None):
        P = _probabilities(transition)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DomainError("transition must be square")
        self.transition = P
        self.alphabet = Alphabet(P.shape[0])
        if stationary is None:
            stationary = _stationary_vector(P)
        self.stationary = _probabilities(stationary)
        if self.stationary.shape != (P.shape[0],):
            raise DomainError("need one stationary probability per state")

    def cylinder_mass(self, word: FiniteWord) -> float:
        syms = word.symbols
        if len(syms) == 0:
            return 1.0
        mass = self.stationary[syms[0]]
        for a, b in zip(syms[:-1], syms[1:]):
            mass *= self.transition[a, b]
        return float(mass)

    def sample_symbols(self, n: int, seed: int, replica: int) -> np.ndarray:
        return _markov_symbols(self.transition, self.stationary, n, seed, replica)


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    """The unique stationary vector of a chain with exactly one closed
    communicating class, decided from the transition support alone."""
    m = len(P)
    reach = reachability(P > 0)
    # i lies in a closed class iff every state it reaches reaches it back
    closed = np.all(reach <= reach.T, axis=1)
    if len({reach[i].tobytes() for i in np.flatnonzero(closed)}) != 1:
        raise DomainError(
            "chain has several closed communicating classes, so its stationary "
            "vector is not unique; pass one explicitly"
        )
    vals, vecs = np.linalg.eig(P[np.ix_(closed, closed)].T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.abs(np.real(vecs[:, k]))
    out = np.zeros(m)
    out[closed] = pi / pi.sum()
    return out


class PeriodicAtomicMeasure(MeasureModel):
    """Uniform measure on the orbit of cycle^inf: mass 1/p on each of the
    p rotations (repeated rotations accumulate mass)."""

    def __init__(self, cycle: FiniteWord):
        if len(cycle) == 0:
            raise DomainError("cycle must be nonempty")
        self.cycle = cycle
        self.alphabet = cycle.alphabet

    @property
    def period(self) -> int:
        return len(self.cycle)

    def rotation_prefix(self, t: int, n: int) -> np.ndarray:
        return self.cycle.symbols[(t + np.arange(n)) % self.period]

    def cylinder_mass(self, word: FiniteWord) -> float:
        p = self.period
        rows = _rotation_rows(self.cycle.symbols[None], len(word), np.arange(p))
        return int(np.count_nonzero((rows == word.symbols).all(axis=1))) / p


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte-Carlo (or exact periodic) estimate of the expected exponent.

    Replicas that hit a structural zero are counted in minus_inf_count and
    excluded from mean/stderr; mixed_support flags their presence rather
    than forcing a -inf convention on the average.
    """

    mean: float
    stderr: float
    values: np.ndarray
    n: int
    replicas: int
    minus_inf_count: int

    @property
    def mixed_support(self) -> bool:
        return self.minus_inf_count > 0


def lambda_estimate(spec: CocycleSpec, measure: MeasureModel, n: int,
                    replicas: int = 100, seed: int = 0) -> LambdaEstimate:
    """Average of (1/n) log ||A^(n)|| over measure samples.

    Periodic atomic measures are averaged exactly over the p rotations
    (replicas and seed are ignored and the result is deterministic);
    Bernoulli/Markov models draw `replicas` independent sample paths with
    a fixed per-replica stream, summed in replica order.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    periodic = isinstance(measure, PeriodicAtomicMeasure)
    if periodic:
        period, replicas = _period_indices(spec, measure.cycle.symbols)[None], measure.period
        rows_for = lambda sel: _rotation_rows(period, n, sel)
    elif replicas < 1:
        raise DomainError("replicas must be >= 1")
    else:
        rows_for = lambda sel: spec.factor_indices(np.stack(
            [measure.sample_symbols(n + spec.depth - 1, seed, rep) for rep in sel]), 0, n)
    vals = _log_norms(_reduce_groups(spec._table, replicas, n, rows_for)) / n
    finite = vals[np.isfinite(vals)]
    mean = float(finite.mean()) if len(finite) else _NEG_INF
    stderr = float(finite.std(ddof=1) / math.sqrt(len(finite))) if len(finite) > 1 else float("nan")
    return LambdaEstimate(mean, 0.0 if periodic else stderr, vals, n, replicas,
                          int(len(vals) - len(finite)))


def frequency_deviations(prefix: FiniteWord, measure: MeasureModel,
                         words: Sequence[FiniteWord]) -> list[tuple[FiniteWord, float, float]]:
    """Observed sliding-window frequency vs model cylinder mass per word.

    Small deviations are evidence, not proof, that the prefix is typical
    for the model: no finite horizon certifies genericity.
    """
    out = []
    for w in words:
        out.append((w, empirical_frequency(prefix, w), measure.cylinder_mass(w)))
    return out


# ---------------------------------------------------------------------------
# Limit extrapolation for quasi-subadditive sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeketeReport:
    ns: np.ndarray
    ratios: np.ndarray          # a_n / n
    envelope: np.ndarray        # (a_n + |c_n|) / n, an upper bound on the limit
    running_min: np.ndarray
    estimate: float             # last ratio
    violations: list            # (n, m, excess) where a_{n+m} > a_n + a_m + c_{n^m}


def fekete_extrapolate(samples: Sequence[tuple[int, float]], c_of: Callable[[int], float],
                       tol: float = 1e-9) -> FeketeReport:
    """Diagnose a sequence expected to satisfy a_{n+m} <= a_n + a_m + c_{min(n,m)},
    where c_of(k) gives c_k.

    The envelope (a_m + |c_m|)/m bounds limsup a_n/n for every m, so its
    running minimum brackets the limit from above; the last ratio serves
    as the point estimate. All sample pairs whose sum is also sampled are
    checked for violations of the inequality.
    """
    if len(samples) < 3:
        raise DomainError("need at least 3 sample points")
    pts = sorted((int(n), float(a)) for n, a in samples)
    ns = np.array([n for n, _ in pts], dtype=np.int64)
    if len(set(ns.tolist())) != len(ns):
        raise DomainError("duplicate sample points")
    a = {n: v for n, v in pts}
    ratios = np.array([a[n] / n for n in ns])
    envelope = np.array([(a[n] + abs(c_of(n))) / n for n in ns])
    running_min = np.minimum.accumulate(envelope)
    violations = []
    for i, n in enumerate(ns):
        for m in ns[i:]:
            total = int(n + m)
            if total in a:
                bound = a[int(n)] + a[int(m)] + c_of(int(min(n, m)))
                if a[total] > bound + tol:
                    violations.append((int(n), int(m), float(a[total] - bound)))
    return FeketeReport(ns, ratios, envelope, running_min, float(ratios[-1]), violations)
