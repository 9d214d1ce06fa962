"""Locally constant matrix cocycles along symbolic orbits.

A cocycle assigns a non-negative matrix to every depth-r window of a
symbol stream; products along the orbit are accumulated in scaled form so
log-norms never overflow. This module produces exponent traces, checks
the structural hypotheses (positivity window, quasi-additivity defects),
and estimates the expected exponent under a sampling measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    InsufficientContextError,
    RangeError,
    UnderflowError_,
)
from .matrices import (
    NonNegMatrix,
    ScaledProduct,
    _floats,
    _support_matmul,
    as_matrix,
    log_norm_bounds,
)
from .textform import field
from .words import (
    Alphabet,
    BernoulliMeasure,
    FiniteWord,
    MarkovMeasure,
    PeriodicAtomicMeasure,
    WordSource,
    _as_symbol_array,
    _integral,
    _read_symbols,
    _texts,
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
        return self.matrices[int(self.factor_indices(window.symbols, 0, 1)[0])]

    def factor_indices(self, symbols: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Table indices of the factors at positions start..stop-1 (of each
        row, for a 2-D array of symbol rows). Every symbol the factors read,
        lookahead included, must lie in the table's alphabet, else
        DomainError: the kernel reads the indices unchecked."""
        r, m = self.depth, self.alphabet.size
        if stop <= start:
            return np.empty(symbols.shape[:-1] + (0,), dtype=np.intp)
        if symbols.shape[-1] < stop + r - 1:
            raise InsufficientContextError(
                f"prefix of length {symbols.shape[-1]} too short; need {stop + r - 1}",
                required=stop + r - 1,
            )
        read = symbols[..., start : stop + r - 1]
        lo = 0 if read.dtype.kind == "u" else int(read.min(initial=0))
        hi = int(read.max(initial=0))
        if lo < 0 or hi >= m:
            raise DomainError(f"symbol {lo if lo < 0 else hi} outside the cocycle table's "
                              f"alphabet of size {m}")
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
            Alphabet(field(d, "alphabet", int)),
            field(d, "depth", int),
            field(d, "matrices", dict),
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
        stack = _floats(raw, "matrix entries")
    except DomainError:  # ragged, or a value is not a float
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
    """Product-kernel state of a (F, d, d) factor stack: the units, every
    factor at entry sum 1 followed by an identity slot at index pad = F
    that pads short rows, with their log sums and exact supports (0/1
    floats), and the block size B that the smallest normalised entry and
    the dimension fix."""

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
    with np.errstate(over="ignore"):  # finite entries whose sum overflows: rejected below
        log_sums = np.append(_normalised(units[:-1]), 0.0)  # the identity pad keeps log 0
    if np.isinf(log_sums).any():
        raise RangeError("a table matrix's entry sum overflows; rescale the table")
    block = _block_size(float(units[:-1][supports[:-1]].min()), d)
    return _FactorTable(units, log_sums, supports.astype(float), F, block, d)


def _normalised(P: np.ndarray) -> np.ndarray:
    """Scale each matrix of the (..., d, d) stack P in place to entry sum 1
    and return the log sums; a zero matrix stays zero with log sum 0."""
    s = P.sum(axis=(-2, -1))
    s[s == 0.0] = 1.0
    P /= s[..., None, None]
    return np.log(s)


def _block_size(q: float, d: int) -> int:
    """Largest power of two B with q^B >= _TINY whose d x d supports and
    their log2(B) doubling steps fit the gather budget
    (8Bd^2 (log2(B) + 1) <= _GATHER_BYTES), and at least 1: a product of
    at most B sum-1 factors keeps every structurally positive entry at
    or above q^B, far from float underflow, so inside a block `> 0` is
    exact, one row's block is gathered in one piece, and `_first_zero`'s
    support prefix of a dying block stays within the same budget."""
    b = 1
    while (16 * b * d * d * (2 * b).bit_length() <= _GATHER_BYTES
           and 2 * b * math.log(q) >= math.log(_TINY)):
        b *= 2
    return b


def _ceil_pow2(n):
    """Smallest power of two >= max(n, 1), elementwise."""
    return np.left_shift(1, np.ceil(np.log2(np.maximum(n, 1))).astype(np.int64))


def _pieces(blocks: np.ndarray, offsets: np.ndarray, B: int):
    """Per level l and prefix length o = offsets[j] (1..B) of block
    blocks[j]: the flat index of piece (o >> l) - 1 among the level's
    aligned words, and whether bit l of o is set (as (levels, J, 1, 1))."""
    shifts = offsets >> np.arange(B.bit_length())[:, None]
    return (blocks * (B >> np.arange(B.bit_length()))[:, None] + np.maximum(shifts - 1, 0),
            (shifts & 1 == 1)[..., None, None])


def _block_bytes(B: int, width: int, d: int) -> int:
    """Bytes a chunk allocates for one row's block of B factors read as
    width words: the factors' indices (where padded) and log sums, the
    gathered words, and the block's unit, chain and support matrices."""
    return 8 * (2 * B + (width + 3) * d * d)


def _chunk_blocks(R: int, B: int, width: int, d: int, tables: int) -> int:
    """Blocks per chunk: as many as keep R rows' block allocations within
    what the word tables leave of _GATHER_BYTES, and at least one."""
    return max(1, (_GATHER_BYTES - tables) // (R * _block_bytes(B, width, d)))


def _fold(table: _FactorTable, rows: np.ndarray, B: int, count: int, flat):
    """Tables of the aligned words that occur in the factor rows (R, n),
    padded with the identity slot to count blocks of B factors.

    Level 0 is the units, with the rows as ids. Level l + 1 pairs adjacent
    level-l words: each distinct pair that occurs gets one id, through a
    dense remap over the u^2 pairs of the u level-l words, and its raw
    product is formed once, from the same two operands the pairwise levels
    multiply, so it is bit for bit the product at every position it
    stands for. A level is folded while
      - 2u^2 is at most its positions p, so the remap and the distinct
        products cost less than multiplying every position;
      - p is at least B, below which multiplying the positions costs less
        than the fold's fixed steps;
      - the tables and one block of rows at the level fit _GATHER_BYTES, or
        take no more than they and one block did a level lower.
    Returns (words, ids, pad, pieces): words[l], the table of level l up
    to the top folded level L; ids (R, ceil(n / 2^L)), the ids of level L;
    pad, the id of its all-pad word, which the positions past the rows'
    end hold; and pieces[l] = ids_l[:, flat[l]] for l < L, the checkpoint
    pieces `_tree` reads (none if flat is None), so no lower level's ids
    are kept.
    """
    R, d = len(rows), table.dim
    words, ids, pad, pieces = [table.units], rows, table.pad, []
    held, least = 0, R * _block_bytes(B, B, d)  # the tables' bytes; they and one block's
    for level in range(1, B.bit_length()):
        u, width = len(words[-1]), B >> level
        positions = R * count * width
        if 2 * u * u > positions or positions < B:
            break
        key = ids[:, 0::2] * u
        half = ids.shape[1] // 2
        key[:, :half] += ids[:, 1::2]
        if half < key.shape[1]:
            key[:, half:] += pad  # a lone last word pairs with the all-pad word
        seen = np.zeros(u * u, dtype=bool)
        seen[key] = True
        if key.shape[1] < count * width:  # all-pad words fill the last block
            seen[pad * u + pad] = True
        pairs = seen.nonzero()[0]
        grown = held + len(pairs) * d * d * 8
        if grown + R * _block_bytes(B, width, d) > max(_GATHER_BYTES, least):
            break
        if flat is not None:
            pieces.append(ids[:, flat[level - 1]])
        left, right = np.divmod(pairs, u)
        words.append(np.matmul(words[-1][left], words[-1][right]))
        remap = np.zeros(u * u, dtype=np.intp)
        remap[pairs] = np.arange(len(pairs))
        ids = np.take(remap, key, out=key, mode="wrap")  # in place: each key is read, then replaced
        pad, held = int(remap[pad * u + pad]), grown
        least = held + R * _block_bytes(B, width, d)
    return words, ids, pad, pieces


def _padded(a: np.ndarray, start: int, stop: int, fill: int) -> np.ndarray:
    """Columns start..stop-1 of the rows a, those past a's end set to fill;
    a view where none is."""
    part = a[:, start:stop]
    if part.shape[1] == stop - start:
        return part
    out = np.full((len(a), stop - start), fill, dtype=a.dtype)
    out[:, : part.shape[1]] = part
    return out


def _tree(words: list, ids: np.ndarray, S: np.ndarray, marks=None):
    """Products of the factor blocks whose aligned words of level L are the
    ids (R, K, B >> L) into words[L], L = len(words) - 1, and whose
    factors' log sums are S (R, K, B), B a power of two, reduced pairwise
    from level L up, as units of entry sum 1 and their log scales; and
    likewise, given marks = (blocks, offsets, pieces, odd), the products of
    the first offsets[j] (1..B) factors of block blocks[j]. A prefix of o
    factors is read from the dyadic pieces while the levels form: for each
    set bit l of o (odd[l]), piece (o >> l) - 1 of level l multiplies it
    on the left. pieces[l] holds those pieces: below L the ids (R, J) of
    their words, from L up their indices (J,) among the level's positions
    in these blocks, so no level is kept. A raw product of at most B sum-1
    factors has sum <= 1 and every structurally positive entry >= q^B, so
    it needs no renormalisation before it is complete. A structurally zero
    product has unit 0."""
    R, _, B = S.shape
    top, levels, d = len(words) - 1, B.bit_length(), words[0].shape[-1]
    P = words[top][ids]
    heads = head_logs = None
    if marks is not None:
        blocks, offsets, pieces, odd = marks
        eye = np.eye(d)
        heads = np.broadcast_to(eye, (R, len(blocks), d, d))
        # cumulative log sums of each checkpoint block once, however many checkpoints it holds
        held, which = np.unique(blocks, return_inverse=True)
        head_logs = np.cumsum(S[:, held], axis=-1)[:, which, offsets - 1]
    for level in range(levels):
        if marks is not None:
            piece = (words[level][pieces[level]] if level < top
                     else P.reshape(R, -1, d, d)[:, pieces[level]])
            heads = np.matmul(np.where(odd[level], piece, eye), heads)
        if top <= level < levels - 1:
            P = np.matmul(P[..., 0::2, :, :], P[..., 1::2, :, :])
    if marks is not None:
        head_logs = head_logs + _normalised(heads)
    P = P[..., 0, :, :]
    return P, S.sum(axis=-1) + _normalised(P), heads, head_logs


def _support_prefix(carry: np.ndarray, sups: np.ndarray) -> np.ndarray:
    """Exact running supports carry . S_0 ... S_k for every block k along
    axis 1, by doubling over 0/1 floats clipped at 1; sups is
    overwritten."""
    k = 1
    while k < sups.shape[1]:
        _support_matmul(sups[:, :-k], sups[:, k:], out=sups[:, k:])
        k *= 2
    return _support_matmul(carry[:, None], sups)


def _first_zero(table: _FactorTable, sup: np.ndarray, block: np.ndarray, start: int) -> int:
    """Exact step at which the support sup times the factors of block
    vanishes, read from the block's factor-by-factor support prefix."""
    live = _support_prefix(sup[None], table.supports[block][None])[0].any(axis=(-2, -1))
    if live.all():
        raise AssertionError("block support vanished but no factor zeroed it")
    return start + 1 + int(np.argmin(live))


def _reduce(table: _FactorTable, rows: np.ndarray, checkpoints: Sequence[int] = ()):
    """Products of the factor rows (R, n) of table indices, one per row.

    Each row is padded with the identity slot to whole blocks of B
    factors. `_fold` forms the words that occur in the rows once, over all
    rows and blocks; the blocks are reduced from its top level by `_tree`
    and chained in order, vectorised across rows, with the running support
    an exact boolean product, so a row takes ceil(n/B) chain steps
    whatever the checkpoints. Returns (values, zero, unit, log_scale,
    support): values[r, i] is the log entry-sum norm after checkpoints[i]
    factors (increasing, in 1..n), read as the chained unit before its
    block times the block's prefix up to it (-inf from the first
    structural zero on), zero[r] that first zero (0 if none), and
    exp(log_scale) * unit the product with its exact support. Blocks are
    taken in chunks whose allocations (`_block_bytes`), with the word
    tables, fit _GATHER_BYTES, and the log scale runs through one
    cumulative sum started from the carried one, so no result depends on
    where chunks split. Batches of many rows are sized by
    `_reduce_groups`.
    """
    R, n = rows.shape
    d = table.dim
    B = _row_block(table, n)
    count = -(-n // B)
    cps = np.asarray(checkpoints, dtype=np.int64)
    cp_block = (cps - 1) // B
    offsets = cps - cp_block * B
    flat, odd = _pieces(cp_block, offsets, B) if len(cps) else (None, None)
    words, ids, pad, pieces = _fold(table, rows, B, count, flat)
    width = B >> (len(words) - 1)
    chunk = _chunk_blocks(R, B, width, d, sum(w.nbytes for w in words[1:]))

    values = np.full((R, len(cps)), _NEG_INF)
    zero = np.zeros(R, dtype=np.int64)
    unit = np.tile(np.eye(d), (R, 1, 1))
    sup = unit.copy()  # 0/1 floats: the exact running support
    acc = np.zeros(R)
    for j0 in range(0, count, chunk):
        alive = zero == 0
        if not alive.any():
            break
        j1 = min(count, j0 + chunk)
        c0, c1 = np.searchsorted(cp_block, [j0, j1])
        here = cps[c0:c1]
        k_cp = cp_block[c0:c1] - j0
        marks = None
        if len(here):
            # the checkpoint pieces: word ids below the top folded level, and
            # from it up positions among the levels of this chunk's blocks
            shift = j0 * (B >> np.arange(len(pieces), B.bit_length()))[:, None]
            marks = (k_cp, offsets[c0:c1],
                     [p[:, c0:c1] for p in pieces] + list(flat[len(pieces):, c0:c1] - shift),
                     odd[:, c0:c1])
        factors = _padded(rows, j0 * B, j1 * B, table.pad)
        top = factors if ids is rows else _padded(ids, j0 * width, j1 * width, pad)
        units, logs, heads, head_logs = _tree(
            words, top.reshape(R, -1, width), table.log_sums[factors].reshape(R, -1, B), marks)
        sups = _support_prefix(sup, (units > 0).astype(float))
        live = sups.any(axis=(-2, -1))  # per row, a run of True then False
        chain = np.empty((j1 - j0 + 1, R, d, d))  # the unit before each block, and after the last
        chain[0] = unit
        sums = np.empty((j1 - j0, R))
        blocks = units.swapaxes(0, 1)
        # a dead row's float product is exactly zero, and nan once divided
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(j1 - j0):  # ufuncs called directly: one step a block
                np.matmul(chain[k], blocks[k], out=chain[k + 1])
                np.add.reduce(chain[k + 1], axis=(1, 2), out=sums[k])
                np.divide(chain[k + 1], sums[k, :, None, None], out=chain[k + 1])
            sums = sums.T
            # the log scale before each block and after the last, carried from acc
            steps = np.cumsum(np.concatenate([acc[:, None], logs + np.log(sums)], axis=1), axis=1)
            if len(here):
                head_sums = np.matmul(chain[k_cp].swapaxes(0, 1), heads).sum(axis=(-2, -1))
                head_values = steps[:, k_cp] + head_logs + np.log(head_sums)
        for r in np.flatnonzero(alive & ~live[:, -1]):
            k = int(np.argmin(live[r]))
            zero[r] = _first_zero(table, sups[r, k - 1] if k else sup[r],
                                  factors[r, k * B : (k + 1) * B], (j0 + k) * B)
        ends = np.minimum(np.arange(j0 + 1, j1 + 1) * B, n)
        if len(here):
            head_live = (zero == 0)[:, None] | (here < zero[:, None])
            values[:, c0:c1] = np.where(head_live, head_values, _NEG_INF)
            sums = np.concatenate([sums, head_sums], axis=1)
            live = np.concatenate([live, head_live], axis=1)
            ends = np.concatenate([ends, here])
        # the live product, block or checkpoint prefix, of earliest end whose sum is off
        bad = live & ~((sums > 0.0) & (sums < math.inf))
        if bad.any():
            r, k = np.nonzero(bad)
            first = np.argmin(ends[k])
            if sums[r[first], k[first]] == 0.0:
                raise UnderflowError_("entry-sum collapsed on a structurally nonzero product",
                                      position=int(ends[k[first]]))
            raise RangeError("cocycle product overflowed; rescale the table")
        acc, sup, unit = steps[:, -1], sups[:, -1], chain[-1]
    unit[zero > 0] = 0.0
    return values, zero, unit, acc, sup


def _row_block(table: _FactorTable, n: int) -> int:
    """Block size `_reduce` uses on rows of n factors."""
    return min(table.block, 1 << max(n - 1, 0).bit_length())


def _reduce_groups(table: _FactorTable, count: int, n: int, rows_for, checkpoints=()):
    """`_reduce` of count factor rows of length n; rows_for(range) builds
    the rows of one group. A group holds as many rows as keep both their
    indices (8n bytes a row) and the factors of one block (8Bd^2 bytes a
    row) within _GATHER_BYTES, and at least one."""
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
    _, zero, unit, acc, sup = _reduce(spec._table, idx[None])
    if zero[0]:  # the kernel zeroed the unit
        return ScaledProduct(spec.dim, unit[0], sup[0] > 0, _NEG_INF, m - n)
    s = float(unit[0].sum())  # the kernel checked every live row's chain sum
    return ScaledProduct(spec.dim, unit[0] / s, sup[0] > 0, float(acc[0]) + math.log(s), m - n)


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
    cps = _integral(np.asarray(checkpoints), "checkpoint").astype(np.int64, copy=False)
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

    The search walks the product automaton. A state is a window's last
    r-1 symbols together with the exact 0/1 support of its ell-step
    product; one more symbol takes a state to the state that the pair
    fixes, so each length forms one support product per distinct (state,
    next symbol) pair.

    Observed mode follows the windows of the sample prefix at positions
    >= start, one state per position, and returns the earliest window
    with full support at the shortest ell. Exhaustive mode follows all
    m^(ell+r-1) words through the lexicographically first word that
    reaches each state, and returns the lexicographically first word with
    full support at the shortest ell; a length costs at most (reachable
    states) x m support products, however many words reach them. An
    absent witness returns None: the condition may genuinely fail.
    """
    if max_ell < 1:
        raise DomainError("max_ell must be >= 1")
    if start < 0:
        raise DomainError("start must be non-negative")
    r, m = spec.depth, spec.alphabet.size
    contexts = m ** (r - 1)
    factors = np.arange(m**r)
    # the one-factor windows: the state each factor enters, states numbered
    # in the order of their first (lexicographically least) factor
    first, entered = _automaton_states(factors % contexts, spec._table.supports[:-1])
    context, support = first % contexts, spec._table.supports[first]
    if exhaustive:
        words = (first[:, None] // m ** np.arange(r - 1, -1, -1) % m).astype(np.uint8)
    else:
        observed = sample_prefix.symbols[start:]
        at = entered[spec.factor_indices(observed, 0, len(observed) - r + 1)]
    for ell in range(1, max_ell + 1):
        wlen = ell + r - 1
        if ell > 1:
            if exhaustive:  # every state's first word, extended in symbol order
                taken = np.ones(len(context) * m, dtype=bool)
            else:  # the (state, next symbol) pairs that the positions take
                if len(observed) < wlen:
                    break
                pair = at[:-1] * m + observed[wlen - 1 :]
                taken = np.zeros(len(context) * m, dtype=bool)
                taken[pair] = True
            parent, symbol = np.divmod(np.flatnonzero(taken), m)
            factor = context[parent] * m + symbol
            support = _support_steps(spec._table, support, parent, factor)
            first, entered = _automaton_states(factor % contexts, support)
            context, support = factor[first] % contexts, support[first]
            if exhaustive:
                words = np.column_stack([words[parent[first]], symbol[first]]).astype(np.uint8)
            else:
                at = entered[(np.cumsum(taken) - 1)[pair]]
        positive = support.all(axis=(1, 2))
        hits = np.flatnonzero(positive if exhaustive else positive[at])
        if len(hits):
            k = hits[0]
            window = words[k] if exhaustive else observed[k : k + wlen]
            return _positivity_witness(spec, window, ell)
    return None


def _automaton_states(context: np.ndarray, support: np.ndarray):
    """(first, state) for candidates given as contexts and (k, d, d) exact
    supports: states are numbered in the order of their first candidate,
    first[s] is that candidate and state[i] is the state of candidate i."""
    k = len(context)
    keys = np.concatenate([context.astype(np.int64)[:, None].view(np.uint8),
                           np.packbits(support.reshape(k, -1) > 0, axis=1)], axis=1)
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def _support_steps(table: _FactorTable, support: np.ndarray, parent: np.ndarray,
                   factor: np.ndarray) -> np.ndarray:
    """support[parent] times the factors' supports, kept 0/1, in batches
    whose operands fit _GATHER_BYTES."""
    d = table.dim
    chunk = max(1, _GATHER_BYTES // (d * d * 8))
    out = np.empty((len(parent), d, d))
    for c0 in range(0, len(parent), chunk):
        c1 = c0 + chunk
        _support_matmul(support[parent[c0:c1]], table.supports[factor[c0:c1]], out=out[c0:c1])
    return out


def _positivity_witness(spec: CocycleSpec, window: np.ndarray, ell: int) -> PositivityWitness:
    """The witness for a window whose ell-step support is full: its real
    product, taken factor by factor, and that product's least entry; a
    product past the float range raises RangeError."""
    P = np.eye(spec.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for f in spec.factor_indices(window, 0, ell):
            P = P @ spec._stack[f]
    if not np.isfinite(P).all():
        raise RangeError(f"the witness's {ell}-step product overflows; rescale the table")
    b = float(P.min())
    if b <= 0.0:
        raise UnderflowError_("positive support product underflowed to float zero",
                              position=ell)
    return PositivityWitness(FiniteWord(window, spec.alphabet), ell, b, NonNegMatrix(P))


# ---------------------------------------------------------------------------
# The expected exponent
# ---------------------------------------------------------------------------


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


def lambda_estimate(spec: CocycleSpec,
                    measure: BernoulliMeasure | MarkovMeasure | PeriodicAtomicMeasure, n: int,
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
