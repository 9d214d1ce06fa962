"""Locally constant matrix cocycles along symbolic orbits.

A cocycle assigns a non-negative matrix to every depth-r window of a
symbol stream; products along the orbit are accumulated in scaled form so
log-norms never overflow. This module produces exponent traces, checks
the structural hypotheses (positivity window, quasi-additivity defects),
and estimates the expected exponent under a sampling measure.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    InsufficientContextError,
    RangeError,
    UnderflowError_,
)
from .matrices import (
    NonNegMatrix,
    ScaledProduct,
    as_matrix,
    identity_rows,
    rows_from_support,
    rows_mul,
    log_norm_bounds,
)
from .words import Alphabet, FiniteWord, WordSource, _bernoulli_symbols, _markov_symbols

_NEG_INF = float("-inf")


class CocycleSpec:
    """Total map from depth-r words to d x d non-negative matrices.

    The table must cover all m^r words; a default matrix may fill the
    unused ones. The minimal structural nonzero entry over the whole table
    (the entry floor) and the maximal entry are recorded once and drive
    the norm envelope and the renormalization cadence.
    """

    def __init__(self, alphabet: Alphabet, depth: int, table: Mapping, default=None,
                 declared_ell0: int | None = None):
        if depth < 1:
            raise DomainError("cocycle depth must be >= 1")
        self.alphabet = alphabet
        self.depth = int(depth)
        m = alphabet.size
        count = m**self.depth
        given: dict[str, NonNegMatrix] = {}
        for key, val in table.items():
            word = self._normalize_key(key)
            given[word] = as_matrix(val)
        self._given = given
        self._default = as_matrix(default) if default is not None else None
        matrices: list[NonNegMatrix | None] = [None] * count
        for word, mat in given.items():
            matrices[self._index_of_text(word)] = mat
        missing = [i for i, mat in enumerate(matrices) if mat is None]
        if missing and self._default is None:
            raise DomainError(
                f"table covers {count - len(missing)}/{count} depth-{self.depth} words "
                "and no default matrix was given"
            )
        for i in missing:
            matrices[i] = self._default
        dims = {mat.dim for mat in matrices}
        if len(dims) != 1:
            raise DomainError("all table matrices must share one dimension")
        self.dim = dims.pop()
        self.matrices: list[NonNegMatrix] = matrices
        nonzero = [mat.entries[mat.support] for mat in matrices if not mat.is_zero]
        if not nonzero:
            raise DomainError("cocycle table must contain at least one nonzero entry")
        flat = np.concatenate(nonzero)
        self.entry_floor = float(flat.min())  # the uniform lower bound b
        self.a_star = self.entry_floor
        self.a_upper = float(max(mat.entries.max() for mat in matrices))
        self.declared_ell0 = declared_ell0
        self._mats = [np.ascontiguousarray(mat.entries) for mat in matrices]
        self._rows = [rows_from_support(mat.support) for mat in matrices]
        self._cadence = _renorm_cadence(self.a_star, self.a_upper, self.dim)

    def _normalize_key(self, key) -> str:
        if isinstance(key, FiniteWord):
            word = key
        elif isinstance(key, str):
            word = FiniteWord.from_text(key, self.alphabet)
        else:
            word = FiniteWord(key, self.alphabet)
        if len(word) != self.depth:
            raise DomainError(f"table key {key!r} does not have depth {self.depth}")
        return word.to_text()

    def _index_of_text(self, text: str) -> int:
        word = FiniteWord.from_text(text, self.alphabet)
        return int(self.word_index(word.symbols))

    def word_index(self, symbols: np.ndarray) -> int:
        idx = 0
        for s in symbols[: self.depth]:
            idx = idx * self.alphabet.size + int(s)
        return idx

    def evaluate(self, window: FiniteWord) -> NonNegMatrix:
        """Matrix attached to the first depth-r symbols of the window."""
        if len(window) < self.depth:
            raise InsufficientContextError(
                f"window of length {len(window)} shorter than depth {self.depth}",
                required=self.depth,
            )
        return self.matrices[self.word_index(window.symbols)]

    def factor_indices(self, symbols: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Table indices of the factors at positions start..stop-1."""
        r, m = self.depth, self.alphabet.size
        if stop <= start:
            return np.empty(0, dtype=np.intp)
        if len(symbols) < stop + r - 1:
            raise InsufficientContextError(
                f"prefix of length {len(symbols)} too short; need {stop + r - 1}",
                required=stop + r - 1,
            )
        idx = symbols[start:stop].astype(np.intp)
        for k in range(1, r):  # Horner's rule over the window's r symbols
            idx *= m
            idx += symbols[start + k : stop + k]
        return idx

    def describe(self) -> dict:
        d = {
            "alphabet": self.alphabet.size,
            "depth": self.depth,
            "matrices": {w: mat.entries.tolist() for w, mat in sorted(self._given.items())},
        }
        if self._default is not None:
            d["default"] = self._default.entries.tolist()
        if self.declared_ell0 is not None:
            d["declared_ell0"] = self.declared_ell0
        return d

    @classmethod
    def from_description(cls, d: Mapping) -> "CocycleSpec":
        return cls(
            Alphabet(int(d["alphabet"])),
            int(d["depth"]),
            dict(d["matrices"]),
            default=d.get("default"),
            declared_ell0=d.get("declared_ell0"),
        )


def _renorm_cadence(a_star: float, a_upper: float, d: int) -> int:
    # Between renormalizations entries can grow by at most (a_upper*d^2)
    # per factor and shrink by a_star; keep the float sum well inside range.
    L = max(abs(math.log(max(a_upper * d * d, 1e-300))), abs(math.log(max(a_star, 1e-300)))) + 1.0
    return max(1, min(64, int(600.0 / L)))


def _accumulate(spec: CocycleSpec, idx: np.ndarray, checkpoints: Sequence[int] = ()):
    """Stream the factors idx[0], idx[1], ... through a scaled product.

    Returns (values, zero_index, final ScaledProduct) where values[i] is
    the log entry-sum norm after checkpoints[i] factors (-inf past a
    structural zero). The float unit is renormalized on a cadence chosen
    from the table's entry range; the support bitmask is updated exactly
    every step, so the first-zero position is exact.
    """
    d = spec.dim
    mats = spec._mats
    rows_list = spec._rows
    cadence = spec._cadence
    n = len(idx)
    cps = list(checkpoints)
    values = np.full(len(cps), _NEG_INF)
    cp_ptr = 0
    next_cp = cps[0] if cps else None

    M = np.eye(d)
    buf = np.empty_like(M)
    rows = identity_rows(d)
    zero_rows = (0,) * d
    acc = 0.0
    zero_index = None
    steps = 0
    t = 0
    while t < n:
        f = idx[t]
        np.matmul(M, mats[f], out=buf)
        M, buf = buf, M
        rows = rows_mul(rows, rows_list[f])
        t += 1
        if rows == zero_rows:
            zero_index = t
            break
        steps += 1
        if steps >= cadence:
            s = float(M.sum())
            if s == 0.0:
                raise UnderflowError_(
                    "entry-sum collapsed on a structurally nonzero product", position=t
                )
            if not math.isfinite(s):
                raise RangeError("cocycle product overflowed; rescale the table")
            M *= 1.0 / s
            acc += math.log(s)
            steps = 0
        if next_cp is not None and t == next_cp:
            s = float(M.sum())
            if s == 0.0:
                raise UnderflowError_(
                    "entry-sum collapsed on a structurally nonzero product", position=t
                )
            values[cp_ptr] = acc + math.log(s)
            cp_ptr += 1
            next_cp = cps[cp_ptr] if cp_ptr < len(cps) else None

    return values, zero_index, ScaledProduct.from_raw(M, rows, acc, n)


def partial_product(spec: CocycleSpec, prefix: FiniteWord, n: int, m: int) -> ScaledProduct:
    """Scaled product of the cocycle factors at positions n..m-1; the
    empty range returns the identity accumulator with log_norm 0."""
    if not 0 <= n <= m:
        raise DomainError("need 0 <= n <= m")
    if n == m:
        return ScaledProduct.empty(spec.dim)
    idx = spec.factor_indices(prefix.symbols, n, m)
    _, _, final = _accumulate(spec, idx)
    return final


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
    values, zero_index, _ = _accumulate(spec, idx, checkpoints=cps.tolist())
    return LyapunovTrace(cps, values, zero_index)


def trace_envelope(spec: CocycleSpec, n: int) -> tuple[float, float]:
    """Norm envelope for any nonzero n-fold product from this table."""
    return log_norm_bounds(n, spec.a_star, spec.a_upper, spec.dim)


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
    marks = sorted({n for n, _ in pairs} | {n + m for n, m in pairs})
    idx = spec.factor_indices(prefix.symbols, 0, need)
    values, _, _ = _accumulate(spec, idx, checkpoints=marks)
    at = dict(zip(marks, values))
    out = []
    finite = []
    undefined = 0
    for n, m in pairs:
        middle = partial_product(spec, prefix, n, n + m)
        pieces = (at[n + m], at[n], middle.log_norm)
        if any(v == _NEG_INF for v in pieces):
            out.append(DefectPair(n, m, None))
            undefined += 1
            continue
        defect = abs(pieces[0] - pieces[1] - pieces[2])
        out.append(DefectPair(n, m, defect))
        finite.append(defect)
    return DefectReport(out, max(finite) if finite else None, undefined)


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
    r, m = spec.depth, spec.alphabet.size
    d = spec.dim
    full_rows = tuple((1 << d) - 1 for _ in range(d))
    arr = sample_prefix.symbols

    def witness_for(word_syms: np.ndarray, ell: int) -> PositivityWitness | None:
        idx = spec.factor_indices(word_syms, 0, ell).tolist()
        rows = identity_rows(d)
        for f in idx:
            rows = rows_mul(rows, spec._rows[f])
            if all(x == 0 for x in rows):
                return None
        if rows != full_rows:
            return None
        P = np.eye(d)
        for f in idx:
            P = P @ spec._mats[f]
        b = float(P.min())
        if b <= 0.0:
            raise UnderflowError_(
                "positive support product underflowed to float zero", position=ell
            )
        return PositivityWitness(FiniteWord(word_syms, spec.alphabet), ell, b, NonNegMatrix(P))

    for ell in range(1, max_ell + 1):
        wlen = ell + r - 1
        if exhaustive:
            for tup in itertools.product(range(m), repeat=wlen):
                hit = witness_for(np.array(tup, dtype=np.uint8), ell)
                if hit is not None:
                    return hit
            continue
        if len(arr) - start < wlen:
            break
        windows = sliding_window_view(arr[start:], wlen)
        flat = np.ascontiguousarray(windows).view(
            np.dtype((np.void, wlen))
        ).reshape(-1)
        _, first = np.unique(flat, return_index=True)
        for pos in np.sort(first):
            hit = witness_for(windows[pos].copy(), ell)
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

    @property
    def is_atomic(self) -> bool:
        return False


class BernoulliMeasure(MeasureModel):
    def __init__(self, probabilities):
        probs = np.asarray(probabilities, dtype=float)
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise DomainError("probabilities must be non-negative and sum to 1")
        self.probabilities = probs
        self.alphabet = Alphabet(len(probs))

    def cylinder_mass(self, word: FiniteWord) -> float:
        return float(np.prod(self.probabilities[word.symbols]))

    def sample_symbols(self, n: int, seed: int, replica: int) -> np.ndarray:
        return _bernoulli_symbols(self.probabilities, n, seed, replica)


class MarkovMeasure(MeasureModel):
    def __init__(self, transition, stationary=None):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DomainError("transition must be square")
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise DomainError("transition rows must be probability vectors")
        self.transition = P
        self.alphabet = Alphabet(P.shape[0])
        if stationary is None:
            stationary = _stationary_vector(P)
        self.stationary = np.asarray(stationary, dtype=float)
        if abs(self.stationary.sum() - 1.0) > 1e-9:
            raise DomainError("stationary vector must sum to 1")

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
    reach = (P > 0) | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):  # paths of every length up to 2^k >= m
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
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
    def is_atomic(self) -> bool:
        return True

    @property
    def period(self) -> int:
        return len(self.cycle)

    def rotation_prefix(self, t: int, n: int) -> np.ndarray:
        p = self.period
        reps = -(-(n + t) // p) + 1
        return np.tile(self.cycle.symbols, reps)[t : t + n]

    def cylinder_mass(self, word: FiniteWord) -> float:
        p = self.period
        hits = 0
        for t in range(p):
            if np.array_equal(self.rotation_prefix(t, len(word)), word.symbols):
                hits += 1
        return hits / p


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
    r = spec.depth
    if isinstance(measure, PeriodicAtomicMeasure):
        vals = []
        for t in range(measure.period):
            syms = measure.rotation_prefix(t, n + r - 1)
            idx = spec.factor_indices(syms, 0, n)
            _, zero_index, final = _accumulate(spec, idx)
            vals.append(_NEG_INF if zero_index is not None else final.log_norm / n)
        arr = np.array(vals)
        finite = arr[np.isfinite(arr)]
        minus_inf = int(len(arr) - len(finite))
        mean = float(finite.mean()) if len(finite) else _NEG_INF
        return LambdaEstimate(mean, 0.0, arr, n, measure.period, minus_inf)
    if replicas < 1:
        raise DomainError("replicas must be >= 1")
    vals = np.empty(replicas)
    for rep in range(replicas):
        syms = measure.sample_symbols(n + r - 1, seed, rep)
        idx = spec.factor_indices(syms, 0, n)
        _, zero_index, final = _accumulate(spec, idx)
        vals[rep] = _NEG_INF if zero_index is not None else final.log_norm / n
    finite = vals[np.isfinite(vals)]
    minus_inf = int(len(vals) - len(finite))
    if len(finite) == 0:
        return LambdaEstimate(_NEG_INF, float("nan"), vals, n, replicas, minus_inf)
    mean = float(finite.mean())
    stderr = float(finite.std(ddof=1) / math.sqrt(len(finite))) if len(finite) > 1 else float("nan")
    return LambdaEstimate(mean, stderr, vals, n, replicas, minus_inf)


def frequency_deviations(prefix: FiniteWord, measure: MeasureModel,
                         words: Sequence[FiniteWord]) -> list[tuple[FiniteWord, float, float]]:
    """Observed sliding-window frequency vs model cylinder mass per word.

    Small deviations are evidence, not proof, that the prefix is typical
    for the model: no finite horizon certifies genericity.
    """
    from .words import empirical_frequency

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


def fekete_extrapolate(samples: Sequence[tuple[int, float]], c_of, tol: float = 1e-9) -> FeketeReport:
    """Diagnose a sequence expected to satisfy a_{n+m} <= a_n + a_m + c_{min(n,m)}.

    The envelope (a_m + |c_m|)/m bounds limsup a_n/n for every m, so its
    running minimum brackets the limit from above; the last ratio serves
    as the point estimate. All sample pairs whose sum is also sampled are
    checked for violations of the inequality.
    """
    if len(samples) < 3:
        raise DomainError("need at least 3 sample points")
    if callable(c_of):
        cfun = c_of
    else:
        table = dict(c_of)

        def cfun(k, _t=table):
            try:
                return _t[k]
            except KeyError:
                raise DomainError(f"c-bound undefined at {k}") from None

    pts = sorted((int(n), float(a)) for n, a in samples)
    ns = np.array([n for n, _ in pts], dtype=np.int64)
    if len(set(ns.tolist())) != len(ns):
        raise DomainError("duplicate sample points")
    a = {n: v for n, v in pts}
    ratios = np.array([a[n] / n for n in ns])
    envelope = np.array([(a[n] + abs(cfun(n))) / n for n in ns])
    running_min = np.minimum.accumulate(envelope)
    violations = []
    for i, n in enumerate(ns):
        for m in ns[i:]:
            total = int(n + m)
            if total in a:
                bound = a[int(n)] + a[int(m)] + cfun(int(min(n, m)))
                if a[total] > bound + tol:
                    violations.append((int(n), int(m), float(a[total] - bound)))
    return FeketeReport(ns, ratios, envelope, running_min, float(ratios[-1]), violations)
