"""Symbolic sequences over a finite alphabet.

Finite words, replayable infinite word sources (periodic, substitution
fixed points, Bernoulli/Markov streams, the squarefree indicator, and
programmable block schedules), the sampling measures whose samplers the
Bernoulli and Markov sources replay, occurrence search, and the
decomposition of a long prefix into return words with respect to a
marker word.

Symbols are integers ``0..m-1`` stored one per byte, so alphabets are
capped at 256 symbols and prefixes export losslessly as raw byte files.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    InvalidProgramError,
    MarkerNotFoundError,
)
from .matrices import _floats, reachability
from .textform import field, typed

MAX_ALPHABET = 256
_SCAN_BYTES = 1 << 20  # budget for the Markov sampler's step maps


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, .., size-1}."""

    size: int

    def __post_init__(self):
        if not 1 <= self.size <= MAX_ALPHABET:
            raise DomainError(f"alphabet size must be in 1..{MAX_ALPHABET}, got {self.size}")


def _texts(rows: np.ndarray, alphabet: Alphabet) -> list[str]:
    """The text of each row of a (K, n) symbol array: one digit per symbol
    over at most 10 symbols, space-separated numbers otherwise."""
    sep = "" if alphabet.size <= 10 else " "
    return [sep.join(map(str, row)) for row in rows.tolist()]


def _probabilities(values) -> np.ndarray:
    """values as floats whose last axis holds probability vectors: finite,
    non-negative and summing to 1 within 1e-12, else DomainError."""
    arr = _floats(values, "probabilities")
    if arr.ndim == 0:
        raise DomainError("probabilities must form a vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError("probabilities must be finite")
    if np.any(arr < 0):
        raise DomainError("probabilities must be non-negative")
    if np.abs(arr.sum(axis=-1) - 1.0).max(initial=0.0) > 1e-12:
        raise DomainError("probabilities must sum to 1 within 1e-12")
    return arr


def _as_symbol_array(data, alphabet: Alphabet) -> np.ndarray:
    """data as a flat uint8 symbol array, checked to be integers within
    the alphabet before the cast, so no symbol is truncated or wraps
    around."""
    arr = _integral(_read_symbols(data, alphabet), "symbol")
    if arr.size:
        lo, hi = (0 if arr.dtype == np.uint8 else arr.min()), arr.max()
        if lo < 0 or hi >= alphabet.size:
            raise DomainError(f"symbol {lo if lo < 0 else hi} outside alphabet of size {alphabet.size}")
    return arr.astype(np.uint8, copy=False)


def _integral(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, checked to hold only integers: a float entry that is not
    finite or not whole raises DomainError naming it as `what`."""
    if arr.dtype.kind == "f":
        off = ~np.isfinite(arr) | (arr != np.trunc(arr))
        if off.any():
            raise DomainError(f"{what} {arr[off][0]} is not an integer")
    return arr


def _read_symbols(data, alphabet: Alphabet) -> np.ndarray:
    """data as a flat array of symbols: a FiniteWord's, text read by the
    word-text rule, or integers, whose range `_as_symbol_array` checks."""
    if isinstance(data, FiniteWord):
        return data.symbols
    if isinstance(data, str):
        # over more than 10 symbols, or when the text holds a space, each
        # space-separated token is one symbol; otherwise each digit is one
        if " " not in data and alphabet.size <= 10:
            if data and not (data.isascii() and data.isdigit()):
                raise DomainError(f"word text {data!r} must consist of the digits 0-9")
            return np.frombuffer(data.encode("ascii"), dtype=np.uint8) - ord("0")
        tokens = [tok for tok in data.split(" ") if tok]
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise DomainError(f"word text {data!r} must be digits separated by spaces")
        data = [int(tok) for tok in tokens]
    return np.asarray(data).reshape(-1)


class FiniteWord:
    """Immutable finite word; supports slicing, equality and concatenation.

    Words can be built from text (see `from_text`), integer sequences, or
    numpy arrays. The backing array is read-only C-contiguous uint8; the
    constructor checks every symbol against the alphabet and copies an
    array that would share the caller's memory, while slices,
    concatenations and source prefixes view symbols already checked.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, data, alphabet: Alphabet):
        arr = _as_symbol_array(data, alphabet)
        if not isinstance(data, FiniteWord) and np.may_share_memory(arr, data):
            arr = arr.copy()  # a caller's buffer: writing to it must not change the word
        self._bind(arr, alphabet)

    @classmethod
    def _view(cls, symbols: np.ndarray, alphabet: Alphabet) -> "FiniteWord":
        """The word over uint8 symbols already checked against the
        alphabet, which are not checked again."""
        word = object.__new__(cls)
        word._bind(symbols, alphabet)
        return word

    def _bind(self, symbols: np.ndarray, alphabet: Alphabet) -> None:
        # a C-contiguous read-only view: copied only when strided
        arr = np.ascontiguousarray(symbols)
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWord is immutable")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(int(s) for s in self.symbols)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return FiniteWord._view(self.symbols[item], self.alphabet)
        return int(self.symbols[item])

    def __eq__(self, other):
        if not isinstance(other, FiniteWord):
            return NotImplemented
        return (
            self.alphabet.size == other.alphabet.size
            and len(self) == len(other)
            and bool(np.array_equal(self.symbols, other.symbols))
        )

    def __hash__(self):
        return hash((self.alphabet.size, self.symbols.tobytes()))

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if self.alphabet.size != other.alphabet.size:
            raise DomainError("cannot concatenate words over different alphabets")
        return FiniteWord._view(np.concatenate([self.symbols, other.symbols]), self.alphabet)

    def __repr__(self):
        text = self.to_text() if len(self) <= 32 else self.to_text()[:32] + "..."
        return f"FiniteWord({text!r}, m={self.alphabet.size})"

    def to_text(self) -> str:
        return _texts(self.symbols[None], self.alphabet)[0]

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "FiniteWord":
        """Inverse of to_text: over more than 10 symbols, or when the text
        holds a space, each space-separated token is one symbol; otherwise
        each digit is one symbol. FiniteWord(text, alphabet) reads text the
        same way."""
        return cls(str(text), alphabet)


# ---------------------------------------------------------------------------
# Infinite word sources
# ---------------------------------------------------------------------------


class WordSource(ABC):
    """Replayable symbol stream.

    ``prefix(n)`` always returns the first n symbols of one fixed infinite
    word: calls never consume state, emitting 2n symbols and truncating
    equals emitting n, and two sources built from the same description
    (including seed) emit identical streams.
    """

    alphabet: Alphabet

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._cache = np.empty(0, dtype=np.uint8)

    def prefix(self, n: int) -> FiniteWord:
        if n < 0:
            raise DomainError("prefix length must be non-negative")
        if n > len(self._cache):
            new = _as_symbol_array(self._emit(n - len(self._cache)), self.alphabet)
            self._cache = np.concatenate([self._cache, new]) if len(self._cache) else new
            self._cache.setflags(write=False)
        return FiniteWord._view(self._cache[:n], self.alphabet)

    @abstractmethod
    def _emit(self, k: int) -> np.ndarray:
        """At least the k symbols after the cache, unchecked, from the state
        the source carries: `prefix` checks them once and appends them all,
        so state that the cache does not fix must survive a failed check.
        The samplers continue their stream past the cached length, so a
        prefix read one symbol longer each time is drawn O(log n) times."""

    @abstractmethod
    def describe(self) -> dict:
        """Serializable description (see :mod:`cocyclelab.textform`)."""


class PeriodicSource(WordSource):
    """The periodic word cycle^inf."""

    def __init__(self, cycle, alphabet: Alphabet):
        super().__init__(alphabet)
        self.cycle = FiniteWord(cycle, alphabet)
        if len(self.cycle) == 0:
            raise DomainError("periodic cycle must be nonempty")

    def _emit(self, k):
        s = len(self._cache) % len(self.cycle)  # where the cache ends in the cycle
        return np.tile(self.cycle.symbols, (s + k) // len(self.cycle) + 1)[s : s + k]

    def describe(self):
        return {
            "kind": "periodic",
            "alphabet": self.alphabet.size,
            "cycle": self.cycle.to_text(),
        }


class SubstitutionSource(WordSource):
    """Fixed point of a non-erasing substitution.

    The image of the seed letter must start with the seed letter and have
    length at least 2, so iterating the substitution on the seed converges
    to a one-sided fixed point.
    """

    def __init__(self, rules: Mapping[int, Sequence[int] | str], seed_letter: int, alphabet: Alphabet):
        super().__init__(alphabet)
        self.seed_letter = int(_as_symbol_array([seed_letter], alphabet)[0])
        self.rules = {}
        for sym in range(alphabet.size):
            if sym not in rules:
                raise DomainError(f"substitution rule missing for symbol {sym}")
            image = FiniteWord(rules[sym], alphabet).symbols
            if len(image) == 0:
                raise InvalidProgramError(f"substitution image of {sym} is empty")
            self.rules[sym] = image
        seed_image = self.rules[self.seed_letter]
        if int(seed_image[0]) != self.seed_letter or len(seed_image) < 2:
            raise InvalidProgramError(
                "seed image must start with the seed letter and have length >= 2"
            )

    def _expand(self, w: np.ndarray) -> np.ndarray:
        """sigma(w), read from the images laid end to end: output position t
        falls in the image of w[i] and reads it at t - start_i + offset_i."""
        images = list(self.rules.values())
        sizes = np.array([len(image) for image in images])
        lengths = sizes[w]
        shift = (np.cumsum(sizes) - sizes)[w] - (np.cumsum(lengths) - lengths)  # offset_i - start_i
        return np.concatenate(images)[np.repeat(shift, lengths) + np.arange(lengths.sum())]

    def _emit(self, k):
        # the cache is a whole level sigma^j(seed), a prefix of every later level
        start = len(self._cache)
        w = self._cache if start else np.uint8([self.seed_letter])
        while len(w) < start + k:
            w = self._expand(w)
        return w[start:]

    def describe(self):
        return {
            "kind": "substitution",
            "alphabet": self.alphabet.size,
            "seed_letter": self.seed_letter,
            "rules": {
                str(sym): FiniteWord(img, self.alphabet).to_text()
                for sym, img in self.rules.items()
            },
        }


def _generator(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter based: a fixed (seed, stream) key reproduces the
    # stream, and consecutive draws continue it bit for bit as one draw.
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


class BernoulliMeasure:
    """IID product measure with fixed symbol probabilities."""

    def __init__(self, probabilities):
        probs = _probabilities(probabilities)
        if probs.ndim != 1:
            raise DomainError("probabilities must form a vector")
        self.probabilities = probs
        self.alphabet = Alphabet(len(probs))

    def sample_symbols(self, n: int, seed: int, replica: int) -> np.ndarray:
        """n IID symbols drawn from the (seed, replica) Philox stream."""
        return self._symbols(_generator(seed, replica).random(n))

    def _symbols(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1).astype(np.uint8)


class MarkovMeasure:
    """Markov measure of a transition matrix started from the distribution
    `stationary`: by default the chain's unique stationary vector, which
    makes the measure shift-invariant; an explicit vector is used as given,
    as a `MarkovSource` uses its initial distribution."""

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

    def sample_symbols(self, n: int, seed: int, replica: int) -> np.ndarray:
        """First n states of a chain path started from `stationary`, drawn
        from the (seed, replica) Philox stream."""
        return self._path(_generator(seed, replica).random(n), None)

    def _path(self, u: np.ndarray, state) -> np.ndarray:
        """The states the uniform draws u lead to from `state`; from None,
        u[0] picks the start state from `stationary`.

        Draw t moves the chain by the map "state -> next state" that
        row-wise `searchsorted` gives for u[t]; the path is the prefix
        composition of those maps, formed by doubling over chunks of a
        fixed byte size.
        """
        m, out = len(self.transition), np.empty(len(u), dtype=np.uint8)
        first = state is None and len(u) > 0
        if first:
            state = out[0] = min(int(np.searchsorted(np.cumsum(self.stationary), u[0], "right")), m - 1)
        cum_rows = np.cumsum(self.transition, axis=1)
        chunk = max(1, _SCAN_BYTES // (8 * m))
        for a in range(int(first), len(u), chunk):
            draws = u[a : a + chunk]
            # maps[t, s]: the state after draw a + t from state s
            maps = np.stack([np.searchsorted(row, draws, side="right") for row in cum_rows], axis=1)
            np.minimum(maps, m - 1, out=maps)
            k = 1
            while k < len(maps):  # maps[t] becomes the composition of draws a..a+t
                maps[k:] = maps[k:].reshape(-1)[m * np.arange(len(maps) - k)[:, None] + maps[:-k]]
                k *= 2
            out[a : a + len(draws)] = maps[:, state]
            state = out[a + len(draws) - 1]
        return out


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


class PeriodicAtomicMeasure:
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

    def rotation_prefix(self, t, n: int) -> np.ndarray:
        """First n symbols of the rotation by t (of each, for an array of t)."""
        return self.cycle.symbols[(t + np.arange(n)) % self.period]


class BernoulliSource(WordSource):
    """IID symbols with fixed probabilities, seeded and replayable: the
    replica-0 sample path of `BernoulliMeasure(probabilities)`."""

    def __init__(self, probabilities, seed: int):
        self.measure = BernoulliMeasure(probabilities)
        super().__init__(self.measure.alphabet)
        self.probabilities = self.measure.probabilities
        self.seed = int(seed)
        self._stream = _generator(self.seed, 0)

    def _emit(self, k):
        return self.measure._symbols(self._stream.random(max(k, len(self._cache) + 1)))

    def describe(self):
        return {
            "kind": "bernoulli",
            "alphabet": self.alphabet.size,
            "probabilities": [float(p) for p in self.probabilities],
            "seed": self.seed,
        }


class MarkovSource(WordSource):
    """Markov chain sample path with fixed transition rows and seed: the
    replica-0 sample path of `MarkovMeasure(transition, initial)`."""

    def __init__(self, transition, initial, seed: int):
        self.measure = MarkovMeasure(transition, initial)
        super().__init__(self.measure.alphabet)
        self.transition, self.initial = self.measure.transition, self.measure.stationary
        self.seed = int(seed)
        self._stream = _generator(self.seed, 0)

    def _emit(self, k):  # the path resumes from the last cached state
        state = self._cache[-1] if len(self._cache) else None
        return self.measure._path(self._stream.random(max(k, len(self._cache) + 1)), state)

    def describe(self):
        return {
            "kind": "markov",
            "alphabet": self.alphabet.size,
            "transition": [[float(x) for x in row] for row in self.transition],
            "initial": [float(x) for x in self.initial],
            "seed": self.seed,
        }


class SquarefreeSource(WordSource):
    """Indicator of squarefree integers: symbol at position k is 1 iff k+1
    is squarefree (the 0/1 square of the Moebius function).

    Each read sieves only the segment it appends; asking past the declared
    capacity is an error carrying the required bound, never a truncation.
    """

    def __init__(self, capacity: int = 1 << 21):
        super().__init__(Alphabet(2))
        if capacity < 1:
            raise DomainError("capacity must be positive")
        self.capacity = int(capacity)

    def _emit(self, k):
        a, b = len(self._cache), len(self._cache) + k
        if b > self.capacity:
            raise CapacityError(f"squarefree source sieved up to {self.capacity}; "
                                f"need capacity >= {b}", required=b)
        primes = np.ones(math.isqrt(b) + 1, dtype=bool)  # the primes up to sqrt(b)
        primes[:2] = False
        for p in range(2, math.isqrt(len(primes) - 1) + 1):
            primes[p * p :: p] = False
        flags = np.ones(k, dtype=np.uint8)  # flags[i] is the symbol of a + 1 + i
        for p in np.flatnonzero(primes).tolist():
            flags[-(a + 1) % (p * p) :: p * p] = 0
        return flags

    def describe(self):
        return {"kind": "squarefree", "alphabet": 2, "capacity": self.capacity}


# ---------------------------------------------------------------------------
# Block-schedule programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochSchedule:
    """Partition of block indices into alternating epochs.

    Thresholds T_0 < T_1 < ... split indices into epochs [T_i, T_{i+1});
    even epochs are type 1, odd epochs type 2, and indices below T_0 count
    as type 1. "tower" uses T_i = 2^(2^i); "geometric" uses T_i = base^i.
    """

    kind: str = "geometric"
    base: int = 4

    def __post_init__(self):
        if self.kind not in ("tower", "geometric"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        if self.base < 2:
            raise DomainError(f"schedule needs base >= 2, got {self.base}")

    def threshold(self, i: int) -> int:
        if self.kind == "tower":
            return 2 ** (2**i)
        return self.base**i

    def block_type(self, j: int) -> int:
        if j < 1:
            raise DomainError("block indices start at 1")
        i = 0
        while self.threshold(i + 1) <= j:
            i += 1
        return 1 if i % 2 == 0 else 2

    def describe(self):
        d = {"kind": self.kind}
        if self.kind == "geometric":
            d["base"] = self.base
        return d

    @classmethod
    def from_description(cls, d: Mapping) -> "EpochSchedule":
        return cls(kind=field(d, "kind", str), base=typed("base", d.get("base", 4), int))


@dataclass(frozen=True)
class BlockProgram:
    """Finite description of an infinite word: optional head word followed
    by the concatenation of blocks block_fn(1), block_fn(2), ...

    ``description`` is the preset description the program was built from
    (see `_preset_program`); a raw program carries None and cannot be
    written to text.
    """

    alphabet: Alphabet
    head: np.ndarray
    block_fn: Callable[[int], np.ndarray]
    description: dict | None = None


class BlockScheduleSource(WordSource):
    """The word a block program describes: its head, then block_fn(1),
    block_fn(2), ...; an empty block raises InvalidProgramError, and a
    symbol outside the alphabet DomainError."""

    def __init__(self, program: BlockProgram):
        super().__init__(program.alphabet)
        self.program = program
        # the blocks built up to a cache length, for the length the cache has
        # and the one it reaches if the emitted blocks pass the alphabet check
        self._blocks = {0: 0}

    def _emit(self, k):
        start = len(self._cache)
        j, parts = self._blocks[start], [] if start else [self.program.head]
        total = sum(map(len, parts))
        while total < k:
            j += 1
            block = np.asarray(self.program.block_fn(j))
            if block.size == 0:
                raise InvalidProgramError(f"block program produced an empty block at index {j}")
            parts.append(block)
            total += block.size
        self._blocks = {start: self._blocks[start], start + total: j}
        return np.concatenate(parts)

    def describe(self):
        if self.program.description is None:
            raise DomainError("this block program has no serializable description")
        return {
            "kind": "block_schedule",
            "alphabet": self.alphabet.size,
            **self.program.description,
        }


def paired_growth_program(
    first_source: WordSource,
    second_source: WordSource,
    *,
    offset: int = 2,
    alphabet_size: int = 4,
) -> BlockProgram:
    """Alternate growing prefixes of two words on disjoint symbol ranges:
    blocks x_0..x_{n-1} then y_0..y_{n-1} (y shifted by ``offset``)."""
    return _preset_program(alphabet_size, {
        "preset": "paired_growth",
        "offset": offset,
        "first_source": first_source.describe(),
        "second_source": second_source.describe(),
    })


def triple_growth_program(
    schedule: EpochSchedule,
    *,
    alphabet_size: int = 4,
    swap_symbol: int = 3,
) -> BlockProgram:
    """Block n emits 0^n 1^n 2^n, with the swap symbol appended to the 0-
    and 1-runs in type-2 epochs."""
    return _preset_program(alphabet_size, {
        "preset": "triple_growth",
        "swap_symbol": swap_symbol,
        "schedule": schedule.describe(),
    })


_Preset = tuple[str, Callable[[int], np.ndarray]]  # head word text, block function


def _prefix_doubling_blocks(d: Mapping, alphabet: Alphabet) -> _Preset:
    base = source_from_description(field(d, "base_source", dict))
    schedule = EpochSchedule.from_description(field(d, "schedule", dict))
    suffix = _as_symbol_array(field(d, "type2_suffix", int), alphabet)

    def block(j: int) -> np.ndarray:
        u = base.prefix(j).symbols
        if schedule.block_type(j) == 2:
            u = np.concatenate([u, suffix])
        return np.concatenate([u, u])

    return field(d, "head", str), block


def _paired_growth_blocks(d: Mapping, alphabet: Alphabet) -> _Preset:
    first = source_from_description(field(d, "first_source", dict))
    second = source_from_description(field(d, "second_source", dict))
    offset = _as_symbol_array(field(d, "offset", int), alphabet)[0]

    def block(j: int) -> np.ndarray:
        n = (j + 1) // 2
        # the shift in a wide integer, so a sum past the alphabet is refused, not wrapped
        return first.prefix(n).symbols if j % 2 else second.prefix(n).symbols + np.intp(offset)

    return "", block


def _triple_growth_blocks(d: Mapping, alphabet: Alphabet) -> _Preset:
    schedule = EpochSchedule.from_description(field(d, "schedule", dict))
    swap = _as_symbol_array(field(d, "swap_symbol", int), alphabet)

    def block(n: int) -> np.ndarray:
        u, v, w = (np.full(n, s, dtype=np.uint8) for s in range(3))
        return np.concatenate([u, swap, v, swap, w] if schedule.block_type(n) == 2 else [u, v, w])

    return "", block


def _run_alternation_blocks(d: Mapping, alphabet: Alphabet) -> _Preset:
    base, slope, offset = (field(d, key, int) for key in ("pair_base", "run_slope", "run_offset"))

    def block(i: int) -> np.ndarray:
        reps, run = base**i, slope * i + offset
        if reps < 1 or run < 0:
            raise InvalidProgramError("pair counts must be >= 1 and run lengths >= 0")
        return np.concatenate([np.tile(np.uint8([0, 1]), reps), np.zeros(run, np.uint8)])

    return "", block


# each preset's head word text and block function, built from its description
# and alphabet alone; a symbol field outside the alphabet is a DomainError
_PRESETS = {
    "prefix_doubling": _prefix_doubling_blocks,
    "paired_growth": _paired_growth_blocks,
    "triple_growth": _triple_growth_blocks,
    "run_alternation": _run_alternation_blocks,
}


def _preset_program(alphabet_size: int, description: Mapping) -> BlockProgram:
    """The program a preset description defines, carrying that description:
    a preset program is by construction what its description rebuilds."""
    preset = field(description, "preset", str)
    if preset not in _PRESETS:
        raise ConfigError(f"unknown block program preset {preset!r}")
    alphabet = Alphabet(alphabet_size)
    head, block = _PRESETS[preset](description, alphabet)
    return BlockProgram(alphabet, FiniteWord(head, alphabet).symbols, block, dict(description))


# ---------------------------------------------------------------------------
# Source (de)serialization
# ---------------------------------------------------------------------------


def source_from_description(d: Mapping) -> WordSource:
    """The source a description names; a missing field, or one of the
    wrong type, raises ConfigError naming it."""
    kind = field(d, "kind", str)
    if kind == "squarefree":
        return SquarefreeSource(typed("capacity", d.get("capacity", 1 << 21), int))
    alphabet = Alphabet(field(d, "alphabet", int))
    if kind == "periodic":
        return PeriodicSource(field(d, "cycle", str), alphabet)
    if kind == "substitution":
        rules = {int(k): v for k, v in field(d, "rules", dict).items()}
        return SubstitutionSource(rules, field(d, "seed_letter", int), alphabet)
    if kind == "bernoulli":
        return _over(alphabet, "need one probability per symbol", BernoulliSource(
            field(d, "probabilities", list[float]), field(d, "seed", int)))
    if kind == "markov":
        return _over(alphabet, "transition must be m x m and initial length m", MarkovSource(
            field(d, "transition", list[list[float]]), field(d, "initial", list[float]),
            field(d, "seed", int)))
    if kind == "block_schedule":
        return BlockScheduleSource(_preset_program(
            alphabet.size, {k: v for k, v in d.items() if k not in ("kind", "alphabet")}))
    raise ConfigError(f"unknown word-source kind {kind!r}")


def _over(alphabet: Alphabet, mismatch: str, source: WordSource) -> WordSource:
    """source, whose parameters fix its alphabet, checked to be over the
    described alphabet: a mismatch raises DomainError(mismatch)."""
    if source.alphabet != alphabet:
        raise DomainError(mismatch)
    return source


# ---------------------------------------------------------------------------
# Occurrences and return words
# ---------------------------------------------------------------------------


def occurrences(prefix: FiniteWord, marker: FiniteWord, start: int = 1) -> np.ndarray:
    """All positions k >= start where the marker occurs in the prefix.

    Overlapping occurrences are all reported. The default start of 1
    matches the return-time convention: position 0 is never a return time
    even when the word begins with the marker.
    """
    if len(marker) < 1:
        raise DomainError("marker must be nonempty")
    if start < 0:
        raise DomainError("start must be non-negative")
    text, pat = prefix.symbols, marker.symbols
    n, m = len(text), len(pat)
    if start + m > n:
        return np.empty(0, dtype=np.int64)
    # Candidates start where the first marker symbol matches; each later
    # marker symbol narrows them, so the work shrinks with every pass.
    cand = np.flatnonzero(text[start : n - m + 1] == pat[0]).astype(np.int64) + start
    for j in range(1, m):
        cand = cand[text[cand + j] == pat[j]]
    return cand


@dataclass(frozen=True)
class ReturnDecomposition:
    """Decomposition of a prefix at the return times of a marker word.

    return_times lists positions 1 <= tau_0 < tau_1 < ... carrying the
    marker; the pieces are zeta_0 = prefix[:tau_0] and zeta_j =
    prefix[tau_{j-1}:tau_j]. The partial word after the last return time
    is the remainder and is not a return word.
    """

    prefix: FiniteWord
    marker: FiniteWord
    return_times: np.ndarray

    def __post_init__(self):
        tau = self.return_times
        if len(tau) == 0:
            raise MarkerNotFoundError("empty decomposition", horizon=len(self.prefix))
        if tau[0] < 1 or np.any(np.diff(tau) <= 0):
            raise DomainError("return times must be strictly increasing and >= 1")
        win = self.prefix.symbols[tau[:, None] + np.arange(len(self.marker))[None, :]]
        if not bool(np.all(win == self.marker.symbols[None, :])):
            raise DomainError("a listed return time does not carry the marker")

    @property
    def count(self) -> int:
        """Number of return words (the index i of the last usable return)."""
        return len(self.return_times) - 1

    @property
    def lengths(self) -> np.ndarray:
        """Lengths |zeta_j| for j = 1..count."""
        return np.diff(self.return_times)


def decompose_returns(prefix: FiniteWord, marker: FiniteWord) -> ReturnDecomposition:
    taus = occurrences(prefix, marker, start=1)
    if len(taus) == 0:
        raise MarkerNotFoundError(
            f"marker {marker.to_text()!r} not found in prefix of length {len(prefix)}",
            horizon=len(prefix),
        )
    return ReturnDecomposition(prefix, marker, taus)


def return_rate_trace(decomp: ReturnDecomposition) -> np.ndarray:
    """Array of (i, i / tau_i) rows; the rate converges to the marker
    cylinder's measure for generic words."""
    tau = decomp.return_times.astype(float)
    idx = np.arange(len(tau), dtype=float)
    return np.column_stack([idx, idx / tau])


def long_word_mass(decomp: ReturnDecomposition, cutoff: int) -> float:
    """Fraction of the horizon tau_i covered by return words longer than
    the cutoff: (1/tau_i) * sum |zeta_j| over j >= 1 with |zeta_j| > M."""
    if cutoff < 0:
        raise DomainError("cutoff must be non-negative")
    lengths = decomp.lengths
    return float(lengths[lengths > cutoff].sum() / decomp.return_times[-1])
