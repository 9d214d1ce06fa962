"""Symbolic sequences over a finite alphabet.

Finite words, replayable infinite word sources (periodic, substitution
fixed points, Bernoulli/Markov streams, the squarefree indicator, and
programmable block schedules), occurrence search, and the decomposition
of a long prefix into return words with respect to a marker word.

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
    DomainError,
    InvalidProgramError,
    MarkerNotFoundError,
)

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
    arr = np.asarray(values, dtype=float)
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
    """data as a flat uint8 symbol array, checked against the alphabet
    before the cast, so no symbol wraps around."""
    arr = _read_symbols(data, alphabet)
    if arr.size:
        lo, hi = (0 if arr.dtype == np.uint8 else arr.min()), arr.max()
        if lo < 0 or hi >= alphabet.size:
            raise DomainError(f"symbol {lo if lo < 0 else hi} outside alphabet of size {alphabet.size}")
    return arr.astype(np.uint8, copy=False)


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
    numpy arrays. The backing array is read-only uint8.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, data, alphabet: Alphabet):
        arr = np.ascontiguousarray(_as_symbol_array(data, alphabet))
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
            return FiniteWord(self.symbols[item], self.alphabet)
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
        return FiniteWord(np.concatenate([self.symbols, other.symbols]), self.alphabet)

    def __repr__(self):
        text = self.to_text() if len(self) <= 32 else self.to_text()[:32] + "..."
        return f"FiniteWord({text!r}, m={self.alphabet.size})"

    def to_text(self) -> str:
        return _texts(self.symbols[None], self.alphabet)[0]

    def to_bytes(self) -> bytes:
        """One symbol per byte, the documented raw export format."""
        return self.symbols.tobytes()

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
            self._cache = FiniteWord(self._materialize(n), self.alphabet).symbols
        return FiniteWord(self._cache[:n], self.alphabet)

    @abstractmethod
    def _materialize(self, n: int) -> np.ndarray:
        """Return at least the first n symbols; `prefix` caches all of them.

        The seeded samplers redraw their stream from position 0 on every
        call, so they return `_sample_length(n)` symbols: a prefix read one
        symbol longer each time is then drawn O(log n) times, not n times.
        Block schedules and the squarefree sieve return exactly n, since
        one more block or sieve entry may be unbuildable or past capacity.
        """

    def _sample_length(self, n: int) -> int:
        """n, or more than twice the cached length when that is larger."""
        return max(n, 2 * len(self._cache) + 1)

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

    def _materialize(self, n):
        reps = -(-n // len(self.cycle))
        return np.tile(self.cycle.symbols, reps)[:n]

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
        self.seed_letter = int(seed_letter)
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
        lengths = np.array([len(self.rules[s]) for s in range(self.alphabet.size)])
        out_len = int(lengths[w].sum())
        starts = np.zeros(len(w), dtype=np.int64)
        np.cumsum(lengths[w][:-1], out=starts[1:])
        out = np.empty(out_len, dtype=np.uint8)
        for sym, image in self.rules.items():
            pos = np.flatnonzero(w == sym)
            if pos.size == 0:
                continue
            idx = starts[pos][:, None] + np.arange(len(image))[None, :]
            out[idx.reshape(-1)] = np.tile(image, pos.size)
        return out

    def _materialize(self, n):
        w = np.array([self.seed_letter], dtype=np.uint8)
        while len(w) < n:
            w = self._expand(w)
        return w[:n]

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


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    # Philox is counter based: a fixed (seed, stream) key reproduces the
    # stream from position 0, so prefixes of different lengths agree.
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def _bernoulli_symbols(probabilities: np.ndarray, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n IID symbols drawn from the (seed, stream) Philox stream."""
    u = _generator(seed, stream).random(n)
    cum = np.cumsum(probabilities)
    return np.minimum(
        np.searchsorted(cum, u, side="right"), len(probabilities) - 1
    ).astype(np.uint8)


def _markov_symbols(transition: np.ndarray, initial: np.ndarray, n: int, seed: int,
                    stream: int = 0) -> np.ndarray:
    """First n states of a chain path started from `initial`, drawn from the
    (seed, stream) Philox stream.

    Draw t moves the chain by the map "state -> next state" that row-wise
    `searchsorted` gives for u[t]; the path is the prefix composition of
    those maps, formed by doubling over chunks of a fixed byte size.
    """
    u = _generator(seed, stream).random(max(n, 1))
    cum_rows = np.cumsum(transition, axis=1)
    m1 = len(transition) - 1
    out = np.empty(n, dtype=np.uint8)
    if n == 0:
        return out
    out[0] = min(int(np.searchsorted(np.cumsum(initial), u[0], side="right")), m1)
    chunk = max(1, _SCAN_BYTES // (8 * len(transition)))
    for a in range(1, n, chunk):
        draws = u[a : a + chunk]
        # maps[t, s]: the state after draw a + t from state s
        maps = np.stack([np.searchsorted(row, draws, side="right") for row in cum_rows], axis=1)
        np.minimum(maps, m1, out=maps)
        k = 1
        while k < len(maps):  # maps[t] becomes the composition of draws a..a+t
            maps[k:] = np.take_along_axis(maps[k:], maps[:-k], axis=1)
            k *= 2
        out[a : a + len(draws)] = maps[:, out[a - 1]]
    return out


class BernoulliSource(WordSource):
    """IID symbols with fixed probabilities, seeded and replayable."""

    def __init__(self, probabilities, seed: int, alphabet: Alphabet | None = None):
        probs = _probabilities(probabilities)
        if alphabet is None:
            alphabet = Alphabet(len(probs))
        super().__init__(alphabet)
        if probs.shape != (alphabet.size,):
            raise DomainError("need one probability per symbol")
        self.probabilities = probs
        self.seed = int(seed)

    def _materialize(self, n):
        return _bernoulli_symbols(self.probabilities, self._sample_length(n), self.seed)

    def describe(self):
        return {
            "kind": "bernoulli",
            "alphabet": self.alphabet.size,
            "probabilities": [float(p) for p in self.probabilities],
            "seed": self.seed,
        }


class MarkovSource(WordSource):
    """Markov chain sample path with fixed transition rows and seed."""

    def __init__(self, transition, initial, seed: int, alphabet: Alphabet | None = None):
        P, init = _probabilities(transition), _probabilities(initial)
        if alphabet is None:
            alphabet = Alphabet(P.shape[0])
        super().__init__(alphabet)
        m = alphabet.size
        if P.shape != (m, m) or init.shape != (m,):
            raise DomainError("transition must be m x m and initial length m")
        self.transition = P
        self.initial = init
        self.seed = int(seed)

    def _materialize(self, n):
        return _markov_symbols(self.transition, self.initial, self._sample_length(n), self.seed)

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

    Backed by a boolean sieve of the declared capacity; asking past it is
    an error carrying the required bound, never a silent truncation.
    """

    def __init__(self, capacity: int = 1 << 21):
        super().__init__(Alphabet(2))
        if capacity < 1:
            raise DomainError("capacity must be positive")
        self.capacity = int(capacity)
        self._sieve = None

    def _materialize(self, n):
        if n > self.capacity:
            raise CapacityError(
                f"squarefree source sieved up to {self.capacity}; need capacity >= {n}",
                required=n,
            )
        if self._sieve is None:
            limit = self.capacity
            flags = np.ones(limit + 1, dtype=bool)
            flags[0] = False
            for p in range(2, int(math.isqrt(limit)) + 1):
                if flags[p * p]:  # p*p not yet struck by a smaller prime square
                    flags[p * p :: p * p] = False
            self._sieve = flags
        return self._sieve[1 : n + 1].astype(np.uint8)

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
        if self.kind == "geometric" and self.base < 2:
            raise DomainError("geometric schedule needs base >= 2")

    def threshold(self, i: int) -> int:
        if self.kind == "tower":
            return 2 ** (2**i)
        return self.base**i

    def block_type(self, j: int) -> int:
        if j < 1:
            raise DomainError("block indices start at 1")
        i = 0
        if j < self.threshold(0):
            return 1
        while self.threshold(i + 1) <= j:
            i += 1
        return 1 if i % 2 == 0 else 2

    def describe(self):
        d = {"kind": self.kind}
        if self.kind == "geometric":
            d["base"] = self.base
        return d

    @classmethod
    def from_description(cls, d: dict) -> "EpochSchedule":
        return cls(kind=d["kind"], base=int(d.get("base", 4)))


@dataclass(frozen=True)
class BlockProgram:
    """Finite description of an infinite word: optional head word followed
    by the concatenation of blocks block_fn(1), block_fn(2), ...

    ``description`` is the serializable form; programs built from raw
    callables carry None and cannot be written to text.
    """

    alphabet: Alphabet
    head: np.ndarray
    block_fn: Callable[[int], np.ndarray]
    description: dict | None = None


def block_schedule_prefix(program: BlockProgram, n: int) -> FiniteWord:
    """First n symbols of the programmed concatenation."""
    if n < 0:
        raise DomainError("prefix length must be non-negative")
    parts = [np.asarray(program.head, dtype=np.uint8)]
    total = len(parts[0])
    j = 0
    while total < n:
        j += 1
        block = np.asarray(program.block_fn(j), dtype=np.uint8)
        if block.size == 0:
            raise InvalidProgramError(f"block program produced an empty block at index {j}")
        parts.append(block)
        total += block.size
    return FiniteWord(np.concatenate(parts)[:n] if parts else np.empty(0, np.uint8), program.alphabet)


class BlockScheduleSource(WordSource):
    def __init__(self, program: BlockProgram):
        super().__init__(program.alphabet)
        self.program = program

    def _materialize(self, n):
        return block_schedule_prefix(self.program, n).symbols

    def describe(self):
        if self.program.description is None:
            raise DomainError("this block program has no serializable description")
        return {
            "kind": "block_schedule",
            "alphabet": self.alphabet.size,
            **self.program.description,
        }


def prefix_doubling_program(
    base_source: WordSource,
    schedule: EpochSchedule,
    *,
    head=(3,),
    type2_suffix: int = 2,
    alphabet_size: int = 4,
) -> BlockProgram:
    """Block j emits u_j u_j where u_j is the length-j prefix of the base
    word, with the suffix symbol appended in type-2 epochs."""
    alphabet = Alphabet(alphabet_size)

    def block(j: int) -> np.ndarray:
        u = base_source.prefix(j).symbols
        if schedule.block_type(j) == 2:
            u = np.concatenate([u, np.array([type2_suffix], dtype=np.uint8)])
        return np.concatenate([u, u])

    return BlockProgram(
        alphabet,
        np.asarray(head, dtype=np.uint8),
        block,
        description={
            "preset": "prefix_doubling",
            "head": FiniteWord(np.asarray(head, np.uint8), alphabet).to_text(),
            "type2_suffix": type2_suffix,
            "schedule": schedule.describe(),
            "base_source": base_source.describe(),
        },
    )


def paired_growth_program(
    first_source: WordSource,
    second_source: WordSource,
    *,
    offset: int = 2,
    alphabet_size: int = 4,
) -> BlockProgram:
    """Alternate growing prefixes of two words on disjoint symbol ranges:
    blocks x_0..x_{n-1} then y_0..y_{n-1} (y shifted by ``offset``)."""
    alphabet = Alphabet(alphabet_size)

    def block(j: int) -> np.ndarray:
        n = (j + 1) // 2
        if j % 2 == 1:
            return first_source.prefix(n).symbols
        return second_source.prefix(n).symbols + np.uint8(offset)

    return BlockProgram(
        alphabet,
        np.empty(0, dtype=np.uint8),
        block,
        description={
            "preset": "paired_growth",
            "offset": offset,
            "first_source": first_source.describe(),
            "second_source": second_source.describe(),
        },
    )


def triple_growth_program(
    schedule: EpochSchedule,
    *,
    alphabet_size: int = 4,
    swap_symbol: int = 3,
) -> BlockProgram:
    """Block n emits 0^n 1^n 2^n, with the swap symbol appended to the 0-
    and 1-runs in type-2 epochs."""
    alphabet = Alphabet(alphabet_size)
    swap = np.array([swap_symbol], dtype=np.uint8)

    def block(n: int) -> np.ndarray:
        u = np.zeros(n, dtype=np.uint8)
        v = np.ones(n, dtype=np.uint8)
        w = np.full(n, 2, dtype=np.uint8)
        if schedule.block_type(n) == 2:
            return np.concatenate([u, swap, v, swap, w])
        return np.concatenate([u, v, w])

    return BlockProgram(
        alphabet,
        np.empty(0, dtype=np.uint8),
        block,
        description={
            "preset": "triple_growth",
            "swap_symbol": swap_symbol,
            "schedule": schedule.describe(),
        },
    )


def run_alternation_program(
    pair_counts: Callable[[int], int],
    run_lengths: Callable[[int], int],
    *,
    description: dict | None = None,
) -> BlockProgram:
    """Block i emits (01)^{pair_counts(i)} followed by 0^{run_lengths(i)}."""
    alphabet = Alphabet(2)

    def block(i: int) -> np.ndarray:
        reps, run = pair_counts(i), run_lengths(i)
        if reps < 1 or run < 0:
            raise InvalidProgramError("pair counts must be >= 1 and run lengths >= 0")
        return np.concatenate(
            [np.tile(np.array([0, 1], dtype=np.uint8), reps), np.zeros(run, dtype=np.uint8)]
        )

    return BlockProgram(alphabet, np.empty(0, dtype=np.uint8), block, description=description)


def run_alternation_preset(pair_base: int = 2, run_slope: int = 1, run_offset: int = 5) -> BlockProgram:
    """Serializable run-alternation preset: pair_counts(i) = pair_base^i,
    run_lengths(i) = run_slope*i + run_offset."""
    return run_alternation_program(
        lambda i: pair_base**i,
        lambda i: run_slope * i + run_offset,
        description={
            "preset": "run_alternation",
            "pair_base": pair_base,
            "run_slope": run_slope,
            "run_offset": run_offset,
        },
    )


# ---------------------------------------------------------------------------
# Source (de)serialization
# ---------------------------------------------------------------------------


def source_from_description(d: Mapping) -> WordSource:
    kind = d.get("kind")
    alphabet = Alphabet(int(d["alphabet"])) if "alphabet" in d else None
    if kind == "periodic":
        return PeriodicSource(FiniteWord.from_text(str(d["cycle"]), alphabet), alphabet)
    if kind == "substitution":
        rules = {int(k): FiniteWord.from_text(str(v), alphabet).symbols
                 for k, v in d["rules"].items()}
        return SubstitutionSource(rules, int(d["seed_letter"]), alphabet)
    if kind == "bernoulli":
        return BernoulliSource(d["probabilities"], int(d["seed"]), alphabet)
    if kind == "markov":
        return MarkovSource(d["transition"], d["initial"], int(d["seed"]), alphabet)
    if kind == "squarefree":
        return SquarefreeSource(int(d.get("capacity", 1 << 21)))
    if kind == "block_schedule":
        return BlockScheduleSource(_program_from_description(d))
    raise DomainError(f"unknown word-source kind {kind!r}")


def _program_from_description(d: Mapping) -> BlockProgram:
    preset = d.get("preset")
    if preset == "prefix_doubling":
        alphabet = Alphabet(int(d["alphabet"]))
        head = FiniteWord.from_text(str(d["head"]), alphabet)
        return prefix_doubling_program(
            source_from_description(d["base_source"]),
            EpochSchedule.from_description(d["schedule"]),
            head=head.symbols,
            type2_suffix=int(d["type2_suffix"]),
            alphabet_size=alphabet.size,
        )
    if preset == "paired_growth":
        return paired_growth_program(
            source_from_description(d["first_source"]),
            source_from_description(d["second_source"]),
            offset=int(d["offset"]),
            alphabet_size=int(d["alphabet"]),
        )
    if preset == "triple_growth":
        return triple_growth_program(
            EpochSchedule.from_description(d["schedule"]),
            alphabet_size=int(d["alphabet"]),
            swap_symbol=int(d["swap_symbol"]),
        )
    if preset == "run_alternation":
        return run_alternation_preset(
            pair_base=int(d["pair_base"]),
            run_slope=int(d["run_slope"]),
            run_offset=int(d["run_offset"]),
        )
    raise DomainError(f"unknown block program preset {preset!r}")


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


def empirical_frequency(prefix: FiniteWord, word: FiniteWord) -> float:
    """Sliding-window frequency of the word among all |prefix|-|word|+1
    windows of the prefix (occurrences counted from position 0)."""
    if len(word) > len(prefix):
        raise DomainError("word longer than prefix")
    count = len(occurrences(prefix, word, start=0))
    return count / (len(prefix) - len(word) + 1)


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
    def horizon(self) -> int:
        return len(self.prefix)

    @property
    def count(self) -> int:
        """Number of return words (the index i of the last usable return)."""
        return len(self.return_times) - 1

    @property
    def prefix_word(self) -> FiniteWord:
        return self.prefix[: int(self.return_times[0])]

    @property
    def lengths(self) -> np.ndarray:
        """Lengths |zeta_j| for j = 1..count."""
        return np.diff(self.return_times)

    def word(self, j: int) -> FiniteWord:
        """zeta_j; j = 0 gives the prefix word."""
        if j == 0:
            return self.prefix_word
        if not 1 <= j <= self.count:
            raise DomainError(f"return word index {j} out of range 1..{self.count}")
        return self.prefix[int(self.return_times[j - 1]) : int(self.return_times[j])]

    @property
    def return_words(self) -> list[FiniteWord]:
        return [self.word(j) for j in range(1, self.count + 1)]

    @property
    def remainder(self) -> FiniteWord:
        return self.prefix[int(self.return_times[-1]) :]


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
    if decomp.count == 0:
        return 0.0
    lengths = decomp.lengths
    return float(lengths[lengths > cutoff].sum() / decomp.return_times[-1])
