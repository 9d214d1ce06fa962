"""Shared test oracles: deliberately naive, independent of the library paths."""

import numpy as np
import pytest

from cocyclelab import Alphabet, FiniteWord


def naive_occurrences(prefix: FiniteWord, marker: FiniteWord, start: int = 1):
    """Quadratic scan, the reference for the vectorised candidate-filter matcher."""
    s, m = prefix.symbols, marker.symbols
    return [
        k
        for k in range(start, len(s) - len(m) + 1)
        if np.array_equal(s[k : k + len(m)], m)
    ]


def brute_phi(entries: np.ndarray) -> float:
    """Cross-ratio minimum by explicit quadruple loops."""
    d = entries.shape[0]
    best = np.inf
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for s in range(d):
                    best = min(best, entries[i, k] * entries[j, s] / (entries[j, k] * entries[i, s]))
    return best


def mp_log_entry_sum(factors) -> float:
    """log of the entry sum of a matrix product at 60 significant digits."""
    import mpmath

    with mpmath.workdps(60):
        acc = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in factors[0]])
        for f in factors[1:]:
            acc = acc * mpmath.matrix([[mpmath.mpf(x) for x in row] for row in f])
        total = mpmath.mpf(0)
        for i in range(acc.rows):
            for j in range(acc.cols):
                total += acc[i, j]
        return float(mpmath.log(total))


def random_positive(rng, d, low=0.2, high=5.0):
    return rng.uniform(low, high, size=(d, d))


def random_sparse_nonneg(rng, d, density=0.6, low=0.5, high=2.0):
    mask = rng.random((d, d)) < density
    out = np.where(mask, rng.uniform(low, high, size=(d, d)), 0.0)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def word(text: str, m: int = None) -> FiniteWord:
    size = m if m is not None else max(int(c) for c in text) + 1
    return FiniteWord.from_text(text, Alphabet(size))
