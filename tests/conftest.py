"""Shared test oracles: deliberately naive, independent of the library paths."""

import itertools
import math

import numpy as np
import pytest

from cocyclelab import (
    Alphabet,
    CocycleSpec,
    FiniteWord,
    PeriodicSource,
    beta_cocycle,
    lyapunov_trace,
    partial_product,
    periodic_exponent,
)


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


def allowable(B: np.ndarray) -> bool:
    """Every row and every column has a positive entry."""
    return bool((B > 0).any(axis=0).all() and (B > 0).any(axis=1).all())


def hilbert_distance(x, y) -> float:
    """Hilbert projective distance log(max(x/y) / min(x/y)) on the open cone."""
    r = np.asarray(x, dtype=float) / np.asarray(y, dtype=float)
    return float(np.log(r.max() / r.min()))


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


def naive_scaled_steps(factors):
    """(log entry-sum norm, boolean support) of each running product of the
    factors, one step a factor: the running unit times the factor, divided
    by its entry sum, whose log is added; -inf and a zero unit from the
    first structurally zero product on."""
    d = len(factors[0])
    unit, sup, log_norm = np.eye(d), np.eye(d, dtype=bool), 0.0
    out = []
    for f in factors:
        f = np.asarray(f, dtype=float)
        sup = (sup.astype(int) @ (f > 0).astype(int)) > 0
        raw = unit @ f
        if not sup.any():
            unit, log_norm = np.zeros_like(raw), float("-inf")
        else:
            s = float(raw.sum())
            unit, log_norm = raw / s, log_norm + math.log(s)
        out.append((log_norm, sup))
    return out


def kernel_product(factors):
    """partial_product of the factors in order, each the matrix of its own
    symbol in a depth-1 table; one more symbol, which the word never reads,
    holds the identity, so a table of zero factors is a valid cocycle."""
    d = len(factors[0])
    spec = CocycleSpec(Alphabet(len(factors) + 1), 1,
                       {(j,): f for j, f in enumerate([*factors, np.eye(d)])})
    word = FiniteWord(np.arange(len(factors), dtype=np.uint8), spec.alphabet)
    return partial_product(spec, word, 0, len(factors))


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


def prefix_doubling_description(base_source, schedule, head="3", type2_suffix=2):
    """The source description of a prefix-doubling block program over 4
    symbols: block j is u_j u_j, u_j the length-j prefix of the base word
    with the suffix symbol appended in type-2 epochs."""
    return {"kind": "block_schedule", "alphabet": 4, "preset": "prefix_doubling",
            "head": head, "type2_suffix": type2_suffix, "schedule": schedule.describe(),
            "base_source": base_source.describe()}


def naive_markov_symbols(transition, initial, n, seed, stream=0):
    """Per-symbol chain walk on the same Philox draws, the reference for the
    prefix-composed Markov sampler."""
    from cocyclelab.words import _generator

    u = _generator(seed, stream).random(max(n, 1))
    cum_rows = np.cumsum(transition, axis=1)
    m1 = len(transition) - 1
    out = np.empty(n, dtype=np.uint8)
    if n == 0:
        return out
    state = min(int(np.searchsorted(np.cumsum(initial), u[0], side="right")), m1)
    out[0] = state
    for t in range(1, n):
        state = min(int(np.searchsorted(cum_rows[state], u[t], side="right")), m1)
        out[t] = state
    return out


def naive_first_zero(spec, symbols, n):
    """First t at which the boolean support product of the first t factors
    vanishes (None if it never does), one integer matrix product per step."""
    sup = np.eye(spec.dim, dtype=np.int64)
    for t in range(n):
        sup = (sup @ spec.evaluate(FiniteWord(symbols[t : t + spec.depth], spec.alphabet)).support) > 0
        sup = sup.astype(np.int64)
        if not sup.any():
            return t + 1
    return None


def naive_spectrum(spec, betas, horizon):
    """Per-beta loop of (beta, psi, alpha, dim): three psi values per grid
    point, each from its own depth-1 cocycle, in the order beta, beta + h,
    beta - h with h = 1e-3 * (1 + |beta|); the reference for the stacked
    beta-family."""

    def one_psi(beta):
        cocycle = beta_cocycle(spec, beta)
        src = spec.weight_source
        if isinstance(src, PeriodicSource):
            return periodic_exponent(cocycle, src.cycle)
        half = max(1, horizon // 2)
        cps = [half, horizon] if half < horizon else [horizon]
        return lyapunov_trace(cocycle, src, cps).slope_estimate()

    out = []
    for beta in np.asarray(betas, dtype=float).tolist():
        step = 1e-3 * (1.0 + abs(beta))
        p0 = one_psi(beta)
        alpha = (one_psi(beta + step) - one_psi(beta - step)) / (2 * step)
        out.append((beta, p0, alpha, (p0 - alpha * beta) / math.log(spec.q)))
    return out


def mp_spectral_radius(B, dps=40) -> float:
    """Largest eigenvalue modulus of B from mpmath's eigensolver at dps
    digits (a defective Perron root still comes out to about dps/2 digits)."""
    import mpmath

    with mpmath.workdps(dps):
        values, _ = mpmath.eig(mpmath.matrix(np.asarray(B, dtype=float).tolist()), left=False)
        return float(max(abs(v) for v in values))


def reference_cocycle_table(alphabet, depth, table, default=None):
    """Key-by-key table build, one FiniteWord and one NonNegMatrix per key
    and a Python word index each: the reference for `CocycleSpec`'s
    stacked pass. Returns the matrix of every word (word-index order), the
    entry floor, the maximal entry and the description."""
    from types import SimpleNamespace

    from cocyclelab.errors import DomainError
    from cocyclelab.matrices import as_matrix

    m = alphabet.size
    given = {}
    for key, val in table.items():
        w = FiniteWord(key, alphabet)
        if len(w) != depth:
            raise DomainError(f"table key {key!r} does not have depth {depth}")
        given[tuple(w)] = as_matrix(val)
    fallback = as_matrix(default) if default is not None else None
    matrices = [None] * m**depth
    for symbols, mat in given.items():
        idx = 0
        for s in symbols:
            idx = idx * m + s
        matrices[idx] = mat
    if None in matrices:
        if fallback is None:
            raise DomainError("table is not total and no default matrix was given")
        matrices = [fallback if mat is None else mat for mat in matrices]
    if len({mat.dim for mat in matrices}) != 1:
        raise DomainError("all table matrices must share one dimension")
    nonzero = [mat.entries[mat.support] for mat in matrices if not mat.is_zero]
    if not nonzero:
        raise DomainError("cocycle table must contain at least one nonzero entry")
    described = {
        "alphabet": m,
        "depth": depth,
        "matrices": {FiniteWord(w, alphabet).to_text(): mat.entries.tolist()
                     for w, mat in sorted(given.items())},
    }
    if fallback is not None:
        described["default"] = fallback.entries.tolist()
    return SimpleNamespace(
        matrices=matrices,
        entry_floor=float(np.concatenate(nonzero).min()),
        a_upper=float(max(mat.entries.max() for mat in matrices)),
        describe=described,
    )


def naive_observed_witness(spec, symbols, max_ell, start=0):
    """First (window, ell) whose ell-step support product is all true,
    scanning each length's distinct windows in first-occurrence order
    (deduplicated by their bytes), one boolean product per step."""
    for ell in range(1, max_ell + 1):
        wlen = ell + spec.depth - 1
        seen = set()
        for k in range(start, len(symbols) - wlen + 1):
            window = symbols[k : k + wlen]
            if window.tobytes() in seen:
                continue
            seen.add(window.tobytes())
            if naive_support(spec, window, ell).all():
                return window, ell
    return None


def naive_support(spec, window, ell) -> np.ndarray:
    """The boolean support of a window's ell-step product, one boolean
    product per step."""
    sup = np.eye(spec.dim, dtype=bool)
    for t in range(ell):
        factor = spec.evaluate(FiniteWord(window[t : t + spec.depth], spec.alphabet))
        sup = (sup.astype(int) @ factor.support.astype(int)) > 0
    return sup


def naive_product(spec, window, ell) -> np.ndarray:
    """The real ell-step product of a window, factor by factor from the identity."""
    P = np.eye(spec.dim)
    for t in range(ell):
        P = P @ spec.evaluate(FiniteWord(window[t : t + spec.depth], spec.alphabet)).entries
    return P


def naive_positivity(spec, max_ell):
    """(word, ell, b) for the lexicographically first word whose ell-step
    support product is all true, at the shortest ell: every one of the
    m^(ell+r-1) words in lexicographic order, one boolean product per step;
    None when no word up to max_ell has one."""
    m = spec.alphabet.size
    for ell in range(1, max_ell + 1):
        for symbols in itertools.product(range(m), repeat=ell + spec.depth - 1):
            window = np.array(symbols, dtype=np.uint8)
            if naive_support(spec, window, ell).all():
                return window, ell, float(naive_product(spec, window, ell).min())
    return None


def assert_same_bytes(got, want):
    """Two tuples of arrays agree in dtype, shape and every byte."""
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def unfolded_reduce(table, rows, checkpoints=()):
    """The product kernel with no word level folded: every position's
    product is formed, the reference for the folded word tables."""
    from cocyclelab import cocycles

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cocycles, "_fold",
                  lambda table, rows, *rest: ([table.units], rows, table.pad, []))
        return cocycles._reduce(table, rows, checkpoints)
