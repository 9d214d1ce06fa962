"""Non-negative matrix kernel.

The quasi-multiplicativity constant, Birkhoff's contraction coefficient,
reachability closures, the spectral radius from the irreducible class
decomposition, and the scaled products the cocycle kernel returns.
Every matrix carries an exact boolean support pattern alongside its
float entries; zero detection is always structural, never a float
threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DomainError,
    NotPositiveError,
    RangeError,
    UnderflowError_,
)

MAX_DIM = 16  # phi() is an exhaustive O(d^4) scan; keep d small


def _floats(values, what: str) -> np.ndarray:
    """values as a float array; a ragged one, or one holding a value that
    is no float, raises DomainError naming `what`, not a numpy error."""
    try:
        return np.asarray(values, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"{what} must form a rectangular array of floats") from exc


def _check_entries(entries: np.ndarray) -> np.ndarray:
    arr = _floats(entries, "matrix entries")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("matrix must be square")
    if arr.shape[0] < 1:
        raise DomainError("dimension must be >= 1")
    if not np.all(np.isfinite(arr)):
        raise RangeError("matrix entries must be finite")
    if np.any(arr < 0):
        raise DomainError("matrix entries must be non-negative")
    return arr


class NonNegMatrix:
    """Square non-negative matrix with an exact zero/nonzero shadow.

    support[i, j] False forces entries[i, j] == 0.0 exactly; support True
    requires entries[i, j] > 0. A structurally nonzero entry that arrives
    as float zero is an underflow error, never a silent zero.
    """

    __slots__ = ("entries", "support")

    def __init__(self, entries, support=None, _position=None):
        arr = _check_entries(entries)
        if support is None:
            sup = arr > 0
        else:
            sup = np.asarray(support, dtype=bool)
            if sup.shape != arr.shape:
                raise DomainError("support shape must match entries")
            if np.any(arr[~sup] != 0.0):
                raise DomainError("support-false entry must be exactly zero")
            if np.any(arr[sup] == 0.0):
                raise UnderflowError_(
                    "structurally nonzero entry underflowed to float zero",
                    position=_position,
                )
        arr = np.ascontiguousarray(arr)
        sup = np.ascontiguousarray(sup)
        arr.setflags(write=False)
        sup.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "support", sup)

    def __setattr__(self, name, value):
        raise AttributeError("NonNegMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_zero(self) -> bool:
        return not bool(self.support.any())

    def __repr__(self):
        return f"NonNegMatrix({self.entries.tolist()})"


def as_matrix(B) -> NonNegMatrix:
    if isinstance(B, NonNegMatrix):
        return B
    return NonNegMatrix(B)


def _support_matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Exact support product of 0/1 float stacks, clipped back to 0/1; the
    one support product of the library."""
    prod = np.matmul(a, b, out=out)
    return np.minimum(prod, 1.0, out=prod)


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def elem_constant(P) -> float:
    """c(P) = (1/d) * min(P) / max(P) for strictly positive P.

    Satisfies the norm sandwich c(P) * ||L|| * ||P R|| <= ||L P R|| <=
    ||L|| * ||P R|| for all non-negative L, R (property-tested, not an
    operation).
    """
    P = as_matrix(P)
    if not bool(P.support.all()):
        raise NotPositiveError("elem_constant requires a strictly positive matrix")
    return float(P.entries.min() / P.entries.max() / P.dim)  # d * max could overflow


def phi(B) -> float:
    """Minimal entry cross-ratio min_{i,j,k,s} b_ik b_js / (b_jk b_is).

    Defined for allowable B (every row and every column has a positive
    entry); equals 0 as soon as B has a zero entry, and
    is found by an exhaustive scan over all index quadruples otherwise.
    """
    B = as_matrix(B)
    if B.dim > MAX_DIM:
        raise DomainError(f"phi supports dim <= {MAX_DIM}")
    if not (B.support.any(axis=0).all() and B.support.any(axis=1).all()):
        raise DomainError("phi requires an allowable matrix")
    if not bool(B.support.all()):
        return 0.0
    E = B.entries
    num = E[:, None, :, None] * E[None, :, None, :]
    den = E[None, :, :, None] * E[:, None, None, :]
    return float((num / den).min())


def birkhoff_tau(B) -> float:
    """Birkhoff contraction coefficient tau(B) = (1 - sqrt(phi)) / (1 + sqrt(phi))."""
    p = math.sqrt(phi(B))
    return (1.0 - p) / (1.0 + p)


def log_norm_bounds(n: int, a_star: float, a_upper: float, d: int) -> tuple[float, float]:
    """Envelope (-c n, c n) for log-norms of nonzero n-fold products whose
    nonzero entries lie in [a_star, a_upper]; c = max(|log a_star|,
    |log(a_upper d^2)|)."""
    if not 0 < a_star <= a_upper:
        raise DomainError("need 0 < a_star <= a_upper")
    c = max(abs(math.log(a_star)), abs(math.log(a_upper * d * d)))
    return (-c * n, c * n)


# ---------------------------------------------------------------------------
# Scaled products
# ---------------------------------------------------------------------------


class ScaledProduct:
    """Matrix product kept at entry-sum 1, with the accumulated log-scale
    stored separately, so log_norm always equals the log entry-sum norm of
    the full product without overflow; `cocycles.partial_product` forms it.

    The length-0 accumulator represents the empty product: its unit is the
    identity (not sum-normalized) and its log_norm is 0. The exact boolean
    support rides along; a product is zero iff its support product is zero.
    """

    __slots__ = ("dim", "unit", "support", "log_norm", "length")

    def __init__(self, dim, unit, support, log_norm, length):
        self.dim = dim
        self.unit = unit
        self.support = support
        self.log_norm = log_norm
        self.length = length

    @classmethod
    def empty(cls, d: int) -> "ScaledProduct":
        return cls(d, np.eye(d), np.eye(d, dtype=bool), 0.0, 0)

    @property
    def is_zero(self) -> bool:
        return not bool(self.support.any())

    @property
    def unit_matrix(self) -> NonNegMatrix:
        """Materialize the normalized product; raises when a structurally
        nonzero entry has underflowed to float zero."""
        return NonNegMatrix(self.unit, self.support, _position=self.length)


def reachability(supports: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of each boolean (..., d, d) support:
    reach[..., i, j] is True iff some path, possibly empty, leads from i to j."""
    d = supports.shape[-1]
    reach = np.maximum(supports > 0, np.eye(d))
    for _ in range((d - 1).bit_length()):  # paths of every length up to 2^k >= d - 1
        reach = _support_matmul(reach, reach)
    return reach > 0


def spectral_radius(B) -> float:
    """Spectral radius of a non-negative matrix: the largest Perron root
    over its irreducible classes (see `spectral_radii`)."""
    B = as_matrix(B)
    return float(spectral_radii(B.entries[None], B.support[None])[0])


def spectral_radii(entries: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """`spectral_radius` of each matrix of a (K, d, d) stack with its exact
    support. Entries joining two irreducible classes (indices that do not
    reach each other) are dropped, which leaves the spectrum unchanged and
    makes each class's Perron root simple, so one batched eigvals finds it
    accurately; a nilpotent support drops everything and gives 0."""
    reach = reachability(supports)
    classes = np.where(reach & reach.swapaxes(-1, -2), entries, 0.0)
    return np.abs(np.linalg.eigvals(classes)).max(axis=-1)
