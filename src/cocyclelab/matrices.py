"""Non-negative matrix kernel.

Entry-sum norms, allowability flags, the Hilbert projective metric and
Birkhoff contraction coefficient, reachability closures, the spectral
radius from the irreducible class decomposition, and overflow-proof
scaled products. Every matrix carries an exact boolean support pattern
alongside its float entries; zero detection is always structural, never
a float threshold.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotPositiveError,
    RangeError,
    UnderflowError_,
)

MAX_DIM = 16  # phi() is an exhaustive O(d^4) scan; keep d small


def _check_entries(entries: np.ndarray) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
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

    def __matmul__(self, other: "NonNegMatrix") -> "NonNegMatrix":
        if not isinstance(other, NonNegMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        sup = bool_matmul(self.support, other.support)
        return NonNegMatrix(self.entries @ other.entries, sup)

    def __repr__(self):
        return f"NonNegMatrix({self.entries.tolist()})"


def as_matrix(B) -> NonNegMatrix:
    if isinstance(B, NonNegMatrix):
        return B
    return NonNegMatrix(B)


def bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact boolean matrix product (OR of ANDs)."""
    return np.matmul(a.astype(bool, copy=False), b.astype(bool, copy=False))


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def entry_sum_norm(B) -> float:
    """The norm used throughout: sum of all entries. Zero iff B = 0."""
    return float(as_matrix(B).entries.sum())


@dataclass(frozen=True)
class Allowability:
    row_allowable: bool
    column_allowable: bool
    positive: bool

    @property
    def allowable(self) -> bool:
        return self.row_allowable and self.column_allowable

    @property
    def none(self) -> bool:
        return not (self.row_allowable or self.column_allowable)


def allowability(B) -> Allowability:
    """Flags computed from the support pattern only: a matrix is
    row-allowable (column-allowable) when every row (column) has a
    positive entry, allowable when both, positive when all entries are."""
    sup = as_matrix(B).support
    return Allowability(
        row_allowable=bool(sup.any(axis=1).all()),
        column_allowable=bool(sup.any(axis=0).all()),
        positive=bool(sup.all()),
    )


def elem_constant(P) -> float:
    """c(P) = (1/d) * min(P) / max(P) for strictly positive P.

    Satisfies the norm sandwich c(P) * ||L|| * ||P R|| <= ||L P R|| <=
    ||L|| * ||P R|| for all non-negative L, R (property-tested, not an
    operation).
    """
    P = as_matrix(P)
    if not bool(P.support.all()):
        raise NotPositiveError("elem_constant requires a strictly positive matrix")
    return float(P.entries.min() / (P.dim * P.entries.max()))


@dataclass(frozen=True)
class ConeVector:
    """Point in the open positive cone (all coordinates > 0)."""

    coordinates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coordinates, dtype=float).reshape(-1)
        if arr.size < 1 or not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise DomainError("cone vector coordinates must be finite and strictly positive")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coordinates", arr)

    @property
    def dim(self) -> int:
        return self.coordinates.size


def _cone_coords(x) -> np.ndarray:
    if isinstance(x, ConeVector):
        return x.coordinates
    return ConeVector(np.asarray(x, dtype=float)).coordinates


def hilbert_metric(x, y) -> float:
    """Projective distance log(max_i x_i/y_i / min_i x_i/y_i) on the open
    cone; zero exactly on rays."""
    xv, yv = _cone_coords(x), _cone_coords(y)
    if xv.size != yv.size:
        raise DomainError("dimension mismatch")
    r = xv / yv
    return float(np.log(r.max() / r.min()))


def phi(B) -> float:
    """Minimal entry cross-ratio min_{i,j,k,s} b_ik b_js / (b_jk b_is).

    Defined for allowable B; equals 0 as soon as B has a zero entry, and
    is found by an exhaustive scan over all index quadruples otherwise.
    """
    B = as_matrix(B)
    if B.dim > MAX_DIM:
        raise DomainError(f"phi supports dim <= {MAX_DIM}")
    if not allowability(B).allowable:
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
    """Running matrix product kept at entry-sum 1, with the accumulated
    log-scale stored separately, so log_norm always equals the log
    entry-sum norm of the full product without overflow.

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

    @classmethod
    def from_raw(cls, raw: np.ndarray, support: np.ndarray, log_scale: float,
                 length: int) -> "ScaledProduct":
        """Accumulator for exp(log_scale) * raw with the given exact support.

        A structurally zero support gives the zero product; otherwise raw is
        divided by its entry sum, which must be positive (else the product
        underflowed) and finite (else it overflowed).
        """
        if not support.any():
            return cls(raw.shape[0], np.zeros_like(raw), support, float("-inf"), length)
        s = float(raw.sum())
        if s == 0.0:
            raise UnderflowError_(
                "entry-sum collapsed to zero on a structurally nonzero product",
                position=length,
            )
        if not math.isfinite(s):
            raise RangeError("entry-sum overflowed; rescale the factors")
        return cls(raw.shape[0], raw / s, support, log_scale + math.log(s), length)

    def multiply(self, B) -> "ScaledProduct":
        """Accumulator for (old product) . B."""
        B = as_matrix(B)
        if B.dim != self.dim:
            raise DomainError("dimension mismatch")
        sup = bool_matmul(self.support, B.support)
        return ScaledProduct.from_raw(self.unit @ B.entries, sup, self.log_norm, self.length + 1)


def reachability(supports: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of each boolean (..., d, d) support:
    reach[..., i, j] is True iff some path, possibly empty, leads from i to j."""
    d = supports.shape[-1]
    reach = supports.astype(bool) | np.eye(d, dtype=bool)
    for _ in range((d - 1).bit_length()):  # paths of every length up to 2^k >= d - 1
        reach = bool_matmul(reach, reach)
    return reach


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


# ---------------------------------------------------------------------------
# Serialization: dense decimal text and compact binary
# ---------------------------------------------------------------------------


def matrix_to_text(B) -> str:
    """Dense row-major decimal text: first line the dimension, then one
    line per row with repr() entries (shortest round-tripping decimals)."""
    B = as_matrix(B)
    lines = [str(B.dim)]
    for row in B.entries:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> NonNegMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    d = int(lines[0])
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : d + 1]]
    return NonNegMatrix(np.array(rows))


def matrix_to_bytes(B) -> bytes:
    """Compact binary form, bit-exact: little-endian uint32 dimension d,
    then d*d float64 entries row-major, then ceil(d*d/8) bytes of support
    bitmap (row-major, LSB-first within each byte)."""
    B = as_matrix(B)
    d = B.dim
    out = bytearray(struct.pack("<I", d))
    out += B.entries.astype("<f8").tobytes()
    out += np.packbits(B.support.reshape(-1), bitorder="little").tobytes()
    return bytes(out)


def matrix_from_bytes(data: bytes) -> NonNegMatrix:
    (d,) = struct.unpack_from("<I", data, 0)
    entries = np.frombuffer(data, dtype="<f8", count=d * d, offset=4).reshape(d, d)
    bitmap_off = 4 + 8 * d * d
    nbytes = (d * d + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=bitmap_off),
        bitorder="little",
    )[: d * d]
    return NonNegMatrix(entries.copy(), bits.reshape(d, d).astype(bool))
