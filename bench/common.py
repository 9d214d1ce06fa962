"""Shared parts of the benchmark: the timed-pass recorder, the result of a
reference check, and independent numpy references for the checks.

The references never call into cocyclelab's product code: they rebuild
factor indices from the symbols and reduce the factor stack pairwise with
numpy, so a kernel change in the library cannot hide behind its own check.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Factors reduced per numpy tree; bounds each tree's stack at d = 16 to
# 2048 * 16 * 16 * 8 bytes = 4 MiB (plus the copies a reduction makes).
CHUNK = 2048


class Pass:
    """One pass over a workload's operations.

    `op` times one call into the library and keeps its result, or the
    exception it raised; the check decides whether that outcome was
    expected. In a traced pass every op and piece is also kept as a span
    (name, start, end, parent) whose parent is the pass's root span.
    `piece` runs only in traced passes: it times on its own a piece that a
    composite op repeats internally, so the piece can be subtracted.
    """

    def __init__(self, index: int, traced: bool, spans: list):
        self.index = index
        self.traced = traced
        self.results: dict = {}
        self.times: dict[str, float] = {}
        self.piece_times: dict[str, float] = {}
        self._spans = spans
        self._root = None
        if traced:
            self._root = len(spans)
            spans.append({"id": self._root, "name": "pass", "parent": None,
                          "pass": index, "start": time.perf_counter(), "end": None})

    def _span(self, name, key, start, end, piece):
        self._spans.append({"id": len(self._spans), "name": name, "parent": self._root,
                            "pass": self.index, "key": key, "piece": piece,
                            "start": start, "end": end})

    def op(self, key: str, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # judged by the workload's check
            result = exc
        end = time.perf_counter()
        self.results[key] = result
        self.times[key] = end - start
        if self.traced:
            self._span(layer, key, start, end, False)
        return result

    def piece(self, key: str, layer: str, fn, *args, **kwargs):
        if not self.traced:
            return None
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.piece_times[key] = end - start
        self._span(layer, key, start, end, True)
        return result

    def close(self):
        if self.traced:
            self._spans[self._root]["end"] = time.perf_counter()


@dataclass
class Ratio:
    """A per-layer metric num / den * scale that two parts of a workload
    can both report: their numerators and denominators add up first."""

    num: float
    den: float
    scale: float

    def __add__(self, other: Ratio) -> Ratio:
        assert self.scale == other.scale
        return Ratio(self.num + other.num, self.den + other.den, self.scale)

    @property
    def value(self) -> float:
        return self.num / self.den * self.scale


class Combined:
    """A workload whose passes run its parts one after the other.

    The parts' op keys are disjoint, so checks and results stay apart. A
    per-layer metric two parts report is summed: counts and seconds add,
    a Ratio adds numerator and denominator before dividing.
    """

    def __init__(self, name: str, unit: str, work: int, parts: list):
        self.name = name
        self.unit = unit
        self.work = work
        self.parts = parts
        self.size = "; ".join(f"{part.name}: {part.size}" for part in parts)

    def run_pass(self, p):
        for part in self.parts:
            part.run_pass(p)

    def check(self, results) -> list[Check]:
        return [c for part in self.parts for c in part.check(results)]

    def pass_check(self, index) -> list[str]:
        return [key for part in self.parts if hasattr(part, "pass_check")
                for key in part.pass_check(index)]

    def layer_metrics(self, t: dict, results) -> dict:
        merged: dict = {}
        for part in self.parts:
            for key, value in part.layer_metrics(t, results).items():
                merged[key] = merged[key] + value if key in merged else value
        return {k: v.value if isinstance(v, Ratio) else v for k, v in merged.items()}


@dataclass
class Check:
    """Outcome of one reference check; err_over_tol is None for exact
    (match / no match) checks."""

    key: str
    ok: bool
    err_over_tol: float | None = None
    detail: str = ""


def close_check(key: str, got, ref, rtol: float) -> Check:
    """Relative comparison |got - ref| <= rtol * max(1, |ref|), elementwise."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    if got.shape != ref.shape:
        return Check(key, False, None, f"shape {got.shape} != reference {ref.shape}")
    if not np.array_equal(np.isfinite(got), np.isfinite(ref)):
        return Check(key, False, None, "finite pattern differs from reference")
    fin = np.isfinite(ref)
    if not np.array_equal(got[~fin], ref[~fin]):
        return Check(key, False, None, "non-finite values differ from reference")
    if not fin.any():
        return Check(key, True, 0.0)
    err = np.abs(got[fin] - ref[fin]) / np.maximum(1.0, np.abs(ref[fin]))
    ratio = float(err.max() / rtol)
    return Check(key, ratio <= 1.0, ratio, f"max relative error {err.max():.3e}")


def fingerprint(value) -> bytes:
    """Bytes that equal across passes iff the op produced the same outcome."""
    if isinstance(value, BaseException):
        return pickle.dumps(("raised", type(value).__name__, str(value)))
    return pickle.dumps(value, protocol=4)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def table_stack(spec) -> np.ndarray:
    """The cocycle table as a (m^r, d, d) float stack."""
    return np.stack([np.asarray(mat.entries, dtype=float) for mat in spec.matrices])


def factor_indices(symbols: np.ndarray, m: int, r: int, n: int) -> np.ndarray:
    """Table index of the depth-r window at each of the first n positions."""
    sym = np.asarray(symbols[: n + r - 1], dtype=np.int64)
    if len(sym) < n + r - 1:
        raise ValueError("symbol array too short for the requested factors")
    idx = np.zeros(n, dtype=np.int64)
    for k in range(r):
        idx = idx * m + sym[k : k + n]
    return idx


def _tree(stack: np.ndarray) -> tuple[np.ndarray, float]:
    """Pairwise product of a factor stack, renormalised at every level."""
    d = stack.shape[1]
    stack = np.array(stack, dtype=float)
    logs = np.zeros(len(stack))
    while len(stack) > 1:
        if len(stack) % 2:
            stack = np.concatenate([stack, np.eye(d)[None]])
            logs = np.append(logs, 0.0)
        stack = np.matmul(stack[0::2], stack[1::2])
        sums = stack.sum(axis=(1, 2))
        stack /= sums[:, None, None]
        logs = logs[0::2] + logs[1::2] + np.log(sums)
    s = float(stack[0].sum())
    return stack[0] / s, float(logs[0]) + math.log(s)


def log_norms_at(mats: np.ndarray, idx: np.ndarray, checkpoints) -> np.ndarray:
    """log entry-sum norm of the product of the first c factors, for each
    checkpoint c (strictly increasing, all before any structural zero)."""
    d = mats.shape[1]
    unit = np.eye(d)
    acc = 0.0
    prev = 0
    out = []
    for c in checkpoints:
        for a in range(prev, int(c), CHUNK):
            u, lg = _tree(mats[idx[a : min(int(c), a + CHUNK)]])
            unit = unit @ u
            s = float(unit.sum())
            unit /= s
            acc += lg + math.log(s)
        prev = int(c)
        out.append(acc)
    return np.array(out)


def segment_log_norm(mats: np.ndarray, idx: np.ndarray) -> float:
    if len(idx) == 0:
        return 0.0
    return float(log_norms_at(mats, idx, [len(idx)])[0])


def batched_log_norms(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """log norms of many equal-length products at once: idx is (k, ell)."""
    stack = mats[idx]  # (k, ell, d, d)
    logs = np.zeros(len(idx))
    prod = stack[:, 0]
    for t in range(1, idx.shape[1]):
        prod = np.matmul(prod, stack[:, t])
        sums = prod.sum(axis=(1, 2))
        prod = prod / sums[:, None, None]
        logs += np.log(sums)
    return logs + np.log(prod.sum(axis=(1, 2)))


def first_zero(mats: np.ndarray, idx: np.ndarray) -> int | None:
    """First n at which the boolean support product of n factors vanishes."""
    supports = (mats > 0).astype(np.uint8)
    rows = np.eye(mats.shape[1], dtype=np.uint8)
    for t, f in enumerate(idx, start=1):
        rows = (rows @ supports[f] > 0).astype(np.uint8)
        if not rows.any():
            return t
    return None


def occurrences(symbols: np.ndarray, marker: np.ndarray, start: int) -> np.ndarray:
    """All positions >= start carrying the marker (sliding-window compare)."""
    sym = np.asarray(symbols)
    m = len(marker)
    if len(sym) < m:
        return np.empty(0, dtype=np.int64)
    hits = np.flatnonzero(np.all(sliding_window_view(sym, m) == np.asarray(marker), axis=1))
    return hits[hits >= start].astype(np.int64)


def binary_entropy(alpha: float) -> float:
    a = min(max(alpha, 1e-300), 1 - 1e-300)
    return -(a * math.log(a) + (1 - a) * math.log(1 - a)) / math.log(2)
