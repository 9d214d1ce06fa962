"""orbit-trace: long single-orbit exponent traces.

Nine orbits cover d = 2, 4, 8 and 16, a depth-3 table and every source
kind a trace can be driven by except Markov (which `ensemble` covers):
periodic, Thue-Morse substitution, Bernoulli, squarefree and the
triple-growth block schedule with sparse diagonal/swap supports. One
stream goes structurally zero at a known step, and one probe must raise
UnderflowError_. The time goes to the per-step product loop, with source
generation done in set-up and factor indexing a small share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cocyclelab as cl
from cocyclelab import words
from cocyclelab.errors import UnderflowError_

from common import (
    Check,
    Ratio,
    close_check,
    factor_indices,
    first_zero,
    log_norms_at,
    table_stack,
)

NAME = "orbit-trace"
ZERO_HEAD = 10_000  # the zero stream's random head; the shifts start after it
FIB = [[1.0, 1.0], [1.0, 0.0]]


@dataclass
class Case:
    name: str
    kind: str            # source kind, for words.prefix_ns_per_symbol.<kind>
    spec: cl.CocycleSpec
    make_source: Callable[[], cl.WordSource]
    n: int
    zero_at: int | None = None
    source: cl.WordSource | None = None
    checkpoints: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.spec.dim


def _positive(rng, d):
    return rng.uniform(0.5, 2.0, (d, d))


def _table(rng, r, d):
    """Random strictly positive depth-r table over two letters."""
    return {format(i, f"0{r}b"): _positive(rng, d) for i in range(2**r)}


def _triple_growth_spec(rng, d):
    # Diagonal letters stay within a factor 4 per step, so the longest run
    # (a few hundred steps) keeps every entry inside float range and the
    # 1e-9 reference comparison stays meaningful.
    diag = [np.diag(rng.uniform(0.5, 2.0, d)) for _ in range(2)]
    swap = np.eye(d)[rng.permutation(d)]
    return cl.CocycleSpec(cl.Alphabet(4), 1, {"0": diag[0], "1": diag[1],
                                            "2": _positive(rng, d), "3": swap})


def _zero_spec(rng, d):
    shift = np.eye(d, k=1)  # nilpotent: d consecutive shifts give zero
    return cl.CocycleSpec(cl.Alphabet(3), 1, {"0": _positive(rng, d), "1": _positive(rng, d),
                                            "2": shift})


class Workload:
    name = NAME

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        s = int(rng.integers(1 << 30))
        tm_rules = {0: "01", 1: "10"}
        head = rng.integers(0, 2, ZERO_HEAD).astype(np.uint8)
        d4 = 4
        zero_program = words.BlockProgram(cl.Alphabet(3), head,
                                          lambda j: np.full(d4, 2, dtype=np.uint8))
        a2 = cl.Alphabet(2)
        self.cases = [
            Case("fibonacci-d2", "periodic", cl.CocycleSpec(cl.Alphabet(1), 1, {"0": FIB}),
                 lambda: cl.PeriodicSource("0", cl.Alphabet(1)), 8_000),
            Case("thue-morse-d2", "substitution", cl.CocycleSpec(a2, 1, _table(rng, 1, 2)),
                 lambda: cl.SubstitutionSource(tm_rules, 0, a2), 20_000),
            Case("bernoulli-d2", "bernoulli", cl.CocycleSpec(a2, 1, _table(rng, 1, 2)),
                 lambda: cl.BernoulliSource([0.5, 0.5], s), 15_000),
            Case("squarefree-d4", "squarefree", cl.CocycleSpec(a2, 1, _table(rng, 1, 4)),
                 lambda: cl.SquarefreeSource(capacity=1 << 15), 15_000),
            Case("depth3-d4", "bernoulli", cl.CocycleSpec(a2, 3, _table(rng, 3, 4)),
                 lambda: cl.BernoulliSource([0.5, 0.5], s + 1), 12_000),
            Case("zero-stream-d4", "block_schedule", _zero_spec(rng, d4),
                 lambda: cl.BlockScheduleSource(zero_program), ZERO_HEAD + 100,
                 zero_at=ZERO_HEAD + d4),
            Case("triple-growth-d8", "block_schedule", _triple_growth_spec(rng, 8),
                 lambda: cl.BlockScheduleSource(
                     words.triple_growth_program(cl.EpochSchedule("geometric", 4))), 15_000),
            Case("bernoulli-d16", "bernoulli", cl.CocycleSpec(a2, 1, _table(rng, 1, 16)),
                 lambda: cl.BernoulliSource([0.5, 0.5], s + 2), 10_000),
            Case("thue-morse-d16", "substitution", cl.CocycleSpec(a2, 1, _table(rng, 1, 16)),
                 lambda: cl.SubstitutionSource(tm_rules, 0, a2), 8_000),
        ]
        for case in self.cases:
            case.checkpoints = cl.geometric_checkpoints(8, case.n)
            case.source = case.make_source()
            case.source.prefix(case.n + case.spec.depth - 1)
        self.probe_spec = cl.CocycleSpec(cl.Alphabet(1), 1, {"0": np.diag([1.0, 1e-200])})
        self.probe_word = cl.FiniteWord("00", cl.Alphabet(1))
        steps = [case.zero_at or case.n for case in self.cases]
        self.work = sum(steps) + 2
        self.size = (f"{len(self.cases)} orbits, {sum(c.n for c in self.cases)} factors "
                     f"({self.work} steps before zero) + 1 underflow probe")

    def run_pass(self, p):
        for case in self.cases:
            length = case.n + case.spec.depth - 1
            p.piece(f"{case.name}.fresh_prefix", f"words.prefix.{case.kind}",
                    lambda c=case, k=length: c.make_source().prefix(k))
            p.piece(f"{case.name}.cached_prefix", "words.prefix.cached", case.source.prefix, length)
            sym = case.source.prefix(length).symbols
            p.piece(f"{case.name}.factor_indices", "cocycles.factor_indices",
                    case.spec.factor_indices, sym, 0, case.n)
            p.op(case.name, "cocycles.lyapunov_trace",
                 cl.lyapunov_trace, case.spec, case.source, case.checkpoints)
        p.op("underflow-probe", "cocycles.partial_product",
             lambda: cl.partial_product(self.probe_spec, self.probe_word, 0, 2).unit_matrix)

    def check(self, results) -> list[Check]:
        out = []
        for case in self.cases:
            trace = results[case.name]
            if isinstance(trace, Exception):
                out.append(Check(case.name, False, None, f"raised {trace!r}"))
                continue
            spec = case.spec
            sym = case.source.prefix(case.n + spec.depth - 1).symbols
            mats = table_stack(spec)
            idx = factor_indices(sym, spec.alphabet.size, spec.depth, case.n)
            cps = case.checkpoints
            if case.zero_at is not None:
                ref_zero = first_zero(mats, idx)
                live = cps < case.zero_at
                ok = trace.zero_index == case.zero_at == ref_zero and bool(
                    np.all(np.isneginf(trace.values[~live])))
                out.append(Check(case.name + ".zero_index", ok, None,
                                 f"zero_index {trace.zero_index}, expected {case.zero_at}, "
                                 f"support reference {ref_zero}"))
                out.append(close_check(case.name, trace.values[live],
                                       log_norms_at(mats, idx, cps[live]), 1e-9))
                continue
            if trace.zero_index is not None:
                out.append(Check(case.name, False, None, f"unexpected zero at {trace.zero_index}"))
                continue
            out.append(close_check(case.name, trace.values, log_norms_at(mats, idx, cps), 1e-9))
            if case.kind == "periodic":
                log_phi = math.log((1 + math.sqrt(5)) / 2)
                out.append(close_check(case.name + ".log_phi", trace.slope_estimate(),
                                       log_phi, 1e-9))
        probe = results["underflow-probe"]
        out.append(Check("underflow-probe", isinstance(probe, UnderflowError_), None,
                         f"expected UnderflowError_, got {probe!r}"))
        return out

    def layer_metrics(self, t: dict, results) -> dict:
        m = {}
        per_d: dict[int, list[float]] = {}
        kinds: dict[str, list[float]] = {}
        fi_time = fi_steps = 0.0
        for case in self.cases:
            length = case.n + case.spec.depth - 1
            fi = t[f"{case.name}.factor_indices"]
            fi_time += fi
            fi_steps += case.n
            # derived self time of the product loop: the trace minus the
            # factor indexing and the (cached) prefix call it repeats
            product = t[case.name] - fi - t[f"{case.name}.cached_prefix"]
            steps = case.zero_at or case.n
            acc = per_d.setdefault(case.d, [0.0, 0.0])
            acc[0] += product
            acc[1] += steps
            acc = kinds.setdefault(case.kind, [0.0, 0.0])
            acc[0] += t[f"{case.name}.fresh_prefix"]
            acc[1] += length
        for d, (secs, steps) in per_d.items():
            m[f"cocycles.product_ns_per_step.d{d}"] = Ratio(secs, steps, 1e9)
        for kind, (secs, syms) in kinds.items():
            m[f"words.prefix_ns_per_symbol.{kind}"] = secs / syms * 1e9
        m["cocycles.factor_indices_ns_per_step"] = Ratio(fi_time, fi_steps, 1e9)
        m["cocycles.partial_product_calls"] = 1
        m["cocycles.partial_product_us_per_call"] = Ratio(t["underflow-probe"], 1, 1e6)
        return m
