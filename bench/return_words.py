"""return-words: marker selection, the return-word estimate, the quasi-
multiplicativity and quasi-additivity checks, and the positivity search.

Two prefixes differ in how much their return blocks repeat, the input
property the `_block_log_norms` cache depends on: Thue-Morse (high sharing,
a handful of distinct blocks) and Bernoulli (low sharing, nearly every
block distinct). A paired-growth (gap-blocks) stream is decomposed at a
short marker, and the positivity search runs in observed mode and in
exhaustive mode on a permutation-support depth-2 table, which has no
witness at any length. Time goes to occurrence search, many short
`partial_product` calls and combinatorial search; the per-step kernel is a
minor share.
"""

from __future__ import annotations

import numpy as np

import cocyclelab as cl
from cocyclelab import words

from common import (
    Check,
    batched_log_norms,
    close_check,
    factor_indices,
    log_norms_at,
    occurrences,
    segment_log_norm,
    table_stack,
)

NAME = "return-words"
N = 10_000          # length of each estimated prefix
K0 = 8              # marker length
CUTOFF = 64         # return-word length cutoff
QM_ELL = 8          # quasi-multiplicativity probe length
DEFECT_MAX = 256    # defect pairs (n, m) with n + m <= DEFECT_MAX
GAP_N = 50_000     # paired-growth prefix length
OBSERVED_N = 5_000
OBSERVED_ELL = 8
EXHAUSTIVE_ELL = 10  # 4092 words; at 12 this one call took 0.5 s, most of a pass
SHARING = {"thue-morse": "high_sharing", "bernoulli": "low_sharing"}


def _perm_table(rng, d):
    """Depth-2 table whose every product has permutation support."""
    return {k: np.eye(d)[rng.permutation(d)] * rng.uniform(0.5, 2.0, (d, d))
            for k in ("00", "01", "10", "11")}


class Workload:
    name = NAME

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        s = int(rng.integers(1 << 30))
        a2 = cl.Alphabet(2)
        self.prefixes = {
            "thue-morse": cl.SubstitutionSource({0: "01", 1: "10"}, 0, a2).prefix(N),
            "bernoulli": cl.BernoulliSource([0.5, 0.5], s).prefix(N),
        }
        self.specs = {
            name: cl.CocycleSpec(a2, 1, {"0": rng.uniform(0.5, 2.0, (2, 2)),
                                         "1": rng.uniform(0.5, 2.0, (2, 2))})
            for name in self.prefixes
        }
        self.pairs = cl.default_defect_pairs(DEFECT_MAX)
        x = cl.BernoulliSource([0.5, 0.5], s + 1)
        y = cl.BernoulliSource([0.5, 0.5], s + 2)
        gap = cl.BlockScheduleSource(words.paired_growth_program(x, y, offset=2, alphabet_size=4))
        self.gap_prefix = gap.prefix(GAP_N)
        self.gap_marker = x.prefix(2)
        self.perm_spec = cl.CocycleSpec(a2, 2, _perm_table(rng, 4))
        self.observed_prefix = self.prefixes["bernoulli"][:OBSERVED_N]
        self.exhaustive_words = sum(2 ** (ell + 1) for ell in range(1, EXHAUSTIVE_ELL + 1))
        self.calls = 4 * len(self.prefixes) + 3  # timed library calls per pass
        self.size = (f"2 prefixes of {N} (k0={K0}, cutoff={CUTOFF}, {len(self.pairs)} defect "
                     f"pairs), gap stream {GAP_N}, positivity up to ell={EXHAUSTIVE_ELL}")

    def run_pass(self, p):
        for name, prefix in self.prefixes.items():
            spec = self.specs[name]
            sel = p.op(f"{name}.select_marker", "returns.select_marker",
                       cl.select_marker, spec, prefix, k0=K0, max_ell=4)
            if isinstance(sel, Exception):
                continue
            p.op(f"{name}.estimate", "returns.return_formula_estimate",
                 cl.return_formula_estimate, spec, prefix, sel, cutoff=CUTOFF)
            qm = p.op(f"{name}.qm_check", "returns.quasi_multiplicativity_check",
                      cl.quasi_multiplicativity_check, spec, prefix, sel, ell=QM_ELL)
            p.op(f"{name}.defect", "cocycles.quasi_additivity_defect",
                 cl.quasi_additivity_defect, spec, prefix, self.pairs)
            if not isinstance(qm, Exception):
                # each partial_product the two checks make internally, on its own
                calls = [(n, n + m) for n, m in self.pairs] + [(t, t + QM_ELL) for t in qm.taus]
                p.piece(f"{name}.partial_products", "cocycles.partial_product",
                        lambda s=spec, w=prefix, c=calls: [cl.partial_product(s, w, a, b)
                                                           for a, b in c])
        p.piece("gap.occurrences", "words.occurrences",
                cl.occurrences, self.gap_prefix, self.gap_marker, 1)
        p.op("gap.decompose", "words.decompose_returns",
             cl.decompose_returns, self.gap_prefix, self.gap_marker)
        p.op("positivity.observed", "cocycles.check_positivity_condition",
             cl.check_positivity_condition, self.perm_spec, self.observed_prefix, OBSERVED_ELL)
        p.op("positivity.exhaustive", "cocycles.check_positivity_condition",
             cl.check_positivity_condition, self.perm_spec, self.observed_prefix,
             EXHAUSTIVE_ELL, exhaustive=True)

    # -- checks ---------------------------------------------------------------

    def _usable_taus(self, name, marker):
        prefix, spec = self.prefixes[name], self.specs[name]
        taus = occurrences(prefix.symbols, marker.symbols, 1)
        if len(prefix) < taus[-1] + spec.depth - 1:
            taus = taus[:-1]
        return taus

    def _check_prefix(self, name, results) -> list[Check]:
        prefix, spec = self.prefixes[name], self.specs[name]
        sym, m, r = prefix.symbols, spec.alphabet.size, spec.depth
        mats = table_stack(spec)
        out = []
        sel = results[f"{name}.select_marker"]
        if isinstance(sel, Exception):
            return [Check(f"{name}.select_marker", False, None, f"raised {sel!r}")]
        u = sel.u.symbols
        prod = np.eye(spec.dim)
        for f in factor_indices(u, m, r, sel.ell0):
            prod = prod @ mats[f]
        first_u = occurrences(sym, u, 0)
        ok = (bool(np.all(prod > 0)) and first_u[0] == sel.z_position
              and np.array_equal(sel.v.symbols, sym[sel.z_position : sel.z_position + sel.k0]))
        out.append(Check(f"{name}.select_marker", ok, None, "witness not positive or marker "
                         "not cut at the first occurrence of u"))
        out.append(close_check(f"{name}.select_marker.b", sel.b, prod.min(), 1e-9))

        est = results[f"{name}.estimate"]
        if isinstance(est, Exception):
            out.append(Check(f"{name}.estimate", False, None, f"raised {est!r}"))
        else:
            taus = self._usable_taus(name, sel.v)
            bounds = np.concatenate([[0], taus])
            cache: dict[bytes, float] = {}
            total = 0.0
            for j in range(len(bounds) - 1):
                a, b = int(bounds[j]), int(bounds[j + 1])
                if j > 0 and b - a > CUTOFF:
                    continue
                key = sym[a : b + r - 1].tobytes()
                if key not in cache:
                    cache[key] = segment_log_norm(mats, factor_indices(sym[a:], m, r, b - a))
                total += cache[key]
            ok = est.i == len(taus) - 1 and est.tau_i == int(taus[-1])
            out.append(Check(f"{name}.estimate.returns", ok, None,
                             f"i={est.i} tau_i={est.tau_i} vs {len(taus) - 1}, {taus[-1]}"))
            out.append(close_check(f"{name}.estimate", est.short_sum, total, 1e-9))

        qm = results[f"{name}.qm_check"]
        if isinstance(qm, Exception):
            out.append(Check(f"{name}.qm_check", False, None, f"raised {qm!r}"))
        else:
            taus = occurrences(sym, sel.v.symbols, 1)
            taus = taus[taus + QM_ELL + r - 1 <= len(sym)]
            marks = np.unique(np.concatenate([taus, taus + QM_ELL]))
            idx = factor_indices(sym, m, r, int(marks[-1]))
            at = dict(zip(marks.tolist(), log_norms_at(mats, idx, marks)))
            tails = batched_log_norms(mats, idx[taus[:, None] + np.arange(QM_ELL)[None, :]])
            ref = np.array([at[t + QM_ELL] - at[t] for t in taus.tolist()]) - tails
            if not np.array_equal(qm.taus, taus):
                out.append(Check(f"{name}.qm_check", False, None, "return times differ"))
            else:
                out.append(close_check(f"{name}.qm_check", np.log(qm.ratios), ref,
                                       1e-9 * max(1.0, max(map(abs, at.values())))))
                ok = bool(np.all(qm.ratios <= 1 + 1e-9) and np.all(qm.ratios >= qm.c1 * (1 - 1e-9)))
                out.append(Check(f"{name}.qm_check.band", ok, None, "ratio outside [c1, 1]"))

        rep = results[f"{name}.defect"]
        if isinstance(rep, Exception):
            out.append(Check(f"{name}.defect", False, None, f"raised {rep!r}"))
        else:
            marks = sorted({n for n, _ in self.pairs} | {n + k for n, k in self.pairs})
            idx = factor_indices(sym, m, r, marks[-1])
            at = dict(zip(marks, log_norms_at(mats, idx, marks)))
            ref = [abs(at[n + k] - at[n] - segment_log_norm(mats, idx[n : n + k]))
                   for n, k in self.pairs]
            got = [pair.defect for pair in rep.pairs]
            scale = max(1.0, max(map(abs, at.values())))
            out.append(close_check(f"{name}.defect", got, ref, 1e-9 * scale))
        return out

    def check(self, results) -> list[Check]:
        out = []
        for name in self.prefixes:
            out += self._check_prefix(name, results)
        dec = results["gap.decompose"]
        ref = occurrences(self.gap_prefix.symbols, self.gap_marker.symbols, 1)
        out.append(Check("gap.decompose", not isinstance(dec, Exception)
                         and np.array_equal(dec.return_times, ref), None,
                         "return times differ from the sliding-window reference"))
        for mode in ("observed", "exhaustive"):
            got = results[f"positivity.{mode}"]
            out.append(Check(f"positivity.{mode}", got is None, None,
                             f"permutation supports admit no witness, got {got!r}"))
        return out

    # -- per-layer metrics ----------------------------------------------------

    def _distinct_ratio(self, name, results) -> float:
        """Share of distinct return blocks, from decompose_returns output."""
        sel = results[f"{name}.select_marker"]
        prefix, r = self.prefixes[name], self.specs[name].depth
        taus = cl.decompose_returns(prefix, sel.v).return_times
        bounds = np.concatenate([[0], taus])
        keys = {prefix.symbols[a : b + r - 1].tobytes()
                for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())}
        return len(keys) / (len(bounds) - 1)

    def layer_metrics(self, t: dict, results) -> dict:
        m = {}
        calls = pp_time = 0.0
        blocks = results["gap.decompose"].count
        for name, tag in SHARING.items():
            qm = results[f"{name}.qm_check"]
            calls += len(self.pairs) + len(qm.taus)
            pp_time += t[f"{name}.partial_products"]
            blocks += results[f"{name}.estimate"].i
            m[f"returns.estimate_s.{tag}"] = t[f"{name}.estimate"]
            m[f"returns.distinct_block_ratio.{tag}"] = self._distinct_ratio(name, results)
        m["returns.select_marker_s"] = sum(t[f"{n}.select_marker"] for n in SHARING)
        m["returns.qm_check_s"] = sum(t[f"{n}.qm_check"] for n in SHARING)
        m["cocycles.defect_s"] = sum(t[f"{n}.defect"] for n in SHARING)
        m["cocycles.partial_product_calls"] = int(calls)
        m["cocycles.partial_product_us_per_call"] = pp_time / calls * 1e6
        m["cocycles.positivity_s.observed"] = t["positivity.observed"]
        m["cocycles.positivity_s.exhaustive"] = t["positivity.exhaustive"]
        m["cocycles.positivity_words_declared"] = self.exhaustive_words
        m["words.occurrences_ns_per_symbol"] = t["gap.occurrences"] / GAP_N * 1e9
        m["words.decompose_returns_s"] = t["gap.decompose"]
        m["words.return_blocks"] = int(blocks)
        return m
