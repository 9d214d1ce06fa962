"""ensemble: many independent short products.

The expected exponent under Bernoulli, Markov (irreducible chain) and
periodic-atomic measures, one trace driven by a freshly sampled
MarkovSource, the pressure spectrum along an aperiodic +-1 Thue-Morse
weight stream and along a periodic one (Besicovitch digit frequencies),
and the exact periodic exponent at d = 16. It runs the orbit-trace kernel
in the opposite shape, many short products instead of one long one, and
the Markov sampler's per-symbol loop.
"""

from __future__ import annotations

import math

import numpy as np

import cocyclelab as cl

from common import (
    Check,
    Ratio,
    binary_entropy,
    close_check,
    factor_indices,
    log_norms_at,
    segment_log_norm,
    table_stack,
)

NAME = "ensemble"
LAMBDA_N = 500
REPLICAS = 10
PERIOD = 24          # periodic-atomic cycle and the d = 16 periodic orbit
MARKOV_N = 10_000
TM_BETAS = np.linspace(-2.0, 2.0, 5)
TM_HORIZON = 1_000
BESI_BETAS = np.linspace(-5.0, 5.0, 11)


class Workload:
    name = NAME

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.seed = int(rng.integers(1 << 30))
        a2 = cl.Alphabet(2)
        self.spec = cl.CocycleSpec(a2, 1, {"0": rng.uniform(0.5, 2.0, (2, 2)),
                                           "1": rng.uniform(0.5, 2.0, (2, 2))})
        a, b = rng.uniform(0.2, 0.8, 2)
        self.transition = [[1 - a, a], [b, 1 - b]]  # every entry positive: irreducible
        self.measures = {
            "bernoulli": cl.BernoulliMeasure([0.5, 0.5]),
            "markov": cl.MarkovMeasure(self.transition),
            "periodic": cl.PeriodicAtomicMeasure(cl.FiniteWord(rng.integers(0, 2, PERIOD), a2)),
        }
        self.tm_spec = cl.WeightedAverageSpec(rng.uniform(0.0, 1.0, (2, 2)), np.array([1.0, -1.0]),
                                              cl.SubstitutionSource({0: "01", 1: "10"}, 0, a2))
        self.tm_spec.weight_source.prefix(TM_HORIZON)
        self.besi_spec = cl.WeightedAverageSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0]),
                                                cl.PeriodicSource("0", cl.Alphabet(1)))
        self.spec16 = cl.CocycleSpec(a2, 1, {"0": rng.uniform(0.5, 2.0, (16, 16)),
                                             "1": rng.uniform(0.5, 2.0, (16, 16))})
        self.cycle16 = cl.FiniteWord(rng.integers(0, 2, PERIOD), a2)
        self.markov_checkpoints = cl.geometric_checkpoints(8, MARKOV_N)
        self.psi_calls = 3 * (len(TM_BETAS) + len(BESI_BETAS))
        # periodic_exponent: one partial_product and one spectral_radius per rotation
        self.rotations = PERIOD + 3 * len(BESI_BETAS)
        self.work = (2 * REPLICAS * LAMBDA_N + PERIOD * LAMBDA_N + MARKOV_N
                     + 3 * len(TM_BETAS) * TM_HORIZON + 3 * len(BESI_BETAS) + PERIOD * PERIOD)
        self.size = (f"lambda {REPLICAS}x{LAMBDA_N} (bernoulli, markov) + {PERIOD}x{LAMBDA_N} "
                     f"(periodic), markov trace {MARKOV_N}, spectra {len(TM_BETAS)}x{TM_HORIZON} "
                     f"+ {len(BESI_BETAS)} periodic, periodic exponent d=16 p={PERIOD}")

    def markov_source(self):
        return cl.MarkovSource(self.transition, [0.5, 0.5], self.seed)

    def run_pass(self, p):
        for kind, measure in self.measures.items():
            p.op(f"lambda.{kind}", f"cocycles.lambda_estimate.{kind}", cl.lambda_estimate,
                 self.spec, measure, LAMBDA_N, replicas=REPLICAS, seed=self.seed)
        source = self.markov_source()
        p.op("markov.prefix", "words.prefix.markov", lambda: source.prefix(MARKOV_N).symbols)
        p.piece("markov.cached_prefix", "words.prefix.cached", source.prefix, MARKOV_N)
        p.piece("markov.factor_indices", "cocycles.factor_indices",
                self.spec.factor_indices, source.prefix(MARKOV_N).symbols, 0, MARKOV_N)
        p.op("markov.trace", "cocycles.lyapunov_trace",
             cl.lyapunov_trace, self.spec, source, self.markov_checkpoints)
        p.op("spectrum.aperiodic", "spectrum.spectrum_curve",
             cl.spectrum_curve, self.tm_spec, TM_BETAS, TM_HORIZON)
        p.op("spectrum.periodic", "spectrum.spectrum_curve",
             cl.spectrum_curve, self.besi_spec, BESI_BETAS, 1_000)
        products = p.piece("rotations.partial_product", "cocycles.partial_product",
                           self._rotation_products)
        p.piece("rotations.spectral_radius", "matrices.spectral_radius",
                lambda: [cl.spectral_radius(sp.unit_matrix) for sp in products])
        p.op("periodic_exponent", "returns.periodic_exponent",
             cl.periodic_exponent, self.spec16, self.cycle16)

    def _rotation_products(self):
        """The period products periodic_exponent forms, one per rotation."""
        out = []
        sym = self.cycle16.symbols
        for t in range(PERIOD):
            word = cl.FiniteWord(np.roll(sym, -t), self.cycle16.alphabet)
            out.append(cl.partial_product(self.spec16, word, 0, PERIOD))
        for beta in BESI_BETAS:
            for b in (beta - 1e-3 * (1 + abs(beta)), beta, beta + 1e-3 * (1 + abs(beta))):
                spec = cl.beta_cocycle(self.besi_spec, b)
                out.append(cl.partial_product(spec, cl.FiniteWord("0", cl.Alphabet(1)), 0, 1))
        return out

    # -- checks ---------------------------------------------------------------

    def _lambda_reference(self, kind, measure):
        mats = table_stack(self.spec)
        vals = []
        count = measure.period if kind == "periodic" else REPLICAS
        for rep in range(count):
            if kind == "periodic":
                sym = measure.rotation_prefix(rep, LAMBDA_N)
            else:
                sym = measure.sample_symbols(LAMBDA_N, self.seed, rep)
            vals.append(segment_log_norm(mats, factor_indices(sym, 2, 1, LAMBDA_N)) / LAMBDA_N)
        return np.array(vals)

    def check(self, results) -> list[Check]:
        out = []
        for kind, measure in self.measures.items():
            est = results[f"lambda.{kind}"]
            if isinstance(est, Exception):
                out.append(Check(f"lambda.{kind}", False, None, f"raised {est!r}"))
                continue
            ref = self._lambda_reference(kind, measure)
            out.append(close_check(f"lambda.{kind}", est.values, ref, 1e-9))
            out.append(close_check(f"lambda.{kind}.mean", est.mean, ref.mean(), 1e-9))

        mats = table_stack(self.spec)
        trace = results["markov.trace"]
        sym = results["markov.prefix"]
        if isinstance(trace, Exception) or isinstance(sym, Exception):
            out.append(Check("markov.trace", False, None, "raised"))
        else:
            ref = log_norms_at(mats, factor_indices(sym, 2, 1, MARKOV_N), self.markov_checkpoints)
            out.append(close_check("markov.trace", trace.values, ref, 1e-9))
            out.append(Check("markov.prefix", len(sym) == MARKOV_N and int(sym.max()) <= 1))

        points = results["spectrum.aperiodic"]
        if isinstance(points, Exception):
            out.append(Check("spectrum.aperiodic", False, None, f"raised {points!r}"))
        else:
            w = self.tm_spec.weight_source.prefix(TM_HORIZON).symbols
            half = TM_HORIZON // 2
            ref = []
            for pt in points:
                stack = np.stack([np.exp(pt.beta * v * self.tm_spec.potential)
                                  for v in self.tm_spec.weight_values])
                a, b = log_norms_at(stack, w.astype(np.int64), [half, TM_HORIZON])
                ref.append((b - a) / (TM_HORIZON - half))
            out.append(close_check("spectrum.aperiodic", [pt.psi for pt in points], ref, 1e-9))

        points = results["spectrum.periodic"]
        if isinstance(points, Exception):
            out.append(Check("spectrum.periodic", False, None, f"raised {points!r}"))
        else:
            err = max(abs(pt.dim - binary_entropy(pt.alpha)) for pt in points)
            out.append(Check("spectrum.periodic", err <= 1e-3, err / 1e-3,
                             f"max |dim - binary entropy| {err:.3e}"))

        got = results["periodic_exponent"]
        if isinstance(got, Exception):
            out.append(Check("periodic_exponent", False, None, f"raised {got!r}"))
        else:
            mats16 = table_stack(self.spec16)
            prod = np.eye(16)
            log_scale = 0.0
            for f in self.cycle16.symbols:
                prod = prod @ mats16[f]
                s = prod.sum()
                prod /= s
                log_scale += math.log(s)
            rho = float(np.max(np.abs(np.linalg.eigvals(prod))))
            out.append(close_check("periodic_exponent", got,
                                   (log_scale + math.log(rho)) / PERIOD, 1e-9))
        return out

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, t: dict, results) -> dict:
        m = {}
        lam = {kind: t[f"lambda.{kind}"] for kind in self.measures}
        for kind, secs in lam.items():
            m[f"cocycles.lambda_s.{kind}"] = secs
        m["cocycles.lambda_ns_per_step"] = sum(lam.values()) / (
            (2 * REPLICAS + PERIOD) * LAMBDA_N) * 1e9
        m["words.prefix_ns_per_symbol.markov"] = t["markov.prefix"] / MARKOV_N * 1e9
        product = t["markov.trace"] - t["markov.factor_indices"] - t["markov.cached_prefix"]
        m["cocycles.product_ns_per_step.d2"] = Ratio(product, MARKOV_N, 1e9)
        m["cocycles.factor_indices_ns_per_step"] = Ratio(t["markov.factor_indices"], MARKOV_N, 1e9)
        m["spectrum.psi_calls"] = self.psi_calls
        # spectrum_curve makes three psi calls per beta and nothing else heavy
        for kind, betas in (("aperiodic", TM_BETAS), ("periodic", BESI_BETAS)):
            m[f"spectrum.psi_ms_per_call.{kind}"] = t[f"spectrum.{kind}"] / (3 * len(betas)) * 1e3
        m["spectrum.curve_s"] = t["spectrum.aperiodic"] + t["spectrum.periodic"]
        m["returns.periodic_exponent_s"] = t["periodic_exponent"]
        m["matrices.spectral_radius_calls"] = self.rotations
        m["matrices.spectral_radius_us"] = t["rotations.spectral_radius"] / self.rotations * 1e6
        m["cocycles.partial_product_calls"] = self.rotations
        m["cocycles.partial_product_us_per_call"] = Ratio(
            t["rotations.partial_product"], self.rotations, 1e6)
        return m
