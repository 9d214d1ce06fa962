"""Lyapunov exponents of non-negative matrix cocycles over symbolic
sequences: word sources and return words, a scaled-product matrix kernel,
exponent traces and hypothesis checks, return-word estimators, and
multifractal spectra of weighted orbit averages."""

from .words import (
    Alphabet,
    FiniteWord,
    WordSource,
    PeriodicSource,
    SubstitutionSource,
    BernoulliSource,
    MarkovSource,
    SquarefreeSource,
    BlockProgram,
    BlockScheduleSource,
    EpochSchedule,
    BernoulliMeasure,
    MarkovMeasure,
    PeriodicAtomicMeasure,
    occurrences,
    decompose_returns,
    ReturnDecomposition,
    return_rate_trace,
    long_word_mass,
    source_from_description,
)
from .matrices import (
    NonNegMatrix,
    ScaledProduct,
    elem_constant,
    phi,
    birkhoff_tau,
    spectral_radius,
    log_norm_bounds,
)
from .cocycles import (
    CocycleSpec,
    LyapunovTrace,
    lyapunov_trace,
    geometric_checkpoints,
    partial_product,
    quasi_additivity_defect,
    default_defect_pairs,
    check_positivity_condition,
    PositivityWitness,
    lambda_estimate,
    LambdaEstimate,
    trace_envelope,
    periodic_exponent,
)
from .returns import (
    MarkerSelection,
    select_marker,
    ReturnFormulaEstimate,
    return_formula_estimate,
    quasi_multiplicativity_check,
)
from .spectrum import (
    WeightedAverageSpec,
    beta_cocycle,
    psi,
    SpectrumPoint,
    spectrum_curve,
    spectrum_to_csv,
    weighted_average_from_description,
)
from . import errors, scenarios, textform

__version__ = "0.1.0"
