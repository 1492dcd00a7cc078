"""fracmix: fractional diffusion panels with Gaussian random drift effects.

Simulation of Y^i(t) = phi_i * t + W^{H,i}(t) panels (exact Cholesky and
Davies-Harte FFT samplers), k-variation estimation of the Hurst exponent
from a single trajectory, closed-form estimators of the effect mean and
variance with exact finite-sample moments, and a reproducible Monte
Carlo experiment harness.

Importing the package loads numpy but no scipy subpackage: each function
that calls ``scipy.linalg`` imports it on first use, so CLI calls that
do not need it do not pay for loading it.  Gram matrices on uniform
grids load only scipy's compiled Levinson module, not the
``scipy.linalg`` package, and the exact sampler's Cholesky factor there
is numpy alone (the Schur algorithm); only non-uniform grids import the
package.  The Hurst and effects estimators read Gamma, erf and erfc from
``math`` and ``fracmix.special``'s port of Cephes' Hurwitz zeta, not
``scipy.special``, which nothing in the package imports.
"""

__version__ = "0.1.0"

from .effects import (
    EffectsEstimate,
    confidence_intervals,
    estimate_effects,
    estimate_mu,
    estimate_sigma2,
    exact_moments,
    log_marginal_likelihood,
    xi_values,
)
from .errors import (
    ConfigError,
    EmbeddingError,
    EstimationRangeError,
    FactorizationError,
    FilterOrderError,
    FracmixError,
    GridError,
    HurstRangeError,
    NonFiniteError,
    PanelFormatError,
    SeriesLengthError,
)
from .experiment import (
    CellSummary,
    ExperimentConfig,
    run_experiment,
    summarize_empirical,
)
from .gram import GramMatrix, SamplingGrid, build_gram
from .hurst import (
    FILTERS,
    HurstEstimate,
    VariationFilter,
    as_filter,
    asym_variance_a,
    e_k,
    estimate_h,
    s_n,
    validate_filter,
)
from .panel import EffectsLaw, Panel, simulate_panel, transform_to_y
from .rng import RngStream

__all__ = [
    "CellSummary",
    "ConfigError",
    "EffectsEstimate",
    "EffectsLaw",
    "EmbeddingError",
    "EstimationRangeError",
    "ExperimentConfig",
    "FILTERS",
    "FactorizationError",
    "FilterOrderError",
    "FracmixError",
    "GramMatrix",
    "GridError",
    "HurstEstimate",
    "HurstRangeError",
    "NonFiniteError",
    "Panel",
    "PanelFormatError",
    "RngStream",
    "SamplingGrid",
    "SeriesLengthError",
    "VariationFilter",
    "as_filter",
    "asym_variance_a",
    "build_gram",
    "confidence_intervals",
    "e_k",
    "estimate_effects",
    "estimate_h",
    "estimate_mu",
    "estimate_sigma2",
    "exact_moments",
    "log_marginal_likelihood",
    "run_experiment",
    "s_n",
    "simulate_panel",
    "summarize_empirical",
    "transform_to_y",
    "validate_filter",
    "xi_values",
]
