"""Two-stage Monte Carlo uncertainty propagation with synthesized replicates.

A measurement pipeline transforms raw data vectors under a systematic
error model, then combines the transformed results into a single nominal
value plus Monte Carlo replicates whose spread is synthesized from a
sample covariance.  This package implements the pipeline, closed-form
bias/variance analytics for both replicate constructions, and a seeded
experiment harness that checks the analytics by simulation.

Layout
------
``models``      scalar error kernels, distributions, moments, JSON (de)serialization
``linalg``      sample covariance, symmetric eigendecomposition, rotation factors
``pipeline``    transform and combine stages on K-vector data batches
``analytics``   bias factors, target variance, relative biases, variability gaps
``experiments`` seeded Monte Carlo estimators, lemma checks, parameter maps
``cli``         command-line front end writing CSV/JSON artifacts
"""

from .analytics import (
    ScalarScenario,
    bias_factor_alternative,
    bias_factor_current,
    gauss_legendre,
    mean_variance_gap,
    relbias_alternative,
    relbias_current,
    synthesis_input_variance_gap,
    target_variance,
    var_of_sample_variance_normal,
)
from .exceptions import DomainError, NumericalError
from .experiments import (
    EstimateResult,
    ExperimentConfig,
    MapResult,
    MapSpec,
    estimate_combine_bias,
    estimate_mean_variance,
    estimate_target_variance_oracle,
    estimate_vardiff,
    run_map,
    verify_lemma,
)
from .linalg import (
    cross_covariance,
    sample_covariance,
    scaled_rotation_factor,
    sym_eigendecompose,
)
from .models import (
    ADDITIVE,
    EXPONENTIAL,
    MULTIPLICATIVE,
    PHASE,
    Normal,
    ScalarKernel,
    TwoPoint,
    Uniform,
    dist_from_json,
    dist_to_json,
    kernel_from_json,
    kernel_to_json,
    moments,
    sample,
)
from .pipeline import (
    CombineOutput,
    DataBatch,
    ErrorBatch,
    TransformOutput,
    combine,
    transform_stage,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE",
    "MULTIPLICATIVE",
    "PHASE",
    "EXPONENTIAL",
    "CombineOutput",
    "DataBatch",
    "DomainError",
    "ErrorBatch",
    "EstimateResult",
    "ExperimentConfig",
    "MapResult",
    "MapSpec",
    "Normal",
    "NumericalError",
    "RngStream",
    "ScalarKernel",
    "ScalarScenario",
    "TransformOutput",
    "TwoPoint",
    "Uniform",
    "bias_factor_alternative",
    "bias_factor_current",
    "combine",
    "cross_covariance",
    "dist_from_json",
    "dist_to_json",
    "estimate_combine_bias",
    "estimate_mean_variance",
    "estimate_target_variance_oracle",
    "estimate_vardiff",
    "gauss_legendre",
    "kernel_from_json",
    "kernel_to_json",
    "mean_variance_gap",
    "moments",
    "relbias_alternative",
    "relbias_current",
    "run_map",
    "sample",
    "sample_covariance",
    "scaled_rotation_factor",
    "sym_eigendecompose",
    "synthesis_input_variance_gap",
    "target_variance",
    "transform_stage",
    "var_of_sample_variance_normal",
    "verify_lemma",
]
