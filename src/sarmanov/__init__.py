"""Sarmanov copulas through their latent-Bernoulli mixture representation.

Build a copula from per-margin kernels (or explicit calibrated cdf pairs)
plus a multivariate Bernoulli law; validity is certified by pmf
nonnegativity instead of rectangle-increment inequalities, sampling is
exact, and rank correlations come in closed form.
"""

from .bernoulli import (
    AdmissibilityCertificate,
    BernoulliSpec,
    BivariateThetaSpec,
    ComonotoneSpec,
    ExchangeableSumSpec,
    FullPmfSpec,
    IndependentSpec,
    admissibility_check,
    comonotone,
    end3,
    epd,
    independent,
    mixed_moment,
    palindromic_check,
    sample_indices,
    theta_range_bivariate,
)
from .calibration import (
    CalibratedPair,
    calibrate_from_kernel,
    component_quantile,
    explicit_pair,
    reflection_check,
)
from .config import SCHEMA, CopulaConfig
from .copula import (
    OracleReport,
    PoweredCopula,
    SarmanovCopula,
    admissible_a_interval,
    build_powered,
    d_increasing_oracle,
    farlie_to_sarmanov,
    make_bivariate,
    normalized_kernel,
    transform_kernel,
)
from .kernels import (
    CATALOG_IDS,
    DEFAULT_PARAMS,
    Kernel,
    catalog_lookup,
    custom_kernel,
    kernel_area,
)
from .measures import (
    MeasureReport,
    empirical_measures,
    kendall_analytic,
    kendall_analytic_exact,
    orthant_rho,
    orthant_rho_exact,
    rho_global_bounds,
    spearman_analytic,
    spearman_analytic_exact,
    tail_dependence,
)
from .sampling import SampleBatch, sample, sample_powered

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate",
    "BernoulliSpec",
    "BivariateThetaSpec",
    "CATALOG_IDS",
    "CalibratedPair",
    "ComonotoneSpec",
    "CopulaConfig",
    "DEFAULT_PARAMS",
    "ExchangeableSumSpec",
    "FullPmfSpec",
    "IndependentSpec",
    "Kernel",
    "MeasureReport",
    "OracleReport",
    "PoweredCopula",
    "SCHEMA",
    "SampleBatch",
    "SarmanovCopula",
    "admissibility_check",
    "admissible_a_interval",
    "build_powered",
    "calibrate_from_kernel",
    "catalog_lookup",
    "comonotone",
    "component_quantile",
    "custom_kernel",
    "d_increasing_oracle",
    "empirical_measures",
    "end3",
    "epd",
    "explicit_pair",
    "farlie_to_sarmanov",
    "independent",
    "kendall_analytic",
    "kendall_analytic_exact",
    "kernel_area",
    "make_bivariate",
    "mixed_moment",
    "normalized_kernel",
    "orthant_rho",
    "orthant_rho_exact",
    "palindromic_check",
    "reflection_check",
    "rho_global_bounds",
    "sample",
    "sample_indices",
    "sample_powered",
    "spearman_analytic",
    "spearman_analytic_exact",
    "tail_dependence",
    "theta_range_bivariate",
    "transform_kernel",
]
