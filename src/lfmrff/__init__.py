"""Multi-output GPs for linear ODE systems via random response features.

Feature products give a low-rank covariance whose marginal likelihood,
gradients and predictions all cost linear time in the number of
observations.  See the README for the CLI and the module layout.
"""

from .features import (
    FrequencyDraws,
    NumericsWarning,
    force_frequencies,
    rfrf_general,
    sample_frequencies,
)
from .kernels import (
    FeatureMatrix,
    approx_cov,
    exact_cov_entry,
    exact_cov_grid,
    feature_matrix,
    latent_feature_matrix,
    response_quadrature,
)
from .likelihood import (
    FitResult,
    LmlObjective,
    OptimizerConfig,
    WeightPosterior,
    full_log_marginal,
    low_rank_log_marginal,
    noise_vector,
    optimize,
    weight_posterior,
)
from .model import (
    DataError,
    Dataset,
    HyperParamVector,
    LfmSpec,
    MogpSpec,
    NumericalError,
    Ode1Params,
    Ode2Params,
    OdeOperator,
    pack,
    read_dataset_csv,
    unpack,
    validate_dataset,
    write_dataset_csv,
)
from .mogp import (
    SpectralDraws,
    mogp_cov_exact,
    mogp_cov_quadrature,
    mogp_feature_matrix,
    sample_spectral,
)
from .predict import Posterior, nlpd, nmse, predict_latent_forces, predict_outputs

__version__ = "0.16.0"
