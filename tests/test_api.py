"""The public names of the lfmrff package, pinned so a re-export is deliberate."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import lfmrff

PUBLIC = {
    # features
    "FrequencyDraws", "NumericsWarning", "force_frequencies", "rfrf_general",
    "sample_frequencies",
    # kernels
    "FeatureMatrix", "approx_cov", "exact_cov_entry", "exact_cov_grid",
    "feature_matrix", "latent_feature_matrix", "response_quadrature",
    # likelihood
    "FitResult", "LmlObjective", "OptimizerConfig", "WeightPosterior",
    "full_log_marginal", "low_rank_log_marginal", "noise_vector", "optimize",
    "weight_posterior",
    # model
    "DataError", "Dataset", "HyperParamVector", "LfmSpec", "MogpSpec",
    "NumericalError", "Ode1Params", "Ode2Params", "OdeOperator", "pack",
    "read_dataset_csv", "unpack", "validate_dataset", "write_dataset_csv",
    # mogp
    "SpectralDraws", "mogp_cov_exact", "mogp_cov_quadrature",
    "mogp_feature_matrix", "sample_spectral",
    # predict
    "Posterior", "nlpd", "nmse", "predict_latent_forces", "predict_outputs",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    exported = {
        name for name, obj in vars(lfmrff).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == PUBLIC


def test_removed_names_are_not_exported():
    for name in ("LowRankState", "lml_gradient", "ode_roots", "ode2_roots", "to_operator",
                 "rfrf_ode1", "rfrf_ode2"):
        assert not hasattr(lfmrff, name), name


# every module but __main__, which runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(lfmrff.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"lfmrff.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_version():
    assert lfmrff.__version__ == "0.16.0"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == lfmrff.__version__
