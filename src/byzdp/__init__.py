"""Simulator and diagnostics for distributed SGD that is differentially
private at the honest workers and Byzantine-resilient at the server."""

from .aggregation import GarSpec, aggregate, kappa
from .attack import AttackSpec, forge
from .diagnostics import (VnMargin, batch_mean_variance, convergence_bound, eta_bounds,
                          find_vn_violation, sigma_total, submission_variance, vn_margin)
from .engine import (CellResult, MetricsRecord, RunConfig, RunResult, initial_theta,
                     rounds, run, sweep, worker_stream)
from .errors import (CalibrationError, ConfigurationError, ContractViolationError,
                     DataLoadError)
from .model import (ClipParams, Dataset, Model, accuracy, batch_grads, clip,
                    full_grad, full_loss, gaussian_blobs, load_csv, logistic_model,
                    mlp1_model, population_variance, quadratic_minimizer, quadratic_model,
                    regression_targets, sample_batch, smoothness_constant)
from .privacy import (PrivacyParams, PrivacyRegimeWarning, amplified_epsilon, compose,
                      gaussian_noise, inner_epsilon, noise_scale, sensitivity_mean_grad)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
