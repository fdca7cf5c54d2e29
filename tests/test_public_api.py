"""The public names of the package, pinned.

``byzdp.__all__`` is built from the names ``__init__.py`` imports, so a new
import there becomes public without a trace. This list makes each addition
or removal show up in a diff. The module names (``aggregation``,
``engine``, ...) are public because importing a submodule binds its name in
the package.
"""

import byzdp

PUBLIC = [
    "AttackSpec", "CalibrationError", "CellResult", "ClipParams", "ConfigurationError",
    "ContractViolationError", "DataLoadError", "Dataset", "EtaBounds", "GarSpec",
    "MetricsRecord", "Model", "PrivacyParams", "PrivacyRegimeWarning", "RunConfig",
    "RunResult", "VnMargin", "accuracy", "aggregate", "aggregation", "amplified_epsilon",
    "attack", "batch_grads", "batch_mean_variance", "clip", "compose", "convergence_bound",
    "delta_log_factor", "diagnostics", "engine", "errors", "eta_bounds", "find_vn_violation",
    "forge", "full_grad", "full_loss", "gaussian_blobs", "gaussian_noise", "initial_theta",
    "inner_epsilon", "kappa", "load_csv", "logistic_model", "mlp1_model", "model",
    "monte_carlo_submission_variance", "noise_scale", "population_variance", "privacy",
    "quadratic_minimizer", "quadratic_model", "regression_targets", "run", "sample_batch",
    "sensitivity_mean_grad", "sigma_total", "smoothness_constant", "submission_variance",
    "sweep", "vn_margin", "worker_stream",
]


def test_public_names_are_the_pinned_list():
    assert sorted(byzdp.__all__) == PUBLIC
