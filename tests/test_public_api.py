"""The public names of the package, pinned.

``byzdp.__all__`` is built from the names ``__init__.py`` imports, so a new
import there becomes public without a trace. This list makes each addition
or removal show up in a diff. The module names (``aggregation``,
``engine``, ...) are public because importing a submodule binds its name in
the package.
"""

import ast
import dataclasses
import os

import numpy as np

import byzdp

PUBLIC = [
    "AttackSpec", "CalibrationError", "CellResult", "ClipParams", "ConfigurationError",
    "ContractViolationError", "DataLoadError", "Dataset", "GarSpec",
    "MetricsRecord", "Model", "PrivacyParams", "PrivacyRegimeWarning", "RunConfig",
    "RunResult", "VnMargin", "accuracy", "aggregate", "aggregation", "amplified_epsilon",
    "attack", "batch_grads", "batch_mean_variance", "clip", "compose", "convergence_bound",
    "delta_log_factor", "diagnostics", "engine", "errors", "eta_bounds", "find_vn_violation",
    "forge", "full_grad", "full_loss", "gaussian_blobs", "gaussian_noise", "initial_theta",
    "inner_epsilon", "kappa", "load_csv", "logistic_model", "mlp1_model", "model",
    "noise_scale", "population_variance", "privacy",
    "quadratic_minimizer", "quadratic_model", "regression_targets", "run", "sample_batch",
    "sensitivity_mean_grad", "sigma_total", "smoothness_constant", "submission_variance",
    "sweep", "vn_margin", "worker_stream",
]


def test_public_names_are_the_pinned_list():
    assert sorted(byzdp.__all__) == PUBLIC


def test_every_public_dataclass_is_frozen():
    # a field assigned after the constructor ran would skip its checks;
    # dataclasses.replace builds a checked variant instead
    found = {name: getattr(byzdp, name) for name in byzdp.__all__
             if isinstance(getattr(byzdp, name), type)
             and dataclasses.is_dataclass(getattr(byzdp, name))}
    assert sorted(found) == [
        "AttackSpec", "CellResult", "ClipParams", "Dataset", "GarSpec", "MetricsRecord",
        "Model", "PrivacyParams", "RunConfig", "RunResult", "VnMargin"]
    assert [name for name, cls in found.items() if not cls.__dataclass_params__.frozen] == []


def test_every_array_a_public_dataclass_holds_is_its_own_read_only_copy():
    # a frozen value that kept its caller's array could still change after its
    # checks ran: a caller's edit to a Hessian left the model asymmetric
    held = sorted((name, f.name) for name in byzdp.__all__
                  if isinstance(getattr(byzdp, name), type)
                  and dataclasses.is_dataclass(getattr(byzdp, name))
                  for f in dataclasses.fields(getattr(byzdp, name)) if "ndarray" in str(f.type))
    assert held == [("Dataset", "features"), ("Dataset", "labels"), ("Model", "hessian"),
                    ("RunResult", "theta"), ("VnMargin", "theta")]
    builds = {
        ("Dataset", "features"): (np.eye(3), byzdp.Dataset),
        ("Dataset", "labels"): (np.ones(3), lambda a: byzdp.Dataset(np.eye(3), a)),
        ("Model", "hessian"): (np.eye(3), lambda a: byzdp.Model("quadratic", hessian=a)),
        ("RunResult", "theta"): (np.ones(3), lambda a: byzdp.RunResult([], a)),
        ("VnMargin", "theta"): (np.ones(3), lambda a: byzdp.VnMargin(a, 0.0, 1.0)),
    }
    assert sorted(builds) == held
    for (name, field), (given, build) in builds.items():
        stored = getattr(build(given), field)
        assert given.flags.writeable, (name, field)
        assert not stored.flags.writeable, (name, field)
        assert not np.shares_memory(stored, given), (name, field)
        assert stored.flags.c_contiguous and stored.dtype == np.float64, (name, field)
        assert np.array_equal(stored, given), (name, field)


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name with a leading underscore belongs to its own module; a sibling
    # that needs it should get a public name or its own copy
    src = os.path.dirname(byzdp.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0
                                                     or node.module.startswith("byzdp")):
                found.extend(f"{name}: {alias.name} from {'.' * node.level}{node.module}"
                             for alias in node.names if alias.name.startswith("_"))
    assert found == []
