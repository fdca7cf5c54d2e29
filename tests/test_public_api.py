"""The public names of the package, pinned.

``byzdp.__all__`` is built from the names ``__init__.py`` imports, so a new
import there becomes public without a trace. This list makes each addition
or removal show up in a diff. The module names (``aggregation``,
``engine``, ...) are public because importing a submodule binds its name in
the package. Every public name needs a caller: code of the package, a demo
or the bench that uses it, or a mention in the README.
"""

import ast
import copy
import dataclasses
import os
import pickle
import re

import numpy as np

import byzdp

PUBLIC = [
    "AttackSpec", "CalibrationError", "CellResult", "ClipParams", "ConfigurationError",
    "ContractViolationError", "DataLoadError", "Dataset", "GarSpec",
    "MetricsRecord", "Model", "PrivacyParams", "PrivacyRegimeWarning", "RunConfig",
    "RunResult", "VnMargin", "accuracy", "aggregate", "aggregation", "amplified_epsilon",
    "attack", "batch_grads", "batch_mean_variance", "clip", "compose", "convergence_bound",
    "diagnostics", "engine", "errors", "eta_bounds", "find_vn_violation",
    "forge", "full_grad", "full_loss", "gaussian_blobs", "gaussian_noise", "initial_theta",
    "inner_epsilon", "kappa", "load_csv", "logistic_model", "mlp1_model", "model",
    "noise_scale", "population_variance", "privacy",
    "quadratic_minimizer", "quadratic_model", "regression_targets", "rounds", "run",
    "sample_batch", "sensitivity_mean_grad", "sigma_total", "smoothness_constant",
    "submission_variance", "sweep", "vn_margin", "worker_stream",
]


RECORD = byzdp.MetricsRecord(1, 0.5, 1.0, 1.0, None, 0.0, 0.1)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_public_names_are_the_pinned_list():
    assert sorted(byzdp.__all__) == PUBLIC


def _used_names(path) -> set:
    """The names a Python file reads, the attributes it takes and the modules it imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            used.update(node.module.split("."))
    return used


def test_every_public_name_has_a_caller():
    # a public name that no code of the package, no demo and no bench script
    # uses, and that the README does not name, is a second entry point that
    # nothing exercises; the package's __init__ only re-exports
    used = set()
    for folder in ("src/byzdp", "demos", "bench"):
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py") and (folder, name) != ("src/byzdp", "__init__.py"):
                used |= _used_names(os.path.join(ROOT, folder, name))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert [name for name in byzdp.__all__ if name not in used
            and not re.search(rf"\b{name}\b", readme)] == []


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
        ("RunResult", "theta"): (np.ones(3), lambda a: byzdp.RunResult([RECORD], a)),
        ("VnMargin", "theta"): (np.ones(3), lambda a: byzdp.VnMargin(a, 0.0, 1.0)),
    }
    assert sorted(builds) == held
    for (name, field), (given, build) in builds.items():
        value = build(given)
        stored = getattr(value, field)
        assert given.flags.writeable, (name, field)
        assert not np.shares_memory(stored, given), (name, field)
        # pickle (a sweep's process pool) and deepcopy skip the constructor
        for copied in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            stored = getattr(copied, field)
            assert not stored.flags.writeable, (name, field)
            assert stored.flags.c_contiguous and stored.dtype == np.float64, (name, field)
            assert np.array_equal(stored, given), (name, field)
            if name == "RunResult":
                assert copied.records == (RECORD,)  # a tuple, not a list


def test_value_types_that_hold_arrays_or_dicts_are_equal_only_to_themselves():
    # a generated == would raise ValueError on an ndarray field, and hash()
    # TypeError on a dict or ndarray field; these compare and hash by identity
    def config():
        return byzdp.RunConfig(model=byzdp.logistic_model(3), dataset=byzdp.gaussian_blobs(0, 8, 3),
                               gar=byzdp.GarSpec("average", 2, 0), b=2, steps=1)

    builds = {
        "Dataset": lambda: byzdp.Dataset(np.eye(3)),
        "quadratic Model": lambda: byzdp.quadratic_model(np.eye(3)),
        "logistic Model": lambda: byzdp.logistic_model(3),
        "RunResult": lambda: byzdp.RunResult([RECORD], np.ones(3)),
        "VnMargin": lambda: byzdp.VnMargin(np.ones(3), 0.0, 1.0),
        "CellResult": lambda: byzdp.CellResult({"b": 2}, None, None, "refused"),
        "RunConfig": config,
    }
    for name, build in builds.items():
        value, twin = build(), build()
        assert value == value and not value != value, name
        assert value != twin and not value == twin, name
        assert hash(value) == hash(value), name
    base = config()
    variant = dataclasses.replace(base)
    assert variant is not base and variant == base and hash(variant) == hash(base)


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
