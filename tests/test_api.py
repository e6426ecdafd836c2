"""Public surface: every export resolves and every error class is used."""

import ast
import inspect
from pathlib import Path

import levy_stein
from levy_stein import errors
from levy_stein.dist_catalog import FAMILIES

SRC = Path(levy_stein.__file__).parent


def test_all_exports_resolve():
    missing = [name for name in levy_stein.__all__
               if not hasattr(levy_stein, name)]
    assert not missing, f"__all__ names with no binding: {missing}"


def _raised_names():
    """Names of the exception classes raised anywhere in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_concrete_error_is_raised():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.LevySteinError)]
    # base classes (those another error class derives from) are exempt
    bases = {base for cls in classes for base in cls.__bases__}
    concrete = {cls.__name__ for cls in classes if cls not in bases}
    never = sorted(concrete - _raised_names())
    assert not never, f"error classes never raised in the package: {never}"


def test_families_derive_moments_and_cf_from_the_triplet():
    # mean, cf and cumulants come from IDDSpec and levy_core.cumulant,
    # derived from (measure, drift0, drift_convention); no family keeps a
    # second formula of its own
    own = [(name, attr) for name, cls in FAMILIES.items()
           for attr in ("mean", "cf", "closed_cumulant") if attr in vars(cls)]
    assert not own, f"families defining their own formulas: {own}"


def test_families_draw_from_the_triplet():
    # IDDSpec.sample_conv draws every family from (measure, drift); only
    # the inverse Gaussian keeps numpy's Wald sampler
    own = [(name, attr) for name, cls in FAMILIES.items()
           for attr in ("sample", "sample_conv") if attr in vars(cls)]
    assert own == [("inverse_gaussian", "sample_conv")], own
