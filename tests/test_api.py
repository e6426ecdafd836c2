"""Public surface: every export resolves and every error class is used."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import levy_stein
from levy_stein import (actuarial, dist_catalog, errors, identities,
                        levy_core)
from levy_stein.dist_catalog import FAMILIES
from levy_stein.functions import GAUSS, SIN, make_exp_tilt, make_shift

import quad_oracle

SRC = Path(levy_stein.__file__).parent


def test_cli_loads_neither_quadrature_nor_interpolation():
    # the package's numbers need neither scipy's adaptive quadrature nor
    # its interpolators; a fresh interpreter shows what importing the CLI
    # loads
    code = ("import sys, levy_stein.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.interpolate') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]", out.stdout


def test_all_exports_resolve():
    missing = [name for name in levy_stein.__all__
               if not hasattr(levy_stein, name)]
    assert not missing, f"__all__ names with no binding: {missing}"


def test_every_estimator_returns_one_result_type():
    # every scalar a task reports is an MCEstimate; n = 0 is the only mark
    # of a value that drew nothing, and .method reads it
    mc = levy_stein.MCConfig(n_samples=2000, seed=5, batch=500)
    gamma = levy_stein.Gamma(2.0, 1.5)
    bgd = levy_stein.BGD(2.0, 3.0, 1.0, 4.0)
    vgd = levy_stein.VGD(0.2, 1.5, 3.0, 2.0)
    w = make_shift(1.0)
    closed = {
        "esscher_closed": levy_stein.esscher_closed(gamma, 0.5),
        "modified_variance": levy_stein.modified_variance(gamma),
        "wpcp": levy_stein.wpcp(gamma, w),
        "generalized_wpcp": levy_stein.generalized_wpcp(
            gamma, 2, make_exp_tilt(0.3)),
        "chen_upper_bound(sin)": levy_stein.chen_upper_bound(gamma, SIN, mc),
    }
    numeric = {
        "cov_identity_rhs": levy_stein.cov_identity_rhs(gamma, 2, SIN, mc),
        "cov_oracle": levy_stein.cov_oracle(gamma, 2, SIN, mc),
        "cov_first_order": levy_stein.cov_first_order(gamma, SIN, mc),
        "stein_residual": levy_stein.stein_residual(gamma, SIN, mc),
        "stein_residual_vgd": levy_stein.stein_residual_vgd(vgd, SIN, mc),
        "stein_residual_bgd": levy_stein.stein_residual_bgd(bgd, SIN, mc),
        "gini(levy_formula)": levy_stein.gini(gamma, mc),
        "gini(covariance_oracle)": levy_stein.gini(
            gamma, mc, method="covariance_oracle"),
        "chen_upper_bound(gauss)": levy_stein.chen_upper_bound(
            gamma, GAUSS, mc),
    }
    for want, n, ests in (("closed_form", 0, closed),
                          ("numeric", mc.n_samples, numeric)):
        for name, est in ests.items():
            assert type(est) is levy_stein.MCEstimate, name
            assert (est.method, est.n) == (want, n), name
    assert all(est.std_error == 0.0 for est in closed.values())
    assert not [name for name in levy_stein.__all__
                if name.endswith("Report")]


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
    # mean, cf, cdf and cumulants come from IDDSpec and levy_core.cumulant,
    # derived from (measure, drift0, drift_convention); no family keeps a
    # second formula of its own
    own = [(name, attr) for name, cls in FAMILIES.items()
           for attr in ("mean", "cf", "closed_cumulant", "cdf", "cdf_fn")
           if attr in vars(cls)]
    assert not own, f"families defining their own formulas: {own}"


def test_families_draw_from_the_triplet():
    # IDDSpec.sample_conv draws every family from (measure, drift); only
    # the inverse Gaussian keeps numpy's Wald sampler
    own = [(name, attr) for name, cls in FAMILIES.items()
           for attr in ("sample", "sample_conv") if attr in vars(cls)]
    assert own == [("inverse_gaussian", "sample_conv")], own


def test_no_family_writes_its_own_cdf():
    # every closed F is read off the triplet (dist_catalog._triplet_cdf):
    # neither a family nor IDDSpec keeps a closed-cdf hook
    own = sorted(name for name, cls in
                 [*FAMILIES.items(), ("IDDSpec", levy_stein.IDDSpec)]
                 if "_closed_cdf" in vars(cls))
    assert not own, own


def test_each_law_quantity_has_one_derivation():
    # X^{*s} is drawn from the scaled triplet by sample_conv and b is read
    # as IDDSpec.drift; no second copy of either survives in the package
    words = {path.name: set(re.findall(r"\w+", path.read_text("utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    gone = {"conv_power", "_scaled", "_check_s", "convert_drift",
            "lru_cache", "_closed_cdf", "_point_cdf", "_cdf_knots",
            "_ig_params"}
    found = {name: sorted(w & gone) for name, w in words.items() if w & gone}
    assert not found, found
    # the cdf rule is chosen once per spec, which cdf(x) reads rather than
    # repeating it, and the knot-rule test is made in that one place
    cdf = inspect.getsource(dist_catalog.IDDSpec.cdf)
    assert "_exact_cdf" in cdf and "_triplet_cdf" not in cdf
    source = (SRC / "dist_catalog.py").read_text("utf-8")
    assert source.count("side.beta > 0 for") == 1
    # levy_core reads the drift off the spec, with no import cycle
    tree = ast.parse((SRC / "levy_core.py").read_text("utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "dist_catalog"]
    # one headroom rule: twice the tilt of g against the decay rate
    params = inspect.signature(identities._check_tilt_headroom).parameters
    assert list(params) == ["base", "g"]


def test_no_quadrature_config_where_no_quadrature_runs():
    # cumulants, tail integrals, bias variables and the Esscher shift are
    # closed functions of the triplet, so they take no QuadratureConfig;
    # moment and cumulant have no quadrature switch, and the rule builders
    # serve only integrands without exponential growth, so take no tilt
    dropped = {
        "cfg": [levy_stein.IDDSpec.mean, levy_stein.IDDSpec.variance,
                levy_stein.IDDSpec.std,
                levy_stein.LevyMeasure.moment, levy_stein.cumulant,
                levy_stein.TailIntegral, levy_stein.eta,
                levy_stein.BiasVariable, levy_stein.bias_density,
                levy_stein.cov_first_order, levy_stein.cacoullos_bounds,
                levy_stein.posterior_bounds_gamma,
                levy_stein.posterior_bounds_poisson,
                levy_stein.esscher_closed, levy_stein.modified_variance,
                levy_stein.raw_moment, levy_stein.gini_variance_scale,
                actuarial._nonzero_mean, dist_catalog._cdf_range,
                dist_catalog._cos_cdf],
        "method": [levy_stein.LevyMeasure.moment, levy_stein.cumulant],
        "neg_tilt": [levy_stein.nu_rule, levy_stein.eta_rule],
        "tilt": [levy_stein.nu_rule, levy_stein.eta_rule],
    }
    # the fixed rules, the estimators built on them and the cdfs set no
    # tolerance: only the test suite's quadrature oracle (quad_oracle's
    # integrate_levy and mean_levy) takes a cfg
    dropped["cfg"] += [
        levy_stein.nu_rule, levy_stein.eta_rule, identities._nu_inner,
        levy_stein.cov_identity_rhs, levy_stein.stein_residual_cgmy,
        levy_stein.chen_upper_bound, levy_stein.wpcp,
        levy_stein.generalized_wpcp, levy_stein.gini,
        levy_stein.IDDSpec.cdf, levy_stein.IDDSpec.cdf_fn,
        dist_catalog.CdfTable, dist_catalog._gamma_diff_cdf]
    # parameters that every caller set to one value: exp_moment is Psi_m,
    # the oracle integrates over all of R \\ {0}, and a cdf table has a
    # fixed knot count, and so do the knot values it interpolates
    dropped["subtract_one"] = [levy_core.exp_moment,
                               levy_stein.TiltedPowerSide.exp_moment]
    dropped["region"] = [quad_oracle.integrate_levy]
    dropped["n_knots"] = [dist_catalog.CdfTable, dist_catalog._cos_cdf_knots]
    kept = [(f.__qualname__, name) for name, fns in dropped.items()
            for f in fns if name in inspect.signature(f).parameters]
    assert not kept, f"parameters that set nothing: {kept}"
    # a cfg passed fourth by an old call must fail, not turn the oracle on,
    # and one passed third to a rule builder must fail, not become an
    # argument of the rule
    for f, name in ((levy_stein.cacoullos_bounds, "with_oracle"),
                    (levy_stein.posterior_bounds_gamma, "with_oracle"),
                    (levy_stein.posterior_bounds_poisson, "with_oracle")):
        kind = inspect.signature(f).parameters[name].kind
        assert kind is inspect.Parameter.KEYWORD_ONLY, f.__name__
    measure = levy_stein.Gamma(2.0, 1.5).measure
    for rule in (levy_stein.nu_rule, levy_stein.eta_rule):
        with pytest.raises(TypeError):
            rule(measure, 1, quad_oracle.QuadratureConfig())


def _unused_imports(source: str):
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - _exported(tree))


def _exported(tree) -> set:
    """The names a module's __all__ lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    # the check itself: a dangling name is flagged, an export is not
    assert _unused_imports("import math\nfrom x import a, b as c\nc()\n") \
        == ["a", "math"]
    assert _unused_imports("from x import a\n__all__ = ['a']\n") == []
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused, f"imported but never used: {unused}"


def _dead_definitions(*sources: str):
    """Functions and methods that no source names, in code or in a string
    such as a docstring, and no __all__ lists."""
    defined, referenced = set(), set()
    for tree in map(ast.parse, sources):
        referenced |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                referenced |= set(re.findall(r"\w+", node.value))
    dunder = {name for name in defined
              if name.startswith("__") and name.endswith("__")}
    return sorted(defined - referenced - dunder)


def test_no_dead_definitions():
    # the check itself: an unreferenced function or method is flagged; a
    # called one, a dunder, an export and one a docstring names are not
    assert _dead_definitions(
        "def f(): pass\ndef g(): pass\n"
        "class A:\n    def __init__(self): pass\n    def m(self): pass\n",
        "g()\n") == ["f", "m"]
    assert _dead_definitions(
        "def f(): pass\n__all__ = ['f']\n"
        "class A:\n    'A.m draws.'\n    def m(self): pass\n") == []
    dead = _dead_definitions(*(path.read_text(encoding="utf-8")
                               for path in sorted(SRC.glob("*.py"))))
    assert not dead, f"defined but never referenced: {dead}"


def _family_checks(source: str, allowed=frozenset()):
    """The `isinstance(_, C)` calls with C a catalog family class, as
    'function: C', outside the functions named in `allowed`."""
    families = {cls.__name__ for cls in FAMILIES.values()}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in allowed:
                    visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2):
                kinds = child.args[1]
                for kind in getattr(kinds, "elts", [kinds]):
                    name = getattr(kind, "id", getattr(kind, "attr", None))
                    if name in families:
                        found.append(f"{where}: {name}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_no_dispatch_on_family_classes():
    # every job is read off the triplet, so only the catalog itself and
    # the input checks of the paper's family-specific Stein residuals may
    # test for a family class; the check itself comes first
    assert _family_checks(
        "def f(x):\n    return isinstance(x, (int, dc.CGMY))\n"
        "def g(x):\n    return isinstance(x, VGD)\n",
        allowed={"g"}) == ["f: CGMY"]
    allowed = {"stein_residual_vgd", "stein_residual_bgd"}
    found = {path.name: hits for path in sorted(SRC.glob("*.py"))
             if path.name != "dist_catalog.py"
             and (hits := _family_checks(path.read_text(encoding="utf-8"),
                                         allowed))}
    assert not found, f"dispatch on a family class: {found}"
