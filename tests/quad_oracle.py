"""Adaptive-quadrature oracle for integrals against a Lévy measure.

The package computes moments, tail integrals, exponential moments and inner
integrals in closed form or by fixed rules. This module recomputes them
from `LevyMeasure.density` with scipy's adaptive Gauss-Kronrod, so the
check shares no integration code with what it checks.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from levy_stein.dist_catalog import IDDSpec
from levy_stein.errors import InvalidParams, NonConvergence
from levy_stein.levy_core import LevyMeasure


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the adaptive-quadrature oracle `integrate_levy`."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParams("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise InvalidParams("max_subdivisions must be positive")


DEFAULT_QUAD = QuadratureConfig()


def _quad_improper(f, a, b, cfg: QuadratureConfig) -> float:
    """scipy adaptive Gauss-Kronrod with the configured budget."""
    out = integrate.quad(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                         limit=cfg.max_subdivisions, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) > 3:
        raise NonConvergence(
            f"quadrature on ({a}, {b}) did not reach tolerance: {out[3].strip()}",
            value=val, error_estimate=abserr)
    if not np.isfinite(val):
        raise NonConvergence(f"quadrature on ({a}, {b}) returned {val}",
                             value=val, error_estimate=abserr)
    return val


def integrate_levy(measure: LevyMeasure, integrand: Callable[[float], float],
                   cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """int integrand(u) nu(du) over R \\ {0}.

    Atomic measures are summed exactly. Continuous sides are integrated
    against `measure.density` with adaptive quadrature, split at |u| = 1 to
    isolate the origin panel where the density may be singular. This is the
    independent oracle for the closed forms and fixed rules; the integrand
    must make integrand * nu absolutely integrable, which callers guarantee
    by always carrying a u^k factor, k >= 1.
    """
    if measure.is_atomic:
        return sum((mass * float(integrand(loc))
                    for loc, mass in measure.atoms), 0.0)

    def f(u):
        return float(integrand(u)) * float(measure.density(u))

    pieces = []
    if measure.pos_structure is not None:
        pieces += [(0.0, 1.0), (1.0, np.inf)]
    if measure.neg_structure is not None:
        pieces += [(-np.inf, -1.0), (-1.0, 0.0)]
    return sum((_quad_improper(f, a, b, cfg) for a, b in pieces), 0.0)


def mean_levy(spec: IDDSpec, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """E(X) recomputed from the Lévy triplet: drift0 plus (for uncompensated
    families) int u nu(du) evaluated by quadrature, not from the family's
    closed form. Used for representation cross-checks."""
    if spec.drift_convention == "compensated":
        return spec.drift0
    return spec.drift0 + integrate_levy(spec.measure, lambda u: u, cfg=cfg)
