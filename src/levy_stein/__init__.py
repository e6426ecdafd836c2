"""Covariance identities, variance bounds and premium principles for
infinitely divisible distributions, computed from Levy-measure
representations and cross-checked by Monte Carlo."""

__version__ = "0.1.0"

from .actuarial import (esscher_closed, generalized_wpcp, gini,
                        gini_variance_scale, modified_variance, raw_moment,
                        wpcp)
from .bounds import (VarianceBounds, cacoullos_bounds, chen_upper_bound,
                     posterior_bounds_gamma, posterior_bounds_poisson)
from .dist_catalog import (BGD, CGMY, GTSD, VGD, AtomicJumps, CompoundPoisson,
                           Gamma, GammaJumps, IDDSpec, InverseGaussian,
                           Laplace, Poisson, TwoSidedExp, VGDAltParams,
                           make_spec, vgd_from_alt, vgd_to_alt)
from .errors import (AtomicMeasure, DivergentMoment, InvalidParams,
                     LevySteinError, NonConvergence, NumericFailure,
                     ParseError, ValidationError,
                     ValidationFailure, ZeroDenominator)
from .functions import (G_REGISTRY, W_REGISTRY, TestFunction, get_function,
                        make_exp_tilt, make_shift)
from .identities import (JointPairSampler, cov_first_order, cov_identity_rhs,
                         cov_oracle, sample_joint, stein_residual,
                         stein_residual_bgd, stein_residual_cgmy,
                         stein_residual_vgd)
from .levy_core import (BiasVariable, LevyMeasure, TailIntegral,
                        TiltedPowerSide, bias_density, cumulant, eta,
                        eta_rule, exp_poly_mean, nu_rule)
from .mc import MCConfig, MCEstimate, combine_se, mc_cov, mc_mean, mc_ratio, mc_variance

__all__ = [
    "__version__",
    # errors
    "LevySteinError", "ValidationFailure", "NumericFailure", "InvalidParams",
    "AtomicMeasure", "ZeroDenominator", "ParseError",
    "ValidationError", "NonConvergence", "DivergentMoment",
    # core
    "TiltedPowerSide", "LevyMeasure", "TailIntegral", "eta", "cumulant",
    "BiasVariable", "bias_density", "nu_rule", "eta_rule", "exp_poly_mean",
    # catalog
    "IDDSpec", "Poisson", "CompoundPoisson", "AtomicJumps", "GammaJumps",
    "Gamma", "InverseGaussian", "Laplace", "TwoSidedExp", "BGD", "VGD",
    "VGDAltParams", "CGMY", "GTSD", "vgd_from_alt", "vgd_to_alt",
    "make_spec",
    # functions
    "TestFunction", "get_function", "make_exp_tilt", "make_shift",
    "G_REGISTRY", "W_REGISTRY",
    # mc
    "MCConfig", "MCEstimate", "mc_mean", "mc_cov", "mc_ratio", "mc_variance",
    "combine_se",
    # identities
    "JointPairSampler", "sample_joint", "cov_identity_rhs", "cov_first_order",
    "cov_oracle", "stein_residual", "stein_residual_cgmy",
    "stein_residual_vgd", "stein_residual_bgd",
    # bounds
    "VarianceBounds", "cacoullos_bounds", "chen_upper_bound",
    "posterior_bounds_gamma", "posterior_bounds_poisson",
    # actuarial
    "wpcp", "esscher_closed", "modified_variance", "raw_moment",
    "generalized_wpcp", "gini", "gini_variance_scale",
]
