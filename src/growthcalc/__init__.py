"""growthcalc: a desk-scale calculus for growth functions.

The package computes the multiplicative Legendre transform of a growth
function, its inverse, the associated power series and dual function,
classifies logarithmic convexity variants, checks the classical weight
sequence conditions, and numerically verifies the quantitative
inequalities tying all of these together, both as a library and via the
``growthcalc`` command line tool.

The namespace is lazy: ``import growthcalc`` loads no submodule (and so
no numpy); the first use of a public name imports the module that
defines it and binds the name here.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it contributes
_EXPORTS = {
    "growthfn": (
        "ConvexityVerdict", "GrowthFunction", "ProbeSpec", "ProbeVerdict",
        "check_increasing", "classify_convexity", "from_phi", "load_registry",
        "make_growth_function", "membership", "registered_examples",
    ),
    "holo": (
        "BoundParams", "ChaosPolynomial", "GNormResult", "NuclearScale",
        "chaos_eval", "chaos_eval_batch", "coeff_bound_check", "coeff_norm",
        "dyadic_scale", "embedding_check_51", "embedding_check_52", "hs_norm",
        "norm_g", "norm_k", "pointwise_bound_check", "random_chaos",
        "series_chain_check",
    ),
    "legendre": (
        "Check", "FunctionEquivalenceCounterexample", "FunctionEquivalenceWitness",
        "LegendrePoint", "LogConcaveProfile", "TauBounds",
        "admissibility_report", "dual", "dual_function", "ell", "ell_profile",
        "function_equivalent", "inverse_legendre", "l_function",
        "l_growth_function", "l_sharp", "l_sharp_growth_function", "suite_tags",
        "tau_bounds", "theta_function", "verify_suite",
    ),
    "numerics": (
        "GrowthCalcError", "LogScalar", "NoDecayCertificate", "NotBracketable",
        "PreconditionViolated", "SeriesSum",
    ),
    "sequences": (
        "ConditionVerdict", "EquivalenceCounterexample", "PositiveSequence",
        "SequenceEquivalenceWitness", "check_condition", "from_legendre",
        "gen_bell", "gen_power_factorial", "seq_equivalent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
