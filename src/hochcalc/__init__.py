"""Exact Gerstenhaber/brace calculus on Hochschild cochains of graded
algebras, with A_k-structure validation, extension obstructions, truncated
spectral pages, and a twisted Laurent worked example.

The public names below resolve on first use (PEP 562), so ``import
hochcalc`` and ``python -m hochcalc.cli`` load only the modules they need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("GradedAlgebra", "validate_algebra"),
    "ainf": ("AInfStructure", "is_valid", "perturb", "stasheff_residual", "universal_massey"),
    "cochain": (
        "Cochain",
        "beta_cochain",
        "brace",
        "bracket",
        "cup",
        "euler_delta",
        "hoch_d",
        "shifted_m2",
        "sq",
    ),
    "cohomology": ("CochainComplex", "CohomClass", "HHContext", "HHSpace", "hh_space"),
    "exactla": ("Field", "PrimeField", "Rationals", "SparseMatrix", "rref"),
    "laurent": (
        "PolyCochain",
        "TwistedLaurent",
        "display_monomial",
        "find_witness",
        "section8_report",
        "sign_twisted_laurent",
    ),
    "obstruction": (
        "ObstructionReport",
        "extend_once",
        "extend_to",
        "obstruction_cocycle",
        "theta_page2",
        "theta_page3_check",
    ),
    "spectral": ("PageCell", "collapse_check", "e1_term", "e2_term", "e3_term", "page_report"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names and the modules that define them
__all__ = sorted([*_MODULE_OF, *_EXPORTS, "errors"])


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
