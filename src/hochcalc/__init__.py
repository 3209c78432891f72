"""Exact Gerstenhaber/brace calculus on Hochschild cochains of graded
algebras, with A_k-structure validation, extension obstructions, truncated
spectral pages, and a twisted Laurent worked example."""

__version__ = "0.1.0"

from .algebra import GradedAlgebra, validate_algebra
from .ainf import AInfStructure, is_valid, perturb, stasheff_residual, universal_massey
from .cochain import (
    Cochain,
    beta_cochain,
    brace,
    bracket,
    cup,
    euler_delta,
    hoch_d,
    shifted_m2,
    sq,
)
from .cohomology import CochainComplex, CohomClass, HHContext, HHSpace, hh_space
from .exactla import Field, PrimeField, Rationals, SparseMatrix, kernel_basis, rref, solve
from .laurent import (
    PolyCochain,
    TwistedLaurent,
    display_monomial,
    find_witness,
    section8_report,
    sign_twisted_laurent,
)
from .obstruction import (
    ObstructionReport,
    extend_once,
    extend_to,
    obstruction_cocycle,
    theta_page2,
    theta_page3_check,
)
from .spectral import PageCell, collapse_check, e1_term, e2_term, e3_term, page_report

__all__ = [name for name in dir() if not name.startswith("_")]
