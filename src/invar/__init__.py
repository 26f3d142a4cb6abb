"""Exact local invariants of Kahler potentials.

Two engines under one roof, sharing exact Gaussian-rational arithmetic:

* a contraction-monomial calculus (canonical forms, divergences, the
  co-exactness test, Chern-type invariants, and a constructive solver that
  decomposes everything that integrates to zero), checked against an
  independent Fourier-mode integration oracle;
* a jet-level geometry pipeline (curvature, named scalar invariants,
  Todd-type polynomials) feeding an operator-symbol computation of the
  kernel expansion coefficients of a polarized potential.
"""

from .bergman import adjoint, bergman_coefficients, build_A
from .calculus import divergence, integrates_to_zero, local_divergence
from .chern import chern_invariant, chern_reduce, partitions_of
from .fourier import FourierFunction, eval_integral, pairing, random_phi
from .geometry import (
    CurvaturePackage,
    curvature_package,
    evaluate,
    kernel_coefficient_reference,
    named_scalar,
    scalar_weight,
    todd_polynomial,
)
from .invariants import Invariant, monomial_invariant, zero_invariant
from .jets import (
    Potential,
    fubini_study_jets,
    jet_keys_up_to_grade,
    random_hermitian_jets,
)
from .monomials import PHI, PSI, ContractionMonomial
from .rationals import GaussRat
from .rings import GaussRing, GradedRing, SymbolicRing, symbol_grade
from .series import ScalarSeries
from .solver import (
    Decomposition,
    InfeasibleError,
    NotCoexactError,
    decompose,
    enumerate_monomials,
    random_coexact_invariant,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "GaussRat",
    "GaussRing",
    "GradedRing",
    "SymbolicRing",
    "symbol_grade",
    "ScalarSeries",
    "PHI",
    "PSI",
    "ContractionMonomial",
    "Invariant",
    "monomial_invariant",
    "zero_invariant",
    "divergence",
    "local_divergence",
    "integrates_to_zero",
    "partitions_of",
    "chern_invariant",
    "chern_reduce",
    "enumerate_monomials",
    "decompose",
    "verify_decomposition",
    "random_coexact_invariant",
    "Decomposition",
    "NotCoexactError",
    "InfeasibleError",
    "FourierFunction",
    "pairing",
    "eval_integral",
    "random_phi",
    "Potential",
    "jet_keys_up_to_grade",
    "fubini_study_jets",
    "random_hermitian_jets",
    "CurvaturePackage",
    "curvature_package",
    "evaluate",
    "named_scalar",
    "scalar_weight",
    "todd_polynomial",
    "kernel_coefficient_reference",
    "build_A",
    "adjoint",
    "bergman_coefficients",
    "__version__",
]
