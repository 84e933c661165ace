"""Exact symbolic verification workbench for Hom-type splitting algebras.

Encodes finite-dimensional Hom-algebras (dendriform, diassociative,
triassociative, quadri- and six-dendriform, associative) as polynomial-valued
structure-constant tensors over exact rationals, checks every defining
identity symbolically, executes the structure-producing constructions
(splittings, products, quotients, operator-induced algebras), verifies
averaging / Rota-Baxter / relative averaging operators, and batch-verifies
the bundled corpus of low-dimensional classification tables.
"""

from . import axioms, constructions, corpus, files, linalg, model, morphisms, operators, poly
from .poly import ParseError, Polynomial
from .report import PreconditionError, Report, Violation
from .model import (
    ActionBundle,
    AlgebraBundle,
    BilinearOp,
    LinearMap,
    ModelError,
    RepresentationBundle,
    basis_vector,
)
from .axioms import (
    check_action,
    check_associative,
    check_dendriform,
    check_diassociative,
    check_homomorphism,
    check_kind,
    check_multiplicative,
    check_quadri,
    check_representation,
    check_six,
    check_triassociative,
)

__all__ = [
    "axioms",
    "constructions",
    "corpus",
    "files",
    "linalg",
    "model",
    "morphisms",
    "operators",
    "poly",
    "ActionBundle",
    "AlgebraBundle",
    "BilinearOp",
    "LinearMap",
    "ModelError",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "Report",
    "RepresentationBundle",
    "Violation",
    "basis_vector",
    "check_action",
    "check_associative",
    "check_dendriform",
    "check_diassociative",
    "check_homomorphism",
    "check_kind",
    "check_multiplicative",
    "check_quadri",
    "check_representation",
    "check_six",
    "check_triassociative",
]

__version__ = "0.1.0"
