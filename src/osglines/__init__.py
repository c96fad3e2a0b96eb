"""Exact computations in the quantum cohomology of IG(2, 2n+1).

A small, dependency-free library for the odd symplectic Grassmannian of
lines: enumeration of the Schubert-type basis, the two special-class
expansion rules, the full multiplication table with its Gromov-Witten
structure constants, candidate deformations of the basis, and two
independent certified proofs per rank that the positivity condition on
products with the class tau[1,1] admits only the trivial deformation.
All arithmetic is exact rational arithmetic.
"""

from .algebra import AffineExpression, ClassVector
from .basis import (betti_numbers, degree, enumerate_basis, enumerate_degree,
                    is_valid, max_degree, top_class)
from .certify import (Certificate, ConstraintSystem, MismatchError,
                      QuadraticTermError, ResourceLimitError, build_constraints,
                      certify_uniqueness, replay_proof, verify_certificate,
                      CONCLUSION_NOT_UNIQUE, CONCLUSION_UNIQUE_ZERO)
from .deformation import (DeformationSpec, MODE_PER_MU, MODE_PER_PAIR,
                          check_positivity, deformed_product, sigma_from_tau,
                          to_sigma, to_tau)
from .expr import (ExpressionSyntaxError, evaluate_expression,
                   format_expression, parse_expression)
from .pieri import pieri_tau1, pieri_tau11, tau1_case, tau11_case
from .ring import (GenerationFailure, IDENTITY_PARTS, MultiplicationTable,
                   build_table, check_commutativity, diagonal_power,
                   gw_constant, has_negative_constant, lazy_table,
                   multiply, poincare_pairing, verify_identities)
from .serialize import (load_certificate, load_spec, load_table,
                        save_certificate, save_spec, save_table)

__version__ = "0.1.0"
