"""Exact computations in the quantum cohomology of IG(2, 2n+1).

A small, dependency-free library for the odd symplectic Grassmannian of
lines: enumeration of the Schubert-type basis, the two special-class
expansion rules, the full multiplication table with its Gromov-Witten
structure constants, candidate deformations of the basis, and two
independent certified proofs per rank that the positivity condition on
products with the class tau[1,1] admits only the trivial deformation.
All arithmetic is exact rational arithmetic.

Importing the package loads none of its modules.  A public name is taken
from the module `_EXPORTS` lists it under when it is first read, and a
module is imported when its own name is first read (PEP 562), so a caller,
a CLI call above all, loads only the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("AffineExpression", "ClassVector"),
    "basis": ("CONCLUSION_NOT_UNIQUE", "CONCLUSION_UNIQUE_ZERO", "MODE_PER_MU",
              "MODE_PER_PAIR", "betti_numbers", "degree", "enumerate_basis",
              "enumerate_degree", "is_valid", "max_degree", "top_class"),
    "certify": ("ResourceLimitError", "certify_uniqueness"),
    "deformation": ("DeformationSpec", "check_positivity", "deformed_product",
                    "sigma_from_tau", "to_sigma", "to_tau"),
    "expr": ("ExpressionSyntaxError", "evaluate_expression",
             "format_expression", "parse_expression"),
    "pieri": ("pieri_tau1", "pieri_tau11", "tau1_case", "tau11_case"),
    "proof": ("Certificate", "ConstraintSystem", "build_constraints", "verify_certificate"),
    "replay": ("MismatchError", "QuadraticTermError", "replay_proof"),
    "ring": ("GenerationFailure", "MultiplicationTable", "build_table", "diagonal_power",
             "gw_constant", "lazy_table", "multiply", "poincare_pairing"),
    "serialize": ("load_certificate", "load_spec", "load_table",
                  "save_certificate", "save_spec", "save_table"),
    "suites": ("IDENTITY_PARTS", "check_commutativity", "has_negative_constant", "run_suite",
               "verify_identities"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    import importlib
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
