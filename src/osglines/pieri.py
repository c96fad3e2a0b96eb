"""Expansion of products by the two special classes tau[1,0] and tau[1,1].

Each rule is a finite case table on the index (a, b) being multiplied.  The
raw tables can emit index pairs outside the valid set (for example a diagonal
pair (t, t) with t > n-2); those terms are dropped, i.e. treated as the zero
class.  This zero convention is checked downstream: every product the ring
computes must be homogeneous (`MultiplicationTable._checked`, on the lazy
walk and on the column fill alike), and the product-identity suite must
hold.

Both rules produce only nonnegative integer coefficients.  They are defined
for rank n >= 3: at n = 2 the index (1,1) is not a valid class, so there is
no second special class to multiply by.
"""
from __future__ import annotations

from .algebra import ClassVector
from .basis import Index, check_index, check_rank, MIN_RING_RANK

TAU1_CASES = ("generic", "reflect", "wall_quantum", "wall_bottom", "wall_top")
TAU11_CASES = ("generic", "split", "wall_quantum", "wall_split")


def _require(n: int, lam) -> Index:
    check_rank(n, MIN_RING_RANK)
    return check_index(n, lam)


def _tau1_raw(n: int, lam: Index):
    a, b = lam
    if a == 2 * n - 1:
        if b == -1:
            return "wall_bottom", (((2 * n - 1, 0), 1, 0),)
        if b == 2 * n - 2:
            return "wall_top", (((2 * n - 1, -1), 1, 1), ((2 * n - 2, 0), 1, 1))
        return "wall_quantum", (((2 * n - 1, b + 1), 1, 0), ((b, 0), 1, 1))
    if a + b == 2 * n - 3:
        return "reflect", (((a, b + 1), 1, 0), ((a + 1, b), 2, 0), ((a + 2, b - 1), 1, 0))
    return "generic", (((a + 1, b), 1, 0), ((a, b + 1), 1, 0))


def _tau11_raw(n: int, lam: Index):
    a, b = lam
    if a == 2 * n - 1:
        if b == 2 * n - 3:
            return "wall_split", (((2 * n - 1, -1), 1, 1), ((2 * n - 2, 0), 1, 1))
        return "wall_quantum", (((b + 1, 0), 1, 1),)
    if a + b in (2 * n - 4, 2 * n - 3):
        return "split", (((a + 2, b), 1, 0), ((a + 1, b + 1), 1, 0))
    return "generic", (((a + 1, b + 1), 1, 0),)


def tau1_case(n: int, lam) -> str:
    """Which case of the tau[1,0] rule applies to lam."""
    return _tau1_raw(n, _require(n, lam))[0]


def tau11_case(n: int, lam) -> str:
    return _tau11_raw(n, _require(n, lam))[0]


def pieri_tau1(n: int, lam) -> ClassVector:
    """tau[1,0] * tau[lam], expanded in the basis."""
    _, terms = _tau1_raw(n, _require(n, lam))
    return ClassVector.from_terms(n, terms)


def pieri_tau11(n: int, lam) -> ClassVector:
    """tau[1,1] * tau[lam], expanded in the basis."""
    _, terms = _tau11_raw(n, _require(n, lam))
    return ClassVector.from_terms(n, terms)
