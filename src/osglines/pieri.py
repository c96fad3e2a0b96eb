"""Expansion of products by the two special classes tau[1,0] and tau[1,1].

Each rule is a finite case table on the index (a, b) being multiplied.  The
raw tables can emit index pairs outside the valid set (for example a diagonal
pair (t, t) with t > n-2); those terms are dropped, i.e. treated as the zero
class, by the one filter `_valid_terms`.  This zero convention is checked
downstream: every product the ring computes must be homogeneous
(`MultiplicationTable._checked`, on the lazy walk and on the column fill
alike), and the product-identity suite must hold.  The filter itself
refuses a term with a negative q-exponent or a degree other than the
product's, so every term the ring computes has a code (`ring.Q`).

Both rules produce only nonnegative integer coefficients.  They are defined
for rank n >= 3: at n = 2 the index (1,1) is not a valid class, so there is
no second special class to multiply by.

The closed forms of products by tau[1,1]^t that the uniqueness argument uses
(`power_class`, `collapse_terms`, `shift_terms`) live here too: the identity
suite of `suites` checks them, and route B (`replay`) displays them.
"""
from __future__ import annotations

from .algebra import ClassVector
from .basis import Index, check_index, check_rank, degree, is_valid, MIN_RING_RANK

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


def _valid_terms(n: int, special: Index, raw_rule, lam: Index) -> tuple:
    """The terms of `raw_rule`, the raw Pieri rule of tau[special], at lam
    whose index is a class, as (index, coeff, q-exponent) triples.

    RuntimeError on a term with a negative q-exponent or a degree other than
    |special| + |lam|: every term the ring computes then has the degree of
    its product, at most 8n-6, hence a q-exponent below `ring.Q` and a code
    the ring's lookups hold."""
    want = degree(special) + degree(lam)
    terms = tuple(t for t in raw_rule(n, lam)[1] if is_valid(n, t[0]))
    for nu, _, dd in terms:
        if dd < 0 or degree(nu) + 2 * n * dd != want:
            fault = ("a negative q-exponent" if dd < 0 else
                     f"inhomogeneous: degree {degree(nu) + 2 * n * dd}, not {want}")
            raise RuntimeError(f"the tau[{special[0]},{special[1]}] Pieri rule at {lam} "
                               f"has the term {nu}, q^{dd}, {fault}")
    return terms


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


def power_class(n: int, t: int) -> list:
    """tau[1,1]^t as (index, coeff, q-exponent) triples, 1 <= t <= n-1:
    tau[t,t] for t <= n-2 and tau[n, n-2] for t = n-1."""
    return [((t, t) if t <= n - 2 else (n, n - 2), 1, 0)]


def collapse_terms(n: int, lam: Index) -> list:
    """tau[1,1]^t * tau[lam] with t = 2n - lam1 and |lam| >= 2n, as triples:
    q tau[lam2+t, 0], which splits as q tau[2n-1,-1] + q tau[2n-2, 0] when
    lam2 + t = 2n-2."""
    t = 2 * n - lam[0]
    if lam[1] + t == 2 * n - 2:
        return [((2 * n - 1, -1), 1, 1), ((2 * n - 2, 0), 1, 1)]
    return [((lam[1] + t, 0), 1, 1)]


def shift_terms(n: int, mu: Index, t: int) -> list:
    """tau[1,1]^t * tau[mu] for 2t + |mu| <= 2n-1, as triples: tau[mu1+t, mu2+t],
    plus tau[mu1+t+1, mu2+t-1] when 2t + |mu| is 2n-2 or 2n-1; a pair outside
    the index set is zero.  The identity suite checks t <= n-2; the replay's
    one t = n-1 multiplier (lam1 = n+1) is checked only against the engine."""
    terms = [((mu[0] + t, mu[1] + t), 1, 0)]
    if 2 * t + degree(mu) in (2 * n - 2, 2 * n - 1):
        terms.append(((mu[0] + t + 1, mu[1] + t - 1), 1, 0))
    return terms
