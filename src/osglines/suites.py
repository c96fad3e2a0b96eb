"""The checks of a multiplication table: `run_suite` runs one of `SUITES`.

The identity suite (`verify_identities`) checks products with powers of
tau[1,1] against the closed forms of `pieri`.  `check_commutativity`
recomputes every product by a second, independent algorithm, kept only as
that reference: it expresses each class in the generator monomials
tau[1,0]^i tau[1,1]^j by exact Gaussian elimination in its graded slice,
and applies the expansion rules to the other factor, on coded ints once
each expression is scaled by the lcm of its denominators.  From `ring` this
module reads only the products and the term coding, never the recursion.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from .algebra import ClassVector, sorted_terms
from .basis import (SUITES, betti_numbers, classes_in_degrees, degree, enumerate_degree,
                    max_degree, top_class)
from .pieri import collapse_terms, power_class, shift_terms
from .ring import (GenerationFailure, MultiplicationTable, _Memo, _pieri_codes, multiply,
                   poincare_pairing)

ASSOC_SAMPLES = 10_000
ASSOC_SEED = 20240803


def _expansion(times: dict, code: int) -> _Memo:
    """{mon: M1^i(M11^j(the term `code`)) as {code: int}} by the coded Pieri
    terms `times` = `_pieri_codes(n, basis, pos)`; each is homogeneous, as
    every Pieri term is, so its codes stay within the lists (`ring.Q`)."""
    def expand(mon: tuple[int, int]) -> dict:
        i, j = mon
        terms, prev = (times[(1, 0)], (i - 1, j)) if i else (times[(1, 1)], (0, j - 1))
        acc: dict = {}
        for c0, c in memo[prev].items():
            for code2, k in terms[c0]:
                acc[code2] = acc.get(code2, 0) + c * k
        return {key: v for key, v in acc.items() if v}
    memo = _Memo(expand)
    memo[(0, 0)] = {code: 1}
    return memo


def _scaled(expr: dict) -> tuple[int, dict]:
    """(L, L * expr) with L the lcm of the denominators: L * expr is on ints."""
    lcm = math.lcm(*(r.denominator for r in expr.values()))
    return lcm, {m: r.numerator * (lcm // r.denominator) for m, r in expr.items()}


def _differs(scaled: tuple[int, dict], expansion, coded: dict) -> bool:
    """Whether sum_m expr[m] * expansion[m] differs from the product `coded`
    ({code: int}), for `scaled` = `_scaled(expr)`: summed on ints, compared
    exactly with L * coded."""
    lcm, expr = scaled
    acc: dict = {}
    for mon, r in expr.items():
        for code, c in expansion[mon].items():
            acc[code] = acc.get(code, 0) + r * c
    if lcm != 1:
        coded = {k: lcm * c for k, c in coded.items()}
    return {k: v for k, v in acc.items() if v} != coded


def _reduce(vec: dict, pivots) -> tuple[dict, dict]:
    """Reduce the sparse vector `vec` against `pivots`, in order: the residual,
    zeros dropped, and the combination of pivot expressions subtracted."""
    vec = dict(vec)
    combo: dict = {}
    for prow, pvec, pexpr in pivots:
        f = vec.get(prow)
        if not f:
            continue
        for r, v in pvec.items():
            vec[r] = vec.get(r, Fraction(0)) - f * v
        for m, v in pexpr.items():
            combo[m] = combo.get(m, Fraction(0)) + f * v
    return {r: v for r, v in vec.items() if v}, combo


def _pivots(vectors) -> list:
    """Exact sparse Gaussian elimination; the number of pivots is the rank.

    `vectors` yields (label, {row: value}) pairs with distinct labels.  A
    nonzero residual becomes a pivot: its lowest row, the residual scaled to 1
    there, and its expression in the labels.
    """
    pivots = []  # (pivot row, reduced vector, expression in the labels)
    for label, vec in vectors:
        vec, combo = _reduce(vec, pivots)
        if not vec:
            continue
        expr = {label: Fraction(1), **{m: -v for m, v in combo.items()}}
        prow = min(vec)
        scale = Fraction(1) / vec[prow]
        pivots.append((prow,
                       {r: v * scale for r, v in vec.items()},
                       {m: v * scale for m, v in expr.items() if v * scale}))
    return pivots


def _generator_expressions(table: MultiplicationTable, times: dict) -> dict:
    """Each class lam as {(i, j): r_ij}, tau[lam] = sum r_ij tau[1,0]^i tau[1,1]^j.

    Every graded slice of the table's basis (the slices in order) is solved
    by exact elimination of the generator monomials applied to the unit by
    the coded Pieri terms `times` = `_pieri_codes(n, basis, pos)`, with the
    terms' codes as coordinates; `check_commutativity`'s reference.
    """
    pos, unit = table.pos, _expansion(times, table.pos[(0, 0)])
    exprs: dict = {}
    for total, classes in groupby(table.basis, degree):
        # higher tau[1,1] powers first keeps each expression canonical: a
        # diagonal class (t, t) comes out as the pure power tau[1,1]^t
        monomials = [(total - 2 * j, j) for j in range(total // 2, -1, -1)]
        pivots = _pivots((mon, unit[mon]) for mon in monomials)
        for lam in classes:
            residual, r = _reduce({pos[lam]: Fraction(1)}, pivots)
            if residual:
                raise GenerationFailure(f"class {lam} (rank {table.n}) is not generated "
                                        f"by the special classes")
            exprs[lam] = {m: v for m, v in r.items() if v}
    return exprs


def pairing_rank(table: MultiplicationTable, rows, cols) -> int:
    """Rank of the matrix of Poincare pairings of `rows` against `cols`."""
    return len(_pivots(
        (lam, {j: poincare_pairing(table, lam, mu) for j, mu in enumerate(cols)})
        for lam in rows))


def has_negative_constant(table: MultiplicationTable):
    """(True, witness) for the first negative structure constant in scan order:
    the first pair of `pairs()`, then the first of its terms in canonical order."""
    for lam, mu in table.pairs():
        terms = table.terms(lam, mu)
        if any(c < 0 for c in terms.values()):
            (nu, d), c = next(kv for kv in sorted_terms(terms) if kv[1] < 0)
            return True, {"lambda": lam, "mu": mu, "nu": nu, "d": d, "coeff": Fraction(c)}
    return False, None


IDENTITY_PARTS = ("diagonal-power", "collapse", "collapse-boundary",
                  "top-power", "shift", "shift-boundary")


IdentityCheck = namedtuple("IdentityCheck", "part holds checked counterexamples")


def verify_identities(table: MultiplicationTable, part: str) -> IdentityCheck:
    """Exhaustively check one family of product identities for powers of tau[1,1].

    Parts, expected values from `power_class`, `collapse_terms`, `shift_terms`:
      diagonal-power    tau[1,1]^t, t <= n-2
      collapse          tau[1,1]^t * tau[lam], |lam| >= 2n, t = 2n-lam1, lam2+t != 2n-2
      collapse-boundary the same with lam2 + t = 2n-2
      top-power         tau[1,1]^(n-1)
      shift             tau[1,1]^t * tau[mu], t <= n-2, 2t + |mu| <= 2n-3
      shift-boundary    the same with 2t + |mu| in {2n-2, 2n-1}
    """
    n = table.n
    if part not in IDENTITY_PARTS:
        raise ValueError(f"unknown identity part {part!r}; expected one of {IDENTITY_PARTS}")
    checked = 0
    bad = []
    e11 = ClassVector.basis(n, (1, 1))
    powers = [ClassVector.basis(n, (0, 0))]  # powers[t] = tau[1,1]^t, t < n
    for t in range(1, n):
        powers.append(multiply(table, powers[t - 1], e11))

    def record(params, got, terms):
        nonlocal checked
        checked += 1
        want = ClassVector.from_terms(n, terms)
        if got != want:
            bad.append({"params": params, "got": repr(got), "expected": repr(want)})

    if part in ("diagonal-power", "top-power"):
        for t in range(1, n - 1) if part == "diagonal-power" else [n - 1]:
            record({"t": t}, powers[t], power_class(n, t))
    elif part in ("collapse", "collapse-boundary"):
        boundary = part == "collapse-boundary"
        for lam in classes_in_degrees(n, range(2 * n, max_degree(n) + 1)):
            t = 2 * n - lam[0]
            if ((lam[1] + t) == 2 * n - 2) != boundary:
                continue
            record({"lambda": lam, "t": t},
                   multiply(table, powers[t], ClassVector.basis(n, lam)),
                   collapse_terms(n, lam))
    else:
        boundary = part == "shift-boundary"
        for t in range(1, n - 1):
            lo = 2 * n - 2 - 2 * t  # boundary: |mu| is lo or lo + 1; else |mu| < lo
            for mu in classes_in_degrees(n, range(lo, lo + 2) if boundary else range(lo)):
                record({"mu": mu, "t": t},
                       multiply(table, powers[t], ClassVector.basis(n, mu)),
                       shift_terms(n, mu, t))
    return IdentityCheck(part, not bad, checked, bad)


def check_commutativity(table: MultiplicationTable) -> list:
    """Recompute every product in the opposite factor order by a second algorithm.

    Returns the list of pairs where the table disagrees (empty when it is
    commutative).  The reference expresses each class in the generator
    monomials by solving every graded slice, and assembles
    tau[mu] * tau[lam] = sum r_ij M1^i M11^j (tau[lam]), with the factors in
    the roles opposite to the recursion's.  It runs on ints, coded as the
    table codes its terms: each expression is scaled once by the lcm L of its
    denominators, and the sum is compared with L times the stored product.
    It needs only the rank and the stored products, so a loaded cache is
    checked the same way as a built table.
    """
    basis, pos = table.basis, table.pos
    times = _pieri_codes(table.n, basis, pos)
    scaled = {mu: _scaled(expr) for mu, expr in _generator_expressions(table, times).items()}
    codes = {key: code for code, key in enumerate(table._key_list())}  # of every stored key
    bad = []
    for lam in basis:
        expand = _expansion(times, pos[lam])
        for mu in basis[pos[lam]:]:
            coded = {codes[key]: c for key, c in table.terms(lam, mu).items()}
            if _differs(scaled[mu], expand, coded):
                bad.append((lam, mu))
    return bad


def run_suite(table: MultiplicationTable, suite: str) -> list:
    """The checks of one suite of `SUITES` on the table, each a dict
    {"name", "passed", "detail"}; `assoc` samples ASSOC_SAMPLES seeded
    triples above rank 3 and checks every triple at rank 3."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    n = table.n
    checks = []
    if suite == "identities":
        for part in IDENTITY_PARTS:
            rep = verify_identities(table, part)
            detail = f"{rep.checked} instances"
            if rep.counterexamples:
                detail += f"; first violation: {rep.counterexamples[0]}"
            checks.append({"name": part, "passed": rep.holds, "detail": detail})
    elif suite == "assoc":
        basis = table.basis
        if n <= 3:
            triples = [(x, y, z) for x in basis for y in basis for z in basis]
        else:
            rng = random.Random(ASSOC_SEED + n)
            triples = [tuple(rng.choice(basis) for _ in range(3))
                       for _ in range(ASSOC_SAMPLES)]
        bad = 0
        for x, y, z in triples:
            ex, ey, ez = (ClassVector.basis(n, i) for i in (x, y, z))
            left = multiply(table, multiply(table, ex, ey), ez)
            right = multiply(table, ex, multiply(table, ey, ez))
            if left != right:
                bad += 1
        kind = "exhaustive" if n <= 3 else f"{len(triples)} seeded samples"
        checks.append({"name": "associativity", "passed": bad == 0,
                       "detail": f"{kind}, {bad} violations"})
    elif suite == "pairing":
        for d in range(0, max_degree(n) + 1):
            rows = enumerate_degree(n, d)
            cols = enumerate_degree(n, max_degree(n) - d)
            full = len(rows) == len(cols) == pairing_rank(table, rows, cols)
            checks.append({"name": f"pairing-degree-{d}", "passed": full,
                           "detail": f"{len(rows)}x{len(cols)}"})
    elif suite == "betti":
        b = betti_numbers(n)
        sym = all(b[d] == b[max_degree(n) - d] for d in range(len(b)))
        checks.append({"name": "betti-symmetry", "passed": sym,
                       "detail": str(b)})
        checks.append({"name": "top-class-unique",
                       "passed": enumerate_degree(n, max_degree(n)) == [top_class(n)],
                       "detail": str(top_class(n))})
        size = len(table.basis)
        checks.append({"name": "unit-law",
                       "passed": all(table.terms((0, 0), lam) == {(lam, 0): 1}
                                     for lam in table.basis),
                       "detail": f"{size} classes"})
        checks.append({"name": "commutativity",
                       "passed": not check_commutativity(table),
                       "detail": f"{size * (size + 1) // 2} pairs, both orders"})
    else:
        found, w = has_negative_constant(table)
        detail = "none found"
        if found:
            detail = (f"tau[{w['lambda'][0]},{w['lambda'][1]}]*"
                      f"tau[{w['mu'][0]},{w['mu'][1]}] has {w['coeff']} on "
                      f"q^{w['d']}*tau[{w['nu'][0]},{w['nu'][1]}]")
        checks.append({"name": "negative-constant-exists", "passed": found,
                       "detail": detail})
        clean = all(c >= 0 for special in ((1, 0), (1, 1)) for lam in table.basis
                    for c in table.terms(special, lam).values())
        checks.append({"name": "special-rows-nonnegative", "passed": clean,
                       "detail": "tau[1,0] and tau[1,1] rows"})
    return checks
