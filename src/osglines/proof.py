"""The certificate: its records, route A's rows (`build_constraints`), its check.

A `Certificate` shows that a `ConstraintSystem` of inequalities ">= 0" has
only the zero solution by weights (`BoundProof`s) that literally sum to
"a >= 0" and "-a >= 0" for each unknown, or that it has others by a nonzero
witness; `verify_certificate` re-checks it by plain summation.  Only
`algebra`, `basis` and `pieri` are imported: never the search (`certify`),
route B (`replay`) or the ring.
"""
from __future__ import annotations

from collections import namedtuple

from .algebra import AffineExpression, exact, sorted_terms
from .basis import (CONCLUSION_NOT_UNIQUE, CONCLUSION_UNIQUE_ZERO, MODE_PER_PAIR, check_mode,
                    degree, enumerate_basis, enumerate_degree, max_degree, mu_keys, pair_keys)
from .pieri import _tau11_raw, _valid_terms

TYPE_CHECKING = False  # the table only annotates; importing `ring` would load it
if TYPE_CHECKING:
    from .ring import MultiplicationTable


# constraints: AffineExpressions, each asserted >= 0; provenance: the (mu, nu, d)
# identifying each one's source coefficient
ConstraintSystem = namedtuple("ConstraintSystem", "n mode unknowns constraints provenance")
ConstraintSystem.__doc__ = ("Affine inequalities `expression >= 0` over the "
                            "deformation unknowns.")


def build_constraints(table: MultiplicationTable, mode: str = MODE_PER_PAIR) -> ConstraintSystem:
    """Positivity constraints from every product sigma[1,1] * sigma[mu], by a
    closed form of the tau[1,1] Pieri rule P(x) = tau[1,1] * tau[x] (invalid
    indices dropped); only `table.n` is read.  As sigma[1,1] = tau[1,1],

        tau[1,1] * sigma[mu] = P(mu) - sum over kap of a(mu, kap) q P(kap),

    and back in the sigma basis each term c q^d tau[lam] of P(mu) with
    |lam| >= 2n adds c a(lam, kap) at (kap, d + 1); the correction part has
    degree at most 2n - 1, so it is never corrected again.  Rows come mu in
    basis order, then (nu, d) in canonical order, each with its unknowns in
    that order of terms.  Constant coefficients are nonnegative by the rule
    and are dropped.
    """
    n = table.n
    per_pair = check_mode(mode)
    kappas = {d: enumerate_degree(n, d - 2 * n) for d in range(2 * n, max_degree(n) + 1)}
    tau11 = {x: _valid_terms(n, _tau11_raw, x) for x in enumerate_basis(n)}
    constraints = []
    provenance = []
    for mu, p_mu in tau11.items():
        coeffs = {(nu, d): [c, {}] for nu, c, d in p_mu}  # (nu, d) -> [constant, linear]
        # c a(lam, kap) at (nu, d) for each (lam, kap, c, nu, d), product part first
        terms = [(mu, kap, -c, nu, d + 1) for kap in kappas.get(degree(mu), ())
                 for nu, c, d in tau11[kap]]
        terms += [(lam, kap, c, kap, d + 1) for lam, c, d in p_mu
                  for kap in kappas.get(degree(lam), ())]
        for lam, kap, c, nu, d in terms:
            linear = coeffs.setdefault((nu, d), [0, {}])[1]
            key = (lam, kap) if per_pair else kap
            linear[key] = linear.get(key, 0) + c
        for (nu, d), (constant, linear) in sorted_terms(coeffs):
            if not linear:
                if constant < 0:
                    raise RuntimeError(
                        f"negative constant coefficient in sigma[1,1]*sigma[{mu}]: "
                        f"{constant} at {nu}, q^{d}")
                continue
            constraints.append(AffineExpression(constant, linear))
            provenance.append((mu, nu, d))
    unknowns = pair_keys(n) if per_pair else mu_keys(n)
    return ConstraintSystem(n, mode, tuple(unknowns), tuple(constraints), tuple(provenance))


# direction "lower" proves a >= 0, "upper" proves a <= 0; weights:
# ((constraint index, weight), ...)
BoundProof = namedtuple("BoundProof", "unknown direction weights")
# bounds: BoundProof entries, empty for NotUnique; witness: a nonzero feasible
# assignment, if any
Certificate = namedtuple("Certificate", "n mode conclusion unknowns bounds witness stats")


def verify_certificate(system: ConstraintSystem, cert: Certificate) -> bool:
    """Re-derive every claimed inequality by exact weighted summation.

    Independent of the search: only the stored constraints and the
    certificate's weight lists are used.  Returns False on any defect
    (negative weight, bad index, a weight that is not an int or a Fraction,
    sum not literally equal to the claimed inequality, missing bound, a
    witness that is not a dict, is zero, infeasible or names a key that is no
    unknown).  Integral weights are summed as ints.
    """
    try:
        if cert.unknowns != system.unknowns or cert.n != system.n \
                or cert.mode != system.mode:
            return False
        if cert.conclusion == CONCLUSION_UNIQUE_ZERO:
            seen = set()
            for bound in cert.bounds:
                if bound.direction not in ("lower", "upper"):
                    return False
                sign = 1 if bound.direction == "lower" else -1
                target = {bound.unknown: sign}
                constant = 0
                linear: dict = {}
                for idx, w in bound.weights:
                    w = exact(w)
                    if w < 0 or not (0 <= idx < len(system.constraints)):
                        return False
                    row = system.constraints[idx]
                    constant += row.constant * w
                    for k, v in row.linear.items():
                        linear[k] = linear.get(k, 0) + v * w
                if constant or {k: v for k, v in linear.items() if v} != target:
                    return False
                seen.add((bound.unknown, bound.direction))
            return all((k, d) in seen for k in system.unknowns
                       for d in ("lower", "upper"))
        if cert.conclusion == CONCLUSION_NOT_UNIQUE:
            # a dict, nonzero on some unknown of the system, and naming no other key
            witness = cert.witness
            if not isinstance(witness, dict) or not witness.keys() <= set(system.unknowns) \
                    or not any(witness.values()):
                return False
            return all(expr.evaluate(witness) >= 0 for expr in system.constraints)
        return False
    except (TypeError, ValueError, ZeroDivisionError):
        # a weight, witness value or index of the wrong type
        return False
