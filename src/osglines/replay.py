"""Route B: a structured replay of the uniqueness argument, one rank at a time.

Multiply sigma[lam] by the matching power of sigma[1,1] so that everything
collapses into the quantum range, compare the engine's expansion (affine
in the unknowns) with the closed-form display it is supposed to equal
(built from the collapse and shift identities stated in `pieri`), and read
the sign deductions off that display.  Degree 2n classes are settled first,
higher degrees by induction: the Pieri-lower step multiplies sigma[1,1] by
sigma[pred] = tau[pred], since pred lies below degree 2n or in a degree
already settled.  Every displayed identity is checked termwise; a
discrepancy raises `MismatchError` naming the step and the first
coefficient that differs.

Route B shares no code with route A (`certify`, `proof`) and keeps its own
arithmetic, on the table's int products.  A vector is one int dict
{(nu, d, u): int}: the coefficient of q^d at the class nu, split by
unknown, with u None for the constant part and the key (lam, kap) of the
unknown a(lam, kap) otherwise; zeros are dropped.  Everything the replay
multiplies is linear in the unknowns, so this is exact, and a product that
would not be raises `QuadraticTermError`: a bug, never ignored.
"""
from __future__ import annotations

from collections import namedtuple

from .algebra import sorted_terms
from .basis import (CONCLUSION_UNIQUE_ZERO, degree, enumerate_degree, is_valid, max_degree,
                    pair_keys)
from .pieri import collapse_terms, power_class, shift_terms

TYPE_CHECKING = False  # the table only annotates; importing `ring` would load it
if TYPE_CHECKING:
    from .ring import MultiplicationTable


class QuadraticTermError(ArithmeticError):
    """Route B met a product of two terms that both carry unknowns."""


class MismatchError(RuntimeError):
    """An engine expansion differs from the closed-form display it replays."""

    def __init__(self, step: str, detail: str):
        super().__init__(f"{step}: {detail}")
        self.step = step


ReplayStep = namedtuple("ReplayStep", "tag subject verified deductions")
ReplayReport = namedtuple("ReplayReport", "n steps unknowns all_zero conclusion resolutions")


def _times(table: MultiplicationTable, x: dict, y: dict) -> dict:
    """x * y for int vectors in tau coordinates, by the table's int products."""
    acc: dict = {}
    for (nu1, d1, u1), c1 in x.items():
        for (nu2, d2, u2), c2 in y.items():
            if u1 is not None and u2 is not None:
                raise QuadraticTermError(f"product of two terms with unknowns: "
                                         f"a{u1} * a{u2}")
            u = u2 if u1 is None else u1
            c12, d12 = c1 * c2, d1 + d2
            for (nu, d), c in table.terms(nu1, nu2).items():
                key = (nu, d + d12, u)
                acc[key] = acc.get(key, 0) + c12 * c
    return {k: c for k, c in acc.items() if c}


def _to_sigma(n: int, slices: list, v: dict) -> dict:
    """v, given in tau coordinates, in sigma coordinates: each term c q^d
    tau[nu] with |nu| >= 2n adds c a(nu, kap) q^(d+1) sigma[kap] for every
    kap in `slices[|nu| - 2n]`.  Correction classes are never corrected, so
    one pass is exact; a term that already carries an unknown there would
    need a quadratic one."""
    acc = dict(v)
    for (nu, d, u), c in v.items():
        dk = degree(nu) - 2 * n
        if dk < 0:
            continue
        if u is not None:
            raise QuadraticTermError(f"correction of the term a{u} at {nu}, q^{d}")
        for kap in slices[dk]:
            key = (kap, d + 1, (nu, kap))
            acc[key] = acc.get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


def _display(n: int, terms) -> dict:
    """The int vector of (index, coeff, q-exponent, unknown) terms; an
    index outside the index set contributes nothing, the zero convention of
    the closed forms (as in `ClassVector.from_terms`)."""
    acc: dict = {}
    for nu, c, d, u in terms:
        if is_valid(n, nu):
            key = (nu, d, u)
            acc[key] = acc.get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


def _groups(v: dict) -> dict:
    """{(nu, d): {u: int}}: each coefficient of v, its unknowns in v's order."""
    groups: dict = {}
    for (nu, d, u), c in v.items():
        groups.setdefault((nu, d), {})[u] = c
    return groups


def _coefficient_text(group: dict) -> str:
    """One coefficient {u: int} as text, such as 1 - a((5, 1), (0, 0))."""
    text = str(group[None]) if None in group else ""
    for u, c in group.items():
        if u is None:
            continue
        term = ("" if abs(c) == 1 else f"{abs(c)}*") + f"a{u}"
        if text:
            text += (" - " if c < 0 else " + ") + term
        else:
            text = ("-" if c < 0 else "") + term
    return text or "0"


def _mismatch(tag, subject, engine: dict, expected: dict) -> MismatchError:
    """The error naming the first coefficient, in canonical order, where the
    engine's expansion and the display differ."""
    got, want = _groups(engine), _groups(expected)
    nu, d = next(k for k, _ in sorted_terms({**got, **want}) if got.get(k) != want.get(k))
    engine_c, display_c = (_coefficient_text(g.get((nu, d), {})) for g in (got, want))
    return MismatchError(tag, f"subject {subject}: the coefficient of q^{d} [{nu[0]},{nu[1]}] "
                              f"is {engine_c} in the engine's expansion and {display_c} "
                              f"in the display")


def replay_proof(table: MultiplicationTable) -> ReplayReport:
    """Replay the per-rank uniqueness argument, checking each display termwise.

    Works with one unknown per (lam, mu) pair, which subsumes the shared-
    coefficient mode.  Steps:

      diagonal-power      the multiplier powers tau[1,1]^t themselves
      collapse-upper      degree-2n classes with lam1 >= n+2: the t-fold
                          product collapses to q-terms and exposes -a
      near-diagonal-upper the remaining degree-2n class (n+1, n-1)
      pieri-lower         sigma[1,1] * sigma[lam1-1, lam2-1] = sigma[lam]
                          + corrections, exposing +a for every correction
      pair-upper          degrees above 2n: the collapsed product exposes
                          -a per correction class, or adjacent sums -(a+a')

    Every vector, engine side and display side, is an int vector
    {(nu, d, u): int} (u None for the constant, else the unknown's key):
    the engine multiplies the table's int products (`MultiplicationTable.terms`)
    and changes basis by the corrections a(lam, kap) q sigma[kap], and the
    displays come from `power_class`, `collapse_terms` and `shift_terms`.
    Each upper display is collapse_terms(lam) minus a q shift_terms(kap, t)
    per correction class kap, and one deduction is read off per distinct
    coefficient: -a gives a <= 0, -(a+a') gives a + a' <= 0, 1 - a gives
    nothing.  The sign deductions are combined exactly as the argument
    combines them (a >= 0 together with a <= 0, or with a + a' <= 0 and
    a' >= 0).  A degree whose unknowns they leave open raises
    `MismatchError`, so a returned report always concludes UniqueZero.
    """
    n = table.n
    unknowns = tuple(pair_keys(n))
    slices = [enumerate_degree(n, d) for d in range(2 * n - 2)]  # correction classes
    steps: list[ReplayStep] = []
    nonneg: set = set()
    nonpos: set = set()
    pair_sums: dict = {}  # degree -> the pairs (k1, k2) with k1 + k2 <= 0 of that degree
    zeroed: set = set()
    resolutions: dict = {}
    by_degree: dict = {}  # degree -> its unknowns, in `unknowns` order
    for k in unknowns:
        by_degree.setdefault(degree(k[0]), []).append(k)

    def check(tag, subject, engine, expected, deductions):
        if engine != expected:
            raise _mismatch(tag, subject, engine, expected)
        steps.append(ReplayStep(tag, subject, True, deductions))

    # multiplier powers of tau[1,1]
    e11 = {((1, 1), 0, None): 1}
    powers = {0: {((0, 0), 0, None): 1}}
    for t in range(1, n):
        powers[t] = _times(table, powers[t - 1], e11)
        check("diagonal-power", t, powers[t],
              _display(n, [(nu, c, d, None) for nu, c, d in power_class(n, t)]), [])

    def settle_degree(d_lam):
        """Combine the recorded sign facts for all unknowns of one degree."""
        # one pass: both rules read only the sign facts, never `zeroed`
        keys = by_degree.get(d_lam, [])
        for k in keys:
            if k in nonneg and k in nonpos and k not in zeroed:
                zeroed.add(k)
                resolutions[k] = "lower and upper bounds meet at zero"
        for k1, k2 in pair_sums.get(d_lam, ()):
            if k1 in nonneg and k2 in nonneg:
                for k, other in ((k1, k2), (k2, k1)):
                    if k not in zeroed:
                        zeroed.add(k)
                        resolutions[k] = (f"nonnegative, and the sum with "
                                          f"nonnegative {other} is nonpositive")
        return all(k in zeroed for k in keys)

    def lower(lam):
        """sigma[1,1] * sigma[lam1-1, lam2-1] = sigma[lam] + sum a q sigma[kap]."""
        kappas = slices[degree(lam) - 2 * n]
        # sigma[pred] = tau[pred]: |pred| < 2n, or settle_degree(|pred|)
        # has already forced every unknown of pred to zero
        engine = _to_sigma(n, slices, _times(table, e11,
                                             {((lam[0] - 1, lam[1] - 1), 0, None): 1}))
        expected = _display(n, [(lam, 1, 0, None)]
                            + [(kap, 1, 1, (lam, kap)) for kap in kappas])
        check("pieri-lower", lam, engine, expected,
              [("nonneg", (lam, kap)) for kap in kappas])
        nonneg.update((lam, kap) for kap in kappas)

    def upper(tag, lam):
        """tau[1,1]^t * sigma[lam] (t = 2n - lam1) and its deductions."""
        t = 2 * n - lam[0]
        kappas = slices[degree(lam) - 2 * n]
        terms = [(nu, c, d, None) for nu, c, d in collapse_terms(n, lam)]
        for kap in kappas:
            terms += [(nu, -c, d + 1, (lam, kap)) for nu, c, d in shift_terms(n, kap, t)]
        expected = _display(n, terms)
        # sigma[lam] = tau[lam] - sum a(lam, kap) q tau[kap]
        sigma_lam = {(lam, 0, None): 1, **{(kap, 1, (lam, kap)): -1 for kap in kappas}}
        engine = _to_sigma(n, slices, _times(table, powers[t], sigma_lam))
        # a coefficient with no constant and only negative values: its unknowns
        signs = dict.fromkeys(tuple(g) for _, g in sorted_terms(_groups(expected))
                              if None not in g and all(c < 0 for c in g.values()))
        check(tag, lam, engine, expected,
              [("nonpos" if len(k) == 1 else "pair-nonpos",) + k for k in signs])
        nonpos.update(k[0] for k in signs if len(k) == 1)
        pair_sums.setdefault(degree(lam), []).extend(k for k in signs if len(k) == 2)

    # degree 2n: upper bounds via collapsed products, lower bounds via the
    # rule; degrees above 2n by induction
    for d_lam in range(2 * n, max_degree(n) + 1):
        lams = enumerate_degree(n, d_lam)
        if d_lam == 2 * n:
            for lam in lams:
                upper("collapse-upper" if lam[0] >= n + 2 else "near-diagonal-upper", lam)
            for lam in reversed(lams):
                lower(lam)
        else:
            for lam in lams:
                lower(lam)
                upper("pair-upper", lam)
        if not settle_degree(d_lam):
            raise MismatchError("conclusion", f"degree {d_lam} unknowns not all settled")

    # degrees 2n..4n-3 hold every unknown, and each was settled above
    return ReplayReport(n, steps, unknowns, True, CONCLUSION_UNIQUE_ZERO, resolutions)
