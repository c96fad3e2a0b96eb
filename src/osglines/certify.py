"""The search for the certificate, and a second, structured proof.

Two independent routes establish, for one rank at a time, that the positivity
condition on products with sigma[1,1] forces every deformation coefficient to
zero.

Route A (`certify_uniqueness`) searches for the weights of a certificate;
`proof` holds the records, the rows and the check, re-exported here.  Sign
propagation with Farkas weights chains single rows: once every other term
of a row is known to be <= 0, the row bounds its last unknown.  Exact
Fourier-Motzkin elimination, on rows it copies only when it runs, settles
any unknown left open.  Every constraint has at most two unknowns with
coefficients +-1, and at n = 3..8 propagation alone settles every unknown.

Route B (`replay_proof`) follows the structure of the uniqueness argument:
multiply sigma[lam] by the matching power of sigma[1,1] so that everything
collapses into the quantum range, compare the engine's expansion (affine
in the unknowns) with the closed-form display it is supposed to equal
(built from the collapse and shift identities stated in `pieri`), and read
the sign deductions off that display.  Degree 2n classes are settled first, higher
degrees by induction: the Pieri-lower step multiplies sigma[1,1] by
sigma[pred] = tau[pred], since pred lies below degree 2n or in a degree
already settled.
Every displayed identity is checked termwise; a discrepancy raises
`MismatchError` naming the step and the first coefficient that differs.

The two routes share no arithmetic.  Route A's rows read no table product;
route B reads only the table's int products and keeps each vector as one
int dict, split by unknown, where a quadratic term would raise
`QuadraticTermError` and is treated as a bug, never ignored.
"""
from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .algebra import sorted_terms
from .basis import degree, enumerate_degree, is_valid, max_degree, pair_keys
from .pieri import collapse_terms, power_class, shift_terms
# build_constraints and verify_certificate are only re-exported: certify.X is proof.X
from .proof import (CONCLUSION_NOT_UNIQUE, CONCLUSION_UNIQUE_ZERO, BoundProof, Certificate,
                    ConstraintSystem, build_constraints, verify_certificate)

TYPE_CHECKING = False  # the table only annotates; importing `ring` would load it
if TYPE_CHECKING:
    from .ring import MultiplicationTable

DEFAULT_ROW_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """The constraint count or an elimination exceeded the working-row ceiling."""


class QuadraticTermError(ArithmeticError):
    """Route B met a product of two terms that both carry unknowns."""


class MismatchError(RuntimeError):
    """An engine expansion differs from the closed-form display it replays."""

    def __init__(self, step: str, detail: str):
        super().__init__(f"{step}: {detail}")
        self.step = step


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination with combination tracking, on rows built when it runs


class _Row:
    """FM's working row: lin . a + const >= 0, plus its combination of originals."""

    __slots__ = ("lin", "const", "combo")

    def __init__(self, lin, const, combo):
        self.lin = lin          # {unknown position: int or Fraction}, no zeros
        self.const = const
        self.combo = combo      # {original constraint index: positive int or Fraction}


def _rows_from_system(system: ConstraintSystem):
    pos = {k: i for i, k in enumerate(system.unknowns)}
    rows = []
    for idx, expr in enumerate(system.constraints):
        lin = {pos[k]: v for k, v in expr.linear.items()}
        rows.append(_Row(lin, expr.constant, {idx: 1}))
    return rows


def _combine(pr: _Row, nr: _Row, var: int) -> _Row:
    w_pos = -nr.lin[var]        # > 0
    w_neg = pr.lin[var]         # > 0
    lin = {}
    for p, v in pr.lin.items():
        lin[p] = w_pos * v
    for p, v in nr.lin.items():
        lin[p] = lin.get(p, 0) + w_neg * v
    lin = {p: v for p, v in lin.items() if p != var and v}
    const = w_pos * pr.const + w_neg * nr.const
    combo = {i: w_pos * w for i, w in pr.combo.items()}
    for i, w in nr.combo.items():
        combo[i] = combo.get(i, 0) + w_neg * w
    return _Row(lin, const, combo)


def _prune(rows):
    """Drop satisfied constants, positive multiples, and dominated duplicates."""
    best = {}
    for r in rows:
        if not r.lin:
            if r.const < 0:
                raise ValueError("constraint system is infeasible")
            continue
        lead = min(r.lin)
        s = abs(r.lin[lead])
        key = tuple(sorted((p, Fraction(v, s)) for p, v in r.lin.items()))
        c = Fraction(r.const, s)
        kept = best.get(key)
        if kept is None or c < kept[0]:
            best[key] = (c, r)
    return [r for _, r in best.values()]


def _eliminate(rows, var: int, limit: int):
    pos, neg, rest = [], [], []
    for r in rows:
        c = r.lin.get(var)
        if c is None or not c:
            rest.append(r)
        elif c > 0:
            pos.append(r)
        else:
            neg.append(r)
    if len(rest) + len(pos) * len(neg) > limit:
        raise ResourceLimitError(
            f"elimination would exceed {limit} intermediate constraints "
            f"({len(pos)}x{len(neg)} products); raise the ceiling to proceed")
    out = rest + [_combine(p, n, var) for p in pos for n in neg]
    return _prune(out)


def _project_onto(rows, keep: int, limit: int, peak=None):
    """Eliminate every variable except `keep`, cheapest-looking first.

    `peak`, when given, is a one-element list recording the largest working
    set seen across eliminations.
    """
    rows = _prune(rows)
    remaining = set()
    for r in rows:
        remaining.update(r.lin)
    remaining.discard(keep)
    while remaining:
        counts = {v: [0, 0] for v in remaining}
        for r in rows:
            for v in r.lin:
                if v in counts:
                    counts[v][r.lin[v] < 0] += 1
        var = min(remaining, key=lambda v: (counts[v][0] * counts[v][1], v))
        rows = _eliminate(rows, var, limit)
        if peak is not None:
            peak[0] = max(peak[0], len(rows))
        remaining = set()
        for r in rows:
            remaining.update(r.lin)
        remaining.discard(keep)
    return rows


def _interval(rows, var: int):
    """Exact feasible interval of one variable from its projected rows.

    Returns (lo, hi, lo_row, hi_row); None stands for an unbounded side.
    """
    lo = hi = lo_row = hi_row = None
    for r in rows:
        c = r.lin.get(var)
        if not c:
            continue
        if c > 0:
            bound = Fraction(-r.const, c)
            if lo is None or bound > lo:
                lo, lo_row = bound, r
        else:
            bound = Fraction(r.const, -c)
            if hi is None or bound < hi:
                hi, hi_row = bound, r
    return lo, hi, lo_row, hi_row


# ---------------------------------------------------------------------------
# Sign propagation with Farkas weights


def _nonpos(key, c) -> tuple:
    """The sign fact that makes the term c * a_key nonpositive."""
    return (key, -1 if c > 0 else 1)


def _propagate(constraints):
    """Every sign fact reachable by chaining single rows, with its weights.

    A fact s * a >= 0 (one unknown a, sign s) follows from a row with
    constant 0 once all its other terms are known to be <= 0: for
    c * a + sum c_j a_j >= 0 and c_j a_j <= 0 the row gives sign(c) * a >= 0.
    The fact's weights are the row itself plus |c_j| times the stored
    weights of each fact used, all divided by |c|, so they sum literally to
    s * a.  Rows wait, indexed by the facts they lack, and fire when at most
    one is missing; first in, first out, so each fact gets a shallow proof.
    Returns {(unknown key, sign): combination}; the rows are read as stored.

    The derivations hold on the feasible set; they certify anything only if
    that set is nonempty, which the caller has to establish.
    """
    facts = {}
    missing = [len(e.linear) for e in constraints]  # terms not yet known <= 0
    waiting = {}                                    # fact -> rows lacking it
    live = [i for i, e in enumerate(constraints) if not e.constant]
    for i in live:
        for k, c in constraints[i].linear.items():
            waiting.setdefault(_nonpos(k, c), []).append(i)
    queue = deque(i for i in live if missing[i] <= 1)
    while queue:
        idx = queue.popleft()
        lin = constraints[idx].linear
        for k, c in lin.items():
            fact = _nonpos(k, -c)                   # c * a_k >= 0
            others = [(q, v) for q, v in lin.items() if q != k]
            if fact in facts or any(_nonpos(q, v) not in facts for q, v in others):
                continue
            combo = {idx: 1}
            for q, v in others:
                for i, w in facts[_nonpos(q, v)].items():
                    combo[i] = combo.get(i, 0) + abs(v) * w
            if abs(c) != 1:
                scale = Fraction(1, abs(c))
                combo = {i: w * scale for i, w in combo.items()}
            facts[fact] = combo
            for i in waiting.get(fact, ()):
                missing[i] -= 1
                if missing[i] <= 1:
                    queue.append(i)
    return facts


def _scaled_weights(combo, scale=1):
    return tuple(sorted((i, w * scale) for i, w in combo.items() if w * scale))


def certify_uniqueness(system: ConstraintSystem,
                       max_rows: int = DEFAULT_ROW_LIMIT) -> Certificate:
    """Decide whether the feasible set of the system is exactly the origin.

    Sign propagation (`_propagate`) settles every unknown it can, carrying
    the Farkas weights of each deduction.  Any unknown it leaves open gets
    its exact feasible interval by eliminating all other unknowns
    (Fourier-Motzkin).  The conclusion is UniqueZero iff every unknown is
    pinned to [0, 0]; the two weight lists per unknown form the certificate.
    """
    return _certify(system, max_rows, propagate=True)


def _certify(system: ConstraintSystem, max_rows: int, propagate: bool) -> Certificate:
    """`certify_uniqueness`, or with `propagate=False` the pure-FM decision."""
    if len(system.constraints) > max_rows:
        raise ResourceLimitError(
            f"{len(system.constraints)} constraints exceed the ceiling of "
            f"{max_rows} working rows; raise the ceiling to proceed")
    facts = {}
    # with the origin feasible the feasible set is nonempty, so a derived
    # fact is a real bound; otherwise FM decides, reporting infeasibility
    if propagate and all(e.constant >= 0 for e in system.constraints):
        facts = _propagate(system.constraints)
    intervals = {}
    bounds = []
    peak = [len(system.constraints)]
    fm_unknowns = 0
    base = None                         # FM's rows, built for the first open unknown
    for k, key in enumerate(system.unknowns):
        if (key, 1) in facts and (key, -1) in facts:
            intervals[key] = (0, 0)
            bounds.append(BoundProof(key, "lower", _scaled_weights(facts[(key, 1)])))
            bounds.append(BoundProof(key, "upper", _scaled_weights(facts[(key, -1)])))
            continue
        fm_unknowns += 1
        base = _rows_from_system(system) if base is None else base
        rows = _project_onto(list(base), k, max_rows, peak)
        lo, hi, lo_row, hi_row = _interval(rows, k)
        intervals[key] = (lo, hi)
        if lo == 0 and hi == 0:
            bounds.append(BoundProof(key, "lower", _scaled_weights(
                lo_row.combo, Fraction(1, lo_row.lin[k]))))
            bounds.append(BoundProof(key, "upper", _scaled_weights(
                hi_row.combo, Fraction(1, -hi_row.lin[k]))))
    nvars = len(system.unknowns)
    stats = {"unknowns": nvars, "constraints": len(system.constraints),
             "peak_working_rows": peak[0],
             "propagated_unknowns": nvars - fm_unknowns,
             "fm_unknowns": fm_unknowns}
    if all(iv == (0, 0) for iv in intervals.values()):
        return Certificate(system.n, system.mode, CONCLUSION_UNIQUE_ZERO,
                           system.unknowns, tuple(bounds), None, stats)
    witness = _find_witness(system, base, intervals, max_rows)
    return Certificate(system.n, system.mode, CONCLUSION_NOT_UNIQUE,
                       system.unknowns, (), witness, stats)


def _substitute(rows, var: int, value):
    out = []
    for r in rows:
        c = r.lin.get(var)
        if c is None or not c:
            out.append(r)
            continue
        lin = {p: v for p, v in r.lin.items() if p != var}
        out.append(_Row(lin, r.const + c * value, r.combo))
    return out


def _find_witness(system: ConstraintSystem, rows, intervals, max_rows: int) -> dict:
    """A nonzero feasible assignment, by back-substitution on FM's working rows."""
    free = next(k for k, iv in intervals.items() if iv != (0, 0))
    order = [free] + [k for k in system.unknowns if k != free]
    pos = {k: i for i, k in enumerate(system.unknowns)}
    assignment = {}
    for key in order:
        p = pos[key]
        projected = _project_onto(list(rows), p, max_rows)
        lo, hi, _, _ = _interval(projected, p)
        if hi is not None and hi != 0:
            value = hi
        elif lo is not None and lo != 0:
            value = lo
        elif hi is None:
            value = max(lo if lo is not None else 0, 0) + 1
        elif lo is None:
            value = min(hi, 0) - 1
        else:
            value = 0
        assignment[key] = value
        rows = _prune(_substitute(rows, p, value))
    return assignment


# ---------------------------------------------------------------------------
# Route B: structured replay of the uniqueness argument
#
# Route B keeps its own arithmetic, on ints.  A vector is one int dict
# {(nu, d, u): int}: the coefficient of q^d at the class nu, split by
# unknown, with u None for the constant part and the key (lam, kap) of the
# unknown a(lam, kap) otherwise; zeros are dropped.  Everything the replay
# multiplies is linear in the unknowns, so this is exact, and a product that
# would not be raises QuadraticTermError.


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
    a' >= 0) and the conclusion records whether every unknown is forced to
    zero.
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

    all_zero = all(k in zeroed for k in unknowns)
    conclusion = CONCLUSION_UNIQUE_ZERO if all_zero else CONCLUSION_NOT_UNIQUE
    return ReplayReport(n, steps, unknowns, all_zero, conclusion, resolutions)
