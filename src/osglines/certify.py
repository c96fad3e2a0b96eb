"""Route A: the search for a certificate of uniqueness, one rank at a time.

`certify_uniqueness` searches for the weights of a `proof.Certificate`.
Sign propagation with Farkas weights chains single rows: once every other
term of a row is known to be <= 0, the row bounds its last unknown.  Exact
Fourier-Motzkin elimination settles any unknown left open; it too runs on
the stored rows, keyed by unknown, and adds to each only its combination.
Every constraint has at most two unknowns with coefficients +-1, and at
n = 3..80 propagation alone settles every unknown.  Route B, the replay of
the argument, is `replay`; the two routes share no code.
"""
from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .basis import CONCLUSION_NOT_UNIQUE, CONCLUSION_UNIQUE_ZERO
from .proof import BoundProof, Certificate, ConstraintSystem

DEFAULT_ROW_LIMIT = 200_000


class ResourceLimitError(RuntimeError):
    """The constraint count or an elimination exceeded the working-row ceiling."""


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination with combination tracking, on the system's rows


# FM's working row: lin . a + const >= 0, lin {unknown key: int or Fraction}
# with no zeros, and combo {original constraint index: positive weight}
_Row = namedtuple("_Row", "lin const combo")


def _rows_from_system(system: ConstraintSystem):
    """Each stored row as a `_Row`, sharing its `linear` dict: FM makes new
    rows and never writes to one."""
    return [_Row(e.linear, e.constant, {i: 1}) for i, e in enumerate(system.constraints)]


def _combine(pr: _Row, nr: _Row, var) -> _Row:
    w_pos = -nr.lin[var]        # > 0
    w_neg = pr.lin[var]         # > 0
    lin = {}
    for k, v in pr.lin.items():
        lin[k] = w_pos * v
    for k, v in nr.lin.items():
        lin[k] = lin.get(k, 0) + w_neg * v
    lin = {k: v for k, v in lin.items() if k != var and v}
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
        key = frozenset((k, Fraction(v, s)) for k, v in r.lin.items())
        c = Fraction(r.const, s)
        kept = best.get(key)
        if kept is None or c < kept[0]:
            best[key] = (c, r)
    return [r for _, r in best.values()]


def _eliminate(rows, var, limit: int):
    pos, neg, rest = [], [], []
    for r in rows:
        c = r.lin.get(var)
        if not c:
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


def _project_onto(rows, keep, limit: int):
    """Eliminate every unknown except `keep`, cheapest-looking first.

    Returns the projected rows and the largest working set seen.
    """
    rows = _prune(rows)
    peak = len(rows)
    while True:
        counts = {}                     # unknown -> [rows with c > 0, rows with c < 0]
        for r in rows:
            for k, c in r.lin.items():
                if k != keep:
                    counts.setdefault(k, [0, 0])[c < 0] += 1
        if not counts:
            return rows, peak
        var = min(counts, key=lambda k: (counts[k][0] * counts[k][1], k))
        rows = _eliminate(rows, var, limit)
        peak = max(peak, len(rows))


def _interval(rows, var):
    """Exact feasible interval of one unknown from its projected rows.

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


def _bound(key, direction: str, combo: dict, divisor=1) -> BoundProof:
    """The bound on `key` with weights `combo` / `divisor`, where `combo` (all
    positive) sums the rows to `divisor` times the claimed inequality."""
    if divisor != 1:
        combo = {i: Fraction(w, divisor) for i, w in combo.items()}
    return BoundProof(key, direction, tuple(sorted(combo.items())))


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
    bounds = []
    peak = len(system.constraints)
    fm_unknowns = 0
    base = None                         # FM's rows, built for the first open unknown
    free = None                         # the first unknown not pinned to zero
    for key in system.unknowns:
        if (key, 1) in facts and (key, -1) in facts:
            bounds.append(_bound(key, "lower", facts.pop((key, 1))))
            bounds.append(_bound(key, "upper", facts.pop((key, -1))))
            continue
        fm_unknowns += 1
        base = _rows_from_system(system) if base is None else base
        rows, rows_peak = _project_onto(base, key, max_rows)
        peak = max(peak, rows_peak)
        lo, hi, lo_row, hi_row = _interval(rows, key)
        if lo == 0 and hi == 0:
            bounds.append(_bound(key, "lower", lo_row.combo, lo_row.lin[key]))
            bounds.append(_bound(key, "upper", hi_row.combo, -hi_row.lin[key]))
        elif free is None:
            free = key
    nvars = len(system.unknowns)
    stats = {"unknowns": nvars, "constraints": len(system.constraints),
             "peak_working_rows": peak,
             "propagated_unknowns": nvars - fm_unknowns,
             "fm_unknowns": fm_unknowns}
    if free is None:
        return Certificate(system.n, system.mode, CONCLUSION_UNIQUE_ZERO,
                           system.unknowns, tuple(bounds), None, stats)
    witness = _find_witness(system, base, free, max_rows)
    return Certificate(system.n, system.mode, CONCLUSION_NOT_UNIQUE,
                       system.unknowns, (), witness, stats)


def _substitute(rows, var, value):
    out = []
    for r in rows:
        c = r.lin.get(var)
        if not c:
            out.append(r)
            continue
        lin = {k: v for k, v in r.lin.items() if k != var}
        out.append(_Row(lin, r.const + c * value, r.combo))
    return out


def _find_witness(system: ConstraintSystem, rows, free, max_rows: int) -> dict:
    """A nonzero feasible assignment, by back-substitution on FM's working
    rows, starting from `free`, an unknown not pinned to zero."""
    assignment = {}
    for key in [free] + [k for k in system.unknowns if k != free]:
        lo, hi, _, _ = _interval(_project_onto(rows, key, max_rows)[0], key)
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
        rows = _prune(_substitute(rows, key, value))
    return assignment
