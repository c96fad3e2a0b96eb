"""The full multiplication table of the quantum cohomology ring.

The two special classes tau[1,0] and tau[1,1] generate the ring, and their
products are the closed Pieri rules of `pieri`.  Every other product comes
from them by one recursion.  Every class lam != (0,0) has a unitriangular
rule: a special class S and a class pred with

    S * tau[pred] = tau[lam] + sum k q^dd tau[o],

where S and pred are a closed form in lam (`_rule`), and pred and every o
come before lam in one total order on the basis, so the recursion ends.
Hence

    tau[lam] * tau[mu] = S(tau[pred] * tau[mu]) - sum k q^dd tau[o] * tau[mu],

computed on plain ints, and on int codes: a table of N classes codes the
term q^d tau[nu] as d * N + pos(nu), d < `Q`, and keeps one interned (nu, d)
tuple per code.  A table from `lazy_table` stores no products: each is computed
when first asked for, in the coded memo of its column mu, running only the
rules it depends on.  `build_table` fills each column once instead: it runs
the rule of every class of degree <= |mu| in that order, keeps the products
it wants, and drops the column.  Both walks apply one rule step (`_apply`)
and one homogeneity check (`_checked`), which also turns each product's
codes into the table's interned keys: every product is stored once as
{(nu, d): int}, which `product` wraps in `Fraction`s on read.  The lazy walk
looks up the coded Pieri terms, degree and key of a code on first use; the
column fill builds them for every code at once.

`check_commutativity` recomputes every product by a second, independent
algorithm, kept only as that reference: it expresses each class in the
generator monomials tau[1,0]^i tau[1,1]^j by exact Gaussian elimination in
its graded slice, and applies the expansion rules to the other factor, on
coded ints once each expression is scaled by the lcm of its denominators.

The recursion runs on ints (the memo is seeded with 1, the Pieri
coefficients are int literals), so every structure constant is an integer;
every product is checked to be homogeneous when it is computed, and a
violation aborts.  `revalidate_table` recomputes every product of a table
loaded from a cache by the same column fill and compares.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from .algebra import ClassVector, _check_exponent, sorted_terms
from .basis import (Index, check_index, check_ring_rank, classes_in_degrees,
                    degree, enumerate_basis, is_valid, max_degree, top_class)
from .pieri import (_tau1_raw, _tau11_raw, _valid_terms, collapse_terms, power_class,
                    shift_terms)


class GenerationFailure(RuntimeError):
    """A basis class is not in the span of generator monomials."""


class _Memo(dict):
    """A dict that fills a missing key by `fill(key)` on first lookup."""

    def __init__(self, fill):
        self._fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self._fill(key))


# A table of N classes codes the term q^d tau[nu] as the int d * N + pos(nu):
# each (nu, d) has its own code, and times q^dd adds dd * N.  A product
# tau[lam] * tau[mu], and every expansion M1^i M11^j (tau[lam]), i + 2j = |mu|,
# of `check_commutativity`, is homogeneous of degree <= 2(4n-3) = 8n-6; its
# terms q^d tau[nu] have 2nd <= 8n-6 - |nu| < 8n, so d < Q and code < Q * N.
# The lookups by code hold those Q * N codes: one at or past Q * N is refused
# as inhomogeneous where it is looked up.
Q = 4


def _pieri_row(n: int, pos: dict, raw_rule, lam: Index) -> list:
    """For d = 0..Q-1, the valid terms of `raw_rule` at q^d tau[lam], coded:
    ((code, k), ...)."""
    N = len(pos)
    coded = [(dd * N + pos[nu], k) for nu, k, dd in _valid_terms(n, raw_rule, lam)]
    return [tuple([(code + d * N, k) for code, k in coded]) for d in range(Q)]


class _PieriMemo(dict):
    """code -> its coded Pieri terms by `raw_rule`, filled on first lookup
    for the Q codes of the code's class at once; a code at or past Q * N is
    refused."""

    def __init__(self, n: int, basis, pos: dict, raw_rule):
        self._args = (n, pos, raw_rule)
        self._basis = basis

    def __missing__(self, code):
        N = len(self._basis)
        if code >= Q * N:
            raise RuntimeError(f"a product has an inhomogeneous term "
                               f"{self._basis[code % N]}, q^{code // N}")
        p = code % N
        self.update(zip(range(p, Q * N, N), _pieri_row(*self._args, self._basis[p])))
        return self[code]


def _pieri_codes(n: int, basis, pos: dict) -> dict:
    """special -> [the coded Pieri terms of each code], for every code at once."""
    return {special: [terms for row in zip(*(_pieri_row(n, pos, raw, lam) for lam in basis))
                      for terms in row]
            for special, raw in (((1, 0), _tau1_raw), ((1, 1), _tau11_raw))}


class MultiplicationTable:
    """All structure constants for a given rank in the tau basis.

    Products are stored once per unordered pair, keyed by basis position, as
    int dicts {(nu, d): int} whose keys are the table's own interned tuples
    (`_keys`, one per code): `terms` reads one, `product` wraps it in new
    `Fraction`s.  A table from `lazy_table` computes a missing product on
    first request by the Pieri recursion (`_recurse`, which keeps a memo of
    coded terms per column); `build_table` fills every column in one pass
    (`_by_column`, which keeps none); a loaded cache is complete.
    """

    def __init__(self, n: int, basis: list[Index], products: dict):
        self.n = n
        self.basis = basis = tuple(basis)
        self.pos = pos = {lam: i for i, lam in enumerate(basis)}
        self._products = products
        # the lazy walk's lookups, filled per class or code on first use (the
        # column fill builds its own for every code at once)
        self._rules = _Memo(lambda lam: _rule(n, lam))  # class -> its Rule
        self._times = {special: _PieriMemo(n, basis, pos, raw)  # special -> {code: terms}
                       for special, raw in (((1, 0), _tau1_raw), ((1, 1), _tau11_raw))}
        N = len(basis)
        self._degrees = _Memo(lambda code: degree(basis[code % N]) + 2 * n * (code // N))
        self._keys = _Memo(lambda code: (basis[code % N], code // N))  # code -> interned key
        # mu -> {lam: tau[lam]*tau[mu] as {code: int}}, seeded with the unit
        self._columns = _Memo(lambda mu: {(0, 0): {pos[mu]: 1}})

    def _pair(self, lam, mu) -> tuple[Index, Index]:
        pos = self.pos
        try:
            i, j = pos[lam], pos[mu]
        except (KeyError, TypeError):  # not basis tuples: normalise or reject
            lam, mu = check_index(self.n, lam), check_index(self.n, mu)
            i, j = pos[lam], pos[mu]
        return (lam, mu) if i <= j else (mu, lam)

    def _key_list(self) -> list:
        """Every code's interned key, in code order; fills `_keys`."""
        return [self._keys.setdefault(code, key) for code, key in
                enumerate((lam, d) for d in range(Q) for lam in self.basis)]

    def _key_rows(self) -> dict:
        """class -> its interned keys (lam, 0), ..., (lam, Q-1), one for each
        q-exponent a product's term can have."""
        keys, N = self._key_list(), len(self.basis)
        return {lam: tuple(keys[p::N]) for p, lam in enumerate(self.basis)}

    def terms(self, lam, mu) -> dict:
        """tau[lam] * tau[mu] as the stored {(nu, d): int}; do not mutate it."""
        pair = self._pair(lam, mu)
        terms = self._products.get(pair)
        if terms is None:
            terms = self._products[pair] = self._recurse(*pair)
        return terms

    def product(self, lam, mu) -> ClassVector:
        """tau[lam] * tau[mu] as a new ClassVector of `Fraction`s."""
        return ClassVector._wrap(self.n, {k: Fraction(c) for k, c in self.terms(lam, mu).items()})

    def _recurse(self, lam: Index, mu: Index) -> dict:
        """tau[lam] * tau[mu] by the Pieri recursion in column mu, checked to
        be homogeneous and keyed by the interned keys (`_checked`).

        Only lam's rule and the rules it depends on run, each at most once
        per column; a memo entry is stored only once it is complete.
        """
        col = self._columns[mu]
        todo = [lam]
        while todo:  # a loop, not recursion: rule chains grow about 4n deep
            x = todo.pop()
            if x in col:
                continue
            rule = self._rules[x]
            deps = [o for o in (rule.pred, *(o for o, _, _ in rule.others))
                    if o not in col]
            if deps:
                todo += [x, *deps]
                continue
            self._apply(col, x, rule, self._times)
        return self._checked(lam, mu, col[lam], self._degrees, self._keys)

    def _apply(self, col: dict, x: Index, rule: Rule, times: dict):
        """Store tau[x] * tau[mu] as {code: int} in the column col of mu by x's
        rule, S (tau[pred] * tau[mu]) - sum k q^dd tau[o] * tau[mu], reading
        the entries of pred and every o, which col must already hold, and the
        coded Pieri terms `times[S][code]`."""
        acc: dict = {}
        get = acc.get
        times_special = times[rule.special]
        for code, c in col[rule.pred].items():
            for code2, k in times_special[code]:
                acc[code2] = get(code2, 0) + k * c
        for o, k, dd in rule.others:
            shift = dd * len(self.basis)  # times q^dd
            for code, c in col[o].items():
                code += shift
                acc[code] = get(code, 0) - k * c
        col[x] = {code: c for code, c in acc.items() if c}

    def _checked(self, lam: Index, mu: Index, coded: dict, degrees, keys) -> dict:
        """tau[lam] * tau[mu] as {(nu, d): int} from its `coded` terms, each
        keyed by `keys[code]` once it is checked to have the product's degree
        (`degrees[code]`); RuntimeError otherwise."""
        want = degree(lam) + degree(mu)
        terms = {}
        for code, c in coded.items():
            if degrees[code] != want:
                d, p = divmod(code, len(self.basis))
                raise RuntimeError(f"product {lam}*{mu} has an inhomogeneous term "
                                   f"{self.basis[p]}, q^{d}")
            terms[keys[code]] = c
        return terms

    def _by_column(self):
        """(lam, mu, tau[lam] * tau[mu]) for every unordered pair once,
        lam <= mu, column by column, each checked to be homogeneous and keyed
        by the interned keys.

        Each column mu is filled once: from the unit entry, the rule of every
        class of degree <= |mu| runs in rule order (`_rule_key`), so each rule
        finds the entries it reads.  The column is a local dict, dropped once
        its products are yielded; `_columns` is not touched, and the Pieri
        terms, degrees and keys of every code are looked up in lists built
        here.
        """
        n, basis = self.n, self.basis
        times = _pieri_codes(n, basis, self.pos)
        degrees = [degree(lam) + 2 * n * d for d in range(Q) for lam in basis]
        keys = self._key_list()
        order = sorted(basis[1:], key=lambda x: _rule_key(n, x))
        steps = [(x, self._rules[x]) for x in order]
        upto = {0: 0}  # degree d -> the number of steps of degree <= d
        for i, x in enumerate(order, 1):
            upto[degree(x)] = i
        for j, mu in enumerate(basis):
            col = {(0, 0): {j: 1}}
            try:  # a code at or past Q * N is past every list's end
                for x, rule in steps[:upto[degree(mu)]]:
                    self._apply(col, x, rule, times)
                for lam in basis[:j + 1]:
                    yield lam, mu, self._checked(lam, mu, col[lam], degrees, keys)
            except IndexError:
                raise RuntimeError(f"a product in column {mu} has an inhomogeneous "
                                   f"term past q^{Q - 1}") from None

    def pairs(self):
        """Every unordered (lam, mu) pair once, in canonical order."""
        for i, lam in enumerate(self.basis):
            for mu in self.basis[i:]:
                yield lam, mu

    def stored_products(self) -> int:
        return len(self._products)


def _expansion(times: dict, code: int) -> _Memo:
    """{mon: M1^i(M11^j(the term `code`)) as {code: int}} by the coded Pieri
    terms `times` = `_pieri_codes(n, basis, pos)`."""
    def expand(mon: tuple[int, int]) -> dict:
        i, j = mon
        terms, prev = (times[(1, 0)], (i - 1, j)) if i else (times[(1, 1)], (0, j - 1))
        acc: dict = {}
        try:  # a code at or past Q * N is past the lists' end
            for c0, c in memo[prev].items():
                for code2, k in terms[c0]:
                    acc[code2] = acc.get(code2, 0) + c * k
        except IndexError:
            raise RuntimeError(f"an expansion {mon} has an inhomogeneous term past "
                               f"q^{Q - 1}") from None
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


Rule = namedtuple("Rule", "special pred others")
# tau[special] * tau[pred] = tau[lam] + sum k q^dd tau[o] over (o, k, dd) in others


def _rule_key(n: int, lam: Index) -> tuple[int, int]:
    """The total order rules resolve in: (|lam|, lam1), lam1 descending in
    degree 2n-1."""
    d = degree(lam)
    return (d, -lam[0] if d == 2 * n - 1 else lam[0])


def _rule(n: int, lam: Index) -> Rule:
    """The unitriangular Pieri rule of a class lam != (0,0), by its case:

      lam2 = 0, 1 <= lam1 <= 2n-3   tau[1,0] * tau[lam1-1, 0]
      lam = (2n-1, 0)               tau[1,0] * tau[2n-1, -1]
      |lam| = 2n-2, k = lam1 - n:
        lam2 = -1, or k >= 2 even   tau[1,0] * tau[lam1-2, lam2+1]
        otherwise                   tau[1,1] * tau[lam1-2, lam2]
      every other class             tau[1,1] * tau[lam1-1, lam2-1]

    `others` is the rest of that Pieri expansion.  Raises `GenerationFailure`
    unless pred is a class, lam has coefficient 1 at q^0, and pred and every
    other term come before lam in the order `_rule_key`; so every chain of
    rules ends, and running the rules in that order finds each term computed.
    """
    l1, l2 = lam
    if l2 == 0 and 1 <= l1 <= 2 * n - 3:
        special, pred = (1, 0), (l1 - 1, 0)
    elif lam == (2 * n - 1, 0):
        special, pred = (1, 0), (2 * n - 1, -1)
    elif l1 + l2 == 2 * n - 2 and (l2 == -1 or l1 - n >= 2 and (l1 - n) % 2 == 0):
        special, pred = (1, 0), (l1 - 2, l2 + 1)
    elif l1 + l2 == 2 * n - 2:
        special, pred = (1, 1), (l1 - 2, l2)
    else:
        special, pred = (1, 1), (l1 - 1, l2 - 1)
    terms = _valid_terms(n, _tau1_raw if special == (1, 0) else _tau11_raw, pred)
    if not is_valid(n, pred) or (lam, 1, 0) not in terms:
        raise GenerationFailure(f"class {lam} (rank {n}) has no unitriangular Pieri rule")
    others = tuple(t for t in terms if t[0] != lam)
    key = _rule_key(n, lam)
    for o in (pred, *(o for o, _, _ in others)):
        if _rule_key(n, o) >= key:
            raise GenerationFailure(f"the rule of class {lam} (rank {n}) depends on {o}, "
                                    f"which does not come before it")
    return Rule(special, pred, others)


def lazy_table(n: int) -> MultiplicationTable:
    """The multiplication table for rank n (3 <= n <= MAX_RING_RANK), products on demand.

    Only the basis is built here.  Each product is computed by the Pieri
    recursion when first asked for, and kept; a class without a rule raises
    `GenerationFailure` when a product first needs it.
    """
    check_ring_rank(n)
    return MultiplicationTable(n, enumerate_basis(n), {})


def build_table(n: int) -> MultiplicationTable:
    """The complete multiplication table for rank n (3 <= n <= MAX_RING_RANK).

    `lazy_table(n)` with every column filled in one pass of the rules, the
    walk `revalidate_table` shares; each product is stored keyed by the
    table's interned keys, and no column memo is kept.
    """
    table = lazy_table(n)
    for lam, mu, terms in table._by_column():
        table._products[(lam, mu)] = terms
    return table


def revalidate_table(table: MultiplicationTable):
    """Recompute every product of a loaded table by its own Pieri recursion,
    one column fill at a time on ints as `build_table` fills them, and compare
    each exactly with the stored one; ValueError at the first that differs."""
    stored = table._products
    for lam, mu, terms in table._by_column():
        if stored.get((lam, mu)) != terms:
            raise ValueError(f"cached product {lam}*{mu} disagrees with the "
                             f"Pieri recursion")


def multiply(table: MultiplicationTable, x: ClassVector, y: ClassVector) -> ClassVector:
    """Bilinear extension of the table; q-coefficients multiply through."""
    if x.n != table.n or y.n != table.n:
        raise ValueError("rank mismatch between table and operands")
    acc: dict = {}
    for (nu1, d1), c1 in x.flat.items():
        for (nu2, d2), c2 in y.flat.items():
            c12 = c1 * c2
            for (nu, d), c in table.terms(nu1, nu2).items():
                key = (nu, d + d1 + d2)
                acc[key] = acc.get(key, Fraction(0)) + c12 * c
    return ClassVector._wrap(table.n, {k: v for k, v in acc.items() if v})


def gw_constant(table: MultiplicationTable, lam, mu, nu, d: int) -> Fraction:
    """The coefficient of q^d tau[nu] in tau[lam] * tau[mu]; may be negative.
    ValueError unless d is a nonnegative int (not a bool)."""
    _check_exponent(d)
    terms = table.terms(lam, mu)
    nu = tuple(nu)
    if nu not in table.pos:
        nu = check_index(table.n, nu)
    return Fraction(terms.get((nu, d), 0))


def poincare_pairing(table: MultiplicationTable, lam, mu) -> Fraction:
    """Coefficient of the top class in the classical part of tau[lam] * tau[mu]."""
    return Fraction(table.terms(lam, mu).get((top_class(table.n), 0), 0))


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


def diagonal_power(table: MultiplicationTable, t: int) -> ClassVector:
    """The t-fold product of tau[1,1] with itself (t >= 0)."""
    out = ClassVector.basis(table.n, (0, 0))
    e11 = ClassVector.basis(table.n, (1, 1))
    for _ in range(t):
        out = multiply(table, out, e11)
    return out


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
    # the stored keys' codes; a key no code names (q^d, d >= Q) reads as -1,
    # which no expansion holds
    codes = {key: code for code, key in enumerate(table._key_list())}
    bad = []
    for lam in basis:
        expand = _expansion(times, pos[lam])
        for mu in basis[pos[lam]:]:
            coded = {codes.get(key, -1): c for key, c in table.terms(lam, mu).items()}
            if _differs(scaled[mu], expand, coded):
                bad.append((lam, mu))
    return bad
