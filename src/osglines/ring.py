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

The recursion runs on ints (the memo is seeded with 1, the Pieri
coefficients are int literals), so every structure constant is an integer;
every product is checked to be homogeneous when it is computed, and a
violation aborts.  `revalidate_table` recomputes every product of a table
loaded from a cache by the same column fill and compares; `suites` checks it.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import ClassVector, _check_exponent
from .basis import (Index, check_index, check_ring_rank, degree, enumerate_basis, is_valid,
                    top_class)
from .pieri import _tau1_raw, _tau11_raw, _valid_terms


class GenerationFailure(RuntimeError):
    """A basis class is not in the span of generator monomials."""


class _Memo(dict):
    """A dict that fills a missing key by `fill(key)` on first lookup."""

    def __init__(self, fill):
        self._fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self._fill(key))


# A table of N classes codes the term q^d tau[nu] as the int d * N + pos(nu):
# each (nu, d) has its own code, and times q^dd adds dd * N.  Every Pieri term
# has the degree of its product (`pieri._valid_terms` refuses any other), so a
# product tau[lam] * tau[mu], each entry of a column the recursion fills, and
# every expansion M1^i M11^j (tau[lam]), i + 2j = |mu|, of the reference in
# `suites` is homogeneous of degree <= 2(4n-3) = 8n-6; its terms q^d tau[nu]
# have 2nd <= 8n-6 - |nu| < 8n, so d < Q and code < Q * N.  The lookups by
# code hold those Q * N codes, and a cache term at q^Q or past is refused.
Q = 4


def _pieri_row(n: int, pos: dict, special: Index, raw_rule, lam: Index) -> list:
    """For d = 0..Q-1, the valid terms of `raw_rule`, the rule of
    tau[special], at q^d tau[lam], coded: ((code, k), ...)."""
    N = len(pos)
    coded = [(dd * N + pos[nu], k) for nu, k, dd in _valid_terms(n, special, raw_rule, lam)]
    return [tuple([(code + d * N, k) for code, k in coded]) for d in range(Q)]


class _PieriMemo(dict):
    """code -> its coded Pieri terms by `raw_rule`, filled on first lookup
    for the Q codes of the code's class at once."""

    def __init__(self, n: int, basis, pos: dict, special: Index, raw_rule):
        self._args = (n, pos, special, raw_rule)
        self._basis = basis

    def __missing__(self, code):
        N = len(self._basis)
        p = code % N
        row = _pieri_row(*self._args, self._basis[p])
        self.update(zip(range(p, Q * N, N), row))
        return row[code // N]


def _pieri_codes(n: int, basis, pos: dict) -> dict:
    """special -> [the coded Pieri terms of each code], for every code at once."""
    return {special: [terms for row in zip(*(_pieri_row(n, pos, special, raw, lam)
                                             for lam in basis))
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
        self._times = {special: _PieriMemo(n, basis, pos, special, raw)  # special -> {code: terms}
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
            for x, rule in steps[:upto[degree(mu)]]:
                self._apply(col, x, rule, times)
            for lam in basis[:j + 1]:
                yield lam, mu, self._checked(lam, mu, col[lam], degrees, keys)

    def pairs(self):
        """Every unordered (lam, mu) pair once, in canonical order."""
        for i, lam in enumerate(self.basis):
            for mu in self.basis[i:]:
                yield lam, mu

    def stored_products(self) -> int:
        return len(self._products)


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
    terms = _valid_terms(n, special, _tau1_raw if special == (1, 0) else _tau11_raw, pred)
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


def diagonal_power(table: MultiplicationTable, t: int) -> ClassVector:
    """The t-fold product of tau[1,1] with itself (t >= 0)."""
    out = ClassVector.basis(table.n, (0, 0))
    e11 = ClassVector.basis(table.n, (1, 1))
    for _ in range(t):
        out = multiply(table, out, e11)
    return out
