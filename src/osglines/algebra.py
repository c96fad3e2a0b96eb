"""Exact coefficient arithmetic: class vectors and affine forms.

A `ClassVector` is one flat map {(index, q-exponent): coefficient}, the same
shape the ring builds its products in, so a product is wrapped without being
copied or regrouped.  It is the only polynomial in q in the package: the
q-coefficient of a class is the slice of the map at that class's index.
`ClassVector.write` is the one walk that writes a vector's terms as text; a
vector's repr is the CLI's text form, an expression when its first term is
positive (the expression grammar has no unary minus).

Everything is exact: a class vector's coefficients are rationals
(`fractions.Fraction`), and an affine form keeps each integral value as an
int and any other as a `Fraction`.  There is no floating point anywhere;
`format_rational` writes an exact number as the "p" or "p/q" string that
the JSON documents and the CLI's output use.
An `AffineExpression` is a record, not a number: it is the row type of route
A's constraint systems and of the certificate reader, and it is never a
coefficient of a class vector.
"""
from __future__ import annotations

from fractions import Fraction

from .basis import Index, check_index, index_pair, index_sort_key, is_valid


def as_coeff(x):
    """Coerce an int or a Fraction to a Fraction coefficient."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact coefficient: {x!r}")


def exact(x):
    """x as an int when it is integral, else as a Fraction.

    Only ints and Fractions are exact numbers: a float, a bool or anything
    else raises TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact number: {x!r}")


def format_rational(x) -> str:
    """An int or a Fraction as "p", or as "p/q" when it is not integral."""
    return str(exact(x))


def _check_exponent(d):
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValueError(f"q-exponent must be a nonnegative integer, got {d!r}")


class AffineExpression:
    """constant + sum of rational multiples of named unknowns.

    The constant and the linear values are kept as `exact` numbers: ints where
    integral, Fractions otherwise.
    """

    __slots__ = ("constant", "linear")

    def __init__(self, constant=0, linear=None):
        self.constant = exact(constant)
        lin = {}
        for key, val in (linear or {}).items():
            val = exact(val)
            if val:
                lin[key] = val
        self.linear = lin

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineExpression):
            return NotImplemented
        return self.constant == other.constant and self.linear == other.linear

    def evaluate(self, assignment):
        """The exact value at `assignment` ({key: int or Fraction}, missing keys 0)."""
        total = self.constant
        for k, v in self.linear.items():
            total += v * exact(assignment.get(k, 0))
        return total


def sorted_terms(flat: dict) -> list:
    """The ((index, q-exponent), coefficient) items of a flat map in canonical order."""
    return sorted(flat.items(), key=lambda kv: (index_sort_key(kv[0][0]), kv[0][1]))


class ClassVector:
    """Finitely supported combination of basis classes times powers of q.

    Stored as one flat dict `flat` mapping (index, q-exponent) to a nonzero
    coefficient; treat it as read-only.  The constructor takes {index: value},
    the value a {q-exponent: coefficient} dict or a bare coefficient (a
    constant), and validates indices, exponents and coefficients; keys that
    name the same index are summed and zero coefficients are dropped.
    """

    __slots__ = ("n", "flat")

    def __init__(self, n: int, terms=None):
        flat = {}
        for lam, value in (terms or {}).items():
            lam = check_index(n, lam)
            for d, c in (value.items() if isinstance(value, dict) else ((0, value),)):
                _check_exponent(d)
                c = as_coeff(c)
                key = (lam, d)
                if key in flat:
                    c += flat.pop(key)
                if c:
                    flat[key] = c
        self.n = n
        self.flat = flat

    @classmethod
    def _wrap(cls, n: int, flat: dict) -> "ClassVector":
        """Wrap `flat` as it is, without copying or checking it.

        Only for dicts whose every index passed `is_valid(n, index)`, whose
        exponents are nonnegative integers and whose coefficients are nonzero
        exact coefficients; the vector takes ownership of the dict.
        """
        vec = cls.__new__(cls)
        vec.n = n
        vec.flat = flat
        return vec

    @classmethod
    def zero(cls, n: int) -> "ClassVector":
        return cls(n)

    @classmethod
    def basis(cls, n: int, lam: Index, d: int = 0, coeff=1) -> "ClassVector":
        _check_exponent(d)
        coeff = as_coeff(coeff)
        key = (check_index(n, lam), d)
        return cls._wrap(n, {key: coeff} if coeff else {})

    @classmethod
    def from_terms(cls, n: int, terms) -> "ClassVector":
        """Build from (index, coefficient, q-exponent) triples.

        Index pairs outside the valid set contribute nothing; the expansion
        formulas rely on this zero convention.  A component that is not an
        int is refused as by `check_index`.
        """
        acc: dict = {}
        for lam, coeff, d in terms:
            lam = index_pair(n, lam)
            if not is_valid(n, lam):
                continue
            _check_exponent(d)
            key = (lam, d)
            acc[key] = acc.get(key, Fraction(0)) + as_coeff(coeff)
        return cls._wrap(n, {k: v for k, v in acc.items() if v})

    def flat_items(self):
        """(index, q-exponent, coefficient) triples in canonical order."""
        for (lam, d), c in sorted_terms(self.flat):
            yield lam, d, c

    def coefficient(self, lam, d: int):
        return self.flat.get((tuple(lam), d), Fraction(0))

    def __bool__(self):
        return bool(self.flat)

    def __eq__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        return self.n == other.n and self.flat == other.flat

    def _check_rank(self, other: "ClassVector"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        self._check_rank(other)
        flat = dict(self.flat)
        for key, c in other.flat.items():
            flat[key] = flat.get(key, Fraction(0)) + c
        return ClassVector._wrap(self.n, {k: c for k, c in flat.items() if c})

    def __neg__(self):
        return ClassVector._wrap(self.n, {k: -c for k, c in self.flat.items()})

    def __sub__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "ClassVector":
        coeff = as_coeff(coeff)
        scaled = {k: c * coeff for k, c in self.flat.items()}
        return ClassVector._wrap(self.n, {k: c for k, c in scaled.items() if c})

    def write(self, coeff, q, cls) -> str:
        """The terms in canonical order as one signed sum, "0" when there are none.

        `coeff(m)` writes a magnitude m != 1, `q(d)` the power q^d for d >= 1
        and `cls(index)` the class; a term is their concatenation.  A negative
        first term is led by "-", and later terms are joined by " + " or " - ".
        """
        parts = []
        for lam, d, c in self.flat_items():
            mag = abs(c)
            lead = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(lead + (coeff(mag) if mag != 1 else "") + (q(d) if d else "") + cls(lam))
        return " ".join(parts) or "0"

    def __repr__(self):
        """The text form of the CLI: `-2*q^2*tau[0,0] + 1/2*tau[2,1]`."""
        return self.write(lambda m: f"{m}*", lambda d: "q*" if d == 1 else f"q^{d}*",
                          lambda lam: f"tau[{lam[0]},{lam[1]}]")
