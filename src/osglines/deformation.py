"""Candidate deformations of the basis and the positivity check on them.

A deformation replaces each basis class tau[lam] by

    tau[lam] = sigma[lam] + sum over mu with |mu| + 2n = |lam| of  a * q * sigma[mu],

so classes of degree below 2n are untouched and the correction classes mu are
themselves undeformed (their degree is at most 2n-3).  The grading admits no
deeper corrections: the top degree 4n-3 is below twice the q-weight 4n, so a
q^2 correction would need a correction class of negative degree.

Two indexing modes for the coefficients are supported (`basis.MODES`):

  per-pair  one coefficient per (lam, mu) pair -- the general reading;
  per-mu    one coefficient per correction class mu, shared by every lam of
            the matching degree -- the restricted reading.

Coefficient values are exact numbers (ints or Fractions, kept as Fractions).
Route A of `certify` writes each positivity coefficient directly as an
affine form in the unknown coefficients, by a closed form of the Pieri rule;
`positivity_terms`, which expands the products for one numeric deformation,
is its independent reference in the tests.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import ClassVector, as_coeff
from .basis import (MIN_RING_RANK, MODE_PER_MU, MODE_PER_PAIR, Index, check_index,
                    check_mode, check_rank, degree, enumerate_basis, index_sort_key)
from .basis import MODES, mu_keys, pair_keys  # noqa: F401  (re-exported)
from .ring import MultiplicationTable, multiply


class DeformationSpec:
    """Assignment of coefficients to deformation keys for one rank."""

    def __init__(self, n: int, mode: str = MODE_PER_PAIR, entries=None):
        check_rank(n, MIN_RING_RANK)
        per_pair = check_mode(mode)
        self.n = n
        self.mode = mode
        clean = {}
        for key, val in (entries or {}).items():
            key = self._check_key(key)
            val = as_coeff(val)
            if val:
                clean[key] = val
        self.entries = clean
        # what `corrections` looks up: the (mu, a) pairs by lam (per-pair) or
        # by the degree of mu (per-mu), mu in slice order as `items` sorts them
        groups: dict = {}
        for key, val in self.items():
            group, mu = key if per_pair else (degree(key), key)
            groups.setdefault(group, []).append((mu, val))
        self._corrections = {g: tuple(pairs) for g, pairs in groups.items()}

    def _check_key(self, key):
        n = self.n
        try:
            if self.mode == MODE_PER_PAIR:
                lam, mu = (check_index(n, k) for k in key)
            else:
                mu = check_index(n, key)
        except ValueError as exc:
            raise ValueError(f"malformed key {key!r}: {exc}") from None
        if self.mode == MODE_PER_MU:
            if degree(mu) > 2 * n - 3:
                raise ValueError(
                    f"malformed key {key!r}: no class of degree {degree(mu) + 2*n} exists")
            return mu
        if degree(mu) + 2 * n != degree(lam):
            raise ValueError(
                f"malformed key {key!r}: needs |mu| + 2n = |lambda| "
                f"({degree(mu)} + {2*n} != {degree(lam)})")
        return (lam, mu)

    @classmethod
    def zero(cls, n: int, mode: str = MODE_PER_PAIR) -> "DeformationSpec":
        return cls(n, mode)

    def coefficient(self, lam, mu):
        lam, mu = tuple(lam), tuple(mu)
        key = (lam, mu) if self.mode == MODE_PER_PAIR else mu
        return self.entries.get(key, Fraction(0))

    def corrections(self, lam) -> tuple:
        """Nonzero (mu, coefficient) pairs correcting tau[lam], mu in slice order."""
        lam = tuple(lam)
        return self._corrections.get(
            lam if self.mode == MODE_PER_PAIR else degree(lam) - 2 * self.n, ())

    def items(self):
        if self.mode == MODE_PER_PAIR:
            order = lambda k: (index_sort_key(k[0]), index_sort_key(k[1]))
        else:
            order = index_sort_key
        return sorted(self.entries.items(), key=lambda kv: order(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, DeformationSpec):
            return NotImplemented
        return (self.n, self.mode, self.entries) == (other.n, other.mode, other.entries)

    def __repr__(self):
        return f"DeformationSpec(n={self.n}, mode={self.mode!r}, entries={len(self.entries)})"


def sigma_from_tau(spec: DeformationSpec) -> dict:
    """The deformed basis, each class expressed in tau coordinates."""
    return {lam: to_tau(spec, ClassVector.basis(spec.n, lam))
            for lam in enumerate_basis(spec.n)}


def _change_basis(spec: DeformationSpec, v: ClassVector, sign: int) -> ClassVector:
    """Add sign * c * a at (mu, d + 1) for each term c q^d [lam] of `v` and
    each correction (mu, a) of lam.  Correction classes are never corrected
    themselves, so one pass is exact in both directions."""
    flat = dict(v.flat)
    for (lam, d), c in v.flat.items():
        for mu, a in spec.corrections(lam):
            key = (mu, d + 1)
            flat[key] = flat.get(key, Fraction(0)) + sign * (c * a)
    return ClassVector._wrap(v.n, {k: c for k, c in flat.items() if c})


def to_tau(spec: DeformationSpec, v: ClassVector) -> ClassVector:
    """Rewrite a vector given in sigma coordinates in tau coordinates."""
    return _change_basis(spec, v, -1)


def to_sigma(spec: DeformationSpec, v: ClassVector) -> ClassVector:
    """Rewrite a vector given in tau coordinates in sigma coordinates."""
    return _change_basis(spec, v, 1)


def deformed_product(spec: DeformationSpec, table: MultiplicationTable,
                     mu1, mu2) -> ClassVector:
    """sigma[mu1] * sigma[mu2], expanded in the sigma basis."""
    if table.n != spec.n:
        raise ValueError(f"rank mismatch: spec n={spec.n}, table n={table.n}")
    x = to_tau(spec, ClassVector.basis(spec.n, tuple(mu1)))
    y = to_tau(spec, ClassVector.basis(spec.n, tuple(mu2)))
    return to_sigma(spec, multiply(table, x, y))


def positivity_terms(spec: DeformationSpec, table: MultiplicationTable):
    """(mu, nu, d, c) for every term c q^d sigma[nu] of sigma[1,1] * sigma[mu],
    over the basis mu, in canonical order: the coefficients the positivity
    condition asks to be nonnegative."""
    for mu in table.basis:
        for nu, d, c in deformed_product(spec, table, (1, 1), mu).flat_items():
            yield mu, nu, d, c


# violations: (mu, nu, d, value) for each negative coefficient
PositivityReport = namedtuple("PositivityReport", "passes violations")


def check_positivity(spec: DeformationSpec, table: MultiplicationTable) -> PositivityReport:
    """Do all products of sigma[1,1] with basis sigma classes have nonnegative
    coefficients in the sigma basis?"""
    violations = [(mu, nu, d, c) for mu, nu, d, c in positivity_terms(spec, table)
                  if c < 0]
    return PositivityReport(not violations, violations)
