import re
from fractions import Fraction

import pytest

from osglines import pieri
from osglines.algebra import ClassVector
from osglines.basis import degree, enumerate_basis
from osglines.pieri import (TAU1_CASES, TAU11_CASES, pieri_tau1, pieri_tau11,
                            tau1_case, tau11_case)


def vec(n, terms):
    return ClassVector.from_terms(n, terms)


def test_tau1_examples():
    assert pieri_tau1(3, (1, 0)) == vec(3, [((2, 0), 1, 0), ((1, 1), 1, 0)])
    assert pieri_tau1(3, (5, 4)) == vec(3, [((5, -1), 1, 1), ((4, 0), 1, 1)])
    assert pieri_tau1(3, (5, -1)) == vec(3, [((5, 0), 1, 0)])
    # the raw three-term case drops the invalid diagonal (2,2)
    assert pieri_tau1(3, (2, 1)) == vec(3, [((3, 1), 2, 0), ((4, 0), 1, 0)])


def test_tau11_examples():
    assert pieri_tau11(3, (5, 2)) == vec(3, [((3, 0), 1, 1)])
    assert pieri_tau11(3, (5, 3)) == vec(3, [((5, -1), 1, 1), ((4, 0), 1, 1)])
    assert pieri_tau11(3, (1, 1)) == vec(3, [((3, 1), 1, 0)])


def test_rejects_rank_two_and_invalid_indices():
    with pytest.raises(ValueError):
        pieri_tau1(2, (1, 0))
    with pytest.raises(ValueError):
        pieri_tau11(2, (1, 0))
    with pytest.raises(ValueError):
        pieri_tau1(3, (2, 2))
    with pytest.raises(ValueError):
        pieri_tau11(3, (6, 0))


def oracle_tau1_cases(n, lam):
    # each condition from the five-way table, written out independently
    a, b = lam
    hits = []
    if a + b != 2 * n - 3 and a != 2 * n - 1:
        hits.append("generic")
    if a + b == 2 * n - 3:
        hits.append("reflect")
    if a == 2 * n - 1 and 0 <= b <= 2 * n - 3:
        hits.append("wall_quantum")
    if a == 2 * n - 1 and b == -1:
        hits.append("wall_bottom")
    if a == 2 * n - 1 and b == 2 * n - 2:
        hits.append("wall_top")
    return hits


def oracle_tau11_cases(n, lam):
    a, b = lam
    hits = []
    if a + b not in (2 * n - 4, 2 * n - 3) and a != 2 * n - 1:
        hits.append("generic")
    if a + b in (2 * n - 4, 2 * n - 3):
        hits.append("split")
    if a == 2 * n - 1 and b != 2 * n - 3:
        hits.append("wall_quantum")
    if a == 2 * n - 1 and b == 2 * n - 3:
        hits.append("wall_split")
    return hits


@pytest.mark.parametrize("n", range(3, 9))
def test_case_totality_and_dispatch(n):
    seen1, seen11 = set(), set()
    for lam in enumerate_basis(n):
        hits1 = oracle_tau1_cases(n, lam)
        hits11 = oracle_tau11_cases(n, lam)
        assert len(hits1) == 1, (n, lam, hits1)
        assert len(hits11) == 1, (n, lam, hits11)
        assert tau1_case(n, lam) == hits1[0]
        assert tau11_case(n, lam) == hits11[0]
        seen1.add(hits1[0])
        seen11.add(hits11[0])
    assert seen1 == set(TAU1_CASES)
    assert seen11 == set(TAU11_CASES)


@pytest.mark.parametrize("n", range(3, 9))
def test_outputs_nonnegative_integral_homogeneous(n):
    for lam in enumerate_basis(n):
        for rule, shift in ((pieri_tau1, 1), (pieri_tau11, 2)):
            out = rule(n, lam)
            for nu, d, c in out.flat_items():
                c = Fraction(c)
                assert c.denominator == 1 and c > 0
                assert degree(nu) + 2 * n * d == degree(lam) + shift


@pytest.mark.parametrize("special, name, expand", [((1, 0), "_tau1_raw", pieri_tau1),
                                                   ((1, 1), "_tau11_raw", pieri_tau11)])
def test_the_expansions_read_each_rule_through_the_term_filter(monkeypatch, special, name,
                                                               expand):
    # an extra q^4 tau[0,0] is refused by the public expansion as by the
    # filter every Pieri term of the ring passes, never returned
    raw = getattr(pieri, name)

    def tampered(n, lam):
        case, terms = raw(n, lam)
        return case, terms + (((0, 0), 1, 4),)

    monkeypatch.setattr(pieri, name, tampered)
    with pytest.raises(RuntimeError) as filtered:
        pieri._valid_terms(3, special, tampered, (1, 1))
    assert "inhomogeneous" in str(filtered.value)
    with pytest.raises(RuntimeError, match=re.escape(str(filtered.value)) + "$"):
        expand(3, (1, 1))
