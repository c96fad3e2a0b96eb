from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osglines.algebra import AffineExpression, ClassVector
from osglines.basis import degree, enumerate_basis, enumerate_degree
from osglines.deformation import (DeformationSpec, MODE_PER_MU, MODE_PER_PAIR, MODES,
                                  check_positivity, deformed_product, mu_keys,
                                  pair_keys, sigma_from_tau, to_sigma, to_tau)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def specs(n=3, mode=MODE_PER_PAIR, max_size=5):
    keys = pair_keys(n) if mode == MODE_PER_PAIR else mu_keys(n)
    return st.dictionaries(st.sampled_from(keys), small_fractions, max_size=max_size) \
             .map(lambda d: DeformationSpec(n, mode, d))


def vectors(n=3):
    idx = st.sampled_from(enumerate_basis(n))
    polys = st.dictionaries(st.integers(min_value=0, max_value=2),
                            small_fractions, max_size=3)
    return st.dictionaries(idx, polys, max_size=4).map(lambda d: ClassVector(n, d))


def test_key_inventory_n3():
    assert len(pair_keys(3)) == 8
    assert len(mu_keys(3)) == 6
    assert len(pair_keys(4)) == 20


def test_zero_spec_identity():
    spec = DeformationSpec.zero(3)
    sig = sigma_from_tau(spec)
    for lam in enumerate_basis(3):
        assert sig[lam] == ClassVector.basis(3, lam)


def test_single_entry_example():
    spec = DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): Fraction(1)})
    sig = sigma_from_tau(spec)
    assert sig[(5, 1)] == ClassVector.from_terms(3, [((5, 1), 1, 0), ((0, 0), -1, 1)])
    for lam in enumerate_basis(3):
        if lam != (5, 1):
            assert sig[lam] == ClassVector.basis(3, lam)


def full_spec(n, mode):
    """Every legal key set to its own nonzero value (1, 2, 3, ... in key order)."""
    keys = pair_keys(n) if mode == MODE_PER_PAIR else mu_keys(n)
    return DeformationSpec(n, mode, {k: i for i, k in enumerate(keys, 1)})


def test_low_degree_classes_never_corrected():
    spec = full_spec(3, MODE_PER_PAIR)
    sig = sigma_from_tau(spec)
    for lam in enumerate_basis(3):
        if degree(lam) < 6:
            assert sig[lam] == ClassVector.basis(3, lam)


def slice_scan(spec, lam):
    """The corrections of tau[lam] found by scanning its correction degree's slice."""
    return [(mu, c) for mu in enumerate_degree(spec.n, degree(lam) - 2 * spec.n)
            if (c := spec.coefficient(lam, mu))]


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(min_value=3, max_value=5), st.sampled_from(MODES))
         .flatmap(lambda nm: specs(*nm, max_size=12)))
def test_corrections_equal_the_slice_scan(spec):
    for lam in enumerate_basis(spec.n):
        assert list(spec.corrections(lam)) == slice_scan(spec, lam)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_symbolic_corrections_equal_the_slice_scan(n, mode):
    # every key corrects, each by its own value, so a misplaced or repeated
    # correction shows
    spec = full_spec(n, mode)
    for lam in enumerate_basis(n):
        assert list(spec.corrections(lam)) == slice_scan(spec, lam)


def test_malformed_keys_rejected():
    with pytest.raises(ValueError, match="malformed"):
        DeformationSpec(3, MODE_PER_PAIR, {((5, 4), (0, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="malformed"):
        DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (1, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="malformed"):
        DeformationSpec(3, MODE_PER_PAIR, {((2, 2), (0, 0)): Fraction(1)})
    # a per-mu key whose partner degree would exceed the dimension
    with pytest.raises(ValueError, match="malformed"):
        DeformationSpec(3, MODE_PER_MU, {(4, 0): Fraction(1)})
    with pytest.raises(ValueError):
        DeformationSpec(3, "other", {})
    # a float or bool component is refused, not truncated: int() would read
    # (5.5, 1) as (5, 1), a legal key
    for mode, key in ((MODE_PER_PAIR, ((5.5, 1), (0, 0))), (MODE_PER_PAIR, ((5, 1), (0.0, 0))),
                      (MODE_PER_PAIR, ((5, 1), (False, 0))), (MODE_PER_MU, (True, 0))):
        with pytest.raises(ValueError, match="malformed key .*is not valid for rank 3$"):
            DeformationSpec(3, mode, {key: 1})


def test_zero_values_dropped():
    spec = DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): Fraction(0)})
    assert spec.entries == {}


@settings(max_examples=40, deadline=None)
@given(specs(), vectors())
def test_basis_change_round_trip(spec, v):
    assert to_tau(spec, to_sigma(spec, v)) == v
    assert to_sigma(spec, to_tau(spec, v)) == v


def test_deformed_product_hand_oracle(table3):
    # with a = -1 on the pair ((5,1),(0,0)):
    #   tau[1,1]*tau[4,0] = tau[5,1]  (generic case of the rule), and
    #   tau[5,1] = sigma[5,1] + a q sigma[0,0]
    spec = DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): Fraction(-1)})
    got = deformed_product(spec, table3, (1, 1), (4, 0))
    assert got == ClassVector.from_terms(3, [((5, 1), 1, 0), ((0, 0), -1, 1)])


def test_deformed_product_zero_spec_matches_table(table3):
    spec = DeformationSpec.zero(3)
    for lam, mu in list(table3.pairs())[::7]:
        assert deformed_product(spec, table3, lam, mu) == table3.product(lam, mu)


@settings(max_examples=20, deadline=None)
@given(specs())
def test_unit_class_is_undeformed(table3, spec):
    for mu in ((0, 0), (3, 1), (5, 4)):
        assert deformed_product(spec, table3, (0, 0), mu) \
            == ClassVector.basis(3, mu)


def test_positivity_zero_spec_passes(table3):
    report = check_positivity(DeformationSpec.zero(3), table3)
    assert report.passes
    assert report.violations == []


def test_positivity_failure_example(table3):
    spec = DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): Fraction(-1)})
    report = check_positivity(spec, table3)
    assert not report.passes
    assert ((4, 0), (0, 0), 1, Fraction(-1)) in report.violations


def test_positivity_requires_numeric_spec():
    # a spec holds exact numbers only, so check_positivity never sees another
    with pytest.raises(TypeError, match="exact coefficient"):
        DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): AffineExpression(0, {"a": 1})})
    with pytest.raises(TypeError, match="exact coefficient"):
        DeformationSpec(3, MODE_PER_MU, {(0, 0): AffineExpression(1)})
    with pytest.raises(TypeError, match="exact coefficient"):
        DeformationSpec(3, MODE_PER_PAIR, {((5, 1), (0, 0)): 0.5})


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.sampled_from(mu_keys(3)), small_fractions, max_size=4))
def test_per_mu_is_diagonal_restriction_of_per_pair(table3, entries):
    per_mu = DeformationSpec(3, MODE_PER_MU, entries)
    expanded = {}
    for (lam, mu) in pair_keys(3):
        a = per_mu.coefficient(lam, mu)
        if a:
            expanded[(lam, mu)] = a
    per_pair = DeformationSpec(3, MODE_PER_PAIR, expanded)
    for mu in enumerate_basis(3):
        assert deformed_product(per_mu, table3, (1, 1), mu) \
            == deformed_product(per_pair, table3, (1, 1), mu)


def test_rank_mismatch(table3):
    with pytest.raises(ValueError, match="rank mismatch"):
        deformed_product(DeformationSpec.zero(4), table3, (1, 1), (1, 0))
