from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osglines.algebra import AffineExpression, ClassVector
from osglines.basis import enumerate_basis

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
exponents = st.integers(min_value=0, max_value=4)


def qpolys():
    return st.dictionaries(exponents, fractions, max_size=4)


def class_vectors(n=3):
    idx = st.sampled_from(enumerate_basis(n))
    return st.dictionaries(idx, qpolys(), max_size=4) \
             .map(lambda d: ClassVector(n, d))


@settings(max_examples=60, deadline=None)
@given(class_vectors(), class_vectors(), fractions)
def test_class_vector_module_laws(v, w, c):
    assert v + w == w + v
    assert (v + w).scale(c) == v.scale(c) + w.scale(c)
    assert v - v == ClassVector.zero(3)
    assert v + ClassVector.zero(3) == v


def test_cancellation_example():
    v = ClassVector(3, {(1, 0): 1})
    w = ClassVector(3, {(1, 0): -1})
    assert not v + w


def test_coefficient_extraction():
    v = ClassVector(3, {(1, 0): {1: 5, 0: 2}})
    assert v.coefficient((1, 0), 0) == 2
    assert v.coefficient((1, 0), 1) == 5
    assert ClassVector.zero(3).coefficient((1, 0), 0) == 0
    assert v.coefficient((2, 0), 0) == 0


def test_affine_evaluation():
    e = AffineExpression(1, {"a": 2, "b": -1})
    assert e.evaluate({"a": Fraction(1, 2), "b": 3}) == -1


def test_affine_expression_refuses_floats():
    with pytest.raises(TypeError, match="exact number"):
        AffineExpression(0.5)
    with pytest.raises(TypeError, match="exact number"):
        AffineExpression(0, {"a": 0.5})
    e = AffineExpression(Fraction(4, 2), {"a": Fraction(3, 1), "b": Fraction(1, 2)})
    assert type(e.constant) is int and type(e.linear["a"]) is int
    assert e.linear["b"] == Fraction(1, 2)


def test_rank_mismatch():
    v = ClassVector(3, {(1, 0): 1})
    w = ClassVector(4, {(1, 0): 1})
    with pytest.raises(ValueError, match="rank mismatch"):
        v + w


def test_invalid_index_rejected():
    with pytest.raises(ValueError, match="not valid"):
        ClassVector(3, {(2, 2): 1})
    with pytest.raises(ValueError, match="q-exponent"):
        ClassVector(3, {(1, 0): {-1: 1}})
    with pytest.raises(TypeError, match="exact coefficient"):
        ClassVector(3, {(1, 0): {0: 0.5}})


def test_affine_expression_is_not_a_coefficient():
    with pytest.raises(TypeError, match="exact coefficient"):
        ClassVector(3, {(1, 0): AffineExpression(0, {"a": 1})})
    with pytest.raises(TypeError, match="exact coefficient"):
        ClassVector.basis(3, (1, 0), coeff=AffineExpression(2))


def test_float_and_bool_index_components_refused():
    # int() would truncate 1.7 to 1 and read True as 1
    for lam in ((1.7, 0), (1.0, 0), (True, 0), (1, False)):
        with pytest.raises(ValueError, match="is not valid for rank 3$"):
            ClassVector(3, {lam: 1})
        with pytest.raises(ValueError, match="is not valid for rank 3$"):
            ClassVector.from_terms(3, [(lam, 1, 0)])
    # an out-of-range int index still contributes nothing
    assert not ClassVector.from_terms(3, [((9, 0), 1, 0)])


def test_bare_coefficient_is_a_constant():
    assert ClassVector(3, {(1, 0): 5}) == ClassVector(3, {(1, 0): {0: 5}})
    assert ClassVector(3, {(1, 0): Fraction(1, 2)}).coefficient((1, 0), 0) == Fraction(1, 2)
    with pytest.raises(TypeError, match="exact coefficient"):
        ClassVector(3, {(1, 0): 0.5})


def test_keys_naming_one_index_are_summed():
    v = ClassVector(3, {(1, 0): {0: 2, 1: 1}, ("1", "0"): {0: 3}})
    assert v == ClassVector(3, {(1, 0): {0: 5, 1: 1}})
    w = ClassVector(3, {(1, 0): 2, ("1", "0"): -2})
    assert not w and w.flat == {}


def test_from_terms_drops_invalid_indices():
    v = ClassVector.from_terms(3, [((2, 2), 1, 0), ((3, 1), 2, 0)])
    assert v == ClassVector(3, {(3, 1): 2})
    with pytest.raises(ValueError, match="q-exponent"):
        ClassVector.from_terms(3, [((3, 1), 1, -1)])
