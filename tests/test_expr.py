import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from osglines import expr
from osglines.algebra import ClassVector
from osglines.basis import enumerate_basis
from osglines.cli import render_vector_text
from osglines.expr import (ExpressionSyntaxError, evaluate_expression,
                           format_expression, parse_expression)
from osglines.pieri import pieri_tau1, pieri_tau11
from osglines.ring import multiply


def test_parse_example():
    ast = parse_expression("tau[5,-1]*tau[2,1] + 2*q*tau[1,0]")
    assert ast[0] == "sum"
    assert len(ast[1]) == 2
    assert ast[1][0] == (1, ("product", (("tau", 5, -1), ("tau", 2, 1))))
    assert ast[1][1] == (1, ("product", (("int", 2), ("q", 1), ("tau", 1, 0))))


def test_whitespace_insignificant():
    a = parse_expression("tau[1,0]*tau[2,1]+q")
    b = parse_expression("  tau[ 1 , 0 ] * tau[2, 1]  +  q ")
    assert a == b


def test_no_exponent_on_tau():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("tau[1,1]^2")
    assert err.value.offset == 8
    assert "+" in err.value.expected and "*" in err.value.expected


def test_error_reporting():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("tau[1,]")
    assert err.value.offset == 6
    assert err.value.expected == ("int",)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("2 +")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(tau[1,0]")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("tau[1,0] tau[2,0]")
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("tau[1,0] $ 2")
    assert "unexpected character" in str(err.value)
    # no unary minus: negative integers only via the binary '-'
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("-tau[1,0]")
    # INT is ASCII digits only: an Arabic-Indic one is no digit
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("tau[\u0661,0]")
    assert str(err.value) == "unexpected character '\u0661' at offset 4"
    # a digit run past the interpreter's int-string limit is refused at its offset
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("tau[1,0]*" + "1" * 5000)
    assert str(err.value) == "integer of 5000 digits is too long at offset 9"


def test_q_exponent_forms():
    assert parse_expression("q") == ("sum", ((1, ("product", (("q", 1),))),))
    assert parse_expression("q^3") == ("sum", ((1, ("product", (("q", 3),))),))


# AST strategy mirroring the grammar
def factors():
    ints = st.integers(min_value=0, max_value=20).map(lambda v: ("int", v))
    qs = st.integers(min_value=1, max_value=4).map(lambda k: ("q", k))
    taus = st.tuples(st.integers(min_value=-1, max_value=9),
                     st.integers(min_value=-1, max_value=9)) \
             .map(lambda ab: ("tau", ab[0], ab[1]))
    return st.one_of(ints, qs, taus)


def sums(depth=2):
    factor = factors() if depth == 0 else st.one_of(
        factors(), st.deferred(lambda: sums(depth - 1)).map(lambda s: ("group", s)))
    term = st.lists(factor, min_size=1, max_size=3) \
             .map(lambda fs: ("product", tuple(fs)))
    signed = st.tuples(st.sampled_from((1, -1)), term)
    return st.tuples(term, st.lists(signed, max_size=2)) \
             .map(lambda t: ("sum", ((1, t[0]),) + tuple(t[1])))


@settings(max_examples=120, deadline=None)
@given(sums())
def test_round_trip(ast):
    assert parse_expression(format_expression(ast)) == ast


def test_evaluation(table3):
    e = parse_expression("tau[0,0]*tau[4,3]")
    assert evaluate_expression(e, table3) == ClassVector.basis(3, (4, 3))
    e = parse_expression("2*q*tau[1,0] - tau[1,0]*tau[1,0]")
    expected = ClassVector.from_terms(3, [((1, 0), 2, 1), ((2, 0), -1, 0),
                                          ((1, 1), -1, 0)])
    assert evaluate_expression(e, table3) == expected
    e = parse_expression("(tau[1,0] + tau[1,1])*tau[5,4]")
    expected = multiply(table3, ClassVector.basis(3, (1, 0)),
                        ClassVector.basis(3, (5, 4))) \
        + multiply(table3, ClassVector.basis(3, (1, 1)),
                   ClassVector.basis(3, (5, 4)))
    assert evaluate_expression(e, table3) == expected
    e = parse_expression("q^2")
    assert evaluate_expression(e, table3) == ClassVector.basis(3, (0, 0), d=2)


def test_indices_validated_at_evaluation_not_parse(table3):
    ast = parse_expression("tau[2,2]")  # parses fine
    with pytest.raises(ValueError, match="not valid"):
        evaluate_expression(ast, table3)


@pytest.mark.parametrize("n", [3, 4])
def test_written_vectors_read_back(n, table3, table4):
    # the reader has no unary minus, so a vector led by a negative term is skipped
    table = {3: table3, 4: table4}[n]
    vectors = [f(n, lam) for lam in enumerate_basis(n) for f in (pieri_tau1, pieri_tau11)]
    vectors += [table.product(lam, mu) for lam, mu in table.pairs()]
    checked = 0
    for v in vectors:
        if v and next(v.flat_items())[2] < 0:
            continue
        assert evaluate_expression(parse_expression(render_vector_text(v)), table) == v
        checked += 1
    assert checked > len(vectors) // 2


def test_readme_states_the_module_grammar():
    def grammar(text):
        lines = text.splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip().startswith("expr   :="))
        return [line.strip() for line in lines[start:start + 3]]
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    readme = readme.read_text(encoding="utf-8")
    assert grammar(readme) == grammar(expr.__doc__)
    assert grammar(readme)[2].startswith("factor :=")
