"""Parser and evaluator for class expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | 'q' ('^' INT)? | 'tau' '[' SINT ',' SINT ']' | '(' expr ')'

INT is an unsigned decimal integer in ASCII digits 0-9; SINT (only inside tau
brackets) allows a leading '-'.  Negative coefficients are written with the
binary '-' of expr; there is no unary minus and no exponent on tau.

The AST is plain nested tuples:

    ("sum", ((sign, term), ...))         sign is +1 or -1, first sign is +1
    ("product", (factor, ...))
    ("int", value) | ("q", exponent) | ("tau", a, b) | ("group", sum)

Indices are validated against the rank only when an expression is evaluated
against a multiplication table, not at parse time.  Groups nest at most
MAX_NESTING deep, so parsing and evaluation stay within the recursion limit.
"""
from __future__ import annotations

import re

from .algebra import ClassVector
from .ring import MultiplicationTable, multiply


class ExpressionSyntaxError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{suffix}")


MAX_NESTING = 100  # parse and evaluate recurse about 3 frames per level
# a number, a symbol, or any other character (an error), each after optional
# whitespace: every character but trailing whitespace is in some match
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|(tau|q|[-+*()\[\],^])|(\S))")


def tokenize(src: str):
    """(kind, value, offset) triples, closed by ("end", None, len(src))."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        number, symbol, other = m.groups()
        if other is not None:
            raise ExpressionSyntaxError(f"unexpected character {other!r}", m.start(3))
        if number is not None:
            tokens.append(("int", int(number), m.start(1)))
        else:
            tokens.append((symbol, symbol, m.start(2)))
    tokens.append(("end", None, len(src)))
    return tokens


# One function per production.  Each takes the tokens and the position of its
# first token and returns (node, position after it); `depth` counts the groups
# that enclose it.

def _unexpected(tok, expected):
    what = "end of input" if tok[0] == "end" else repr(tok[1])
    return ExpressionSyntaxError(f"unexpected {what}", tok[2], expected)


def _expect(tokens, i, kind) -> int:
    if tokens[i][0] != kind:
        raise _unexpected(tokens[i], (kind,))
    return i + 1


def _sum(tokens, i, depth):
    term, i = _term(tokens, i, depth)
    terms = [(1, term)]
    while tokens[i][0] in ("+", "-"):
        sign = 1 if tokens[i][0] == "+" else -1
        term, i = _term(tokens, i + 1, depth)
        terms.append((sign, term))
    return ("sum", tuple(terms)), i


def _term(tokens, i, depth):
    factor, i = _factor(tokens, i, depth)
    factors = [factor]
    while tokens[i][0] == "*":
        factor, i = _factor(tokens, i + 1, depth)
        factors.append(factor)
    return ("product", tuple(factors)), i


def _signed_int(tokens, i):
    sign = 1
    if tokens[i][0] == "-":
        sign, i = -1, i + 1
    i = _expect(tokens, i, "int")
    return sign * tokens[i - 1][1], i


def _factor(tokens, i, depth):
    kind, value, offset = tokens[i]
    if kind == "int":
        return ("int", value), i + 1
    if kind == "q":
        if tokens[i + 1][0] != "^":
            return ("q", 1), i + 1
        i = _expect(tokens, i + 2, "int")
        return ("q", tokens[i - 1][1]), i
    if kind == "tau":
        a, i = _signed_int(tokens, _expect(tokens, i + 1, "["))
        b, i = _signed_int(tokens, _expect(tokens, i, ","))
        return ("tau", a, b), _expect(tokens, i, "]")
    if kind == "(":
        if depth == MAX_NESTING:
            raise ExpressionSyntaxError(f"nesting deeper than {MAX_NESTING}", offset)
        inner, i = _sum(tokens, i + 1, depth + 1)
        return ("group", inner), _expect(tokens, i, ")")
    raise _unexpected(tokens[i], ("integer", "q", "tau", "("))


def parse_expression(src: str):
    """Parse source text to an AST; raises ExpressionSyntaxError with offset."""
    tokens = tokenize(src)
    ast, i = _sum(tokens, 0, 0)
    if tokens[i][0] != "end":
        raise _unexpected(tokens[i], ("+", "-", "*", "end of input"))
    return ast


def format_expression(ast) -> str:
    """Render an AST back to source text; round-trips through the parser."""
    kind = ast[0]
    if kind == "sum":
        parts = []
        for i, (sign, term) in enumerate(ast[1]):
            if i == 0:
                parts.append(format_expression(term))
            else:
                parts.append(("+ " if sign > 0 else "- ") + format_expression(term))
        return " ".join(parts)
    if kind == "product":
        return "*".join(format_expression(f) for f in ast[1])
    if kind == "int":
        return str(ast[1])
    if kind == "q":
        return "q" if ast[1] == 1 else f"q^{ast[1]}"
    if kind == "tau":
        return f"tau[{ast[1]},{ast[2]}]"
    if kind == "group":
        return f"({format_expression(ast[1])})"
    raise ValueError(f"not an expression node: {ast!r}")


def evaluate_expression(ast, table: MultiplicationTable) -> ClassVector:
    """Evaluate an AST to a class vector in the tau basis."""
    n = table.n
    kind = ast[0]
    if kind == "sum":
        out = ClassVector.zero(n)
        for sign, term in ast[1]:
            val = evaluate_expression(term, table)
            out = out + (val if sign > 0 else -val)
        return out
    if kind == "product":
        out = None
        for factor in ast[1]:
            val = evaluate_expression(factor, table)
            out = val if out is None else multiply(table, out, val)
        return out
    if kind == "int":
        return ClassVector.basis(n, (0, 0), coeff=ast[1])
    if kind == "q":
        return ClassVector.basis(n, (0, 0), d=ast[1])
    if kind == "tau":
        return ClassVector.basis(n, (ast[1], ast[2]))
    if kind == "group":
        return evaluate_expression(ast[1], table)
    raise ValueError(f"not an expression node: {ast!r}")
