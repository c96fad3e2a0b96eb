"""Parser and evaluator for class expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | 'q' ('^' INT)? | 'tau' '[' SINT ',' SINT ']' | '(' expr ')'

INT is an unsigned decimal integer; SINT (only inside tau brackets) allows a
leading '-'.  Negative coefficients are written with the binary '-' of expr;
there is no unary minus and no exponent on tau.

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
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(tau)|(q)|([+\-*()\[\],^]))")


def tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("tau", "tau", m.start(2)))
        elif m.group(3) is not None:
            tokens.append(("q", "q", m.start(3)))
        else:
            tokens.append((m.group(4), m.group(4), m.start(4)))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"unexpected {self._describe(tok)}", tok[2], (kind,))
        return self.advance()

    @staticmethod
    def _describe(tok):
        return "end of input" if tok[0] == "end" else f"{tok[1]!r}"

    def parse(self):
        ast = self.parse_sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(
                f"unexpected {self._describe(tok)}", tok[2],
                ("+", "-", "*", "end of input"))
        return ast

    def parse_sum(self):
        terms = [(1, self.parse_term())]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.parse_term()))
        return ("sum", tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.parse_factor())
        return ("product", tuple(factors))

    def parse_signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("int")
        return sign * tok[1]

    def parse_factor(self):
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return ("int", tok[1])
        if tok[0] == "q":
            self.advance()
            if self.peek()[0] == "^":
                self.advance()
                k = self.expect("int")[1]
                return ("q", k)
            return ("q", 1)
        if tok[0] == "tau":
            self.advance()
            self.expect("[")
            a = self.parse_signed_int()
            self.expect(",")
            b = self.parse_signed_int()
            self.expect("]")
            return ("tau", a, b)
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(f"nesting deeper than {MAX_NESTING}", tok[2])
            self.advance()
            self.depth += 1
            inner = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return ("group", inner)
        raise ExpressionSyntaxError(
            f"unexpected {self._describe(tok)}", tok[2],
            ("integer", "q", "tau", "("))


def parse_expression(src: str):
    """Parse source text to an AST; raises ExpressionSyntaxError with offset."""
    return _Parser(src).parse()


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
