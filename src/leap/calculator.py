"""Recursive-descent evaluator for arithmetic formulas.

Grammar (standard precedence, carets bind tightest and associate right):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/' | '%') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := number | '(' expr ')'

'%' is remainder with the sign of the dividend; '^' is real exponentiation.
Unary minus binds after '^', so "-2^2" is -4 and "-(2^3)^2" is -64.

A number is decimal digits, optionally a point and more digits: "2.", ".5"
and "2²" are errors. Whitespace between tokens is ignored. A syntax error
carries the 1-based column of the character at fault.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import CalculatorError

__all__ = ["evaluate"]

# The tokens, tried in this order at each non-space character: a number whose
# point has no digits after it (an error), a number, an operator, and any
# other character (an error). \d is a decimal digit, which float() reads.
_TOKEN_RE = re.compile(r"(?P<point>\d+\.)(?!\d)|(?P<number>\d+(?:\.\d+)?)|(?P<op>[-+*/%^()])|\S")

# How deeply parentheses, unary minus signs and exponents may nest. Each level
# costs the parser a few stack frames, so an unbounded formula would exhaust
# the interpreter's stack instead of failing with a CalculatorError.
_MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "op" | "end"
    text: str
    column: int  # 1-based position in the formula
    value: float = 0.0


def _tokenize(formula: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(formula):
        kind, text = match.lastgroup, match.group()
        if kind == "point":
            raise CalculatorError("expected digits after decimal point", column=match.end() + 1)
        if kind is None:
            raise CalculatorError(f"unexpected character {text!r}", column=match.start() + 1)
        value = float(text) if kind == "number" else 0.0
        tokens.append(_Token(kind, text, match.start() + 1, value))
    tokens.append(_Token("end", "", len(formula) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expr(self) -> float:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            right = self.term()
            value = value + right if op.text == "+" else value - right
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/%":
            op = self.advance()
            right = self.factor()
            if op.text == "*":
                value = value * right
            elif op.text == "/":
                if right == 0.0:
                    raise CalculatorError("division by zero")
                value = value / right
            else:
                if right == 0.0:
                    raise CalculatorError("remainder by zero")
                try:  # an infinite dividend: a literal past float's range
                    value = math.fmod(value, right)
                except ValueError as exc:
                    raise CalculatorError(f"remainder is not a finite real: {exc}") from exc
        return value

    def factor(self) -> float:
        # '(' and '^' lead back here, as does unary minus: this bounds all nesting.
        token = self.peek()
        if self.depth == _MAX_DEPTH:
            message = f"formula nests deeper than {_MAX_DEPTH} levels"
            raise CalculatorError(message, column=token.column)
        self.depth += 1
        if token.kind == "op" and token.text == "-":
            self.advance()
            value = -self.factor()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self) -> float:
        value = self.atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            exponent = self.factor()
            try:
                value = math.pow(value, exponent)
            except (ValueError, OverflowError) as exc:
                raise CalculatorError(f"power is not a finite real: {exc}") from exc
        return value

    def atom(self) -> float:
        token = self.advance()
        if token.kind == "number":
            return token.value
        if token.kind == "op" and token.text == "(":
            value = self.expr()
            closing = self.advance()
            if closing.kind != "op" or closing.text != ")":
                raise CalculatorError("expected ')'", column=closing.column)
            return value
        if token.kind == "end":
            raise CalculatorError("unexpected end of formula", column=token.column)
        raise CalculatorError(f"unexpected {token.text!r}", column=token.column)


def evaluate(formula: str) -> float:
    """Evaluate an arithmetic formula to a finite real.

    Raises CalculatorError with a column for syntax defects, without one for
    math failures (division by zero, non-finite results).
    """
    parser = _Parser(_tokenize(formula))
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise CalculatorError(f"unexpected {trailing.text!r}", column=trailing.column)
    if not math.isfinite(value):
        raise CalculatorError("result is not finite")
    return value
