"""Calculator: precedence and associativity units plus the tree oracle."""

from __future__ import annotations

import math

import pytest

from leap.calculator import evaluate
from leap.errors import CalculatorError

from conftest import expression_cases


class TestPrecedence:
    @pytest.mark.parametrize(
        "formula,expected",
        [
            ("2+3*4", 14.0),
            ("(2+3)*4", 20.0),
            ("-(2^3)^2", -64.0),
            ("2^3^2", 512.0),  # right-associative
            ("-2^2", -4.0),  # caret binds before unary minus
            ("2^-3", 0.125),
            ("10-4-3", 3.0),  # left-associative
            ("12/4/3", 1.0),
            ("7%3", 1.0),
            ("-7%3", -1.0),  # remainder keeps the dividend's sign
            ("7%-3", 1.0),
            ("1.5*2", 3.0),
            ("  2 + 2 ", 4.0),
            ("--3", 3.0),
            ("0.5^2", 0.25),
        ],
    )
    def test_cases(self, formula, expected):
        assert evaluate(formula) == pytest.approx(expected, rel=1e-12)


class TestErrors:
    def test_division_by_zero(self):
        with pytest.raises(CalculatorError, match="division by zero"):
            evaluate("1/0")

    def test_remainder_by_zero(self):
        with pytest.raises(CalculatorError, match="remainder"):
            evaluate("5%0")

    @pytest.mark.parametrize(
        "formula,column",
        [
            ("2++", 3),
            ("2*", 3),
            ("(1+2", 5),
            ("2 $ 2", 3),
            ("", 1),
            ("1..2", 3),
            # Nesting past 100 levels fails where the 101st level opens.
            pytest.param("(" * 5000 + "1" + ")" * 5000, 101, id="5000 parentheses"),
            pytest.param("-" * 5000 + "1", 101, id="5000 minus signs"),
            pytest.param("2^" * 3000 + "2", 201, id="3000 exponents"),
        ],
    )
    def test_syntax_errors_carry_column(self, formula, column):
        with pytest.raises(CalculatorError) as excinfo:
            evaluate(formula)
        assert excinfo.value.column == column

    def test_trailing_tokens_rejected(self):
        with pytest.raises(CalculatorError):
            evaluate("1+2 3")

    def test_overflow_is_math_error(self):
        with pytest.raises(CalculatorError):
            evaluate("10^10^10")

    def test_negative_base_fractional_power(self):
        with pytest.raises(CalculatorError):
            evaluate("(0-8)^0.5")


class TestTreeOracle:
    def test_500_random_trees_match_reference(self):
        for formula, expected in expression_cases(seed=2024, count=500):
            got = evaluate(formula)
            assert math.isfinite(got)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), formula
