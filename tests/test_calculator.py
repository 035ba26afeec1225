"""Calculator: precedence and associativity units plus the tree oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from leap.calculator import _Token, _tokenize, evaluate
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
            ("2.", 3),
            (".5", 1),
            ("2²", 2),  # a superscript is a digit to str.isdigit, not to float()
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

    def test_a_literal_past_float_range_is_not_a_finite_result(self):
        with pytest.raises(CalculatorError, match="^result is not finite$"):
            evaluate("9" * 400)

    def test_remainder_of_a_literal_past_float_range_is_math_error(self):
        # The literal reads as inf, and math.fmod(inf, 2) raises ValueError.
        with pytest.raises(CalculatorError, match="^remainder is not a finite real"):
            evaluate("9" * 400 + "%2")

    def test_negative_base_fractional_power(self):
        with pytest.raises(CalculatorError):
            evaluate("(0-8)^0.5")


class TestTreeOracle:
    def test_500_random_trees_match_reference(self):
        for formula, expected in expression_cases(seed=2024, count=500):
            got = evaluate(formula)
            assert math.isfinite(got)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), formula


# The hand-written tokenizer that the token pattern replaced, verbatim: the
# oracle for the differential property below.
_OPERATOR_CHARS = "+-*/%^()"


def _hand_tokenize(formula: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(formula)
    while i < n:
        ch = formula[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(_Token("op", ch, i + 1))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and formula[i].isdigit():
                i += 1
            if i < n and formula[i] == ".":
                i += 1
                if i >= n or not formula[i].isdigit():
                    raise CalculatorError("expected digits after decimal point", column=i + 1)
                while i < n and formula[i].isdigit():
                    i += 1
            text = formula[start:i]
            tokens.append(_Token("number", text, start + 1, value=float(text)))
            continue
        raise CalculatorError(f"unexpected character {ch!r}", column=i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


def _outcome(tokenize, formula):
    try:
        return tokenize(formula)
    except CalculatorError as exc:
        return str(exc), exc.column


# The hand tokenizer took any str.isdigit character for a digit, and float()
# then failed on the non-decimal ones ("²"): those are left out here.
_DECIMAL_OR_NOT_A_DIGIT = st.characters(
    blacklist_categories=("Cs",)
).filter(lambda c: c.isdecimal() or not c.isdigit())


class TestTokenizer:
    @settings(max_examples=500)
    @given(
        st.one_of(
            st.text(st.sampled_from("0123456789.+-*/%^() \t\u3000٣x$"), max_size=16),
            st.text(_DECIMAL_OR_NOT_A_DIGIT, max_size=16),
        )
    )
    def test_token_pattern_matches_the_hand_tokenizer(self, formula):
        assert _outcome(_tokenize, formula) == _outcome(_hand_tokenize, formula)

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert evaluate("٣+1") == 4.0
