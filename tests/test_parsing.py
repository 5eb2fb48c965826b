import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisdescent import EisensteinInt, EisensteinRational, ParseError, parse_element

BLANK = st.sampled_from(["", "", " ", "  ", "\t", " \n "])


@st.composite
def elements(draw):
    """A valid element text, with whitespace between tokens, and its value."""
    text = draw(BLANK)
    x = y = Fraction(0)
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "-"] if i == 0 else ["+", "-"]))
        text += sign + draw(BLANK)
        value = Fraction(1)
        has_number = (sign == "-" and i == 0) or draw(st.booleans())
        if has_number:
            num = draw(st.integers(0, 10**30))
            text += str(num)
            value = Fraction(num)
            if draw(st.booleans()):
                den = draw(st.integers(1, 10**30))
                text += draw(BLANK) + "/" + draw(BLANK) + str(den)
                value /= den
        is_w = not has_number or draw(st.booleans())
        if is_w:
            star = draw(st.sampled_from(["", "*"]))
            text += draw(BLANK) + star + draw(BLANK) + "w"
        value = -value if sign == "-" else value
        if is_w:
            y += value
        else:
            x += value
        text += draw(BLANK)
    return text, EisensteinRational.from_coords(x, y)


def test_basic_examples():
    assert parse_element("6+3*w") == EisensteinRational(EisensteinInt(6, 3))
    assert parse_element("1/2-5/3*w") == EisensteinRational(EisensteinInt(3, -10), 6)
    assert parse_element("-3") == EisensteinRational(EisensteinInt(-3, 0))
    assert parse_element("0") == EisensteinRational(0)
    assert parse_element("w") == EisensteinRational(EisensteinInt(0, 1))
    assert parse_element("3w") == EisensteinRational(EisensteinInt(0, 3))
    assert parse_element("2-w") == EisensteinRational(EisensteinInt(2, -1))


def test_whitespace_insensitive():
    assert parse_element(" 1/2 - 5/3 * w ") == parse_element("1/2-5/3*w")
    assert parse_element("6 + 3*w") == parse_element("6+3*w")


def test_repeated_terms_accumulate():
    assert parse_element("1+1+1*w+2*w") == EisensteinRational(EisensteinInt(2, 3))


def test_power_syntax_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_element("w^2")
    assert err.value.position == 2
    assert "position 2" in str(err.value)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError) as err:
        parse_element("1/0")
    assert err.value.position == 3


def test_numbers_above_the_digit_limit_rejected_with_position():
    limit = sys.get_int_max_str_digits()
    big = "9" * (limit + 1)
    for text, position in [(big, 1), (f"1/{big}", 3), (f"2 - {big}*w", 5)]:
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert err.value.position == position, position
        assert f"above the limit of {limit} digits" in str(err.value)
    assert parse_element("9" * limit).num.a == 10 ** limit - 1


def test_various_syntax_errors():
    cases = [("", 1), ("+1", 1), ("1+", 3), ("1//2", 3), ("ww", 2), ("1..", 2),
             ("3*", 3), ("1 2", 3), ("-w", 2), ("1*3", 3), ("*", 2), ("1+-2", 3),
             ("+3 4", 1), ("1/0 5", 3), ("1/*w", 3), ("1/2*3", 5), ("x+1 2", 1)]
    for bad, position in cases:
        with pytest.raises(ParseError) as err:
            parse_element(bad)
        assert err.value.position == position, bad


@settings(max_examples=200, deadline=None)
@given(elements())
def test_generated_elements_parse_to_their_value(case):
    text, value = case
    assert parse_element(text) == value


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789w/*+- ^.x", max_size=12))
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        value = parse_element(text)
    except ParseError as err:
        assert 1 <= err.position <= len(text) + 1
        assert str(err).endswith(f"(at position {err.position})")
    else:
        assert isinstance(value, EisensteinRational)


def test_serialize_parse_roundtrip_1000_random():
    rng = random.Random(13)
    for _ in range(1000):
        x = EisensteinRational.from_coords(
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
        )
        assert parse_element(str(x)) == x


def test_serialized_forms():
    cases = {
        (6, 3, 1): "6+3*w",
        (-3, 0, 1): "-3",
        (0, 0, 1): "0",
        (3, -10, 6): "1/2-5/3*w",
        (0, 1, 1): "1*w",
        (0, -1, 1): "-1*w",
        (0, -7, 2): "-7/2*w",
        (1, -1, 1): "1-1*w",
    }
    for (a, b, den), expected in cases.items():
        x = EisensteinRational(EisensteinInt(a, b), den)
        assert str(x) == expected
        assert parse_element(expected) == x
