"""Text grammar for elements of Q(w), shared by the CLI and reports.

    element  := '-'? term (('+'|'-') term)*
    term     := rational | rational? '*'? 'w'
    rational := INT ('/' POSINT)?

"w" denotes the primitive cube root of unity.  Whitespace may stand between
any two tokens but ends a number: "1 2" is two numbers, not 12.  The leading
minus sign belongs to the first number ("-3", "-5/3*w"; "-w" is an error).
Serialization (str() on the element types) always emits the fully reduced
"A/B+C/D*w" shape with zero parts omitted, which re-parses to an equal value.

A ParseError carries a 1-based column.  A character outside the grammar is
reported at its own column, before any syntax error.  Otherwise the error is
at the first token where the text stops being the start of a valid element
("1//2" -> 3, "3*" -> 3, "-w" -> 2, "+1" -> 1, "1 2" -> 3), or at
len(text) + 1 when the text ends too early ("1+" -> 3).
"""

from __future__ import annotations

import re
import sys

from .eisenstein import EisensteinInt, EisensteinRational

__all__ = ["ParseError", "parse_element"]

_ILLEGAL = re.compile(r"[^\s\dw/*+-]")
# Each part is optional, so a match stops where a term can no longer continue.
_TERM = re.compile(r"\s*(?:(\d+)(?:\s*(/)(?:\s*(\d+))?)?)?(?:\s*(\*))?(?:\s*(w))?\s*")


class ParseError(ValueError):
    """Syntax error in an element expression, with a 1-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _column(text: str, i: int) -> int:
    """1-based column of the first non-space character at or after index i."""
    return len(text) - len(text[i:].lstrip()) + 1


def _digit_limit_error(digits: int) -> str | None:
    """The message for a number of `digits` digits that int() would refuse:
    Python converts at most sys.get_int_max_str_digits() digits (4300 by
    default, 0 for no limit; Python 3.10.7 and later) between int and str."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if 0 < limit < digits:
        return (f"input number has {digits} digits, above the limit of "
                f"{limit} digits on integer string conversion")
    return None


def _check_digits(m: re.Match, group: int) -> None:
    """Raise a ParseError for a number int() would refuse."""
    digits = m.group(group)
    message = digits and _digit_limit_error(len(digits))
    if message:
        raise ParseError(message, m.start(group) + 1)


def parse_element(text: str) -> EisensteinRational:
    """Parse an element expression; raises ParseError with a position."""
    bad = _ILLEGAL.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1)
    x, y = [0, 1], [0, 1]  # each coordinate as an integer pair n/d, reduced once at the end
    lead = re.match(r"\s*-", text)
    sign, pos = (-1, lead.end()) if lead else (1, 0)
    while True:
        m = _TERM.match(text, pos)
        num, slash, den, star, w = m.groups()
        if num is None and (lead or not (star or w)):
            what = "a number after '-'" if lead else "a term"
            raise ParseError(f"expected {what}", _column(text, pos))
        lead = None
        _check_digits(m, 1)
        _check_digits(m, 3)
        if slash and den is None:
            raise ParseError("expected a denominator", _column(text, m.end(2)))
        if den is not None and int(den) == 0:
            raise ParseError("zero denominator", m.start(3) + 1)
        if star and not w:
            raise ParseError("expected 'w'", _column(text, m.end(4)))
        n, d = sign * int(num or 1), int(den or 1)
        acc = y if w else x
        acc[0], acc[1] = acc[0] * d + n * acc[1], acc[1] * d
        pos = m.end()
        if pos == len(text):
            return EisensteinRational(EisensteinInt(x[0] * y[1], y[0] * x[1]), x[1] * y[1])
        if text[pos] not in "+-":
            raise ParseError(f"unexpected {text[pos]!r}", pos + 1)
        sign = -1 if text[pos] == "-" else 1
        pos += 1
