"""Exact rational arithmetic extended with infinities.

All bound and sensitivity computations are exact: a value is a
`fractions.Fraction`, or a Python `int` where static analysis holds an
integral value that way (interval narrowing, value grids), and every bound
and sensitivity it returns is a `Fraction`. The only floats that ever enter
are ``+inf``/``-inf`` markers (int and Fraction compare cleanly against
them). Floats proper appear at reporting and noise-sampling time only.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")

# A rational (int or Fraction), or +-inf. No other floats are allowed in this role.
Ext = int | Fraction | float


def is_infinite(x: Ext) -> bool:
    # the class test first: comparing a Fraction with a float takes Fraction's slow path
    return isinstance(x, float) and (x == INF or x == NEG_INF)


def ext_mul(a: Ext, b: Ext) -> Ext:
    """Multiply with the convention 0 * inf = 0 (used by min(delta*S, diam))."""
    if a == 0 or b == 0:
        return Fraction(0)
    if is_infinite(a) or is_infinite(b):
        sign = (1 if a > 0 else -1) * (1 if b > 0 else -1)
        return INF if sign > 0 else NEG_INF
    return a * b


def parse_rational(text: str, name: str) -> Fraction:
    """Parse 'p/q', integer, or decimal text into an exact Fraction; text that
    is not a number, or has too many digits, raises a ValueError naming `name`."""
    s = text.strip()
    error = too_many_digits(s, name)
    if error:
        raise error
    try:
        if "/" in s:
            num, _, den = s.partition("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(s)  # Fraction accepts '3' and '1.5' exactly
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} is not a number: {s[:20]!r}") from None


# Number text in exponent form, as `Fraction` reads it: the mantissa's
# integer and decimal digits, and the exponent.
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE
)


def too_many_digits(text: str, name: str) -> ValueError | None:
    """The error for number text whose value needs more decimal digits than
    Python turns into an int (`sys.get_int_max_str_digits`), naming `name`;
    else None. Exponent form counts the mantissa's digits plus the size of
    the exponent, so `1e5000` (5,001 digits) is refused before `Fraction`
    builds it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (before 3.10.7)
    if not limit:
        return None
    digits = sum(map(str.isdecimal, text))
    if digits <= limit and (form := _EXPONENT_FORM.fullmatch(text)):
        whole, decimal, exponent = form.groups()
        digits = sum(map(str.isdecimal, whole + (decimal or ""))) + abs(int(exponent))
    return ValueError(f"{name} has more than {limit} digits") if digits > limit else None


def to_double(x: Ext, name: str) -> float:
    """x as a double; a ValueError naming the field `name` when x is beyond double range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} is too large for double precision") from None


def format_ext(x: Ext) -> str:
    """Render as 'p/q' (or plain integer), 'inf', or '-inf'."""
    if is_infinite(x):
        return "inf" if x > 0 else "-inf"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

