"""Exact rational values and their "p/q" wire format.

All distances and sequence entries in this package are ints or
fractions.Fraction; nothing numeric is ever a float.  On the wire an
integral value is written bare ("6") and anything else as "p/q".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def canon(value: Rational) -> Rational:
    """Collapse integral fractions to int so equal values compare and hash equal."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def as_rational(value) -> Rational:
    """Coerce int, Fraction, or a 'p/q' / 'n' string to an exact rational."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return canon(value)
    if isinstance(value, str):
        return rat_parse(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Rational) -> str:
    value = canon(value)
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def rat_parse(text: str) -> Rational:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return canon(Fraction(int(num), int(den)))
    return int(text)


def rat_json(value: Rational):
    """JSON encoding: bare int when integral, 'p/q' string otherwise."""
    value = canon(value)
    if isinstance(value, int):
        return value
    return rat_str(value)


def rat_from_json(value) -> Rational:
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return rat_parse(value)
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float distance: {value!r}")
    raise TypeError(f"not a rational encoding: {value!r}")
