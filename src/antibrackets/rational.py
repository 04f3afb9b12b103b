"""Exact rational scalars and their text form.

Every computation in this package is exact: scalars are arbitrary-precision
rationals (``gmpy2.mpq`` when available, ``fractions.Fraction`` otherwise).
Both backends keep values reduced with a positive denominator, so equality
is plain value comparison and no rounding can ever occur.

Rationals serialize as ``"p/q"``, with ``/q`` omitted when q == 1.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rational
except ImportError:  # gmpy2 is optional; the runtime budgets hold without it
    from fractions import Fraction as Rational

__all__ = ["Rational", "rat", "format_rational", "parse_rational"]


def rat(numerator, denominator=1):
    """Exact rational from integers; denominator normalized positive."""
    return Rational(numerator, denominator)


def format_rational(value) -> str:
    """Render an int or rational as "p/q", dropping "/q" when q == 1."""
    if isinstance(value, int):
        return str(value)
    q = value.denominator
    if q == 1:
        return str(value.numerator)
    return f"{value.numerator}/{q}"


def parse_rational(text: str):
    """Inverse of :func:`format_rational`; ValueError on malformed text."""
    parts = text.split("/")
    if len(parts) > 2:
        raise ValueError(f"not a rational: {text!r} has more than one '/'")
    q = int(parts[1]) if len(parts) == 2 else 1
    if q == 0:
        raise ValueError(f"not a rational: {text!r} has a zero denominator")
    return rat(int(parts[0]), q)
