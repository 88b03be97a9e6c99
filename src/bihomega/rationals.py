"""Exact scalars: plain ``int`` when integral, a rational only otherwise.

Every number in the workbench is an exact rational, and almost every one is
an integer: structure maps, fixture data, random cochains and the entries
of δ, δ-matrices and brackets.  So an integral value is stored as a plain
Python ``int``, whose arithmetic is much cheaper than a rational's (see
``BENCH_scalars.json``), and only a non-integral value is a
``fractions.Fraction``.  It keeps values reduced with a positive
denominator, which is exactly the invariant the canonical text form relies
on.

Sums, differences and products of ints stay ints, so non-integral values
arise only where the input holds them (a ``1/2`` in a fixture, a sampled
``Rat(1, 2)``) and where elimination divides by a pivot: once per row at
the end of ``linalg.sparse_rref``.  A quotient that is integral stays an
``int``; any other goes through :func:`Rat`, the one canonicalizing
constructor.  Mixed arithmetic elsewhere may leave an integral value in
rational form; it compares, hashes and formats like the ``int``.  All
formatting goes through :func:`format_rational`, so serialized output does
not depend on the representation.

Canonical text form: optional leading ``-``, an integer, and an optional
``/`` followed by a positive integer, with gcd(numerator, denominator) = 1
and no denominator of 1 spelled out.  Examples: ``-3/2``, ``7``, ``0``.
"""

from __future__ import annotations

import re
from fractions import Fraction as _Q

RAT_BACKEND = "fractions"

ZERO = 0
ONE = 1

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def Rat(num=0, den=1):
    """The exact scalar ``num / den``: an ``int`` when integral, else a rational.

    Accepts an int, a rational, a string ``Fraction`` reads (``"-3/2"``,
    ``"7"``) or a numerator and denominator that are ints or rationals.
    """
    if den == 1:
        if type(num) is int:
            return num
        q = _Q(num)
    else:
        q = _Q(num) / _Q(den)
    return q.numerator if q.denominator == 1 else q


# The canonical text form is ``str``: a Fraction keeps its sign on the numerator
# and prints no ``/1``, and an int prints as itself.
format_rational = str


def parse_rational(text: str):
    """Parse the canonical text form, rejecting non-canonical spellings.

    Raises ValueError whose message suggests the canonical spelling when the
    value is readable but written non-canonically (e.g. ``4/2`` -> ``2``).
    """
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    den_text = match.group(2)
    if den_text is None:
        value = num
    else:
        den = int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        value = Rat(num, den)
    canonical = format_rational(value)
    if canonical != text:
        raise ValueError(f"non-canonical rational {text!r}; write {canonical!r}")
    return value
