"""Finite unital index monoids.

Elements are dense integer indices 0..size-1; the multiplication table is
``table[a][b] = a*b``.  Every structure in the workbench is indexed by such a
monoid, and degree 0 reads its unit, the product of the empty word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import MalformedInputError


class Monoid:
    """``table`` is a tuple of tuples of element indices; equal and hashed by value."""

    __slots__ = ("size", "unit", "table")

    def __init__(self, size: int, unit: int, table: tuple):
        self.size = size
        self.unit = unit
        self.table = table

    def __eq__(self, other):
        return isinstance(other, Monoid) and (
            (self.size, self.unit, self.table) == (other.size, other.unit, other.table)
        )

    def __hash__(self):
        return hash((self.size, self.unit, self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.size)

    def tuples(self, n: int) -> tuple:
        """All length-n index tuples in lexicographic order."""
        return _tuples(self.size, n)

    def product_of(self, word) -> int:
        """Product of a word of element indices; the empty word's is the unit."""
        return product_word(self, word) if len(word) else self.unit


@lru_cache(maxsize=None)
def _tuples(size: int, n: int) -> tuple:
    return tuple(product(range(size), repeat=n))


class MonoidViolation(NamedTuple):
    kind: str  # "associativity" | "unit"
    triple: tuple

    def describe(self) -> str:
        return f"{self.kind} fails at {self.triple}"


def validate_monoid(m: Monoid) -> MonoidViolation | None:
    """None when associative and unital, else the first violation.

    Scan order is lexicographic over triples (associativity) and elements
    (unit), so the reported counterexample is reproducible.  Out-of-range
    table entries raise MalformedInputError.
    """
    if len(m.table) != m.size or any(len(row) != m.size for row in m.table):
        raise MalformedInputError("multiplication table has wrong shape")
    for row in m.table:
        for x in row:
            if not (0 <= x < m.size):
                raise MalformedInputError(f"table entry {x} out of range")
    if not (0 <= m.unit < m.size):
        raise MalformedInputError(f"unit {m.unit} out of range")
    for a, b, c in product(range(m.size), repeat=3):
        if m.table[m.table[a][b]][c] != m.table[a][m.table[b][c]]:
            return MonoidViolation("associativity", (a, b, c))
    for x in range(m.size):
        if m.table[m.unit][x] != x or m.table[x][m.unit] != x:
            return MonoidViolation("unit", (x,))
    return None


def ensure_monoid(m: Monoid):
    violation = validate_monoid(m)
    if violation is not None:
        raise MalformedInputError(f"invalid monoid: {violation.describe()}")


def product_word(m: Monoid, word) -> int:
    """Left fold of the table over a nonempty word of element indices."""
    word = tuple(word)
    if not word:
        raise MalformedInputError("empty word has no product")
    acc = word[0]
    if not (0 <= acc < m.size):
        raise MalformedInputError(f"index {acc} out of range")
    for x in word[1:]:
        if not (0 <= x < m.size):
            raise MalformedInputError(f"index {x} out of range")
        acc = m.table[acc][x]
    return acc


def trivial_monoid() -> Monoid:
    return Monoid(1, 0, ((0,),))


def cyclic_monoid(n: int) -> Monoid:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return Monoid(n, 0, table)


def boolean_monoid() -> Monoid:
    """Two idempotent elements, 0 the unit, 1 absorbing (logical OR)."""
    return Monoid(2, 0, ((0, 1), (1, 1)))
