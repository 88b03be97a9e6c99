import random
from itertools import product

import pytest

from bihomega.errors import MalformedInputError
from bihomega.monoid import (
    Monoid,
    boolean_monoid,
    cyclic_monoid,
    product_word,
    trivial_monoid,
    validate_monoid,
)


def exhaustive_scan(m):
    """Independent triple-scan oracle mirroring the validator's contract."""
    for a, b, c in product(range(m.size), repeat=3):
        if m.table[m.table[a][b]][c] != m.table[a][m.table[b][c]]:
            return ("associativity", (a, b, c))
    for x in range(m.size):
        if m.table[m.unit][x] != x or m.table[x][m.unit] != x:
            return ("unit", (x,))
    return None


def test_trivial_ok():
    assert validate_monoid(trivial_monoid()) is None


def test_cyclic_and_boolean_ok():
    assert validate_monoid(cyclic_monoid(2)) is None
    assert validate_monoid(cyclic_monoid(3)) is None
    assert validate_monoid(boolean_monoid()) is None


def test_c2_with_absorbing_corner_is_still_a_monoid():
    # flipping C2's last entry lands on the boolean monoid, which is valid
    assert validate_monoid(Monoid(2, 0, ((0, 1), (1, 1)))) is None


def test_broken_table_first_violation_matches_oracle():
    broken = Monoid(2, 0, ((0, 0), (1, 0)))
    expected = exhaustive_scan(broken)
    got = validate_monoid(broken)
    assert got is not None
    assert (got.kind, got.triple) == expected
    assert got.kind == "associativity" and got.triple == (1, 0, 1)


def test_out_of_range_entry_rejected():
    with pytest.raises(MalformedInputError):
        validate_monoid(Monoid(2, 0, ((0, 1), (1, 2))))


def test_product_word_examples():
    assert product_word(trivial_monoid(), [0, 0, 0]) == 0
    c2 = cyclic_monoid(2)
    assert product_word(c2, [1, 1]) == 0
    assert product_word(c2, [1, 0, 1, 1]) == 1


def test_product_word_empty_rejected():
    with pytest.raises(MalformedInputError):
        product_word(cyclic_monoid(2), [])


def test_product_of_the_empty_word_is_the_unit():
    """Degree 0 reads the product of the empty tuple: the unit, on every
    named monoid (one with unit 1 included), where the free function
    product_word still refuses an empty word."""
    logical_and = Monoid(2, 1, ((0, 0), (0, 1)))
    assert validate_monoid(logical_and) is None
    for m in (trivial_monoid(), cyclic_monoid(2), cyclic_monoid(3), boolean_monoid(), logical_and):
        assert m.product_of(()) == m.unit
        assert m.product_of((m.unit,)) == m.unit
        with pytest.raises(MalformedInputError, match="empty word"):
            product_word(m, [])


def test_rebracketing_invariance():
    rng = random.Random(9)
    for m in (cyclic_monoid(2), cyclic_monoid(3), boolean_monoid()):
        for _ in range(50):
            word = [rng.randrange(m.size) for _ in range(rng.randint(1, 6))]
            left = product_word(m, word)
            right = word[-1]
            for x in reversed(word[:-1]):
                right = m.mul(x, right)
            assert left == right
