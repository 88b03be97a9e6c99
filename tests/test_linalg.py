import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import gauss_jordan_oracle, kernel_oracle, solve_oracle, sparse_rref_oracle

from bihomega import cochain, linalg, samples
from bihomega.bimodule import regular_bimodule
from bihomega.linalg import (
    Mat,
    _supports,
    rank,
    sparse_kernel,
    sparse_rank,
    sparse_rows,
    sparse_rref,
    sparse_solve,
)
from bihomega.rationals import Rat, format_rational, parse_rational


def _sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _rref(rows, ncols):
    """:func:`sparse_rref` of dense rows in the form of gauss_jordan_oracle:
    (the nonzero reduced rows, dense, and the pivot columns)."""
    reduced = sparse_rref(_sparse(rows), ncols)
    return [[row.get(c, 0) for c in range(ncols)] for _, row in reduced], [c for c, _ in reduced]


def _dense(vec, ncols):
    return [vec.get(c, 0) for c in range(ncols)]


def test_rref_identity():
    rows = [[1, 0], [0, 1]]
    reduced, pivots = _rref(rows, 2)
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]
    assert (reduced, pivots) == gauss_jordan_oracle(rows, 2)


def test_rref_rank_one():
    rows = [[2, 4], [1, 2]]
    reduced, pivots = _rref(rows, 2)
    assert reduced == [[1, 2]]
    assert pivots == [0]
    assert (reduced, pivots) == gauss_jordan_oracle(rows, 2)


def test_rref_zero():
    rows = [[0] * 3 for _ in range(3)]
    reduced, pivots = _rref(rows, 3)
    assert reduced == []
    assert pivots == []
    assert (reduced, pivots) == gauss_jordan_oracle(rows, 3)


def test_rref_idempotent_random():
    rng = random.Random(5)
    for _ in range(20):
        nrows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rows = [[Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(nrows)]
        reduced, pivots = _rref(rows, cols)
        assert (reduced, pivots) == gauss_jordan_oracle(rows, cols)
        again, _ = _rref(reduced, cols)
        assert again == reduced


def test_rank_examples():
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat.zeros(3, 2)) == 0
    assert rank(Mat.from_rows([[1, 2], [2, 4], [3, 6]])) == 1


def test_kernel_identity_empty():
    assert sparse_kernel([{0: 1}, {1: 1}, {2: 1}], 3) == []
    assert kernel_oracle(Mat.identity(3)) == []


def test_kernel_zero_matrix_standard_basis():
    kb = sparse_kernel([{}, {}], 3)
    assert kb == [{0: 1}, {1: 1}, {2: 1}]
    assert [_dense(vec, 3) for vec in kb] == kernel_oracle(Mat.zeros(2, 3))


def test_kernel_free_coordinate_convention():
    kb = sparse_kernel([{0: 1, 1: 1}], 2)
    assert kb == [{0: Rat(-1), 1: Rat(1)}]
    assert [_dense(vec, 2) for vec in kb] == kernel_oracle(Mat.from_rows([[1, 1]]))


def test_sparse_rows_transpose_columns_and_supports_read_a_mat():
    """sparse_rows puts entry i of column j at row i, column j, leaving
    untouched rows empty; _supports reads the rows or columns of a Mat."""
    cols = [{0: 2, 3: Rat(1, 2)}, {}, {3: -1}]
    assert sparse_rows(cols, 5) == [{0: 2}, {}, {}, {0: Rat(1, 2), 2: -1}, {}]
    assert sparse_rows([], 2) == [{}, {}]
    m = Mat.from_rows([[1, 0, 2], [0, 0, -3]])
    assert _supports(m) == [[(0, 1), (2, 2)], [(2, -3)]]
    assert _supports(m, by_col=True) == [[(0, 1)], [], [(0, 2), (1, -3)]]
    assert rank(m) == 2 and rank(Mat.zeros(0, 0)) == 0


def test_sparse_kernel_free_column_is_the_largest_key():
    """Each kernel vector is 1 at its free column, which is its largest key
    (RREF pivots increase, so a pivot row touches only columns right of its
    pivot); the frees are exactly the non-pivot columns, in increasing order."""
    rng = random.Random(53)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(0, 6)):
            row = {c: Rat(rng.randint(-3, 3), rng.randint(1, 2)) for c in range(ncols) if rng.random() < 0.5}
            rows.append({c: v for c, v in row.items() if v})
        pivots = {c for c, _ in sparse_rref(rows, ncols)}
        basis = sparse_kernel(rows, ncols)
        frees = [max(vec) for vec in basis]
        assert frees == [c for c in range(ncols) if c not in pivots]
        for vec, free in zip(basis, frees):
            assert vec[free] == 1
            assert all(c in pivots for c in vec if c != free)
            for r in rows:
                assert sum(v * vec.get(c, 0) for c, v in r.items()) == 0


def test_rank_nullity_random():
    rng = random.Random(17)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        rows = [[Rat(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(nrows)]
        m = Mat.from_rows(rows)
        kb = [_dense(vec, cols) for vec in sparse_kernel(_sparse(rows), cols)]
        assert kb == kernel_oracle(m)
        assert rank(m) + len(kb) == cols
        for vec in kb:
            assert all(v == 0 for v in m.matvec(vec))


def test_solve_roundtrip_and_inconsistent():
    rng = random.Random(23)
    for _ in range(20):
        nrows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rows = [[Rat(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(nrows)]
        m = Mat.from_rows(rows)
        x = [Rat(rng.randint(-2, 2)) for _ in range(cols)]
        b = m.matvec(x)
        got = sparse_solve(_sparse(rows), b, cols)
        assert got is not None
        assert got == solve_oracle(m, b)
        assert m.matvec(got) == b
    assert sparse_solve([{}], [Rat(1)], 1) is None
    assert solve_oracle(Mat.from_rows([[0]]), [Rat(1)]) is None


def test_exact_arithmetic_no_rounding():
    rows = [[Rat(1, 3), Rat(1, 7)], [Rat(1, 11), Rat(1, 13)]]
    reduced, pivots = _rref(rows, 2)
    assert pivots == [0, 1]
    assert reduced == [[1, 0], [0, 1]]
    assert (reduced, pivots) == gauss_jordan_oracle(rows, 2)
    third = Rat(1, 3)
    assert third + third + third == Rat(1)


def test_rational_text_forms():
    assert format_rational(Rat(-3, 2)) == "-3/2"
    assert format_rational(Rat(7)) == "7"
    assert parse_rational("-3/2") == Rat(-3, 2)
    with pytest.raises(ValueError, match="'2'"):
        parse_rational("4/2")
    with pytest.raises(ValueError):
        parse_rational("3/1")
    with pytest.raises(ValueError):
        parse_rational("+3")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_integral_scalars_are_plain_ints():
    assert type(Rat(4, 2)) is int
    assert type(Rat("7")) is int
    assert type(Rat(Rat(3, 2) + Rat(1, 2))) is int
    half = Rat(1, 2)
    assert type(half) is not int and half.denominator == 2
    assert format_rational(half) == "1/2"


def _assert_exact(values):
    for v in values:
        assert not isinstance(v, float)
        if v.denominator == 1:
            assert type(v) is int


def test_pivot_two_results_exact_and_integer_first():
    # Pivot 2 in column 0 makes the first row [1, 1/2, 2]; the second row then
    # reduces through rational arithmetic to [0, 1, -3], which must be ints.
    rows = [{0: 2, 1: 1, 2: 4}, {0: 4, 1: 4, 2: 2}]
    reduced = sparse_rref(rows, 3)
    assert [c for c, _ in reduced] == [0, 1]
    for _, row in reduced:
        _assert_exact(row.values())
    assert reduced[0][1] == {0: 1, 2: Rat(7, 2)}
    assert reduced[1][1] == {1: 1, 2: -3}
    assert type(reduced[1][1][2]) is int
    m = Mat.from_rows([[2, 1, 4], [4, 4, 2]])
    assert [c for c, _ in reduced] == gauss_jordan_oracle([m.row(0), m.row(1)], 3)[1]
    kb = sparse_kernel(rows, 3)
    _assert_exact(kb[0].values())
    assert kb == [{0: Rat(-7, 2), 1: 3, 2: 1}]
    assert [_dense(kb[0], 3)] == kernel_oracle(m)
    x = sparse_solve(rows, [2, 8], 3)
    _assert_exact(x)
    assert x == [0, 2, 0] == solve_oracle(m, [2, 8])
    assert all(type(v) is int for v in x)


def _random_systems(rng):
    """Seeded dense matrices covering the shapes elimination must handle.

    Integer and one-third-integer entries, zero and duplicate rows, rows
    that are combinations of earlier ones, tall and wide shapes, and rows
    scaled so that pivots are not 1.
    """
    for case in range(120):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if case % 3 == 1:
            nrows = ncols + rng.randint(2, 5)  # tall
        elif case % 3 == 2:
            ncols = nrows + rng.randint(2, 5)  # wide
        denom = 3 if case % 2 else 1
        density = rng.choice((0.25, 0.5, 0.9))
        rows = [
            [Rat(rng.randint(-4, 4), denom) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        for i in range(nrows):
            kind = rng.randrange(5)
            if kind == 0:
                rows[i] = [0] * ncols
            elif kind == 1 and i:
                rows[i] = list(rows[rng.randrange(i)])
            elif kind == 2 and i >= 2:
                p, q = rng.sample(range(i), 2)
                lam, mu = rng.randint(-3, 3), Rat(rng.randint(-3, 3), 2)
                rows[i] = [lam * x + mu * y for x, y in zip(rows[p], rows[q])]
            elif kind == 3:
                scale = rng.choice((2, -3, 5, Rat(2, 3)))
                rows[i] = [scale * x for x in rows[i]]
        yield [[Rat(x) for x in r] for r in rows], ncols


def test_elimination_matches_dense_gauss_jordan_oracle():
    rng = random.Random(61)
    seen = {"rational": False, "deficient": False, "zero_row": False, "inconsistent": False}
    for rows, ncols in _random_systems(rng):
        reduced, pivots = gauss_jordan_oracle(rows, ncols)
        seen["rational"] |= any(v.denominator != 1 for r in reduced for v in r)
        seen["deficient"] |= len(pivots) < min(len(rows), ncols)
        seen["zero_row"] |= any(not any(r) for r in rows)
        sparse = _sparse(rows)
        got = sparse_rref(sparse, ncols)
        assert [c for c, _ in got] == pivots
        assert [row for _, row in got] == _sparse(reduced)
        for _, row in got:
            _assert_exact(row.values())
        assert sparse == _sparse(rows)  # the input is left alone
        m = Mat.from_rows(rows)
        assert rank(m) == len(pivots)
        assert sparse_kernel(sparse, ncols) == _sparse(kernel_oracle(m))
        x0 = [Rat(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(ncols)]
        for rhs in (m.matvec(x0), [Rat(rng.randint(-3, 3)) for _ in range(len(rows))]):
            x = sparse_solve(sparse, rhs, ncols)
            assert x == solve_oracle(m, rhs)
            if x is None:
                seen["inconsistent"] = True
                continue
            _assert_exact(x)
    assert all(seen.values()), seen


def _mixed_systems(rng):
    """Seeded systems whose rows mix denominators 1, 2, 3 and 7, carry
    entries above 2^64, lead with 2, -3 or 2/3, and include exact
    combinations of earlier rows (so the rank is deficient)."""
    big = 2**64 + 13
    for case in range(60):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        rows = []
        for i in range(nrows):
            kind = rng.randrange(4)
            if kind == 0 and i >= 2:
                p, q = rng.sample(range(i), 2)
                lam, mu = Rat(big + rng.randint(0, 9), 7), Rat(-rng.randint(1, 5), 2)
                rows.append([lam * x + mu * y for x, y in zip(rows[p], rows[q])])
                continue
            row = [
                Rat(rng.randint(-3, 3) * (big if rng.random() < 0.3 else 1), rng.choice((1, 2, 3, 7)))
                if rng.random() < 0.6
                else 0
                for _ in range(ncols)
            ]
            lead = rng.randrange(ncols)
            row[:lead] = [0] * lead
            row[lead] = rng.choice((2, -3, Rat(2, 3)))
            rows.append(row)
        yield rows, ncols


def test_integer_rank_matches_oracle_on_mixed_denominators_and_large_entries():
    rng = random.Random(89)
    seen = {"deficient": False, "large": False, "denominators": set()}
    for rows, ncols in _mixed_systems(rng):
        want = len(gauss_jordan_oracle(rows, ncols)[1])
        seen["deficient"] |= want < min(len(rows), ncols)
        seen["large"] |= any(abs(v) > 2**64 for r in rows for v in r)
        seen["denominators"] |= {Fraction(v).denominator for r in rows for v in r}
        sparse = _sparse(rows)
        assert sparse_rank(sparse) == want
        assert sparse == _sparse(rows)  # the input is left alone
    assert seen["deficient"] and seen["large"] and {1, 2, 3, 7} <= seen["denominators"]


def test_integer_rref_matches_rational_oracle_on_mixed_denominators():
    """The fraction-free RREF equals the rational one entry for entry, type
    included: an integral entry is an int, any other a reduced rational."""
    rng = random.Random(103)
    systems = list(_mixed_systems(rng)) + list(_random_systems(rng))
    seen_rational = False
    for rows, ncols in systems:
        sparse = _sparse(rows)
        got = sparse_rref(sparse, ncols)
        assert got == sparse_rref_oracle(sparse, ncols)
        for _, row in got:
            _assert_exact(row.values())
            seen_rational |= any(type(v) is not int for v in row.values())
        assert sparse == _sparse(rows)  # the input is left alone
    assert seen_rational


def test_integer_echelon_rows_are_primitive_with_positive_leads():
    """Each stored pivot row is divided by its content, sign included, on a
    system whose rows share large factors."""
    big = 3**45
    rows = [
        {0: 2 * big, 1: 4 * big, 2: 6},
        {0: -3 * big, 1: 5, 2: 9 * big},
        {0: 4, 1: 8 * big, 3: 12},
        {1: -6, 2: 3 * big, 3: 9},
    ]
    pivots = linalg._integer_echelon(rows)
    assert sorted(pivots) == [0, 1, 2, 3]
    for col, row in pivots.items():
        assert col == min(row) and row[col] > 0
        assert gcd(*row.values()) == 1
        assert all(type(v) is int for v in row.values())


def test_echelon_keeps_the_sparser_row_at_each_pivot():
    """A row that meets a pivot with more nonzeros at its leading column takes
    its place, content-normalized, and the displaced pivot is reduced on.
    Work guard, exact: ranking the 64 degree-4 basis images of c2 variant 0
    leaves 4840 echelon nonzeros; reducing every row by the pivot already in
    place left 7588."""
    pivots = linalg._integer_echelon([{0: 1, 1: 1, 2: 1}, {0: 2, 2: 4}])
    assert pivots == {0: {0: 1, 2: 2}, 1: {1: 1, 2: -1}}
    b = regular_bimodule(samples.build_c2_example(0))
    pivots = linalg._integer_echelon(list(cochain._basis_images(b, 4)))
    assert len(pivots) == 153
    assert sum(map(len, pivots.values())) == 4840


def test_row_order_moves_the_echelon_but_not_rank_rref_or_kernel():
    """The echelon depends on the order of the rows; the RREF is unique, so
    on seeded permutations of the c2 variant 0 degree-3 basis images and of
    the semidirect product's C^5 constraint rows, rank, RREF and kernel
    equal those of the unpermuted rows, and the RREF equals the rational
    oracle's, while some permutation leaves another echelon."""
    c2 = regular_bimodule(samples.build_c2_example(0))
    semidirect = regular_bimodule(samples.build_e1_semidirect())
    row_sets = [
        (list(cochain._basis_images(c2, 3)), cochain._raw_size(c2, 4)),
        (list(cochain._constraint_rows(semidirect, (0,) * 5)), cochain._raw_size(semidirect, 5)),
    ]
    rng = random.Random(2031)
    echelon_moved = False
    for rows, ncols in row_sets:
        reduced, kernel = sparse_rref(rows, ncols), sparse_kernel(rows, ncols)
        assert reduced == sparse_rref_oracle(rows, ncols)
        echelon = linalg._integer_echelon(rows)
        for _ in range(4):
            shuffled = rng.sample(rows, len(rows))
            echelon_moved |= linalg._integer_echelon(shuffled) != echelon
            assert sparse_rank(shuffled) == len(reduced)
            assert sparse_rref(shuffled, ncols) == reduced == sparse_rref_oracle(shuffled, ncols)
            assert sparse_kernel(shuffled, ncols) == kernel
    assert echelon_moved


def test_cross_elimination_divides_by_the_gcd_of_the_leads():
    """row <- (p/g) row - (r/g) pivot: leads 4 and 6 share g = 2."""
    row = {0: 6, 1: 1, 2: 5}
    assert linalg._cross_eliminate(row, {0: 4, 1: 1}, 0) == {1: -1, 2: 10}
    assert linalg._cross_eliminate({0: -9, 3: 1}, {0: 3, 3: 2}, 0) == {3: 7}


def test_integer_rank_builds_no_rational(monkeypatch):
    """Integral rows, with pivots 2 and -3 and rank-deficient combinations,
    are ranked without one Fraction or one call to Rat."""
    rng = random.Random(97)
    systems = []
    for rows, ncols in _random_systems(rng):
        if all(type(v) is int for r in rows for v in r):
            systems.append((_sparse(rows), len(gauss_jordan_oracle(rows, ncols)[1])))
    systems.append(([{0: 2, 1: 4}, {0: -3, 1: 5}, {0: 1, 1: 2}, {1: 22}], 2))
    assert len(systems) > 20

    def refuse(*args, **kwargs):
        raise AssertionError("a rational was built")

    monkeypatch.setattr(linalg, "Rat", refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = [sparse_rank(rows) for rows, _ in systems]
    monkeypatch.undo()
    assert got == [want for _, want in systems]
