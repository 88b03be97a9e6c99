"""Exact rational linear algebra on sparse rows.

Provides the reduced row echelon form, rank, null-space bases, and linear
solves that the rest of the workbench is built on.  Everything is exact over
the rationals; nothing ever rounds.

Sparse row dicts {column: nonzero value} are the one elimination interface:
:func:`sparse_rows` transposes sparse columns (images of a basis) into them,
and ``_supports`` reads the sparse rows or columns of a :class:`Mat`, the
small dense matrix of the structure maps (:func:`rank` ranks its rows).

Elimination reduces one row at a time against a {pivot_col: row} echelon,
so the cost follows the nonzeros, not the shape.  It is fraction-free, in
the spirit of Bareiss 1968: rows scaled to integers are reduced by
row <- (p/g) row - (r/g) pivot with g = gcd(p, r), and stored divided by
their content.  Pivot rule: a row that meets a pivot with more nonzeros at
its leading column takes its place and the displaced pivot is reduced
instead, so the echelon fills in less.  The echelon then depends on the
order of the rows; its pivot columns and the RREF, and so every rank,
kernel and solve, do not.
:func:`sparse_rank` counts the pivots of that echelon and builds no
rational.
:func:`sparse_rref` back-substitutes it the same way, in integers, and
divides each row by its pivot once at the end, the one rational division of
the RREF that :func:`sparse_kernel` and :func:`sparse_solve` read off;
integral entries stay ``int`` (see ``rationals``).  :func:`reduce_into`
keeps a rational echelon with pivots normalized to 1, one row at a time, for
the degree-0 image intersection in ``cochain``.

Conventions that downstream determinism depends on:

* the RREF is the (unique) reduced echelon form, pivots normalized to 1;
* :func:`sparse_kernel` assigns one basis vector per free column, taken in
  increasing column order, with the free coordinate set to 1;
* :func:`sparse_solve` returns the solution whose free coordinates are all 0.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import MalformedInputError
from .rationals import ONE, ZERO, Rat, format_rational


class Mat:
    """Dense rows x cols matrix of exact rationals, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise MalformedInputError(
                f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        m = cls.zeros(n, n)
        for i in range(n):
            m.entries[i * n + i] = ONE
        return m

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, [])
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise MalformedInputError("ragged rows")
        flat = [Rat(x) for r in rows for x in r]
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_cols(cls, cols, nrows: int | None = None) -> "Mat":
        cols = [list(c) for c in cols]
        if not cols:
            return cls(nrows or 0, 0, [])
        nrows = len(cols[0])
        m = cls.zeros(nrows, len(cols))
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise MalformedInputError("ragged columns")
            for i, x in enumerate(c):
                m.entries[i * len(cols) + j] = Rat(x)
        return m

    @classmethod
    def scalar(cls, n: int, value) -> "Mat":
        m = cls.zeros(n, n)
        v = Rat(value)
        for i in range(n):
            m.entries[i * n + i] = v
        return m

    # -- access ----------------------------------------------------------

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    # -- arithmetic ------------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise MalformedInputError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = Mat.zeros(self.rows, other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if not a:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if b:
                        out.entries[rbase + j] += a * b
        return out

    def matvec(self, vec) -> list:
        if len(vec) != self.cols:
            raise MalformedInputError("vector length mismatch")
        out = [ZERO] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for j, v in enumerate(vec):
                if v:
                    acc += self.entries[base + j] * v
            out[i] = acc
        return out

    def add(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def sub(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, factor) -> "Mat":
        f = Rat(factor)
        return Mat(self.rows, self.cols, [f * a for a in self.entries])

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise MalformedInputError("power of a non-square matrix")
        result = Mat.identity(self.rows)
        for _ in range(k):
            result = result.mul(self)
        return result

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self == Mat.identity(self.rows)

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise MalformedInputError("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols}: {body})"


# -- sparse rows and tensor products --------------------------------------


def _supports(mat: Mat, by_col: bool = False) -> list:
    """Sparse rows (or columns) of a matrix: [[(index, nonzero)]]."""
    line, count = (mat.col, mat.cols) if by_col else (mat.row, mat.rows)
    return [[(i, v) for i, v in enumerate(line(j)) if v] for j in range(count)]


def sparse_rows(cols, nrows: int) -> list:
    """The rows 0..nrows-1 of sparse columns ({row: value} each), as
    {column: value} dicts; a row that no column touches is empty."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def rank(m: Mat) -> int:
    return sparse_rank(map(dict, _supports(m)))


def _kron(tables) -> list:
    """Sparse Kronecker products, one per index tuple (j_1..j_k) in lex order.

    ``tables[s] = (width, entries)``: ``entries[j]`` is the sparse vector
    [(position, coeff)] that index j selects at slot s.  A product is
    [(mixed-radix rank of the positions, coeff)]; tuples that share a prefix
    share its partial product, and only nonzeros are visited.
    """
    prods = [[(0, ONE)]]
    for width, entries in tables:
        prods = [[(r * width + p, c * v) for r, c in prod for p, v in entry]
                 for prod in prods for entry in entries]
    return prods


# -- sparse elimination core ---------------------------------------------


def reduce_into(pivots: dict, row: dict) -> bool:
    """Forward-eliminate one row against the echelon ``pivots``; keep the rest.

    ``pivots`` maps each pivot column to its row, normalized so that the
    pivot is 1 and is the row's smallest column.  The row (not modified) is
    reduced by the pivot rows at its leading column until it is zero or
    leads at a new column; in that case it is normalized, stored, and True
    is returned.
    """
    row = {c: v if type(v) is int else Rat(v) for c, v in row.items() if v}
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            lead = row[col]
            if lead != 1:
                inv = Rat(1, lead)
                row = {c: Rat(inv * v) for c, v in row.items()}
            pivots[col] = row
            return True
        _axpy(row, -row[col], pivot)
    return False


def _axpy(row: dict, factor, other: dict):
    """row += factor * other, dropping zeros; integral results stay ints."""
    for c, v in other.items():
        new = row.get(c, 0) + factor * v
        if new:
            row[c] = new if type(new) is int else Rat(new)
        else:
            del row[c]


def sparse_rank(rows) -> int:
    """Rank of the sparse rows: the pivot count of :func:`_integer_echelon`."""
    return len(_integer_echelon(rows))


def _integer_echelon(rows) -> dict:
    """Fraction-free forward elimination into {pivot_col: primitive int row}.

    A row of ints is copied once; any other row is scaled to integers by the
    lcm of its denominators, which keeps its span.  The row is reduced by
    :func:`_cross_eliminate` against the pivot at its leading column, unless
    that pivot has more nonzeros: then the row takes the pivot's place and
    the displaced pivot is reduced instead, so the echelon keeps the sparser
    row of the two.  A row that is stored is divided by its content, sign
    included, so its lead is positive.
    """
    pivots: dict = {}
    for r in rows:
        if all(type(v) is int for v in r.values()):
            row = {c: v for c, v in r.items() if v}
        else:
            den = lcm(*(v.denominator for v in r.values() if type(v) is not int))
            row = {c: v.numerator * (den // v.denominator) for c, v in r.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is not None and len(pivot) <= len(row):
                row = _cross_eliminate(row, pivot, col)
                continue
            g = gcd(*row.values()) if row[col] > 0 else -gcd(*row.values())
            pivots[col] = row = {c: v // g for c, v in row.items()} if g != 1 else row
            if pivot is None:
                break
            row = _cross_eliminate(pivot, row, col)
    return pivots


def _cross_eliminate(row: dict, pivot: dict, col: int) -> dict:
    """row <- (p/g) row - (r/g) pivot for p = pivot[col] > 0, r = row[col] and
    g = gcd(p, r): ``col`` cleared, entries integral, zeros dropped."""
    p, r = pivot[col], row[col]
    g = gcd(p, r)
    row = {c: (p // g) * v for c, v in row.items()} if g != p else row
    factor = r // g
    for c, v in pivot.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]
    return row


def sparse_rref(rows: list, ncols: int) -> list:
    """The unique RREF of sparse rows over columns ``0..ncols-1``.

    Returns a list of (pivot_col, row_dict), pivot columns increasing, pivots
    1 and pivot columns cleared in every other row; the input is not
    modified.  The integer echelon of :func:`_integer_echelon` is
    back-substituted in decreasing pivot order by :func:`_cross_eliminate`,
    so each row is cleared by rows that are already reduced, and stays
    integral and primitive; each row is divided by its pivot once, at the
    end.  Every integral entry of the result is an ``int``.
    """
    pivots = _integer_echelon(rows)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            row = _cross_eliminate(row, pivots[c], c)
        g = gcd(*row.values())
        pivots[col] = {c: v // g for c, v in row.items()} if g > 1 else row
    reduced = []
    for col in sorted(pivots):
        row = pivots[col]
        lead = row[col]
        if lead != 1:
            row = {c: v // lead if v % lead == 0 else Rat(v, lead) for c, v in row.items()}
        reduced.append((col, row))
    return reduced


def sparse_kernel(rows: list, ncols: int) -> list:
    """Basis of the null space of the sparse system, as sparse column dicts.

    One basis vector per free column, in increasing column order, free
    coordinate = 1; built in one pass over the entries of the reduced rows.
    """
    reduced = sparse_rref(rows, ncols)
    pivot_set = {c for c, _ in reduced}
    basis = {free: {free: ONE} for free in range(ncols) if free not in pivot_set}
    for pc, row in reduced:
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())


def sparse_solve(rows: list, rhs, ncols: int) -> list | None:
    """One exact solution of the sparse system ``rows x = rhs`` or None.

    ``rhs`` has one entry per row; the solution is a dense list over columns
    ``0..ncols-1`` whose free coordinates are 0.
    """
    if len(rhs) != len(rows):
        raise MalformedInputError("right-hand side length mismatch")
    aug = [{**row, ncols: Rat(v)} if v else row for row, v in zip(rows, rhs)]
    x = [ZERO] * ncols
    for pc, row in sparse_rref(aug, ncols + 1):
        if pc == ncols:
            return None
        x[pc] = row.get(ncols, ZERO)
    return x
