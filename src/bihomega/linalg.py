"""Dense exact rational linear algebra.

Provides the reduced row echelon form, rank, null-space bases, and linear
solves that the rest of the workbench is built on.  Everything is exact over
the rationals; nothing ever rounds.  The one division is the pivot
normalization in :func:`sparse_rref`, whose inverse is an exact rational;
entries that come out integral are stored as ``int`` (see ``rationals``).

Conventions that downstream determinism depends on:

* the RREF is the (unique) reduced echelon form, pivots normalized to 1;
* ``kernel_basis`` assigns one basis column per free column, taken in
  increasing column order, with the free coordinate set to 1;
* ``solve`` returns the solution whose free coordinates are all 0.

Elimination is done on sparse row dictionaries so that the highly structured
(permutation/diagonal/triangular) constraint systems produced by the cochain
machinery reduce in roughly linear time, while dense inputs still go through
the same code path.
"""

from __future__ import annotations

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


def commutes(a: Mat, b: Mat) -> bool:
    return a.mul(b) == b.mul(a)


# -- sparse elimination core ---------------------------------------------
#
# Rows are dicts {column: nonzero value}.  The functions below are also used
# directly by the cochain machinery, which produces very sparse systems.


def sparse_rref(rows: list, ncols: int) -> list:
    """Reduce sparse rows in place; returns list of (pivot_col, row_dict).

    Pivot selection: for each column in increasing order, the first remaining
    row with a nonzero in that column.  The output rows form the unique RREF
    (pivots 1, pivot columns cleared elsewhere), pivot columns increasing.
    Every integral entry of the result is an ``int``.
    """
    active = [{c: v if type(v) is int else Rat(v) for c, v in r.items()} for r in rows if r]
    reduced: list = []
    for col in range(ncols):
        pivot_idx = -1
        for idx, r in enumerate(active):
            if col in r:
                pivot_idx = idx
                break
        if pivot_idx < 0:
            continue
        pivot = active.pop(pivot_idx)
        if pivot[col] != 1:
            inv = Rat(1, pivot[col])
            pivot = {c: Rat(inv * v) for c, v in pivot.items()}
        for group in (active, [r for _, r in reduced]):
            for r in group:
                factor = r.get(col)
                if factor is None:
                    continue
                for c, v in pivot.items():
                    new = r.get(c, 0) - factor * v
                    if new:
                        r[c] = new if type(new) is int else Rat(new)
                    else:
                        r.pop(c, None)
        active = [r for r in active if r]
        reduced.append((col, pivot))
        if not active:
            break
    return reduced


def sparse_kernel(rows: list, ncols: int) -> list:
    """Basis of the null space of the sparse system, as sparse column dicts.

    One basis vector per free column, in increasing column order, free
    coordinate = 1 (matching :func:`kernel_basis`).
    """
    reduced = sparse_rref(rows, ncols)
    pivot_cols = [c for c, _ in reduced]
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: ONE}
        for pc, row in reduced:
            coeff = row.get(free)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def _to_sparse_rows(m: Mat) -> list:
    rows = []
    for i in range(m.rows):
        base = i * m.cols
        row = {j: m.entries[base + j] for j in range(m.cols) if m.entries[base + j]}
        rows.append(row)
    return rows


def rref(m: Mat):
    """Reduced row echelon form of ``m`` and its pivot columns."""
    reduced = sparse_rref(_to_sparse_rows(m), m.cols)
    out = Mat.zeros(m.rows, m.cols)
    for i, (_, row) in enumerate(reduced):
        for c, v in row.items():
            out.entries[i * m.cols + c] = v
    return out, tuple(c for c, _ in reduced)


def rank(m: Mat) -> int:
    return len(sparse_rref(_to_sparse_rows(m), m.cols))


def kernel_basis(m: Mat) -> Mat:
    """Columns form the deterministic basis of the null space of ``m``."""
    basis = sparse_kernel(_to_sparse_rows(m), m.cols)
    out = Mat.zeros(m.cols, len(basis))
    for j, vec in enumerate(basis):
        for i, v in vec.items():
            out.entries[i * len(basis) + j] = v
    return out


def solve(m: Mat, rhs) -> list | None:
    """One exact solution of ``m x = rhs`` or None; free coordinates are 0."""
    if len(rhs) != m.rows:
        raise MalformedInputError("right-hand side length mismatch")
    rows = []
    aug = m.cols  # augmented column index
    for i in range(m.rows):
        base = i * m.cols
        row = {j: m.entries[base + j] for j in range(m.cols) if m.entries[base + j]}
        if rhs[i]:
            row[aug] = Rat(rhs[i])
        rows.append(row)
    reduced = sparse_rref(rows, m.cols + 1)
    x = [ZERO] * m.cols
    for pc, row in reduced:
        if pc == aug:
            return None
        x[pc] = row.get(aug, ZERO)
    return x
