"""Exact linear algebra over the rationals.

A scalar is an ``int`` when its value is integral and a
``fractions.Fraction`` (lowest terms, positive denominator) otherwise;
``scalar`` normalises to that form and refuses anything inexact.  Only
a division makes a Fraction: the one per pivot in ``rref`` here, and
the callers' own.  Matrices are sparse maps (row, col) -> scalar.
Rank, kernel and homology dimensions are computed by exact
elimination, so every result is an integer with no tolerance attached.

There is one forward pass, ``_echelon``, fraction-free on Python ints:
each row is scaled to integers by the lcm of its denominators (which
leaves its span unchanged, and is 1 on an integer row), then
cross-multiplied against pivot rows keyed by their leading column, and
divided by its content after every step, so its entries stay bounded.
``rank`` counts the pivot rows and is kept on the (immutable) matrix,
so a boundary shared by two homology degrees is eliminated once; so is
the row index behind ``row``, which lists a row's nonzero entries.
``rref`` back-substitutes the same rows, still in integers, from the
last pivot to the first, then divides each row by its pivot, once;
``kernel_basis``, ``solve`` and ``inverse`` read their answers off it.
A zero map costs nothing: a product with a factor that has no entries
is the zero matrix of its shape at once, and a matrix with no entries
has rank 0 with no elimination.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

ZERO = 0
ONE = 1


class CompositionNonzero(Exception):
    """Raised when two maps expected to compose to zero do not."""


def scalar(x: int | str | Fraction) -> int | Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact scalar.

    The result is an ``int`` when the value is integral and a Fraction
    otherwise; anything else, floats included, raises TypeError.
    """
    if type(x) is int:
        return x
    if not isinstance(x, (int, str, Fraction)):
        raise TypeError(f"not an exact scalar: {x!r}")
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


class SparseMatrix:
    """Immutable sparse matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data", "_rank", "_by_row")

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int, int | str | Fraction]] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data: dict[tuple[int, int], int | Fraction] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range for {rows}x{cols}")
            if (r, c) in data:
                raise ValueError(f"duplicate entry at ({r},{c})")
            val = scalar(v)
            if val != 0:
                data[(r, c)] = val
        self.rows = rows
        self.cols = cols
        self._data = data
        self._rank: int | None = None
        self._by_row: dict[int, list[tuple[int, int | Fraction]]] | None = None

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | str | Fraction]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if scalar(v) != 0:
                    entries.append((i, j, v))
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        """The zero matrix of a shape, built once per shape and shared,
        since matrices are immutable."""
        return cls(rows, cols)

    @classmethod
    def combination(cls, rows: int, cols: int, mats: Sequence["SparseMatrix"],
                    coords: Sequence[int | Fraction]) -> "SparseMatrix":
        """The sum of coords[i] * mats[i], each matrix rows x cols."""
        out = cls.zero(rows, cols)
        for m, c in zip(mats, coords):
            if c != 0:
                out = out.add(m.scale(c))
        return out

    # -- basic queries --------------------------------------------------

    def entry(self, r: int, c: int) -> int | Fraction:
        return self._data.get((r, c), ZERO)

    def row(self, r: int) -> list[tuple[int, int | Fraction]]:
        """The nonzero (col, value) pairs of row r, by column.  The row
        index is built on the first call and kept on the matrix."""
        if self._by_row is None:
            self._by_row = {}
            for (i, c), v in sorted(self._data.items()):
                self._by_row.setdefault(i, []).append((c, v))
        return list(self._by_row.get(r, ()))

    def entries(self) -> Iterator[tuple[int, int, int | Fraction]]:
        for (r, c), v in sorted(self._data.items()):
            yield r, c, v

    def is_zero(self) -> bool:
        return not self._data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(sorted(self._data.items()))))

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self._data)} entries)"

    # -- arithmetic -----------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows,
                            [(c, r, v) for (r, c), v in self._data.items()])

    def scale(self, a: int | Fraction) -> "SparseMatrix":
        a = scalar(a)
        return SparseMatrix(self.rows, self.cols,
                            [(r, c, a * v) for (r, c), v in self._data.items()])

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        acc = dict(self._data)
        for key, v in other._data.items():
            w = acc.get(key, ZERO) + v
            if w == 0:
                acc.pop(key, None)
            else:
                acc[key] = w
        m = SparseMatrix(self.rows, self.cols)
        m._data.update(acc)
        return m

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        if not (self._data and other._data):
            return SparseMatrix(self.rows, other.cols)
        by_row: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (r, c), v in other._data.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], int | Fraction] = {}
        for (r, k), v in self._data.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = acc.get(key, ZERO) + v * w
                if s == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        m = SparseMatrix(self.rows, other.cols)
        m._data.update(acc)
        return m

    def apply(self, vec: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self._data.items():
            if vec[c] != 0:
                out[r] += v * vec[c]
        return tuple(out)

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple[list[dict[int, int | Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column list)."""
        echelon = _echelon(self)
        pivots = sorted(echelon)
        # later pivot columns are cleared by rows that are already reduced,
        # which are zero at every other pivot column
        reduced: dict[int, dict[int, int]] = {}
        for lead in reversed(pivots):
            row = echelon[lead]
            for col in [c for c in row if c in reduced]:
                row = _combine(row, reduced[col], col)
            reduced[lead] = row
        return [{c: scalar(Fraction(v, reduced[p][p])) for c, v in reduced[p].items()}
                for p in pivots], pivots


def _combine(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """a*row - b*prow with its entry at col cancelled, divided by its content."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    new = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        w = new.get(c, 0) - b * v
        if w:
            new[c] = w
        else:
            del new[c]
    g = gcd(*new.values())
    return {c: v // g for c, v in new.items()} if g > 1 else new


def _echelon(m: SparseMatrix) -> dict[int, dict[int, int]]:
    """Integer pivot rows keyed by their leading column, fraction-free."""
    rows: dict[int, dict[int, int | Fraction]] = {}
    for (r, c), v in m._data.items():
        rows.setdefault(r, {})[c] = v
    pivots: dict[int, dict[int, int]] = {}
    for frow in rows.values():
        den = lcm(*(v.denominator for v in frow.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in frow.items()}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            row = _combine(row, prow, lead)
    return pivots


def rank(m: SparseMatrix) -> int:
    """Rank over the rationals, computed once and kept on the matrix."""
    if m._rank is None:
        m._rank = len(_echelon(m)) if m._data else 0
    return m._rank


def kernel_basis(m: SparseMatrix) -> list[tuple[int | Fraction, ...]]:
    """A basis of the rational null space; len = cols - rank."""
    rows, pivots = m.rref()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * m.cols
        vec[fc] = ONE
        for row, pc in zip(rows, pivots):
            coeff = row.get(fc)
            if coeff is not None:
                vec[pc] = -coeff
        basis.append(tuple(vec))
    return basis


def homology_dim(d_out: SparseMatrix, d_in: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for maps with d_out . d_in = 0.

    d_in maps into the middle space (d_in.rows == d_out.cols) and the
    composition is checked exactly; a nonzero product raises
    CompositionNonzero naming its first nonzero entry and both shapes.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("d_in must map into the domain of d_out")
    comp = d_out.mul(d_in)
    if not comp.is_zero():
        r, c, v = next(comp.entries())
        raise CompositionNonzero(
            f"d_out . d_in has entry {v} at ({r}, {c}); d_out is "
            f"{d_out.rows}x{d_out.cols}, d_in {d_in.rows}x{d_in.cols}")
    return (d_out.cols - rank(d_out)) - rank(d_in)


def solve(m: SparseMatrix,
          rhs: Sequence[int | Fraction]) -> tuple[int | Fraction, ...] | None:
    """One solution of m x = rhs, or None when the system is inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side of wrong length")
    aug = SparseMatrix(m.rows, m.cols + 1,
                       list(m.entries())
                       + [(r, m.cols, scalar(v)) for r, v in enumerate(rhs) if v != 0])
    rows, pivots = aug.rref()
    sol = [ZERO] * m.cols
    for row, pc in zip(rows, pivots):
        if pc == m.cols:
            return None
        sol[pc] = row.get(m.cols, ZERO)
    return tuple(sol)


def inverse(m: SparseMatrix) -> SparseMatrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    aug = SparseMatrix(n, 2 * n,
                       list(m.entries()) + [(i, n + i, ONE) for i in range(n)])
    rows, pivots = aug.rref()
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    ent = []
    for row, pc in zip(rows, pivots):
        for c, v in row.items():
            if c >= n:
                ent.append((pc, c - n, v))
    return SparseMatrix(n, n, ent)
