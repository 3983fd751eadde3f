"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always lowest terms, positive
denominator), matrices are sparse maps (row, col) -> Fraction.  Rank,
kernel and homology dimensions are computed by exact elimination, so
every result is an integer with no tolerance attached.

``rank`` runs one fraction-free forward pass on Python ints: each row
is scaled to integers by the lcm of its denominators (which leaves the
rank unchanged), then cross-multiplied against pivot rows keyed by
their leading column, and divided by its content after every step, so
its entries stay bounded; there is no back-substitution.  The rank is
kept on the (immutable) matrix, so a boundary shared by two homology
degrees is eliminated once.  ``kernel_basis``, ``solve`` and
``inverse`` use the Fraction reduced row echelon form ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CompositionNonzero(Exception):
    """Raised when two maps expected to compose to zero do not."""


def scalar(x: int | str | Fraction) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class SparseMatrix:
    """Immutable sparse matrix over the rationals."""

    __slots__ = ("rows", "cols", "_data", "_rank")

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int, int | str | Fraction]] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data: dict[tuple[int, int], Fraction] = {}
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
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    @classmethod
    def combination(cls, rows: int, cols: int, mats: Sequence["SparseMatrix"],
                    coords: Sequence[Fraction]) -> "SparseMatrix":
        """The sum of coords[i] * mats[i], each matrix rows x cols."""
        out = cls.zero(rows, cols)
        for m, c in zip(mats, coords):
            if c != 0:
                out = out.add(m.scale(c))
        return out

    # -- basic queries --------------------------------------------------

    def entry(self, r: int, c: int) -> Fraction:
        return self._data.get((r, c), ZERO)

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
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
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other._data.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], Fraction] = {}
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

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self._data.items():
            if vec[c] != 0:
                out[r] += v * vec[c]
        return tuple(out)

    # -- elimination ----------------------------------------------------

    def _row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self._data.items():
            rows[r][c] = v
        return rows

    def rref(self) -> tuple[list[dict[int, Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column list)."""
        rows = [r for r in self._row_dicts() if r]
        pivots: list[int] = []
        reduced: list[dict[int, Fraction]] = []
        while rows:
            # pick the sparsest row with the smallest leading column
            best = min(rows, key=lambda r: (min(r), len(r)))
            rows.remove(best)
            lead = min(best)
            inv = ONE / best[lead]
            best = {c: v * inv for c, v in best.items()}
            for target in (rows, reduced):
                for i, row in enumerate(target):
                    coeff = row.get(lead)
                    if coeff is None:
                        continue
                    new = dict(row)
                    for c, v in best.items():
                        w = new.get(c, ZERO) - coeff * v
                        if w == 0:
                            new.pop(c, None)
                        else:
                            new[c] = w
                    target[i] = new
            rows = [r for r in rows if r]
            reduced.append(best)
            pivots.append(lead)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        return [reduced[i] for i in order], [pivots[i] for i in order]


def _int_rank(m: SparseMatrix) -> int:
    """Rank by fraction-free forward elimination on integer rows."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in m._data.items():
        rows.setdefault(r, {})[c] = v
    pivots: dict[int, dict[int, int]] = {}   # leading column -> pivot row
    for frow in rows.values():
        den = lcm(*(v.denominator for v in frow.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in frow.items()}
        while row:
            g = gcd(*row.values())
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            # row <- a*row - b*prow clears the lead column
            g = gcd(prow[lead], row[lead])
            a, b = prow[lead] // g, row[lead] // g
            new = {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                else:
                    del new[c]
            row = new
    return len(pivots)


def rank(m: SparseMatrix) -> int:
    """Rank over the rationals, computed once and kept on the matrix."""
    if m._rank is None:
        m._rank = _int_rank(m)
    return m._rank


def kernel_basis(m: SparseMatrix) -> list[tuple[Fraction, ...]]:
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
    CompositionNonzero.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("d_in must map into the domain of d_out")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    return (d_out.cols - rank(d_out)) - rank(d_in)

def solve(m: SparseMatrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
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
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise ValueError("matrix is singular")
    ent = []
    for row, pc in zip(rows, pivots):
        for c, v in row.items():
            if c >= n:
                ent.append((pc, c - n, v))
    return SparseMatrix(n, n, ent)
