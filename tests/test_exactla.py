import random
from fractions import Fraction

import pytest

from locind.exactla import (ONE, ZERO, CompositionNonzero, SparseMatrix,
                            _echelon, homology_dim, inverse, kernel_basis,
                            rank, scalar, solve)
from locind.liealg import rep_of_vec


def test_scalar_coercion():
    # an int when the value is integral, a Fraction otherwise, never a float
    assert scalar(3) == 3 and type(scalar(3)) is int
    assert scalar("2/5") == Fraction(2, 5)
    assert scalar(Fraction(-1, 7)) == Fraction(-1, 7)
    assert type(scalar("1/2")) is Fraction
    for two in ("4/2", Fraction(6, 3)):
        assert scalar(two) == 2 and type(scalar(two)) is int
    with pytest.raises(TypeError):
        scalar(0.5)
    m = SparseMatrix.from_rows([[1, 2], [3, 4]])
    assert all(type(v) is int for _, _, v in m.mul(m).add(m.scale(-1)).entries())


def test_elimination_divides_into_fractions_never_floats():
    # pivot 2: each of rref, kernel_basis, solve and inverse meets 1/2
    half = Fraction(1, 2)
    rows, pivots = SparseMatrix.from_rows([[2, 1]]).rref()
    assert pivots == [0] and rows == [{0: 1, 1: half}]
    assert type(rows[0][0]) is int and type(rows[0][1]) is Fraction
    (ker,) = kernel_basis(SparseMatrix.from_rows([[2, 1]]))
    assert ker == (-half, 1) and type(ker[0]) is Fraction
    (sol,) = solve(SparseMatrix.from_rows([[2]]), (1,))
    assert sol == half and type(sol) is Fraction
    inv = inverse(SparseMatrix.from_rows([[2, 0], [0, 1]]))
    assert inv.entry(0, 0) == half and type(inv.entry(0, 0)) is Fraction
    assert type(inv.entry(1, 1)) is int


def test_construction_guards():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix(-1, 2)
    # zero entries are dropped silently
    assert SparseMatrix(2, 2, [(0, 0, 0)]).is_zero()


def test_shapes_and_arithmetic():
    a = SparseMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == SparseMatrix.from_rows([[2, 1], [4, 3]])
    assert a.add(b).sub(b) == a
    assert a.scale(Fraction(1, 2)).scale(2) == a
    assert a.transpose().transpose() == a
    assert a.apply((ONE, ZERO)) == (Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        a.mul(SparseMatrix.zero(3, 1))
    with pytest.raises(ValueError):
        a.apply((ONE,))


def test_rank_known_values():
    assert rank(SparseMatrix.identity(5)) == 5
    assert rank(SparseMatrix.zero(4, 7)) == 0
    assert rank(SparseMatrix.from_rows([[1, 2], [2, 4]])) == 1
    # 4x4 Hilbert matrix is notoriously ill-conditioned in floats but
    # has full rank exactly
    hil = SparseMatrix(4, 4, [(i, j, Fraction(1, i + j + 1))
                              for i in range(4) for j in range(4)])
    assert rank(hil) == 4


def test_kernel_vectors_annihilate():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 3 - rank(m) == 1
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


def test_solve_and_inverse():
    m = SparseMatrix.from_rows([[2, 1], [1, 3]])
    sol = solve(m, (Fraction(5), Fraction(10)))
    assert sol is not None and m.apply(sol) == (Fraction(5), Fraction(10))
    assert solve(SparseMatrix.from_rows([[1, 1], [1, 1]]),
                 (ONE, ZERO)) is None
    assert m.mul(inverse(m)) == SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(SparseMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(SparseMatrix.zero(2, 3))


def test_rank_nullity_randomized():
    rng = random.Random(61)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        ent = []
        seen = set()
        for _ in range(rng.randint(0, rows * cols)):
            r, c = rng.randrange(rows), rng.randrange(cols)
            if (r, c) not in seen:
                seen.add((r, c))
                ent.append((r, c, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        m = SparseMatrix(rows, cols, ent)
        assert rank(m) + len(kernel_basis(m)) == cols
        assert rank(m) == rank(m.transpose())


def test_homology_dim_exact_and_nonexact():
    # 0 -> Q --[0;1]--> Q^2 --[1 0]--> Q -> 0 is exact in the middle
    d_in = SparseMatrix.from_rows([[0], [1]])
    d_out = SparseMatrix.from_rows([[1, 0]])
    assert homology_dim(d_out, d_in) == 0
    # drop the incoming map: homology picks up the kernel line
    assert homology_dim(d_out, SparseMatrix.zero(2, 0)) == 1
    with pytest.raises(CompositionNonzero,
                       match=r"entry 1 at \(0, 0\); d_out is 1x2, d_in 2x1$"):
        homology_dim(d_out, SparseMatrix.from_rows([[1], [0]]))
    with pytest.raises(ValueError):
        homology_dim(d_out, SparseMatrix.zero(3, 1))


def _reference_rref(base):
    """Plain Gauss-Jordan on Fractions: (rows as dicts, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in base]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [{c: x for c, x in enumerate(row) if x != 0} for row in rows[:len(pivots)]], pivots


def _check_against_reference(base):
    m = SparseMatrix.from_rows(base)
    nrows, ncols = len(base), len(base[0])
    ref_rows, ref_pivots = _reference_rref(base)
    rows, pivots = m.rref()
    assert (rows, pivots) == (ref_rows, ref_pivots)
    assert all(type(v) is int or v.denominator > 1 for row in rows for v in row.values())
    assert rank(m) == len(ref_pivots) == rank(m.transpose()) <= min(nrows, ncols)
    ker = kernel_basis(m)
    assert len(ker) == ncols - len(ref_pivots)
    assert all(not any(m.apply(v)) for v in ker)
    unit = [tuple(int(i == k) for i in range(nrows)) for k in (0, nrows - 1)]
    for rhs in [m.apply(tuple(range(1, ncols + 1)))] + unit:
        consistent = ncols not in _reference_rref([list(r) + [b] for r, b in zip(base, rhs)])[1]
        sol = solve(m, rhs)
        assert (sol is not None) == consistent
        assert sol is None or m.apply(sol) == tuple(rhs)
    k = min(nrows, ncols)
    block = [row[:k] for row in base[:k]]
    sq = SparseMatrix.from_rows(block)
    if len(_reference_rref(block)[1]) == k:
        assert sq.mul(inverse(sq)) == SparseMatrix.identity(k)
    else:
        with pytest.raises(ValueError, match="singular"):
            inverse(sq)


def test_integer_rank_matches_rref():
    rng = random.Random(7)
    big = 10 ** 30
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        base = [[rng.choice((0, 0, rng.randint(-big, big), rng.randint(-3, 3)))
                 for _ in range(cols)] for _ in range(rows)]
        # append dependent rows (integer combinations) and a zero row
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(-5, 5), rng.randint(-big, big)
            i, j = rng.randrange(rows), rng.randrange(rows)
            base.append([a * x + b * y for x, y in zip(base[i], base[j])])
        base.append([0] * cols)
        _check_against_reference(base)
    for shape in ((0, 5), (5, 0), (0, 0)):
        assert rank(SparseMatrix.zero(*shape)) == 0


def test_rank_of_non_integral_matrix_matches_rref():
    rng = random.Random(11)
    _check_against_reference([[Fraction(1, 2), 1], [1, 2], [0, Fraction(2, 3)]])
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        base = [[rng.choice((0, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for _ in range(cols)] for _ in range(rows)]
        i, j = rng.randrange(rows), rng.randrange(rows)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        base.append([x + q * y for x, y in zip(base[i], base[j])])
        _check_against_reference(base)


def test_rank_of_every_shape_matches_plain_elimination():
    rng = random.Random(5)
    for rows, cols in ((0, 4), (4, 0), (1, 5), (5, 1), (1, 1), (4, 4)):
        for _ in range(20):
            vals = [[rng.choice((0, 0, rng.randint(-4, 4),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                     for _ in range(cols)] for _ in range(rows)]
            if rows:
                vals[rng.randrange(rows)] = [0] * cols
            m = SparseMatrix(rows, cols, [(r, c, v) for r, row in enumerate(vals)
                                          for c, v in enumerate(row)])
            assert rank(m) == len(_echelon(m)) == len(_reference_rref(vals)[1])


def test_rank_is_kept_on_the_matrix(monkeypatch):
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2

    def boom(*_):
        raise AssertionError("rank recomputed")

    monkeypatch.setattr("locind.exactla._echelon", boom)
    assert rank(m) == 2
    # a new matrix with equal entries starts without a stored rank
    with pytest.raises(AssertionError):
        rank(SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))


def test_an_empty_factor_or_matrix_costs_no_elimination(monkeypatch):
    def boom(*_):
        raise AssertionError("eliminated a matrix with no entries")

    monkeypatch.setattr("locind.exactla._echelon", boom)
    a = SparseMatrix.from_rows([[1, 2], [0, 3], [4, 0]])
    for left, right in ((SparseMatrix.zero(4, 3), a), (a, SparseMatrix.zero(2, 5)),
                        (SparseMatrix.zero(0, 3), a), (a, SparseMatrix.zero(2, 0))):
        prod = left.mul(right)
        assert (prod.rows, prod.cols) == (left.rows, right.cols)
        assert prod.is_zero() and list(prod.entries()) == []
    with pytest.raises(ValueError, match="shape"):
        SparseMatrix.zero(2, 3).mul(SparseMatrix.zero(4, 1))
    for rows, cols in ((0, 0), (3, 0), (0, 3), (3, 4)):
        assert rank(SparseMatrix.zero(rows, cols)) == 0
    assert homology_dim(SparseMatrix.zero(2, 3), SparseMatrix.zero(3, 4)) == 3


def _rows_by_probe(m):
    return [[(c, m.entry(r, c)) for c in range(m.cols) if m.entry(r, c) != 0]
            for r in range(m.rows)]


def test_row_lists_the_nonzero_entries_by_column():
    rng = random.Random(7)

    def rand(rows, cols):
        return SparseMatrix(rows, cols, [(r, c, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                                         for r in range(rows) for c in range(cols)
                                         if rng.random() < 0.4])

    mats = []
    for _ in range(20):
        a, b, c = rand(5, 4), rand(5, 4), rand(4, 6)
        mats += [a, a.add(b), a.add(a.scale(-1)), a.mul(c), a.scale(Fraction(-2, 3))]
    # entries given in no particular order still come out by column
    mats.append(SparseMatrix(2, 5, [(1, 4, 1), (0, 3, 2), (1, 0, -1), (0, 1, 5)]))
    vec = (Fraction(1, 2), -3, 2)
    mats += [rep_of_vec(vec, m) for m in range(13)]
    for m in mats:
        assert [m.row(r) for r in range(m.rows)] == _rows_by_probe(m)
    assert SparseMatrix(3, 3, [(0, 0, 1)]).row(2) == []
    assert SparseMatrix.zero(2, 2).row(0) == []
