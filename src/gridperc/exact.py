"""Exact integer linear algebra for the lower-bound certificates.

Matrices are sequences of equal-length rows of integer entries: each entry
goes through operator.index, so ints, bools and other types with __index__
are taken as ints, while floats, Fractions, Decimals and strings raise
TypeError, and nothing is ever rounded.  Every elimination runs
through one fraction-free integer kernel, EliminationBasis: an incremental
Bareiss echelon in which every intermediate value is a minor of the input
rows, so all divisions are exact integer divisions and growth is bounded by
the minors themselves.  A reduction step whose multiplier is zero only
rescales, so the kernel defers that rescale to the next step that has a
nonzero multiplier, or to the end; the stored rows, and with them exactness
and the growth bound, are those of the plain step-by-step elimination.
matrix_rank and det insert their rows into a basis and read the rank and the
last pivot off it; audits read span membership off insert's result.
"""

from __future__ import annotations

import itertools
import operator


def _as_rows(matrix) -> list[list]:
    rows = [list(r) for r in matrix]
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    if ncols == 0 or any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows must be non-empty and of equal length")
    return rows


class EliminationBasis:
    """Incrementally maintained row space of integer vectors.

    Stored rows form a fraction-free (Bareiss 1968) echelon in insertion
    order: row k has pivot column c_k and pivot p_k = row_k[c_k], and is zero
    in the pivot columns of the rows before it.  A vector v is reduced against
    each row k in turn by v <- (p_k*v - v[c_k]*row_k) // p_{k-1}, with
    p_{-1} = 1.  By Sylvester's identity every entry is then a minor of the
    inserted rows, so each division is exact; at full rank every remainder is
    zero.  insert(), the one public operation, keeps a nonzero remainder as a
    new row pivoted at its first nonzero entry and reports whether the span
    grew; inserting a vector already in the span returns False and leaves the
    state unchanged.  Each entry goes through operator.index, so an entry
    without __index__ (a float, Fraction, Decimal or string) raises TypeError.

    When v[c_k] == 0 the step only multiplies v by p_k / p_{k-1}.  _reduce
    skips such steps, reading only v[c_k]: with ``held`` the pivot of the
    last step it carried out, the true vector after row k is v * p_k // held,
    and it folds that factor into the next step with a nonzero multiplier,
    (p_k*v - v[c_k]*row_k) // held, or applies it at the end with the last
    stored pivot (1 for an empty basis).  Each intermediate vector of the
    plain elimination is an integer vector, so these divisions are exact too,
    and the stored rows and pivots are those of the step-by-step elimination.
    """

    def __init__(self, ncols: int) -> None:
        ncols = operator.index(ncols)
        if ncols < 0:
            raise ValueError(f"negative column count {ncols}")
        self.ncols = ncols
        self._pivot_cols: list[int] = []
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector) -> list[int]:
        """Remainder of ``vector`` against the stored rows."""
        v = list(map(operator.index, vector))
        if len(v) != self.ncols:
            raise ValueError(f"expected {self.ncols} entries, got {len(v)}")
        held = 1
        for col, row in zip(self._pivot_cols, self._rows):
            c = v[col]
            if c:
                pivot = row[col]
                v = [(pivot * x - c * y) // held for x, y in zip(v, row)]
                held = pivot
        last = self._rows[-1][self._pivot_cols[-1]] if self._rows else 1
        if last != held:
            v = [x * last // held for x in v]
        return v

    def insert(self, vector) -> bool:
        v = self._reduce(vector)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        self._pivot_cols.append(lead)
        self._rows.append(v)
        return True


def _permutation_sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def det(matrix) -> int:
    """Exact determinant of a square integer matrix.

    The last pivot of the echelon is the determinant of the rows with their
    columns in pivot order.
    """
    rows = _as_rows(matrix)
    if len(rows) != len(rows[0]):
        raise ValueError(f"determinant needs a square matrix, got {len(rows)}x{len(rows[0])}")
    basis = EliminationBasis(len(rows))
    if not all([basis.insert(row) for row in rows]):  # every row is type-checked
        return 0
    cols = basis._pivot_cols
    return _permutation_sign(cols) * basis._rows[-1][cols[-1]]


def matrix_rank(matrix) -> int:
    """Exact rank: the rows are inserted into one EliminationBasis."""
    rows = _as_rows(matrix)
    basis = EliminationBasis(len(rows[0]))
    for row in rows:
        basis.insert(row)
    return basis.rank


def build_general_position_matrix(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """n x (t-1) integer matrix: identity rows first, then power rows.

    Rows 1..t-1 form the identity; row i for i >= t is (1, i, i^2, ..., i^(t-2)).
    Every (t-1)-subset of rows is independent: expanding along the identity
    rows reduces any such minor to a generalized Vandermonde minor with
    distinct nodes >= t and distinct exponents, which is strictly positive.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    rows = [tuple(1 if j == i else 0 for j in range(1, t)) for i in range(1, t)]
    rows.extend(tuple(i**e for e in range(t - 1)) for i in range(t, n + 1))
    return tuple(rows)


def verify_general_position(matrix, t: int) -> bool:
    """Exhaustively check that every (t-1)-subset of rows is independent:
    C(n, t-1) determinants for n rows.  certificate.build_context calls it
    on each axis matrix."""
    rows = _as_rows(matrix)
    if len(rows[0]) != t - 1:
        raise ValueError(f"expected {t - 1} columns, got {len(rows[0])}")
    if len(rows) < t - 1:
        return False
    for subset in itertools.combinations(rows, t - 1):
        if det(subset) == 0:
            return False
    return True


def dependency_coeffs(matrix, row_indices) -> tuple:
    """Nonzero coefficients combining t chosen rows to the zero row.

    ``row_indices`` are 1-based, strictly increasing, and there must be exactly
    one more of them than the matrix has columns.  The coefficient at (1-based)
    position j is (-1)^j times the minor omitting the j-th chosen row: an exact
    left null vector of the t x (t-1) submatrix, integer-valued for integer
    input, with every entry nonzero when the matrix is in general position.
    No normalization is applied, so the output is a fixed representative of
    the (scale-invariant) dependency.
    """
    rows = _as_rows(matrix)
    idx = tuple(operator.index(i) for i in row_indices)
    if list(idx) != sorted(set(idx)):
        raise ValueError("row indices must be strictly increasing")
    if idx and (idx[0] < 1 or idx[-1] > len(rows)):
        raise ValueError(f"row index outside [1, {len(rows)}]")
    t = len(rows[0]) + 1
    if len(idx) != t:
        raise ValueError(f"need exactly {t} row indices, got {len(idx)}")
    sub = [rows[i - 1] for i in idx]
    coeffs = []
    sign = -1
    for j in range(t):
        minor = sub[:j] + sub[j + 1 :]
        c = sign * det(minor)
        if c == 0:
            raise ValueError(f"zero dependency coefficient for rows {idx}")
        coeffs.append(c)
        sign = -sign
    return tuple(coeffs)
