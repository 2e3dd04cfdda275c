import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridperc.exact import (
    EliminationBasis,
    build_general_position_matrix,
    dependency_coeffs,
    det,
    matrix_rank,
    verify_general_position,
)
from oracles import ReferenceBasis, in_span


def naive_rank(rows):
    """Plain Fraction-based Gauss-Jordan, kept independent of the library's
    fraction-free path."""
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        inv = pivot_row[col]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] / inv
                for j in range(col, ncols):
                    a[i][j] -= f * pivot_row[j]
        rank += 1
    return rank


def naive_det(rows):
    """Cofactor expansion; fine for the tiny matrices used here."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += sign * rows[0][j] * naive_det(minor)
        sign = -sign
    return total


def random_entry(rng):
    return rng.randint(-9, 9) if rng.random() < 0.3 else rng.randint(-5, 5)


def random_matrix(rng, m, n):
    """m x n integer matrix.  About a third are integer combinations of
    fewer rows than min(m, n), so every shape gets rank-deficient cases."""
    if rng.random() < 1 / 3:
        k = rng.randint(1, max(1, min(m, n) - 1))
        base = [[random_entry(rng) for _ in range(n)] for _ in range(k)]
        return [
            [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)] for _ in range(m)
        ]
    return [[random_entry(rng) for _ in range(n)] for _ in range(m)]


def random_shapes(rng, count):
    """Square, tall and wide shapes in turn."""
    for i in range(count):
        a, b = sorted((rng.randint(1, 6), rng.randint(1, 6)))
        yield ((a, a), (b, a), (a, b))[i % 3]


entries = st.integers(-6, 6)


@st.composite
def matrices(draw, square=False):
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        # replace one row by a combination of the others
        i = draw(st.integers(0, m - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        others = [(c, r) for k, (c, r) in enumerate(zip(coeffs, rows)) if k != i]
        rows[i] = [sum(c * r[j] for c, r in others) for j in range(n)]
    return rows


@st.composite
def zero_heavy_matrices(draw, square=False):
    """Mostly-zero rows with entries of either sign, mixed with zero rows and
    repeated (negated or doubled) rows, so most reduction steps have a zero
    multiplier."""
    m = draw(st.integers(1, 7))
    n = m if square else draw(st.integers(1, 6))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "repeat"]))
        if kind == "repeat" and rows:
            scale = draw(st.sampled_from([1, -1, 2]))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([0] * n)
        else:
            row = [0] * n
            for j in draw(st.sets(st.integers(0, n - 1), max_size=(n + 1) // 2)):
                row[j] = draw(st.integers(-9, 9).filter(bool))
            rows.append(row)
    return rows


class TestDeterminant:
    def test_small(self):
        assert det([[2]]) == 2
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[0, 1], [1, 0]]) == -1

    def test_against_cofactor_oracle(self):
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = random_matrix(rng, n, n)
            assert det(rows) == naive_det(rows)

    @given(st.one_of(matrices(square=True), zero_heavy_matrices(square=True)))
    def test_property_matches_cofactor_oracle(self, rows):
        assert det(rows) == naive_det(rows)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[]]], ids=["short", "long", "empty-row"])
    def test_ragged_or_empty_rows_rejected(self, rows):
        # Every reader of a matrix rejects it before any elimination, which
        # would reject some of these shapes with another message.
        for read in (det, matrix_rank, lambda m: verify_general_position(m, 3)):
            with pytest.raises(ValueError, match="non-empty and of equal length"):
                read(rows)


class TestRank:
    def test_identity(self):
        assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert matrix_rank([[1, 2], [2, 4]]) == 1

    def test_zero_matrix(self):
        assert matrix_rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_against_naive_oracle(self):
        rng = random.Random(90125)
        for m, n in random_shapes(rng, 300):
            rows = random_matrix(rng, m, n)
            assert matrix_rank(rows) == naive_rank(rows)

    @given(matrices())
    def test_property_matches_naive_oracle(self, rows):
        assert matrix_rank(rows) == naive_rank(rows)


class TestGeneralPositionMatrix:
    def test_smallest(self):
        assert build_general_position_matrix(3, 2) == ((1,), (1,), (1,))

    def test_power_rows(self):
        assert build_general_position_matrix(4, 3) == ((1, 0), (0, 1), (1, 3), (1, 4))

    def test_identity_block_then_powers(self):
        m = build_general_position_matrix(5, 5)
        assert m[:4] == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert m[4] == (1, 5, 25, 125)

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_general_position_matrix(3, 4)
        with pytest.raises(ValueError):
            build_general_position_matrix(3, 1)

    def test_entries_nonnegative(self):
        for n in range(2, 9):
            for t in range(2, n + 1):
                assert all(x >= 0 for row in build_general_position_matrix(n, t) for x in row)


class TestVerifyGeneralPosition:
    def test_built_matrices_pass(self):
        assert verify_general_position(build_general_position_matrix(3, 2), 2)
        assert verify_general_position(build_general_position_matrix(8, 4), 4)

    def test_duplicate_rows_fail(self):
        assert not verify_general_position([[1, 0], [1, 0], [0, 1]], 3)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            verify_general_position([[1, 0], [0, 1]], 4)

    @given(st.integers(2, 4), st.data())
    def test_property_matches_every_minor(self, t, data):
        # Random rows mixed with zero and repeated rows; fewer than t - 1
        # rows are never in general position.
        rows = []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(["random", "random", "zero", "repeat"]))
            if kind == "repeat" and rows:
                rows.append(list(data.draw(st.sampled_from(rows))))
            elif kind == "zero":
                rows.append([0] * (t - 1))
            else:
                rows.append(data.draw(st.lists(st.integers(-3, 3), min_size=t - 1, max_size=t - 1)))
        expected = len(rows) >= t - 1 and all(
            naive_det(list(subset)) != 0 for subset in itertools.combinations(rows, t - 1)
        )
        assert verify_general_position(rows, t) is expected


class TestDependencyCoeffs:
    def test_two_point_case(self):
        m = build_general_position_matrix(3, 2)
        assert dependency_coeffs(m, (1, 3)) == (-1, 1)

    def test_identity_plus_power_row(self):
        m = build_general_position_matrix(4, 3)
        assert dependency_coeffs(m, (1, 2, 3)) == (1, 3, -1)

    def test_substitution_is_zero(self):
        m = build_general_position_matrix(4, 3)
        lam = dependency_coeffs(m, (2, 3, 4))
        assert all(lam)
        for j in range(2):
            assert sum(c * m[i - 1][j] for c, i in zip(lam, (2, 3, 4))) == 0

    def test_substitution_exhaustive(self):
        for n in range(2, 7):
            for t in range(2, min(n, 4) + 1):
                m = build_general_position_matrix(n, t)
                for rows in itertools.combinations(range(1, n + 1), t):
                    lam = dependency_coeffs(m, rows)
                    assert all(lam)
                    for j in range(t - 1):
                        assert sum(c * m[i - 1][j] for c, i in zip(lam, rows)) == 0

    def test_two_value_sign_pattern(self):
        # every thickness-2 dependency is (-1, +1)
        for n in range(2, 8):
            m = build_general_position_matrix(n, 2)
            for rows in itertools.combinations(range(1, n + 1), 2):
                assert dependency_coeffs(m, rows) == (-1, 1)

    def test_scaling_preserves_dependency(self):
        m = build_general_position_matrix(5, 3)
        lam = dependency_coeffs(m, (2, 4, 5))
        scaled = [Fraction(3, 7) * c for c in lam]
        for j in range(2):
            assert sum(c * m[i - 1][j] for c, i in zip(scaled, (2, 4, 5))) == 0

    def test_errors(self):
        m = build_general_position_matrix(4, 3)
        with pytest.raises(ValueError):
            dependency_coeffs(m, (1, 2))
        with pytest.raises(ValueError):
            dependency_coeffs(m, (1, 1, 2))
        with pytest.raises(ValueError):
            dependency_coeffs(m, (1, 2, 5))
        # float row indices are rejected, not truncated to (1, 2, 3)
        with pytest.raises(TypeError):
            dependency_coeffs(m, (1.9, 2, 3.2))

    def test_row_index_zero_is_rejected(self):
        # Index 0 would read the last row through Python's negative indexing.
        m = build_general_position_matrix(4, 3)
        for indices in [(0, 2, 3), (0, 1, 4)]:
            with pytest.raises(ValueError, match=r"row index outside \[1, 4\]"):
                dependency_coeffs(m, indices)

    def test_zero_coefficient_detected(self):
        # rows 1, 2, 4 of this matrix are dependent with a zero coefficient on
        # row 1, so the matrix is not in general position
        m = [[1, 0], [0, 1], [1, 1], [0, 2]]
        with pytest.raises(ValueError, match="zero dependency coefficient"):
            dependency_coeffs(m, (1, 2, 4))


class TestEliminationBasis:
    def test_insert_and_rank(self):
        basis = EliminationBasis(3)
        assert basis.insert([1, 0, 0])
        assert basis.insert([1, 1, 0])
        assert not basis.insert([2, 1, 0])
        assert basis.rank == 2
        assert basis.insert([0, 0, 5])
        assert basis.rank == 3

    def test_duplicate_insert_leaves_state(self):
        basis = EliminationBasis(4)
        vectors = [[1, 2, 3, 4], [0, 1, 0, 1]]
        for v in vectors:
            assert basis.insert(v)
        for v in vectors:
            assert not basis.insert(v)
        assert basis.rank == 2

    def test_matches_rank_on_random_matrices(self):
        rng = random.Random(314)
        for m, n in random_shapes(rng, 150):
            rows = random_matrix(rng, m, n)
            basis = EliminationBasis(n)
            for row in rows:
                basis.insert(row)
            assert basis.rank == naive_rank(rows)

    def test_contains(self):
        basis = EliminationBasis(3)
        basis.insert([1, 1, 0])
        basis.insert([0, 0, 1])
        assert in_span(basis, [2, 2, 7])
        assert not in_span(basis, [1, 0, 0])
        assert basis.rank == 2

    def test_dimension_mismatch(self):
        basis = EliminationBasis(2)
        with pytest.raises(ValueError):
            basis.insert([1, 2, 3])

    def test_column_count_must_be_an_integer(self):
        with pytest.raises(TypeError):
            EliminationBasis(2.5)
        with pytest.raises(ValueError):
            EliminationBasis(-1)

    def test_zero_columns_hold_only_the_empty_vector(self):
        basis = EliminationBasis(0)
        assert not basis.insert([])
        assert basis.rank == 0
        with pytest.raises(ValueError, match="expected 0 entries"):
            basis.insert([0])

    def test_non_rational_entries_rejected(self):
        for bad in (0.5, Fraction(1, 2), Fraction(4, 2), Decimal("0.5"), Decimal(2)):
            with pytest.raises(TypeError):
                EliminationBasis(2).insert([bad, 1])
            with pytest.raises(TypeError):
                det([[bad]])
            with pytest.raises(TypeError):
                det([[0, 0], [bad, 1]])  # after a zero row
            with pytest.raises(TypeError):
                matrix_rank([[1, 0], [0, 1], [bad, 1]])

    def test_full_rank_basis_still_checks_input(self):
        basis = EliminationBasis(2)
        basis.insert([1, 2])
        basis.insert([0, 3])
        assert basis.rank == basis.ncols
        assert in_span(basis, [7, -5])
        assert not basis.insert([7, -5])
        with pytest.raises(ValueError):
            basis.insert([1, 2, 3])
        with pytest.raises(ValueError):
            in_span(basis, [1])
        for bad in (0.5, Fraction(1, 2)):
            with pytest.raises(TypeError):
                basis.insert([bad, 1])
            with pytest.raises(TypeError):
                in_span(basis, [1, bad])
        assert basis.rank == 2

    @given(matrices(), st.data())
    def test_property_insert_tracks_prefix_rank(self, rows, data):
        n = len(rows[0])
        probes = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
        basis = EliminationBasis(n)
        growing_only = EliminationBasis(n)  # never sees a non-growing insert
        prefix_rank = 0
        for i, row in enumerate(rows):
            rank = naive_rank(rows[: i + 1])
            grew = rank > prefix_rank
            assert in_span(basis, row) is not grew
            assert basis.insert(row) is grew
            if grew:
                growing_only.insert(row)
            assert basis.rank == growing_only.rank == rank
            for probe in probes:
                assert in_span(basis, probe) == in_span(growing_only, probe)
            prefix_rank = rank

    @given(st.one_of(matrices(), zero_heavy_matrices()), st.data())
    def test_property_reversed_columns_and_permuted_order_keep_every_verdict(self, rows, data):
        # The audit inserts reversed rows in its own order; rank and span
        # membership must be those of the plain elimination in given order.
        n = len(rows[0])
        probes = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        probes += [*rows, [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]]
        ref, basis = ReferenceBasis(n), EliminationBasis(n)
        for row in rows:
            ref.insert(row)
        for row in data.draw(st.permutations(rows)):
            basis.insert(row[::-1])
        assert basis.rank == ref.rank
        for probe in probes:
            assert in_span(basis, probe[::-1]) == in_span(ref, probe)


class Index:
    """An integer-like entry that is not an int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestIntegerEntries:
    """Entries go through operator.index, so integer-like entries act as
    their ints and are stored as ints."""

    @staticmethod
    def assert_same_as_ints(rows, like):
        n = len(rows[0])
        assert matrix_rank(like) == matrix_rank(rows)
        if len(rows) == n:
            assert det(like) == det(rows)
        plain, basis = EliminationBasis(n), EliminationBasis(n)
        for row, row_like in zip(rows, like):
            assert in_span(basis, row_like) == in_span(plain, row)
            assert basis.insert(row_like) is plain.insert(row)
        assert basis._rows == plain._rows
        assert basis._pivot_cols == plain._pivot_cols
        assert all(type(x) is int for row in basis._rows for x in row)
        for row, row_like in zip(rows, like):
            assert basis._reduce(row_like) == plain._reduce(row)

    @given(st.one_of(matrices(), zero_heavy_matrices()))
    def test_property_index_entries_act_as_ints(self, rows):
        self.assert_same_as_ints(rows, [[Index(x) for x in row] for row in rows])

    @given(st.integers(1, 5), st.data())
    def test_property_bool_entries_act_as_ints(self, n, data):
        bool_row = st.lists(st.booleans(), min_size=n, max_size=n)
        like = data.draw(st.lists(bool_row, min_size=1, max_size=6))
        self.assert_same_as_ints([[int(x) for x in row] for row in like], like)


class TestDeferredRescale:
    """EliminationBasis skips zero-multiplier steps; ReferenceBasis carries
    out every step.  Rows, pivots and remainders must be the same."""

    # pivots 2, 6, 30 in columns 0, 1, 2
    ROWS = ([2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 5, 1])

    @staticmethod
    def both(rows, ncols):
        basis, ref = EliminationBasis(ncols), ReferenceBasis(ncols)
        for row in rows:
            assert basis.insert(row) is ref.insert(row)
        assert basis._rows == ref._rows
        assert basis._pivot_cols == ref._pivot_cols
        return basis, ref

    def test_triangular_input_has_only_zero_multipliers(self):
        rows = [[2, 1, 3], [0, 4, 5], [0, 0, 6]]
        basis, _ = self.both(rows, 3)
        assert basis._rows == [[2, 1, 3], [0, 8, 10], [0, 0, 48]]
        assert det(rows) == naive_det(rows) == 48

    def test_trailing_zero_multipliers_rescale_at_the_end(self):
        basis, ref = self.both(self.ROWS, 4)
        assert basis._rows == [[2, 1, 0, 0], [0, 6, 2, 0], [0, 0, 30, 6]]
        # row 0 has a nonzero multiplier, rows 1 and 2 zero ones
        probe = [4, 2, 0, 7]
        assert basis._reduce(probe) == ref._reduce(probe) == [0, 0, 0, 210]
        assert not in_span(basis, probe)
        basis, _ = self.both([*self.ROWS, probe], 4)
        assert basis._rows[-1] == [0, 0, 0, 210]

    def test_zero_multiplier_then_nonzero_folds_the_factor(self):
        basis, ref = self.both(self.ROWS, 4)
        # row 0 has a zero multiplier, rows 1 and 2 nonzero ones
        probe = [0, 1, 1, 0]
        assert basis._reduce(probe) == ref._reduce(probe) == [0, 0, 0, -4]
        basis, _ = self.both([*self.ROWS, probe], 4)
        assert basis._rows[-1] == [0, 0, 0, -4]
        assert det([*self.ROWS, probe]) == naive_det([*self.ROWS, probe])

    @given(zero_heavy_matrices())
    def test_property_zero_heavy_inserts_match_reference(self, rows):
        n = len(rows[0])
        basis, ref = EliminationBasis(n), ReferenceBasis(n)
        for row in rows:
            assert basis.insert(row) is ref.insert(row)
            assert basis._rows == ref._rows
            assert basis._pivot_cols == ref._pivot_cols
            assert basis.rank == ref.rank
            for probe in rows:
                remainder = ref._reduce(probe)
                assert in_span(basis, probe) == (not any(remainder))
                assert basis._reduce(probe) == remainder
