"""Exact matrix kernel, elimination, and the square functors."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from outfn import graphs, linalg
from outfn.linalg import Matrix, exterior_square, schur_square, symmetric_square


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# -- an independent oracle on plain lists of Fractions ----------------------


def oracle_mul(a, b):
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def oracle_rref(a):
    """Textbook Gauss-Jordan, taking the first nonzero entry as pivot."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for k in range(len(m)):
            f = m[k][c]
            if k != r:
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
    return m, tuple(pivots)


def oracle_det(a):
    """Laplace expansion along the first row."""
    if len(a) == 1:
        return Fraction(a[0][0])
    return sum((-1) ** j * Fraction(a[0][j])
               * oracle_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def oracle_exterior_square(a):
    """Entry ((p,q),(r,s)) of the exterior square, p < q and r < s."""
    pairs = list(combinations(range(len(a)), 2))
    return [[a[p][r] * a[q][s] - a[p][s] * a[q][r] for (r, s) in pairs]
            for (p, q) in pairs]


def oracle_symmetric_square(a):
    """Entry ((p,q),(r,s)) of the symmetric square, case by case."""
    pairs = list(combinations_with_replacement(range(len(a)), 2))
    out = []
    for (p, q) in pairs:
        row = []
        for (r, s) in pairs:
            if p == q:
                row.append(a[p][r] * a[p][s])
            elif r == s:
                row.append(2 * a[p][r] * a[q][r])
            else:
                row.append(a[p][r] * a[q][s] + a[q][r] * a[p][s])
        out.append(row)
    return out


def exact(x) -> bool:
    """An int, or a Fraction that is not an integer; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def all_exact(m: Matrix) -> bool:
    return all(exact(x) for row in m.data for x in row)


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


def lists(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def chain(draw, count, square=False):
    """``count`` matrices whose consecutive products are defined."""
    dims = [draw(st.integers(1, 4))]
    for _ in range(count):
        dims.append(dims[0] if square else draw(st.integers(1, 4)))
    return [draw(lists(r, c)) for r, c in zip(dims, dims[1:])]


class TestOracle:
    """Integer-first Matrix against the plain-Fraction oracle above."""

    @given(chain(2))
    def test_product(self, ab):
        a, b = ab
        got = Matrix(a) * Matrix(b)
        assert got.data == oracle_mul(a, b)
        assert all_exact(got)

    @given(chain(1))
    def test_rref(self, ms):
        (a,) = ms
        red, pivots, _ = Matrix(a)._eliminate()
        assert (red, pivots) == oracle_rref(a)
        assert all(isinstance(x, (int, Fraction)) for row in red for x in row)

    @given(chain(2), st.data())
    def test_solve(self, ax, data):
        a, x = ax
        b = data.draw(lists(len(a), len(x[0])))
        for rhs in (oracle_mul(a, x), b):
            sol = Matrix(a).solve(Matrix(rhs))
            augmented = [ra + rb for ra, rb in zip(a, rhs)]
            if len(oracle_rref(augmented)[1]) > len(oracle_rref(a)[1]):
                assert sol is None
            else:
                assert oracle_mul(a, sol.data) == rhs
                assert all_exact(sol)

    @given(chain(1, square=True))
    def test_inverse(self, ms):
        (a,) = ms
        if oracle_det(a) == 0:
            with pytest.raises(ValueError):
                Matrix(a).inverse()
            return
        inv = Matrix(a).inverse()
        assert oracle_mul(a, inv.data) == Matrix.identity(len(a)).data
        assert all_exact(inv)

    @given(chain(1))
    def test_kernel_basis(self, ms):
        (a,) = ms
        k = Matrix(a).kernel_basis()
        assert k.cols == len(a[0]) - len(oracle_rref(a)[1])
        assert all_exact(k)
        if k.cols:
            assert all(x == 0 for row in oracle_mul(a, k.data) for x in row)
            assert len(oracle_rref(k.data)[1]) == k.cols

    @given(st.sampled_from([((1, 1), oracle_exterior_square, 2),
                            ((2,), oracle_symmetric_square, 1)]),
           st.data())
    def test_square_functors(self, functor, data):
        mu, oracle, low = functor
        d = data.draw(st.integers(low, 5))
        a = data.draw(st.one_of(
            st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                     min_size=d, max_size=d),
            lists(d, d)))
        got = schur_square(Matrix(a), mu)
        assert got.data == oracle(a)
        assert all_exact(got)

    @given(chain(2, square=True))
    def test_determinant(self, ab):
        a, b = ab
        det_a, det_b = Matrix(a).determinant(), Matrix(b).determinant()
        assert det_a == oracle_det(a) and exact(det_a)
        det_ab = (Matrix(a) * Matrix(b)).determinant()
        assert det_ab == det_a * det_b and exact(det_ab)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert Matrix.identity(3).kernel_basis().cols == 0

    def test_zero_matrix_full_kernel(self):
        assert Matrix.zeros(2, 2).kernel_basis().cols == 2

    def test_empty_matrices(self):
        # no columns: rank 0 and a kernel without columns inside a 0-space
        no_cols = Matrix([[], []], cols=0)
        assert no_cols.rank() == 0
        assert no_cols.kernel_basis() == Matrix([], cols=0)
        # no rows: every column is free, so the kernel is the whole space
        no_rows = Matrix([], cols=3)
        assert no_rows.rank() == 0
        assert no_rows.kernel_basis() == Matrix.identity(3)

    def test_cage_incidence_kernels(self):
        # rank-nullity: the incidence matrix of a k-cage has rank 1
        for k in (3, 4):
            inc = graphs.cage(k).incidence_matrix()
            assert inc.rank() == 1
            assert inc.kernel_basis().cols == k - 1

    def test_kernel_columns_annihilate(self):
        rng = random.Random(7)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            k = m.kernel_basis()
            if k.cols:
                assert (m * k).is_zero()
            assert m.rank() + k.cols == m.cols


class TestElimination:
    def test_inverse_round_trip(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, n)
            if m.rank() < n:
                continue
            assert (m * m.inverse()).is_identity()

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 2).inverse()

    def test_solve_consistent(self):
        a = Matrix([[1, 2], [3, 4], [5, 6]])
        b = Matrix([[1], [1], [2]])
        assert a.solve(b) is None  # (1,1,2) is not in the column span

        b2 = a * Matrix([[2], [-1]])
        x2 = a.solve(b2)
        assert a * x2 == b2

    def test_solve_over_an_empty_basis(self):
        basis = Matrix([[], [], []], cols=0)
        assert basis.solve(Matrix.zeros(3, 2)) == Matrix([], cols=2)
        assert basis.solve(Matrix([[0], [1], [0]])) is None
        assert Matrix([], cols=0).solve(Matrix([], cols=2)) == Matrix([], cols=2)

    def test_determinant_multiplicative(self):
        rng = random.Random(13)
        for _ in range(10):
            a, b = rand_matrix(rng, 4, 4), rand_matrix(rng, 4, 4)
            assert (a * b).determinant() == a.determinant() * b.determinant()

    def test_rref_exactness(self):
        m = Matrix([[2, 4], [1, 3]])
        red, piv, _ = m._eliminate()
        assert (red, piv) == oracle_rref(m.data)
        assert piv == (0, 1)
        assert red == Matrix.identity(2).data
        assert m.determinant() == Fraction(2)

    def test_json_round_trip(self):
        m = Matrix([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
        assert Matrix.from_json(m.to_json()) == m

    @staticmethod
    def _outcome(parse, x):
        try:
            value = parse(x)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc)
        return type(value), value

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(
        st.integers(), st.integers().map(str), st.booleans(), st.floats(),
        st.tuples(st.integers(), st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.sampled_from(["+3", " 3", "3 ", "1_000", "-0", "00", "3.0", "1e3",
                         "\u0663", "--3", "", "-", "3/", "nan", "inf", "True"]),
        st.text(max_size=6),
    ))
    def test_json_entries_parse_as_fraction_of_str(self, x):
        # integer literals take a shortcut to int; every other entry, and
        # every rejection, must be what Fraction(str(x)) gives
        oracle = lambda y: linalg._frac(Fraction(str(y)))  # noqa: E731
        assert self._outcome(linalg._entry_from_json, x) == self._outcome(oracle, x)


class TestSquareFunctors:
    def test_dimensions(self):
        m = Matrix.identity(4)
        assert exterior_square(m).shape == (6, 6)
        assert symmetric_square(m).shape == (10, 10)

    def test_kills_minus_identity(self):
        neg = Matrix.identity(3).scale(-1)
        assert exterior_square(neg).is_identity()
        assert symmetric_square(neg).is_identity()

    def test_sign_blind(self):
        rng = random.Random(23)
        for mu in ((1, 1), (2,)):
            m = rand_matrix(rng, 4, 4)
            assert schur_square(m.scale(-1), mu) == schur_square(m, mu)

    def test_functorial(self):
        rng = random.Random(5)
        for mu in ((1, 1), (2,)):
            for _ in range(8):
                a, b = rand_matrix(rng, 4, 4, -3, 3), rand_matrix(rng, 4, 4, -3, 3)
                assert schur_square(a * b, mu) == schur_square(a, mu) * schur_square(b, mu)

    def test_exterior_square_is_determinant_in_dim_two(self):
        a = Matrix([[1, 2], [3, 4]])
        assert exterior_square(a) == Matrix([[a.determinant()]])

    def test_unsupported_partition(self):
        with pytest.raises(ValueError):
            schur_square(Matrix.identity(3), (3,))
