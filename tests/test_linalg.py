"""Exact matrix kernel, elimination, and the square functors."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from conftest import benchmark_inputs
from outfn import graphs, linalg
from outfn.linalg import Matrix, schur_square


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
    """Every entry exact, and the integrality ``m`` recorded when it was
    built matches its entries."""
    entries = [x for row in m.data for x in row]
    return (all(map(exact, entries))
            and m._integral == all(type(x) is int for x in entries))


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


def lists(rows, cols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def chain(draw, count, square=False):
    """``count`` matrices whose consecutive products are defined."""
    dims = [draw(st.integers(1, 4))]
    for _ in range(count):
        dims.append(dims[0] if square else draw(st.integers(1, 4)))
    return [draw(lists(r, c)) for r, c in zip(dims, dims[1:])]


def sparse(rows, cols):
    """Integer matrices that are mostly zero."""
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def monomial(draw, d):
    """A signed permutation matrix of size d."""
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    return [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]


class TestOracle:
    """Integer-first Matrix against the plain-Fraction oracle above."""

    @given(chain(2))
    def test_product(self, ab):
        a, b = ab
        got = Matrix(a) * Matrix(b)
        assert got.data == oracle_mul(a, b)
        assert all_exact(got)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_product_of_sparse_and_monomial_integer_matrices(self, d, k, data):
        p, q = data.draw(monomial(d)), data.draw(monomial(d))
        s, t = data.draw(sparse(d, k)), data.draw(sparse(k, d))
        for a, b in ((p, q), (p, s), (t, p), (s, t), (t, s)):
            got = Matrix(a) * Matrix(b)
            assert got.data == oracle_mul(a, b)
            assert all_exact(got)

    @given(chain(1, square=True))
    def test_fraction_products_that_come_out_integral(self, ms):
        (a,) = ms
        if oracle_det(a) == 0:
            return
        inv = Matrix(a).inverse()
        for got in (Matrix(a) * inv, inv * Matrix(a)):
            assert got.data == Matrix.identity(len(a)).data
            assert all(type(x) is int for row in got.data for x in row)

    def test_fraction_rows_that_sum_to_integers(self):
        half = Matrix([[Fraction(1, 2), Fraction(-3, 2)], [Fraction(2, 3), 0]])
        got = half * Matrix([[3, 1], [1, 1]])
        assert got.data == [[0, -1], [2, Fraction(2, 3)]] and all_exact(got)

    @pytest.mark.parametrize("r, k, c", [(2, 0, 3), (3, 2, 0)])
    def test_products_with_an_empty_side(self, r, k, c):
        a = Matrix([[1] * k for _ in range(r)], cols=k)
        b = Matrix([[2] * c for _ in range(k)], cols=c) if k else Matrix([], cols=c)
        assert a * b == Matrix.zeros(r, c) and all_exact(a * b)

    def test_product_rows_are_new_lists(self):
        # row 0 takes the x = 1 copy of b's row, row 1 a scaled copy and
        # a sum, row 2 is the zero row
        a = Matrix([[1, 0], [-1, 2], [0, 0]])
        b = Matrix([[3, Fraction(1, 2)], [4, 5]])
        before = ([row[:] for row in a.data], [row[:] for row in b.data])
        got = a * b
        assert got.data == [[3, Fraction(1, 2)], [5, Fraction(19, 2)], [0, 0]]
        for row in got.data:
            row[:] = [7] * len(row)
        assert (a.data, b.data) == before
        rows = ((1, 0), (0, 1))
        out = linalg._product_rows(rows, rows, 2)
        assert out == [[1, 0], [0, 1]] and all(type(row) is list for row in out)

    def test_constructor_copies_int_rows_and_normalises_the_rest(self):
        rows = [[1, 2], [True, Fraction(4, 2)], [Fraction(1, 2), 0]]
        m = Matrix(rows)
        rows[0][0] = 9
        assert m.data == [[1, 2], [1, 2], [Fraction(1, 2), 0]]
        assert all_exact(m) and m.data[0] is not rows[0]

    @given(chain(1))
    def test_rref(self, ms):
        (a,) = ms
        red, pivots, _ = Matrix(a)._eliminate()
        assert (red, pivots) == oracle_rref(a)
        assert all(exact(x) for row in red for x in row)

    def test_rref_after_a_fraction_multiplier(self):
        # the multipliers are 2 and then Fractions such as -1/2; the reduced
        # rows are the identity, all in ints
        a = [[-1, Fraction(1, 2), 3], [2, -1, Fraction(-1, 3)], [0, -1, 4]]
        red, pivots, _ = Matrix(a)._eliminate()
        assert (red, pivots) == oracle_rref(a)
        assert all(type(x) is int for row in red for x in row)
        # an int multiplier times a Fraction pivot row: 0 - 2 * (1/2) is -1
        red, _, _ = Matrix([[1, Fraction(1, 2)], [2, 0]])._eliminate()
        assert red == [[1, 0], [0, 1]]
        assert all(type(x) is int for row in red for x in row)

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

    @given(st.integers(1, 5), st.data())
    def test_minus_one_pivots(self, d, data):
        a = data.draw(monomial(d))
        # the smallest pivot is -1 in every column but the last here
        b = [[-1, Fraction(1, 2), 3], [2, -1, Fraction(-1, 3)], [0, -1, 4]]
        for m in (a, oracle_mul(a, a), b):
            red, pivots, _ = Matrix(m)._eliminate()
            assert (red, pivots) == oracle_rref(m)
            assert all(exact(x) for row in red for x in row)
            det = Matrix(m).determinant()
            assert det == oracle_det(m) and exact(det)

    @given(chain(2, square=True))
    def test_determinant(self, ab):
        a, b = ab
        det_a, det_b = Matrix(a).determinant(), Matrix(b).determinant()
        assert det_a == oracle_det(a) and exact(det_a)
        det_ab = (Matrix(a) * Matrix(b)).determinant()
        assert det_ab == det_a * det_b and exact(det_ab)


class TestIntegralFlag:
    """``Matrix._integral`` is set once, when a matrix is built."""

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_constructor(self, r, c, data):
        entries = st.one_of(ENTRIES, st.booleans(), st.sampled_from(
            [Fraction(4, 2), Fraction(0), Fraction(-3, 1)]))
        assert all_exact(Matrix(data.draw(lists(r, c, entries)), cols=c))

    def test_only_integer_products_skip_the_constructor(self, monkeypatch):
        ints = Matrix([[1, 2], [0, -1]])
        half = Matrix([[Fraction(1, 2), 0], [0, 1]])
        built = []
        init = Matrix.__init__
        monkeypatch.setattr(Matrix, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        product = ints * ints
        assert built == [] and product.data == [[1, 0], [0, 1]]
        assert product.shape == (2, 2) and product._integral
        # a Fraction operand goes through the constructor, which finds
        # that half * [[2, 0], [0, 1]] is the integer identity
        assert (half * Matrix([[2, 0], [0, 1]]))._integral
        assert not (ints * half)._integral and not (half * ints)._integral
        assert len(built) == 4


def per_entry_reading(obj) -> Matrix:
    """The reference reading: one ``_entry_from_json`` per entry, in order."""
    entries = [[linalg._entry_from_json(x) for x in row] for row in obj["entries"]]
    m = Matrix(entries, cols=obj["cols"])
    if m.rows != obj["rows"]:
        raise ValueError("row count disagrees with entries")
    return m


def reading(read, obj):
    """What ``read`` makes of ``obj``: entries with their types, or the error."""
    try:
        m = read(obj)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return m.shape, [[(type(x), x) for x in row] for row in m.data]


EDGE_ENTRIES = ["1", 1, 1.0, "-0", "+3", " 2", "2/1", "1/2", True, [1]]


class TestFromJson:
    """``from_json`` parses each distinct entry string once."""

    @pytest.mark.parametrize("x", EDGE_ENTRIES, ids=repr)
    def test_edge_entries(self, x):
        # a leading JSON 1 and "1" must not stand in for a later true
        obj = {"rows": 2, "cols": 2, "entries": [[1, "1"], [x, x]]}
        got = reading(Matrix.from_json, obj)
        assert got == reading(per_entry_reading, obj)
        if x is True or x == [1]:
            assert got[0] is ValueError

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_the_per_entry_reading(self, r, c, data):
        entry = st.one_of(st.sampled_from(EDGE_ENTRIES), st.integers(-3, 3),
                          st.integers(-3, 3).map(str), st.text(max_size=3),
                          st.sampled_from(["1/0", "x", "0.5", "-1"]))
        rows = data.draw(st.integers(r - 1, r + 1))
        obj = {"rows": rows, "cols": c, "entries": data.draw(lists(r, c, entry))}
        assert reading(Matrix.from_json, obj) == reading(per_entry_reading, obj)

    @pytest.mark.parametrize("seed, n", [(1, 4), (2, 4), (1, 5), (2, 5)])
    def test_benchmark_rep_files(self, seed, n):
        rep = benchmark_inputs().signed_exterior_square_rep_file(seed, n)
        for obj in rep["generators"].values():
            got = reading(Matrix.from_json, obj)
            assert got == reading(per_entry_reading, obj)
            assert Matrix.from_json(obj)._integral


class TestKernel:
    def test_identity_of_size_zero(self):
        m = Matrix.identity(0)
        assert m.shape == (0, 0)
        assert m.is_identity()
        assert m * m == m

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
                         "\u0663", "--3", "", "-", "3/", "nan", "inf", "True",
                         "1e4300", "1E-4300", "1e4301", "-2.5e-4301", "1e10000000"]),
        st.text(max_size=6),
    ))
    def test_json_entries_parse_as_fraction_of_str(self, x):
        # integer literals take a shortcut to int; every other entry, and
        # every rejection, must be what Fraction(str(x)) gives, except that
        # a decimal exponent beyond 4300 in magnitude is refused first
        def oracle(y):
            _, e, exp = str(y).lower().rpartition("e")
            try:
                too_big = bool(e) and abs(int(exp)) > 4300
            except ValueError:
                too_big = False
            if too_big:
                raise ValueError("exponent beyond 4300")
            return linalg._frac(Fraction(str(y)))
        assert self._outcome(linalg._entry_from_json, x) == self._outcome(oracle, x)

    @pytest.mark.parametrize("x, outcome", [
        (True, ValueError), (1.5, (Fraction, Fraction(3, 2))),
        ("1/2", (Fraction, Fraction(1, 2))), ("-3", (int, -3)),
        ("x", ValueError), (-3, (int, -3)),
    ])
    def test_json_entries_by_type(self, x, outcome):
        assert self._outcome(linalg._entry_from_json, x) == outcome


class TestSquareFunctors:
    def test_dimensions(self):
        m = Matrix.identity(4)
        assert schur_square(m, (1, 1)).shape == (6, 6)
        assert schur_square(m, (2,)).shape == (10, 10)

    def test_kills_minus_identity(self):
        neg = Matrix.identity(3).scale(-1)
        assert schur_square(neg, (1, 1)).is_identity()
        assert schur_square(neg, (2,)).is_identity()

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
        assert schur_square(a, (1, 1)) == Matrix([[a.determinant()]])

    def test_unsupported_partition(self):
        with pytest.raises(ValueError):
            schur_square(Matrix.identity(3), (3,))
