"""Exact linear algebra over the rationals.

Entries are integer-first: every integral entry is stored as a Python
``int`` and a ``fractions.Fraction`` appears only where elimination
leaves a non-integer.  The constructor checks that invariant once per
matrix, with one type test over all entries; only a matrix holding a
non-``int`` entry is normalised entry by entry.  It records in a flag
whether every entry is an ``int``, and a product of two matrices so
flagged keeps the flag without a second check: the product of two
integer matrices is an integer matrix.  So every result of this module
keeps the invariant, and division goes through ``Fraction``; no
floating point enters at any stage.  ``from_json`` parses each distinct
entry string of a file once.

``Matrix.__mul__`` goes through the kernel ``_product_rows``: row r of
a * b is the sum of x * (row j of b) over the nonzero entries
x = a[r][j].  The matrices multiplied here are sparse integer matrices
(signed permutations and their square functors, transvections), so a
product costs about one row operation per nonzero entry, in plain
integer arithmetic.  The induced block products of ``outfn.induced``
go through its straight-line kernel per block dimension instead, with
this kernel as their test oracle.
Elimination picks pivots with the smallest numerator magnitude, which
keeps intermediate entries small for these structured matrices; a pivot
of -1 negates its row in integers.

Also provides the two degree-2 square functors on linear maps: the
exterior square and the symmetric square.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement


def _frac(x):
    """An exact entry: an ``int`` when integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _product_rows(a, b, cols: int) -> list:
    """Rows of the product of the row lists ``a`` and ``b``, the second
    with ``cols`` columns: the one matrix product of the package.

    Row r of the product is the sum of x * (row j of b) over the nonzero
    entries x = a[r][j], so a signed permutation row costs one copy or
    one scaled copy of a row of b, and an all-zero row of a gives a zero
    row.  Every row is a new list.  Entries are not normalised: a sum of
    ``Fraction`` entries may be integral.
    """
    out = []
    for row in a:
        acc = None
        for x, other in zip(row, b):
            if not x:
                continue
            if acc is None:
                acc = [*other] if x == 1 else [x * y for y in other]
            else:
                acc = [u + x * y for u, y in zip(acc, other)]
        out.append([0] * cols if acc is None else acc)
    return out


def _identity_rows(n: int) -> list:
    """Rows of the n x n identity, each a new list."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


_INTEGER = re.compile(r"-?[0-9]+")
# ``int`` and ``Fraction`` refuse over 4300 digits, but an exponent gets
# round that: ``Fraction("1e10000000")`` builds a 33-million-bit integer
# from ten characters.  So an entry's decimal exponent has the same bound.
MAX_ENTRY_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _entry_from_json(x):
    """``_frac(Fraction(str(x)))``, with integer literals parsed as ``int``.

    ``str`` of a JSON int is such a literal too; every other entry (and
    every rejection) goes through ``Fraction``, once an exponent beyond
    ``MAX_ENTRY_EXPONENT`` in magnitude is refused.
    """
    s = str(x)
    if _INTEGER.fullmatch(s):
        return int(s)
    exp = _EXPONENT.search(s)
    if exp and abs(int(exp[1])) > MAX_ENTRY_EXPONENT:
        raise ValueError(f"entry {s!r} has an exponent beyond {MAX_ENTRY_EXPONENT}")
    return _frac(Fraction(s))


class Matrix:
    """Dense exact-rational matrix with value semantics.

    Zero-column matrices carry bases of trivial subspaces; a zero-row
    matrix needs its column count given as ``cols``.
    """

    __slots__ = ("rows", "cols", "data", "_integral")

    def __init__(self, data, cols=None):
        data = [[*row] for row in data]
        integral = {int} >= {*map(type, chain.from_iterable(data))}
        if not integral:
            data = [[*map(_frac, row)] for row in data]
            integral = {int} >= {*map(type, chain.from_iterable(data))}
        self._integral = integral
        if not data:
            if cols is None:
                raise ValueError("an empty matrix needs an explicit column count")
            self.rows, self.cols, self.data = 0, cols, []
            return
        width = len(data[0]) if cols is None else cols
        for row in data:
            if len(row) != width:
                raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = width
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(_identity_rows(n), cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if not columns:
            if rows is None:
                raise ValueError("need explicit row count for an empty basis")
            return cls([[] for _ in range(rows)], cols=0)
        r = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(r)])

    # -- basic structure ----------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix([self.data[i] + other.data[i] for i in range(self.rows)],
                      cols=self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix([list(r) for r in self.data] + [list(r) for r in other.data],
                      cols=self.cols)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data], cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix([[c * a for a in row] for row in self.data], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("inner dimension mismatch")
            rows = _product_rows(self.data, other.data, other.cols)
            if not (self._integral and other._integral):
                return Matrix(rows, cols=other.cols)
            # integer rows times integer rows: the invariant holds as built
            m = Matrix.__new__(Matrix)
            m.rows, m.cols, m.data, m._integral = self.rows, other.cols, rows, True
            return m
        return self.scale(other)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return _frac(sum(self.data[i][i] for i in range(self.rows)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def is_identity(self) -> bool:
        return self.is_square() and self.data == _identity_rows(self.rows)

    # -- elimination ---------------------------------------------------

    def _eliminate(self):
        """Gauss-Jordan reduction, the one elimination of this module.

        Returns ``(rows, pivot_columns, product)``: the reduced rows, integer
        first like a matrix, the pivot columns, and the product of the
        pivots as found, negated once per row swap.
        """
        m = [list(row) for row in self.data]
        # while every working entry is an int so is every row update; after
        # a Fraction enters, an update such as 0 - 2 * (1/2) can be integral
        integral = self._integral
        pivots = []
        product = 1
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            best = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    key = (abs(m[i][c].numerator), m[i][c].denominator, i)
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                continue
            i = best[1]
            if i != r:
                m[r], m[i] = m[i], m[r]
                product = -product
            piv = m[r][c]
            product *= piv
            if piv == -1:
                m[r] = [-x for x in m[r]]
            elif piv != 1:
                inv = Fraction(1, piv)
                m[r] = [_frac(x * inv) if x else 0 for x in m[r]]
                integral = False
            for k in range(self.rows):
                if k != r and m[k][c] != 0:
                    f = m[k][c]
                    if integral:
                        m[k] = [x - f * y for x, y in zip(m[k], m[r])]
                    else:
                        m[k] = [_frac(x - f * y) for x, y in zip(m[k], m[r])]
            pivots.append(c)
            r += 1
        return m, tuple(pivots), product

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right nullspace, inside the domain."""
        red, pivots, _ = self._eliminate()
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for f in free:
            v = [0] * self.cols
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
            cols.append(v)
        return Matrix.from_columns(cols, rows=self.cols)

    def solve(self, rhs: "Matrix"):
        """A particular solution ``X`` of ``self * X = rhs``, or None.

        When the columns of ``self`` are independent the solution is
        unique, which is how coordinates with respect to a basis are
        extracted throughout the package.
        """
        if rhs.rows != self.rows:
            raise ValueError("row count mismatch")
        red, pivots, _ = self.hstack(rhs)._eliminate()
        if any(p >= self.cols for p in pivots):
            return None
        sol = [[0] * rhs.cols for _ in range(self.cols)]
        for r, c in enumerate(pivots):
            sol[c] = red[r][self.cols:]
        return Matrix(sol, cols=rhs.cols)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        inv = self.solve(Matrix.identity(self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def determinant(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        _, pivots, product = self._eliminate()
        return _frac(product) if len(pivots) == self.cols else 0

    # -- serialisation ---------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.data],
        }

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        # keyed by string, so the JSON value true is read as "True", not 1;
        # the first failing entry in reading order is the one reported
        entries = [[*map(str, row)] for row in obj["entries"]]
        parsed = {s: _entry_from_json(s)
                  for s in dict.fromkeys(chain.from_iterable(entries))}
        m = cls([[*map(parsed.__getitem__, row)] for row in entries],
                cols=obj["cols"])
        if m.rows != obj["rows"]:
            raise ValueError("row count disagrees with entries")
        return m


# -- square functors ----------------------------------------------------


def schur_square(m: Matrix, mu) -> Matrix:
    """Degree-2 Schur functor: mu=(1,1) exterior, mu=(2) symmetric.

    The bases are e_p ^ e_q with p < q and e_p.e_q with p <= q.  Entry
    ((p,q),(r,s)) is the determinant (exterior) or the permanent
    (symmetric) of the 2x2 minor of m on rows p,q and columns r,s; on the
    symmetric rows p = q it is the single product m_pr m_ps.  Both kill
    -identity, so either factors through GL(V)/{+-1}.
    """
    mu = tuple(mu)
    if mu not in ((1, 1), (2,)):
        raise ValueError(f"unsupported partition {mu!r}; use (1,1) or (2,)")
    if not m.is_square():
        raise ValueError("square matrix required")
    exterior = mu == (1, 1)
    pairs = list((combinations if exterior else combinations_with_replacement)(
        range(m.rows), 2))
    if exterior and not pairs:
        raise ValueError("exterior square of a space of dimension < 2 is trivial")
    sign = -1 if exterior else 1
    a = m.data
    return Matrix([[a[p][r] * a[p][s] if p == q
                    else a[p][r] * a[q][s] + sign * a[p][s] * a[q][r]
                    for (r, s) in pairs] for (p, q) in pairs], cols=len(pairs))


def exterior_square(m: Matrix) -> Matrix:
    """Induced map on the exterior square, basis e_p ^ e_q with p < q."""
    return schur_square(m, (1, 1))
