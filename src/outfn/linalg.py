"""Exact linear algebra over the rationals.

Entries are integer-first: every integral entry is stored as a Python
``int`` and a ``fractions.Fraction`` appears only where elimination
leaves a non-integer.  The constructor normalises each entry that way,
so every result of this module keeps the invariant, and division goes
through ``Fraction``; no floating point enters at any stage.  Integer
matrices (signed permutations, transvections, graph incidence matrices,
induced blocks) thus multiply in plain integer arithmetic.  Elimination
picks pivots with the smallest numerator magnitude, which keeps
intermediate entries small for these structured matrices.

Also provides the two degree-2 square functors on linear maps: the
exterior square and the symmetric square.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import mul


def _frac(x):
    """An exact entry: an ``int`` when integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_INTEGER = re.compile(r"-?[0-9]+")


def _entry_from_json(x):
    """``_frac(Fraction(str(x)))``, with integer literals parsed as ``int``.

    ``str`` of a JSON int is such a literal too; every other entry (and
    every rejection) goes through ``Fraction``.
    """
    s = str(x)
    return int(s) if _INTEGER.fullmatch(s) else _frac(Fraction(s))


class Matrix:
    """Dense exact-rational matrix with value semantics.

    Zero-column matrices are allowed (they carry bases of trivial
    subspaces); zero-row matrices are not needed and rejected.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [list(map(_frac, row)) for row in data]
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
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

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

    @classmethod
    def column_vector(cls, entries) -> "Matrix":
        return cls([[e] for e in entries])

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

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

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
            # zip drops the columns of a matrix without rows
            bt = list(zip(*other.data)) or [()] * other.cols
            return Matrix(
                [[sum(map(mul, row, col)) for col in bt] for row in self.data],
                cols=other.cols,
            )
        return self.scale(other)

    def apply(self, vector):
        """Multiply by a column vector given as a plain list."""
        if len(vector) != self.cols:
            raise ValueError("length mismatch")
        vec = list(map(_frac, vector))
        return [_frac(sum(a * v for a, v in zip(row, vec))) for row in self.data]

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return _frac(sum(self.data[i][i] for i in range(self.rows)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns ``(R, pivot_columns)``."""
        m = [list(row) for row in self.data]
        pivots = []
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
            m[r], m[i] = m[i], m[r]
            piv = m[r][c]
            if piv != 1:
                inv = Fraction(1, piv)
                m[r] = [_frac(x * inv) for x in m[r]]
            for k in range(self.rows):
                if k != r and m[k][c] != 0:
                    f = m[k][c]
                    m[k] = [x - f * y for x, y in zip(m[k], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(m, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        if self.cols == 0:
            return 0
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right nullspace, inside the domain."""
        if self.cols == 0:
            return Matrix([], cols=0)
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        cols = []
        for f in free:
            v = [0] * self.cols
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -red.data[r][f]
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
        if self.cols == 0:
            # only zero columns lie in the span of an empty basis
            return Matrix([], cols=rhs.cols) if rhs.is_zero() else None
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        sol = [[0] * rhs.cols for _ in range(self.cols)]
        for r, c in enumerate(pivots):
            for k in range(rhs.cols):
                sol[c][k] = red.data[r][self.cols + k]
        return Matrix(sol, cols=rhs.cols)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        red, pivots = self.hstack(Matrix.identity(self.rows)).rref()
        if len(pivots) != self.rows or any(p >= self.rows for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix([row[self.rows:] for row in red.data], cols=self.rows)

    def determinant(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self.data]
        n = self.rows
        det = 1
        for c in range(n):
            piv = None
            for i in range(c, n):
                if m[i][c] != 0:
                    key = (abs(m[i][c].numerator), m[i][c].denominator, i)
                    if piv is None or key < piv[0]:
                        piv = (key, i)
            if piv is None:
                return 0
            i = piv[1]
            if i != c:
                m[c], m[i] = m[i], m[c]
                det = -det
            det *= m[c][c]
            inv = Fraction(1, m[c][c])
            for k in range(c + 1, n):
                if m[k][c] != 0:
                    f = m[k][c] * inv
                    m[k] = [x - f * y for x, y in zip(m[k], m[c])]
        return _frac(det)

    # -- serialisation ---------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.data],
        }

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        entries = [[_entry_from_json(x) for x in row] for row in obj["entries"]]
        m = cls(entries, cols=obj["cols"])
        if m.rows != obj["rows"]:
            raise ValueError("row count disagrees with entries")
        return m


# -- square functors ----------------------------------------------------


def exterior_square(m: Matrix) -> Matrix:
    """Induced map on the exterior square, basis e_p ^ e_q with p < q."""
    if not m.is_square():
        raise ValueError("square matrix required")
    d = m.rows
    pairs = list(combinations(range(d), 2))
    a = m.data
    out = [
        [a[p][r] * a[q][s] - a[p][s] * a[q][r] for (r, s) in pairs]
        for (p, q) in pairs
    ]
    if not pairs:
        raise ValueError("exterior square of a space of dimension < 2 is trivial")
    return Matrix(out, cols=len(pairs))


def symmetric_square(m: Matrix) -> Matrix:
    """Induced map on the symmetric square, basis e_p.e_q with p <= q."""
    if not m.is_square():
        raise ValueError("square matrix required")
    d = m.rows
    pairs = list(combinations_with_replacement(range(d), 2))
    a = m.data
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
    return Matrix(out, cols=len(pairs))


def schur_square(m: Matrix, mu) -> Matrix:
    """Degree-2 Schur functor: mu=(1,1) exterior, mu=(2) symmetric.

    Both kill -identity, so either factors through GL(V)/{+-1}.
    """
    mu = tuple(mu)
    if mu == (1, 1):
        return exterior_square(m)
    if mu == (2,):
        return symmetric_square(m)
    raise ValueError(f"unsupported partition {mu!r}; use (1,1) or (2,)")
