"""Rank-(2n-1) representation of the stabiliser of a mod-2 functional.

Fix the functional f on the free group of rank n that reads off the
parity of the last generator.  Its kernel K is a free group of rank
2n-1 with the Schreier basis (coset transversal {1, a_n})

    x_i = a_i,   y_i = a_n a_i a_n^-1   (i = 1..n-1),   z = a_n^2.

Every automorphism stabilising f preserves K, and its action on the
abelianisation of K is an integer matrix in the basis above: that is
the rank-(2n-1) representation computed here.  Conjugation by a_n acts
as the involution exchanging x_i and y_i and fixing z; its (-1)
eigenspace is spanned by the differences alpha_i = x_i - y_i and the
restriction there is the (n-1)-dimensional representation whose values
on partial conjugations and transvection commutators are pinned down by
exact case tables (verified wholesale by ``verify_ia_action_tables``).
That eigenspace is H_1 of F_n twisted by the sign character of f
(Shapiro's lemma), so the restriction is a twisted letter count of the
forward images a(a_1)..a(a_{n-1}), with no Schreier rewrite: the one
kernel ``twisted_counts`` returns its rows, which the induced blocks
intern as they are, and ``minus_eigenspace_matrix`` wraps them as a
``Matrix`` for the case tables.  Those generators of the kernel of
abelianisation are named once, with their tables, by
``kernel_generators``, and checked on the forward images of each word.
"""

from __future__ import annotations

import itertools

from .linalg import Matrix, _identity_rows
from .words import (
    apply,
    inner,
    relator_automorphism,
    rho,  # noqa: F401  unused; perfbench/test_smoke.py traces it through this module
)


def stabilizes_base_functional(imgs: tuple) -> bool:
    """Does the automorphism with forward images ``imgs`` fix the base
    functional?

    Equivalently: the parity of the last generator in the image of a_i
    is 1 exactly when i = n, which is what is read off here.
    """
    n = len(imgs)
    return all(sum(abs(x) == n for x in img) % 2 == (i == n - 1)
               for i, img in enumerate(imgs))


# ---------------------------------------------------------------------------
# the Schreier basis of the kernel and rewriting


def schreier_symbols(n: int) -> list:
    """Names and defining letter tuples of the free basis of the kernel."""
    if n < 2:
        raise ValueError("needs rank at least 2")
    return ([(f"x{i}", (i,)) for i in range(1, n)]
            + [(f"y{i}", (n, i, -n)) for i in range(1, n)] + [("z", (n, n))])


def rewrite_in_kernel(w: tuple, n: int) -> tuple:
    """Rewrite a kernel element, a reduced letter tuple of rank n, in the
    Schreier basis.

    Scans the word tracking which coset of the kernel the prefix lies
    in; raises when the total parity of the last generator is odd (the
    word is then not in the kernel).  Symbols are returned as
    (index, +-1) pairs in the x_1..x_{n-1}, y_1..y_{n-1}, z ordering.
    """
    if n < 2:
        raise ValueError("needs rank at least 2")
    out = []
    state = 0
    for x in w:
        sign = 1 if x > 0 else -1
        if abs(x) < n:
            out.append((abs(x) - 1 + state * (n - 1), sign))
            continue
        # a_n^+-1 flips the coset; z is a_n read in coset 1, z^-1 is
        # a_n^-1 read in coset 0
        if state == (sign > 0):
            out.append((2 * (n - 1), sign))
        state ^= 1
    if state != 0:
        raise ValueError("word is not in the kernel (odd parity)")
    return tuple(out)


# ---------------------------------------------------------------------------
# the matrix representations


def cover_matrix(imgs: tuple) -> Matrix:
    """The (2n-1)-dimensional representation of the stabiliser, at the
    automorphism with forward images ``imgs``.

    Integer matrix of the action on the abelianised kernel: column j is
    the exponent vector of the rewritten image of the j-th basis symbol.
    """
    n = len(imgs)
    if not stabilizes_base_functional(imgs):
        raise ValueError("automorphism does not stabilise the base functional")
    d = 2 * n - 1
    grid = [[0] * d for _ in range(d)]
    for j, (_, definition) in enumerate(schreier_symbols(n)):
        for index, e in rewrite_in_kernel(apply(imgs, definition), n):
            grid[index][j] += e
    return Matrix(grid)


def deck_matrix(n: int) -> Matrix:
    """The involution swapping x_i with y_i and fixing z.

    This is the matrix of conjugation by the last generator; every
    cover matrix commutes with it.
    """
    d = 2 * n - 1
    grid = [[0] * d for _ in range(d)]
    for i in range(n - 1):
        grid[i][n - 1 + i] = 1
        grid[n - 1 + i][i] = 1
    grid[d - 1][d - 1] = 1
    return Matrix(grid)


def twisted_counts(imgs: tuple) -> list:
    """Rows of the restriction to the (-1)-eigenspace of the deck
    involution, in the basis alpha_i = x_i - y_i, of the automorphism a
    with forward images ``imgs``; ``ValueError`` when a does not
    stabilise the base functional, read off the same pass: the sign ends
    at +1 exactly when a(a_i) has even a_n-parity, and a(a_n) must have
    odd parity.

    Column i is the twisted count of the forward image a(a_i): each
    letter a_l^{+-1} with l < n adds +-1 to row l, negated when an odd
    number of a_n^{+-1} letters precede it.

    Proof.  The projection x_l -> alpha_l, y_l -> -alpha_l, z -> 0
    turns the Schreier rewrite of any word into its twisted count.  The
    image of alpha_i is rewrite(a(a_i)) - rewrite(a(a_n a_i a_n^-1)),
    which lies in the (-1)-eigenspace, where the projection doubles.
    As a(a_n) has odd a_n-parity and a(a_i) even, the second term
    projects to minus the first: the projection is exactly twice the
    image of alpha_i.
    """
    n = len(imgs)
    out = [[0] * (n - 1) for _ in range(n - 1)]
    for i, img in enumerate(imgs[:n - 1]):
        sign = 1
        for x in img:
            if abs(x) == n:
                sign = -sign
            else:
                out[abs(x) - 1][i] += sign if x > 0 else -sign
        if sign < 0:
            raise ValueError("automorphism does not stabilise the base functional")
    if not sum(abs(x) == n for x in imgs[-1]) % 2:
        raise ValueError("automorphism does not stabilise the base functional")
    return out


def minus_eigenspace_matrix(imgs: tuple) -> Matrix:
    """The rows of ``twisted_counts`` as a ``Matrix``."""
    return Matrix(twisted_counts(imgs))


def commutes_with_deck(imgs: tuple) -> bool:
    m = cover_matrix(imgs)
    t = deck_matrix(len(imgs))
    return m * t == t * m


def deck_eigenspace_dims(n: int) -> tuple:
    """(dim of +1 eigenspace, dim of -1 eigenspace) = (n, n-1)."""
    t = deck_matrix(n)
    ident = Matrix.identity(2 * n - 1)
    plus = (t - ident).kernel_basis().cols
    minus = (t + ident).kernel_basis().cols
    return plus, minus


# ---------------------------------------------------------------------------
# the exact case tables on the (-1)-eigenspace


def kernel_generators(n: int) -> list:
    """``(family, label, token word, case table)`` for the generators of
    the kernel of abelianisation: the partial conjugations
    rho_ij lam_ij^-1 (conjugate a_i by a_j), then the transvection
    commutators [rho_ij, rho_ik].

    Case tables on the (-1)-eigenspace: a partial conjugation negates
    alpha_i when j = n and fixes all else; a commutator adds -2 alpha_k
    to the image of alpha_i when j = n and +2 alpha_j when k = n, and
    fixes every other alpha_l.
    """
    out = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        table = _identity_rows(n - 1)
        if j == n:
            table[i - 1][i - 1] = -1
        out.append(("partial conjugation", f"partial conjugation i={i},j={j}",
                    [(("rho", i, j), 1), (("lam", i, j), -1)], Matrix(table)))
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        table = _identity_rows(n - 1)
        if j == n:
            table[k - 1][i - 1] = -2
        elif k == n:
            table[j - 1][i - 1] = 2
        a, b = ("rho", i, j), ("rho", i, k)
        out.append(("commutator", f"commutator i={i},j={j},k={k}",
                    [(a, 1), (b, 1), (a, -1), (b, -1)], Matrix(table)))
    return out


def verify_ia_action_tables(n: int) -> dict:
    """Exhaustively compare computed restrictions with the case tables.

    Covers every kernel generator (with its deck commutation), the
    inner automorphisms (identity for i < n, minus identity for i = n),
    the deck eigenspace dimensions (n, n-1) and the deck matrix as
    conjugation by the last generator.  Each check names its family.
    """
    if n < 3:
        raise ValueError("needs rank at least 3")
    checks = []
    for family, label, word, want in kernel_generators(n):
        g = relator_automorphism(n, word)
        checks.append({"family": family, "name": label,
                       "ok": minus_eigenspace_matrix(g) == want
                       and commutes_with_deck(g)})

    # each remaining check is a family of its own
    ident = Matrix.identity(n - 1)
    singles = [(f"conjugation by generator {i}",
                minus_eigenspace_matrix(inner((i,), n))
                == (-ident if i == n else ident))
               for i in range(1, n + 1)]
    singles.append(("deck eigenspace dimensions", deck_eigenspace_dims(n) == (n, n - 1)))
    singles.append(("deck matrix is conjugation by the last generator",
                    cover_matrix(inner((n,), n)) == deck_matrix(n)))
    checks += [{"family": name, "name": name, "ok": ok} for name, ok in singles]

    return {
        "n": n,
        "checks": checks,
        "total": len(checks),
        "ok": all(c["ok"] for c in checks),
    }
