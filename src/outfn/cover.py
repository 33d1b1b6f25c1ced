"""Rank-(2n-1) representation of the stabiliser of a mod-2 functional.

Fix the functional f on the free group of rank n that reads off the
parity of the last generator.  Its kernel K, with cosets K and a_n K, is
free of rank 2n-1 on x_i = a_i, y_i = a_n a_i a_n^-1 (i = 1..n-1) and
z = a_n^2, the coordinates of its abelianisation in the order x, y, z.
Every automorphism stabilising f preserves K, and its action on the
abelianisation of K is the rank-(2n-1) integer matrix computed here.
Conjugation by a_n acts as the deck involution T exchanging x_i and y_i
and fixing z.  Every cover matrix commutes with T: ``cover_matrix``
proves it is M = [C | TC | u] with Tu = u, so MT = [TC | C | u] = TM.

The (-1) eigenspace of T, spanned by alpha_i = x_i - y_i, carries the
(n-1)-dimensional representation whose values on partial conjugations
and transvection commutators are the exact case tables that
``verify_ia_action_tables`` checks.  It is H_1 of F_n twisted by the
sign character of f (Shapiro's lemma), so the restriction is a twisted
letter count of the forward images a(a_1)..a(a_{n-1}): the one kernel
``twisted_counts`` returns its rows, which the induced blocks intern as
they are, and ``minus_eigenspace_matrix`` wraps them as a ``Matrix``.
Those generators of the kernel of abelianisation are named once, with
their tables, by ``kernel_generators``.
"""

from __future__ import annotations

import itertools

from .linalg import Matrix, _identity_rows
from .words import (
    inner,
    relator_automorphism,
    rho,  # noqa: F401  unused; perfbench/test_smoke.py traces it through this module
)


def cover_matrix(imgs: tuple) -> Matrix:
    """The (2n-1)-dimensional representation of the stabiliser, at the
    automorphism a with forward images ``imgs``; ``ValueError`` when a
    does not stabilise the base functional.

    Each image is read in one pass from both cosets.  A letter a_l^{+-1}
    with l < n adds +-1 to row x_l when read in K and to row y_l when
    read in a_n K; a_n read in a_n K adds +1 to row z, a_n^-1 read in K
    adds -1; every a_n^{+-1} switches the coset.  Column x_i is a(a_i)
    read from K, column y_i is a(a_i) read from a_n K (the two a(a_n)
    terms of a(a_n a_i a_n^-1) cancel), and column z is a(a_n) read from
    both.  The stabiliser test is that a(a_i) ends in the coset it
    started from and a(a_n) in the other.

    Deck commutation.  Reading from a_n K switches every coset: that
    exchanges the x and y rows, and moves the z row by the steps into K
    less the steps out of K, which is 0 for a(a_i).  So column y_i is T
    times column x_i, and T fixes column z, the sum of the two readings.
    """
    n = len(imgs)
    d = 2 * n - 1
    grid = [[0] * d for _ in range(d)]
    for i, img in enumerate(imgs):
        cols = (i, n - 1 + i) if i < n - 1 else (d - 1, d - 1)
        c = 0  # the coset of the prefix read from K; read from a_n K it is 1 - c
        for x in img:
            e = 1 if x > 0 else -1
            if abs(x) < n:
                grid[abs(x) - 1][cols[c]] += e
                grid[n - 2 + abs(x)][cols[1 - c]] += e
            else:
                # a_n counts in the reading that is in a_n K, a_n^-1 in the one in K
                grid[d - 1][cols[c != (x > 0)]] += e
                c ^= 1
        if c != (i == n - 1):
            raise ValueError("automorphism does not stabilise the base functional")
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
