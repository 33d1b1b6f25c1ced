"""Free-group words, Nielsen moves, and inner detection.

A word in the free group of rank n is a tuple of nonzero integers: ``k``
stands for the k-th generator, ``-k`` for its inverse, and every stored
word is freely reduced.  Every word is such a tuple, an image or a
conjugator alike, with its rank passed beside it where one is needed.
An endomorphism is its tuple of images, one word per generator, and
its rank is the length of that tuple; ``apply`` is where a caller's
word is checked against that rank.
An element of Out(F_n) is a token word in the Nielsen generators.  CLI
paths evaluate it by Nielsen moves only: each letter rewrites one or a
few forward images, and deciding innerness reads only those, so no
inverse table is built or certified.  Each letter is checked once,
inline, and a product of reduced words tests its seam first: ``u + v``
stands unless the letters there cancel.  The certified ``Automorphism``
is the tests' composition oracle; it stays here only while the
benchmark tracer pins it.

Conventions, fixed once and used everywhere:

* a product ``f*g`` of endomorphisms means "g first, then f";
* conjugation in a group is ``g^h = h^-1 g h`` and the commutator is
  ``[g, h] = g h g^-1 h^-1``;
* the inner automorphism attached to a word w is ``c_w: x -> w^-1 x w``;
* two automorphisms are equal "outwardly" when they differ by some c_w.

Under these conventions the commutator identity
``[rho_ij^-1, rho_jk^-1] = rho_ik^-1`` holds on the nose, which is the
calibration used to validate the composition order.
"""

from __future__ import annotations

import itertools

from .linalg import Matrix


# ---------------------------------------------------------------------------
# words


def _check_word(letters, rank: int) -> None:
    """Refuse a letter out of range for the rank, or a cancelling pair."""
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x!r} out of range for rank {rank}")
    for a, b in zip(letters, letters[1:]):
        if a == -b:
            raise ValueError("word is not freely reduced")


def _inv(u: tuple) -> tuple:
    return tuple([-x for x in reversed(u)])


def _join(u: tuple, v: tuple) -> tuple:
    """The reduced product of two reduced letter tuples.

    Cancellation can only happen at the seam, so it is enough to strip
    the longest suffix of u that is inverse to a prefix of v.  The seam
    is tested first: when either side is empty or its two letters do
    not cancel, the product is ``u + v`` as it stands.
    """
    if not u or not v or u[-1] != -v[0]:
        return u + v
    k, m = 1, min(len(u), len(v))
    while k < m and u[-1 - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _conj(x: tuple, w: tuple) -> tuple:
    """w^-1 x w for reduced letter tuples, reduced."""
    return _join(_join(_inv(w), x), w)


# ---------------------------------------------------------------------------
# endomorphisms and automorphisms


def apply(images: tuple, w: tuple) -> tuple:
    """The image of the reduced letter tuple w under the endomorphism
    whose generator images are ``images``; w is checked against their
    number, the rank."""
    _check_word(w, len(images))
    out = ()
    for x in w:
        img = images[abs(x) - 1]
        out = _join(out, img if x > 0 else _inv(img))
    return out


def compose(f: tuple, g: tuple) -> tuple:
    """The images of the endomorphism sending w to f(g(w))."""
    if len(f) != len(g):
        raise ValueError("rank mismatch")
    return tuple(apply(f, u) for u in g)


class Automorphism:
    """An automorphism with a certified inverse table, built by
    ``automorphism``: ``forward`` and ``backward`` are image tuples.
    No CLI path builds one.  ``perfbench`` traces ``__post_init__`` and
    wraps ``rho``, so this class, ``compose``, ``automorphism`` and
    ``rho`` stay until the benchmark changes."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward: tuple, backward: tuple):
        self.forward = forward
        self.backward = backward
        self.__post_init__()

    def __post_init__(self):
        """Certify the inverse table.  A method of its own, so that
        ``perfbench/tracer.py`` can count certifications."""
        if len(self.forward) != len(self.backward):
            raise ValueError("rank mismatch")
        one = inner((), self.rank)  # the identity is c_w for the empty w
        if compose(self.forward, self.backward) != one:
            raise ValueError("backward table is not a right inverse")
        if compose(self.backward, self.forward) != one:
            raise ValueError("backward table is not a left inverse")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.forward, self.backward) == (other.forward, other.backward)

    def __hash__(self):
        return hash((self.forward, self.backward))

    @property
    def rank(self) -> int:
        return len(self.forward)

    @property
    def images(self) -> tuple:
        """The forward images."""
        return self.forward

    def apply(self, w: tuple) -> tuple:
        return apply(self.forward, w)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.backward, self.forward)

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """self*other, i.e. apply other first."""
        return Automorphism(compose(self.forward, other.forward),
                            compose(other.backward, self.backward))

    def is_identity(self) -> bool:
        return self.forward == inner((), self.rank)


# ---------------------------------------------------------------------------
# Nielsen generators as moves on image tuples


# Each move takes the forward images ``img`` of some acc (a list of
# reduced letter tuples, img[k] = acc(a_{k+1})) and turns it in place
# into the images of acc * g, where g is the generator for e >= 0 and
# its inverse for e < 0.  Since ``acc * g`` applies g first, this is a
# Nielsen move on the tuple.  Each move checks its indices first; rho
# and lambda, most letters, with one inline test that passes two
# distinct plain ints in range and leaves every other pair to
# ``_check_pair``, which raises or accepts it (``True`` as 1, say).


def _rho_move(img, i, j, e):
    n = len(img)
    if not (type(i) is int and type(j) is int and 0 < i <= n and 0 < j <= n and i != j):
        _check_pair(i, j, n)
    img[i - 1] = _join(img[i - 1], img[j - 1] if e >= 0 else _inv(img[j - 1]))


def _lam_move(img, i, j, e):
    n = len(img)
    if not (type(i) is int and type(j) is int and 0 < i <= n and 0 < j <= n and i != j):
        _check_pair(i, j, n)
    img[i - 1] = _join(img[j - 1] if e >= 0 else _inv(img[j - 1]), img[i - 1])


def _eps_move(img, i, j, e):
    _check_index(i, len(img))
    img[i - 1] = _inv(img[i - 1])


def _sigma_move(img, i, j, e):
    _check_pair(i, j, len(img))
    img[i - 1], img[j - 1] = img[j - 1], img[i - 1]


def _sigma_star_move(img, i, j, e):
    _check_index(i, len(img))
    ai = _inv(img[i - 1])
    img[:] = [ai if k == i else _join(u, ai) for k, u in enumerate(img, 1)]


def _delta_move(img, i, j, e):
    img[:] = [_inv(u) for u in img]


_MOVES = {
    "rho": _rho_move,
    "lam": _lam_move,
    "eps": _eps_move,
    "sigma": _sigma_move,
    "sigma_star": _sigma_star_move,
    "delta": _delta_move,
}


def relator_automorphism(n: int, token_word) -> tuple:
    """The forward images of a token word; rightmost letter acts first.

    Starting from the identity images, each letter ``((kind, i, j), e)``
    is one Nielsen move, looked up in ``_MOVES`` in the loop (an unknown
    or unhashable kind is a ``ValueError``), so no inverse table is
    built or certified.  Each letter's indices are checked afresh, with
    no verdict kept between letters: ``("rho", 1.0, 2)`` equals a valid
    letter and must still be refused.  The moved tuples are returned
    unchecked, as they are valid: they start as the generators
    ``(k,)``; a move checks its indices before it touches a tuple, so it
    only reads and writes the n images; and each move rewrites tuples
    with ``_join`` and ``_inv`` alone, which keep reduced tuples in
    range reduced and in range.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    img = [(k,) for k in range(1, n + 1)]
    for (kind, i, j), e in token_word:
        try:
            move = _MOVES[kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown generator kind {kind!r}") from None
        move(img, i, j, e)
    return tuple(img)


def automorphism(n: int, token_word) -> Automorphism:
    """A token word as a certified automorphism: the forward table is
    the moved images of the word, the backward table those of its
    inverse word."""
    return Automorphism(relator_automorphism(n, token_word),
                        relator_automorphism(n, _inv_word(token_word)))


def rho(i: int, j: int, n: int) -> Automorphism:
    """a_i -> a_i a_j, other generators fixed."""
    return automorphism(n, [(("rho", i, j), 1)])


def inner(w: tuple, n: int) -> tuple:
    """The forward images of c_w: x -> w^-1 x w at rank n.  A letter of
    w out of range, an unreduced w or n < 1 is a ``ValueError``."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    _check_word(w, n)
    return tuple(_conj((k,), w) for k in range(1, n + 1))


def _check_index(i, n):
    if not (isinstance(i, int) and 1 <= i <= n):
        raise ValueError(f"index {i!r} out of range for rank {n}")


def _check_pair(i, j, n):
    _check_index(i, n)
    _check_index(j, n)
    if i == j:
        raise ValueError("indices must differ")


# ---------------------------------------------------------------------------
# inner detection


def is_inner(imgs: tuple):
    """The conjugator w with a = c_w, a letter tuple, or None, for the
    automorphism a with forward images ``imgs``; the identity's is
    ``()``, which is falsy, so test with ``is None``.

    For n >= 2 the centre of F_n is trivial, so w is unique, and two
    images determine it.  Write ``w = a_1^t u`` with u not starting in
    a_1 or its inverse.  Then ``a(a_1) = u^-1 a_1 u`` is reduced as
    written, so u is its suffix after the middle letter; and ``u a(a_2) u^-1 = a_1^-t a_2 a_1^t``
    is reduced as written, so a_1^t is its suffix after the middle
    letter.  That one candidate is returned if it conjugates every
    generator to its image.  When every image is its own generator the
    empty word conjugates them all, and by uniqueness it is the word
    the read-off would return, so it is returned at once.  At rank 1
    only the identity is inner, and the empty word is returned for it.
    """
    n = len(imgs)
    if imgs == tuple((k,) for k in range(1, n + 1)):
        return ()
    if n == 1:
        return None
    u = imgs[0][len(imgs[0]) // 2 + 1:]
    v = _conj(imgs[1], _inv(u))
    w = _join(v[len(v) // 2 + 1:], u)
    wi = _inv(w)  # each _conj((k,), w) below, with w^-1 built once
    if all(img == _join(_join(wi, (k,)), w) for k, img in enumerate(imgs, 1)):
        return w
    return None


# ---------------------------------------------------------------------------
# the finite presentation relator suite


def _tok(kind, i=None, j=None):
    return (kind, i, j)


def _comm(a, b):
    # [a, b] = a b a^-1 b^-1 as a token word
    return [(a, 1), (b, 1), (a, -1), (b, -1)]


def _inv_word(word):
    return [(g, -e) for g, e in reversed(word)]


def gersten_relators(n: int):
    """Yield ``(family, label, token_word)`` for the full relator suite.

    Every token word is a relator: it must be trivial in the outer
    automorphism group (families 1-8 are trivial already among honest
    automorphisms; family 9 is an inner automorphism).
    """
    if n < 3:
        raise ValueError("the presentation needs rank at least 3")
    idx = range(1, n + 1)

    fam = "right-right and left-left commuting pairs"
    for i, j in itertools.permutations(idx, 2):
        for k, l in itertools.permutations(idx, 2):
            if k in (i, j) or l == i:
                continue
            lab = f"i={i},j={j},k={k},l={l}"
            yield fam, "rho " + lab, _comm(_tok("rho", i, j), _tok("rho", k, l))
            yield fam, "lam " + lab, _comm(_tok("lam", i, j), _tok("lam", k, l))

    fam = "left-right commuting pairs"
    for i, j in itertools.permutations(idx, 2):
        for k, l in itertools.permutations(idx, 2):
            if k == j or l == i:
                continue
            yield fam, f"i={i},j={j},k={k},l={l}", \
                _comm(_tok("lam", i, j), _tok("rho", k, l))

    for fam, x, y in (("rho commutator identities", "rho", "lam"),
                      ("lambda commutator identities", "lam", "rho")):
        for i, j, k in itertools.permutations(idx, 3):
            lab = f"i={i},j={j},k={k}"
            x_ik = _tok(x, i, k)
            a, b = _tok(x, i, j), _tok(x, j, k)
            c = _tok(y, j, k)
            yield fam, "inv-inv " + lab, [(a, -1), (b, -1), (a, 1), (b, 1), (x_ik, 1)]
            yield fam, "mixed " + lab, _comm(a, c) + [(x_ik, 1)]
            yield fam, "inv-plain " + lab, [(a, -1), (b, 1), (a, 1), (b, -1), (x_ik, -1)]
            yield fam, "mixed-inv " + lab, \
                [(a, 1), (c, -1), (a, -1), (c, 1), (x_ik, -1)]

    fam = "quarter turns"
    for i, j in itertools.permutations(idx, 2):
        lab = f"i={i},j={j}"
        w1 = [(_tok("rho", i, j), 1), (_tok("rho", j, i), -1), (_tok("lam", i, j), 1)]
        w2 = [(_tok("lam", i, j), 1), (_tok("lam", j, i), -1), (_tok("rho", i, j), 1)]
        yield fam, "two routes " + lab, w1 + _inv_word(w2)
        yield fam, "fourth power " + lab, w1 * 4

    fam = "inversion commutes away from its index"
    e1 = _tok("eps", 1)
    for i, j in itertools.permutations(range(2, n + 1), 2):
        lab = f"i={i},j={j}"
        yield fam, "rho " + lab, _comm(e1, _tok("rho", i, j))
        yield fam, "lam " + lab, _comm(e1, _tok("lam", i, j))

    fam = "inversion twists the first pair"
    yield fam, "rho12^eps1 = lam12^-1", \
        [(e1, 1), (_tok("rho", 1, 2), 1), (e1, 1), (_tok("lam", 1, 2), 1)]
    yield fam, "rho21^eps1 = rho21^-1", \
        [(e1, 1), (_tok("rho", 2, 1), 1), (e1, 1), (_tok("rho", 2, 1), 1)]

    fam = "inversion is an involution"
    yield fam, "eps1^2", [(e1, 1), (e1, 1)]

    fam = "total twist is inner"
    for j in idx:
        word = []
        for i in idx:
            if i != j:
                word += [(_tok("rho", i, j), 1), (_tok("lam", i, j), -1)]
        yield fam, f"j={j}", word


def family_report(rows) -> list:
    """Group ``(family, label, ok)`` rows by family, in first-seen order.

    Each family becomes ``{"name", "count", "failures"}``, the failures
    listing the labels of its rows that are not ok, in row order.
    """
    families: dict = {}
    for family, label, ok in rows:
        entry = families.setdefault(family, {"name": family, "count": 0,
                                             "failures": []})
        entry["count"] += 1
        if not ok:
            entry["failures"].append(label)
    return list(families.values())


def verify_gersten(n: int) -> dict:
    """Instantiate every relator family and check it in the outer group.

    Returns a report listing, per family, how many index tuples were
    instantiated and which of them (if any) failed.  A family with
    failures also gets ``images``: each failing label's reduced forward
    images, as lists of letters.  The relators are checked one after
    another in this process.
    """
    rows = []
    for family, label, token_word in gersten_relators(n):
        imgs = relator_automorphism(n, token_word)
        images = None if is_inner(imgs) is not None else [list(w) for w in imgs]
        rows.append((family, label, images))
    families = family_report((family, label, images is None)
                             for family, label, images in rows)
    for fam in families:
        if fam["failures"]:
            fam["images"] = {label: images for family, label, images in rows
                             if family == fam["name"] and images is not None}
    return {
        "n": n,
        "families": families,
        "total": len(rows),
        "ok": all(not fam["failures"] for fam in families),
    }


# ---------------------------------------------------------------------------
# abelianisation


def abelianize(imgs: tuple) -> Matrix:
    """The induced matrix on the abelianisation of the automorphism with
    forward images ``imgs``, columns = images.

    The column convention makes this a homomorphism for ``*``; the
    determinant of the result is +1 or -1.
    """
    cols = []
    for img in imgs:
        v = [0] * len(imgs)
        for x in img:
            v[abs(x) - 1] += 1 if x > 0 else -1
        cols.append(v)
    m = Matrix.from_columns(cols)
    if abs(m.determinant()) != 1:
        raise ValueError("abelianised automorphism is not unimodular")
    return m
