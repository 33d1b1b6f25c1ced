"""Free-group words, Nielsen moves, and inner detection.

A word in the free group of rank n is a tuple of nonzero integers: ``k``
stands for the k-th generator, ``-k`` for its inverse, and every stored
word is freely reduced.  Every word is such a tuple, an image or a
conjugator alike, with its rank passed beside it where one is needed.
An endomorphism is its tuple of images, one word per generator, and
its rank is the length of that tuple, against which ``apply`` checks
a word; only the certified ``Automorphism`` layer calls it.
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
from functools import lru_cache

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
    wraps ``rho``, so this class, ``compose`` with ``apply``,
    ``automorphism`` and ``rho`` stay until the benchmark changes."""

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


# Each move takes the forward images ``img`` of some acc (a list of reduced
# letter tuples, img[k] = acc(a_{k+1})) and turns it in place into the images
# of acc * g, where g is the generator for e = 1 and its inverse for e = -1,
# the only exponents ``relator_automorphism`` lets through.  Since ``acc * g``
# applies g first, this is a Nielsen move on the tuple.  Each move checks its
# indices first; rho and lambda, most letters, with one inline test that
# passes two distinct plain ints in range and leaves every other pair to
# ``_check_pair``, which raises or accepts it (``True`` as 1, say).  The
# quarter turn ``("tau", k, None)``, k a plain int in 2..n-1, runs the moves
# of ``quarter_turn(k)`` (of its inverse for e = -1), built once per k.


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


def _tau_move(img, k, j, e):
    if not (type(k) is int and 1 < k < len(img)):
        raise ValueError(f"quarter turn index {k!r} out of range for rank {len(img)}")
    for move, a, b, f in _quarter_turn_moves(k)[e < 0]:
        move(img, a, b, f)


_MOVES = {
    "rho": _rho_move,
    "lam": _lam_move,
    "eps": _eps_move,
    "sigma": _sigma_move,
    "sigma_star": _sigma_star_move,
    "delta": _delta_move,
    "tau": _tau_move,
}


@lru_cache(maxsize=None)
def _quarter_turn_moves(k: int) -> tuple:
    """The moves ``(move, i, j, e)`` of ``quarter_turn(k)``, then of its inverse."""
    word = quarter_turn(k)
    return tuple(tuple((_MOVES[kind], i, j, e) for (kind, i, j), e in w)
                 for w in (word, _inv_word(word)))


@lru_cache(maxsize=None, typed=True)
def _identity(n: int) -> tuple:
    """The identity images at rank n, built once per rank."""
    return tuple((k,) for k in range(1, n + 1))


def relator_automorphism(n: int, token_word, start=None) -> tuple:
    """The forward images of a token word; rightmost letter acts first.

    Starting from the identity images, or from ``start``, images of some acc
    that this engine returned (giving those of acc times the word), each
    letter ``((kind, i, j), e)`` is one Nielsen move (the quarter turn
    ``("tau", k, None)`` three), looked up in ``_MOVES`` in the loop (an
    unknown or unhashable kind, or an exponent other than 1 and -1, is a
    ``ValueError``), so no inverse table is built or certified.  Each
    letter's indices are checked afresh, with no verdict kept between
    letters: ``("rho", 1.0, 2)`` equals a valid letter and must still be
    refused.  The moved tuples are returned unchecked, as they are valid:
    they start as the generators ``(k,)`` or as such moved tuples; a move
    checks its indices before it touches a tuple, so it only reads and
    writes the n images; and each move rewrites tuples with ``_join`` and
    ``_inv`` alone, which keep them reduced and in range.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    img = [*(_identity(n) if start is None else start)]
    for (kind, i, j), e in token_word:
        try:
            move = _MOVES[kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown generator kind {kind!r}") from None
        if e != 1 and e != -1:
            raise ValueError(f"exponent {e!r} is neither 1 nor -1")
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
    if imgs == _identity(n):
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


def _comm(a, b, e=1, f=1):
    # [a^e, b^f] = a^e b^f a^-e b^-f as a token word
    return [(a, e), (b, f), (a, -e), (b, -f)]


def _inv_word(word):
    return [(g, -e) for g, e in reversed(word)]


def gersten_generators(n: int) -> list:
    """The tokens of the presentation's generators: eps1, then rho_ij
    and lam_ij for each ordered pair."""
    pairs = itertools.permutations(range(1, n + 1), 2)
    return [("eps", 1, None)] + [(kind, i, j) for i, j in pairs for kind in ("rho", "lam")]


def generator_name(token) -> str:
    """Name of a generator token ``(kind, i, j)``: ``eps1``,
    ``rho{i}{j}`` or ``lam{i}{j}``."""
    kind, i, j = token
    return kind + "".join(str(x) for x in (i, j) if x is not None)


def _turn(i, j, x="rho", y="lam"):
    # x_ij x_ji^-1 y_ij: a quarter turn at (i, j), by the route x first
    return [((x, i, j), 1), ((x, j, i), -1), ((y, i, j), 1)]


def _identities(x, y):
    """The variants of the x commutator identities, y the other kind."""
    return (("inv-inv", lambda i, j, k: _comm((x, i, j), (x, j, k), -1, -1) + [((x, i, k), 1)]),
            ("mixed", lambda i, j, k: _comm((x, i, j), (y, j, k)) + [((x, i, k), 1)]),
            ("inv-plain", lambda i, j, k: _comm((x, i, j), (x, j, k), -1) + [((x, i, k), -1)]),
            ("mixed-inv", lambda i, j, k: _comm((x, i, j), (y, j, k), 1, -1) + [((x, i, k), -1)]))


@lru_cache(maxsize=None, typed=True)
def _families(n: int) -> tuple:
    """The relator suite at rank n, one row ``(name, index names, index
    tuples, variants)`` per family in suite order, a variant being a
    ``(label prefix, word builder)`` pair: a family's relators are each
    variant of each tuple, tuple by tuple, built once per rank.  Families
    1-8 are trivial among honest automorphisms already; family 9 is inner."""
    if n < 3:
        raise ValueError("the presentation needs rank at least 3")
    idx = range(1, n + 1)
    pairs = tuple(itertools.permutations(idx, 2))
    triples = tuple(itertools.permutations(idx, 3))
    e1 = ("eps", 1, None)
    return (
        ("right-right and left-left commuting pairs", "ijkl",
         tuple((i, j, k, l) for i, j in pairs for k, l in pairs if k not in (i, j) and l != i),
         (("rho", lambda i, j, k, l: _comm(("rho", i, j), ("rho", k, l))),
          ("lam", lambda i, j, k, l: _comm(("lam", i, j), ("lam", k, l))))),
        ("left-right commuting pairs", "ijkl",
         tuple((i, j, k, l) for i, j in pairs for k, l in pairs if k != j and l != i),
         (("", lambda i, j, k, l: _comm(("lam", i, j), ("rho", k, l))),)),
        ("rho commutator identities", "ijk", triples, _identities("rho", "lam")),
        ("lambda commutator identities", "ijk", triples, _identities("lam", "rho")),
        ("quarter turns", "ij", pairs,
         (("two routes", lambda i, j: _turn(i, j) + _inv_word(_turn(i, j, "lam", "rho"))),
          ("fourth power", lambda i, j: _turn(i, j) * 4))),
        ("inversion commutes away from its index", "ij", tuple(itertools.permutations(idx[1:], 2)),
         (("rho", lambda i, j: _comm(e1, ("rho", i, j))),
          ("lam", lambda i, j: _comm(e1, ("lam", i, j))))),
        ("inversion twists the first pair", "", ((),),
         (("rho12^eps1 = lam12^-1",
           lambda: [(e1, 1), (("rho", 1, 2), 1), (e1, 1), (("lam", 1, 2), 1)]),
          ("rho21^eps1 = rho21^-1",
           lambda: [(e1, 1), (("rho", 2, 1), 1), (e1, 1), (("rho", 2, 1), 1)]))),
        ("inversion is an involution", "", ((),), (("eps1^2", lambda: [(e1, 1), (e1, 1)]),)),
        ("total twist is inner", "j", tuple((j,) for j in idx),
         (("", lambda j: [x for i in idx if i != j
                          for x in ((("rho", i, j), 1), (("lam", i, j), -1))]),)),
    )


def _label(prefix: str, names: str) -> str:
    """A variant's label format, such as ``rho i={},j={}``, for an index tuple."""
    return " ".join(filter(None, (prefix, ",".join(name + "={}" for name in names))))


def gersten_relators(n: int):
    """Yield ``(family, label, token_word)`` for each relator of the table
    ``_families(n)``, each trivial in the outer automorphism group.  Only
    a failing ``check_suite`` builds these words."""
    for family, names, tuples, variants in _families(n):
        labels = [(_label(prefix, names), word) for prefix, word in variants]
        for t in tuples:
            for label, word in labels:
                yield family, label.format(*t), word(*t)


# ---------------------------------------------------------------------------
# the suite up to the quarter turns


def quarter_turn(k: int) -> list:
    """tau_k = rho_{k,k+1} rho_{k+1,k}^-1 lam_{k,k+1} as a token word:
    a_k -> a_{k+1}, a_{k+1} -> a_k^-1, the other generators fixed."""
    return _turn(k, k + 1)


def quarter_turn_image(k: int, token) -> tuple:
    """The letter ``(token', e)`` with tau_k x tau_k^-1 = x'^e for the
    generator x of ``token``.  It swaps the indices k and k + 1; a
    generator whose first index is k + 1 changes kind (rho <-> lam), and
    one that names k + 1 at all is inverted; eps1 is fixed."""
    kind, i, j = token
    if kind == "eps":
        return token, 1
    swap = {k: k + 1, k + 1: k}
    if i == k + 1:
        kind = "lam" if kind == "rho" else "rho"
    return ((kind, swap.get(i, i), swap.get(j, j)),
            -1 if k + 1 in (i, j) else 1)


# One suite relator per orbit of the quarter turns, by family, as its label
# prefix and index tuple, absent at a rank below its largest index.  At ranks
# 3 and 4 a few orbits of the higher ranks split in two for want of a spare
# index, the second part of each represented at that rank alone.  Every
# "total twist is inner" relator is an orbit of its own: ``_listed`` adds them.
_REPRESENTATIVES = {
    "right-right and left-left commuting pairs": (
        ("rho", (1, 2, 3, 2)), ("lam", (1, 2, 3, 2)), ("rho", (1, 2, 3, 4)),
        ("lam", (1, 2, 3, 4)), ("rho", (2, 1, 3, 1)), ("rho", (2, 1, 3, 4)),
        ("rho", (2, 3, 4, 3)), ("rho", (2, 3, 4, 5))),
    "left-right commuting pairs": (
        ("", (1, 2, 1, 2)), ("", (1, 2, 1, 3)), ("", (2, 1, 2, 1)),
        ("", (2, 1, 2, 3)), ("", (2, 3, 2, 3)), ("", (2, 3, 2, 4))),
    "rho commutator identities": (
        ("inv-inv", (1, 2, 3)), ("inv-inv", (2, 1, 3)), ("mixed", (2, 1, 3)),
        ("inv-inv", (2, 3, 1)), ("inv-plain", (2, 3, 1)), ("inv-inv", (2, 3, 4))),
    "lambda commutator identities": (("inv-inv", (1, 2, 3)),),
    "quarter turns": (
        ("two routes", (1, 2)), ("fourth power", (1, 2)), ("two routes", (2, 1)),
        ("fourth power", (2, 1)), ("two routes", (2, 3)), ("fourth power", (2, 3))),
    "inversion commutes away from its index": (("rho", (2, 3)),),
    "inversion twists the first pair": (("rho12^eps1 = lam12^-1", ()),
                                        ("rho21^eps1 = rho21^-1", ())),
    "inversion is an involution": (("eps1^2", ()),),
}
_SPLIT_REPRESENTATIVES = {
    3: {"rho commutator identities": (
            ("mixed", (1, 2, 3)), ("inv-plain", (2, 1, 3)), ("mixed-inv", (2, 1, 3)),
            ("mixed", (2, 3, 1)), ("mixed-inv", (2, 3, 1))),
        "lambda commutator identities": (("mixed", (1, 2, 3)),)},
    4: {"rho commutator identities": (("mixed", (2, 3, 4)),)},
}

# the ranks at which the tests prove the reduced suite complete
REDUCED_SUITE_RANKS = range(3, 11)
QUARTER_TURN_FAMILY = "quarter turns permute the generators"


def _listed(n: int) -> list:
    """``(family, prefix, index tuple)`` of each representative listed at rank n."""
    split = _SPLIT_REPRESENTATIVES.get(n, {})
    rows = [(family, prefix, t) for family, listed in _REPRESENTATIVES.items()
            for prefix, t in listed + split.get(family, ()) if max(t, default=0) <= n]
    twist, _, tuples, _ = _families(n)[-1]
    return rows + [(twist, "", t) for t in tuples]


def reduced_suite(n: int):
    """Yield ``(family, label, token_word)`` for the suite checked up to
    the quarter turns tau_k, k = 2..n-1: one relator per orbit, built
    from its row of ``_families(n)`` as ``gersten_relators`` builds it,
    then, as the family "quarter turns permute the generators", the relator
    tau_k x tau_k^-1 pi_k(x)^-1 for every k and every generator x (eps1,
    rho_ij, lam_ij), tau_k being the letter ``("tau", k, None)``, valued
    as ``quarter_turn(k)`` by both evaluators, and pi_k(x) being
    ``quarter_turn_image``.

    Why that is enough: (a) conjugation by tau_k sends each generator x
    to the generator or inverse pi_k(x).  (b) A homomorphism R from the
    free group on the generators that satisfies every conjugation
    relator has R(tau_k w tau_k^-1) = R(pi_k(w)) for every word w, with
    pi_k applied letter by letter, so R(w) = 1 exactly when
    R(pi_k(w)) = 1; rotating or inverting w does not change that either.
    (c) Every suite relator is linked to one yielded here by a chain of
    pi_k, rotations and inversions, so R satisfies the whole suite when
    it satisfies these.  The tests prove (a) and (c) at the ranks of
    ``REDUCED_SUITE_RANKS``; any other rank is a ``ValueError``.
    """
    if n not in REDUCED_SUITE_RANKS:
        raise ValueError(f"the reduced suite is proven at ranks 3..10 only, not {n!r}")
    families = {family: (names, dict(variants)) for family, names, _, variants in _families(n)}
    for family, prefix, t in _listed(n):
        names, word = families[family]
        yield family, _label(prefix, names).format(*t), word[prefix](*t)
    tokens = gersten_generators(n)
    for k in range(2, n):
        tau = ("tau", k, None)
        for token in tokens:
            image, e = quarter_turn_image(k, token)
            yield (QUARTER_TURN_FAMILY, f"k={k},x={generator_name(token)}",
                   [(tau, 1), (token, 1), (tau, -1), (image, -e)])


def family_report(rows) -> list:
    """Group ``(family, label, ok)`` rows by family, in first-seen order.

    Each family becomes ``{"name", "count", "failures"}``, the failures
    listing the labels of its rows that are not ok, in row order.
    """
    families: dict = {}
    for family, label, ok in rows:
        entry = families.setdefault(family, {"name": family, "count": 0, "failures": []})
        entry["count"] += 1
        if not ok:
            entry["failures"].append(label)
    return list(families.values())


def check_suite(n: int, holds) -> tuple:
    """The ``family_report`` of the relator suite at rank n, a relator
    passing when ``holds(token_word)``, and the words of its failing
    relators, keyed by ``(family, label)`` in suite order.  At a rank of
    ``REDUCED_SUITE_RANKS``, when each family of ``_families(n)`` has a
    listed representative, each one listed is a row of its family and
    every ``reduced_suite`` relator holds, the whole suite passes by
    (a)-(c): the counts are read off the table and no suite word is
    built.  Otherwise each relator is built and decided once.
    """
    table = _families(n)
    if n in REDUCED_SUITE_RANKS:
        rows = {(family, prefix): tuples for family, _, tuples, variants in table
                for prefix, _ in variants}
        listed = _listed(n)
        if ({family for family, _ in rows} <= {family for family, _, _ in listed}
                and all(t in rows.get((family, prefix), ()) for family, prefix, t in listed)
                and all(holds(word) for _, _, word in reduced_suite(n))):
            return [{"name": family, "count": len(tuples) * len(variants), "failures": []}
                    for family, _, tuples, variants in table], {}
    failed = {}

    def decide(family, label, word):
        ok = holds(word)
        if not ok:
            failed[family, label] = word
        return ok
    return family_report((family, label, decide(family, label, word))
                         for family, label, word in gersten_relators(n)), failed


def verify_gersten(n: int) -> dict:
    """Check the relator suite in the outer group with ``check_suite``,
    a relator holding when its automorphism is inner.  The report lists,
    per family, how many index tuples were instantiated and which of
    them failed; a family with failures also gets ``images``: each
    failing label's reduced forward images, as lists of letters.
    """
    families, failed = check_suite(
        n, lambda word: is_inner(relator_automorphism(n, word)) is not None)
    by_name = {fam["name"]: fam for fam in families}
    for (family, label), word in failed.items():
        images = by_name[family].setdefault("images", {})
        images[label] = [list(w) for w in relator_automorphism(n, word)]
    return {"n": n, "families": families, "total": sum(fam["count"] for fam in families),
            "ok": not failed}


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
