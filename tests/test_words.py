"""Word algebra, Nielsen automorphisms, inner detection, abelianisation."""

import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    bare_rho12,
    benchmark_relator_count,
    flip_one_exponent,
    generator,
    oracle_act_on_mask,
    oracle_token_images,
    reduce_word,
    spelt_out,
)
from outfn import induced, words as W


def lift(seq, n=3):
    return reduce_word(seq, n)


class TestReduce:
    def test_cancellation(self):
        assert reduce_word([1, -1], 2) == ()

    def test_single_cancellation(self):
        assert reduce_word([1, 2, -2, 3], 3) == (1, 3)

    def test_nested_cancellation(self):
        assert reduce_word([2, -1, 1, -2], 2) == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_word([3], 2)
        with pytest.raises(ValueError):
            reduce_word([0], 2)

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            W.inner((1, -1), 2)
        with pytest.raises(ValueError):
            W.apply(((1,), (2,)), (1, -1))

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=24))
    def test_idempotent(self, seq):
        once = reduce_word(seq, 3)
        assert reduce_word(once, 3) == once

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20),
           st.integers(0, 2 ** 30))
    def test_confluence_random_cancellation_order(self, seq, seed):
        # oracle: cancel adjacent inverse pairs in a random order
        rng = random.Random(seed)
        work = list(seq)
        while True:
            spots = [i for i in range(len(work) - 1) if work[i] == -work[i + 1]]
            if not spots:
                break
            i = rng.choice(spots)
            del work[i:i + 2]
        assert tuple(work) == reduce_word(seq, 3)


@st.composite
def join_cases(draw):
    """Reduced u and v at rank <= 3; v is any reduced word, u's inverse
    (full cancellation), or u's inverse suffix followed by more letters."""
    n = draw(st.integers(1, 3))
    u = draw(reduced(n, 8))
    kind = draw(st.sampled_from(["any", "inverse", "partial"]))
    if kind == "any":
        v = draw(reduced(n, 8))
    elif kind == "inverse":
        v = W._inv(u)
    else:
        k = draw(st.integers(0, len(u)))
        v = reduce_word(W._inv(u[len(u) - k:]) + draw(reduced(n, 4)), n)
    return n, u, v


class TestJoin:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(join_cases())
    @example((2, (), ()))
    @example((2, (), (1, -2)))
    @example((2, (1, -2), ()))
    @example((3, (1, 2), (3, 1)))
    @example((3, (1, 2, -3), (3, -2, -1)))
    def test_join_agrees_with_reduce_word(self, case):
        n, u, v = case
        assert W._join(u, v) == reduce_word(u + v, n)


class TestApply:
    def test_rho_on_first_generator(self):
        assert W.rho(1, 2, 3).apply(lift([1])) == (1, 2)

    def test_eps_on_word(self):
        assert generator(3, "eps", 1).apply(lift([1, 2])) == (-1, 2)

    def test_identity(self):
        w = lift([1, -2, 3, 3])
        assert W.automorphism(3, []).apply(w) == w

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match=r"^letter 4 out of range for rank 3$"):
            W.apply(W.rho(1, 2, 3).forward, reduce_word([4], 4))


def oracle_apply(images, w):
    """The image of w, one letter at a time on a cancellation stack."""
    out = []
    for x in w:
        img = images[abs(x) - 1]
        seq = img if x > 0 else tuple(-y for y in reversed(img))
        for y in seq:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def reduced(n, max_size):
    """A strategy for freely reduced words of rank n."""
    return st.lists(st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]),
                    max_size=max_size).map(lambda seq: reduce_word(seq, n))


@st.composite
def endomorphisms_and_words(draw):
    """A random endomorphism, not necessarily invertible, and a word."""
    n = draw(st.integers(1, 4))
    images = tuple(draw(reduced(n, 6)) for _ in range(n))
    return images, draw(reduced(n, 10))


class TestApplyOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(endomorphisms_and_words())
    def test_apply_agrees_with_the_stack_oracle(self, case):
        images, w = case
        assert W.apply(images, w) == oracle_apply(images, w)


class TestCompose:
    def test_involution_squares_to_identity(self):
        e = generator(3, "eps", 1)
        assert (e * e).is_identity()

    def test_inverse_pair(self):
        r = W.rho(1, 2, 3)
        assert (r * r.inverse()).is_identity()

    def test_commutator_is_rho13_inverse(self):
        # direct word computation: the image of a_1 must be a_1 a_3^-1
        r12, r23 = W.rho(1, 2, 3), W.rho(2, 3, 3)
        comm = r12.inverse() * r23.inverse() * r12 * r23
        assert comm.apply(lift([1])) == (1, -3)
        assert comm.forward == W.rho(1, 3, 3).inverse().forward

    def test_every_generator_has_certified_inverse(self):
        n = 4
        autos = [generator(n, "delta")]
        for i in range(1, n + 1):
            autos.append(generator(n, "eps", i))
            autos.append(generator(n, "sigma_star", i))
            for j in range(1, n + 1):
                if i != j:
                    autos += [generator(n, kind, i, j) for kind in ("rho", "lam", "sigma")]
        gens = tuple((k,) for k in range(1, n + 1))
        for a in autos:
            assert W.compose(a.forward, a.backward) == gens
            assert W.compose(a.backward, a.forward) == gens


class TestNielsen:
    def test_sigma_star_images(self):
        a = generator(4, "sigma_star", 1)
        assert a.apply(lift([1], 4)) == (-1,)
        for j in (2, 3, 4):
            assert a.apply(reduce_word([j], 4)) == (j, -1)

    def test_delta_squared(self):
        d = generator(4, "delta")
        assert (d * d).is_identity()

    def test_swap_identity(self):
        # eps_i sigma_ij = lam_ij lam_ji^-1 rho_ij, exactly
        for n in (3, 4):
            for i, j in [(1, 2), (2, 3), (1, 3)]:
                lhs = generator(n, "eps", i) * generator(n, "sigma", i, j)
                rhs = (generator(n, "lam", i, j) * generator(n, "lam", j, i).inverse()
                       * W.rho(i, j, n))
                assert lhs.forward == rhs.forward

    def test_bad_indices(self):
        for token in (("rho", 1, 1), ("eps", 5, None), ("frob", 1, 2)):
            with pytest.raises(ValueError):
                W.automorphism(3, [(token, 1)])
            with pytest.raises(ValueError):
                W.relator_automorphism(3, [(token, 1)])


class TestInner:
    def test_identity_is_inner(self):
        assert W.is_inner(W.automorphism(3, []).forward) == ()

    def test_explicit_conjugation(self):
        w = W.is_inner(W.inner((2,), 3))
        assert w == (2,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conjugator_is_a_plain_tuple(self, n):
        # the identity's conjugator () is falsy but not None
        found = W.is_inner(W.relator_automorphism(n, []))
        assert found is not None and type(found) is tuple and found == ()
        for w in [(j,) for j in range(2, n + 1)] + ([(-1, 2)] if n > 1 else []):
            found = W.is_inner(W.inner(w, n))
            assert type(found) is tuple and found == w

    def test_total_twist(self):
        # the product of all partial conjugations into a fixed index j
        # is conjugation by that generator
        n, j = 4, 2
        prod = W.automorphism(n, [])
        for i in range(1, n + 1):
            if i != j:
                prod = prod * (W.rho(i, j, n) * generator(n, "lam", i, j).inverse())
        assert W.is_inner(prod.forward) == (j,)

    def test_not_inner(self):
        assert W.is_inner(W.rho(1, 2, 3).forward) is None
        assert W.is_inner(generator(3, "eps", 1).forward) is None

    def test_random_conjugators_recovered(self):
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            seq = [rng.choice([s * i for i in range(1, n + 1) for s in (1, -1)])
                   for _ in range(rng.randint(0, 6))]
            w = reduce_word(seq, n)
            found = W.is_inner(W.inner(w, n))
            assert found is not None
            assert W.inner(found, n) == W.inner(w, n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_conjugation_by_a_generator_is_the_total_twist(self, n):
        # two routes to c_{a_j}: conjugated generators, and the moved
        # images of the relator that says the total twist is inner
        twists = {label: word for family, label, word in W.gersten_relators(n)
                  if family == "total twist is inner"}
        for j in range(1, n + 1):
            moved = W.relator_automorphism(n, twists[f"j={j}"])
            assert W.inner((j,), n) == moved
            assert W.is_inner(moved) == (j,)


def reduced_words(n, max_len):
    """Every freely reduced word of rank n with at most max_len letters."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    frontier, out = [()], [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in letters if not w or w[-1] != -x]
        out += frontier
    return out


def total_twist(j, n):
    """The token word of rho_ij lam_ij^-1 over every i != j, which is
    conjugation by a_j."""
    return [letter for i in range(1, n + 1) if i != j
            for letter in ((("rho", i, j), 1), (("lam", i, j), -1))]


@st.composite
def short_nielsen_products(draw):
    """A product of at most three elementary factors at rank 2 or 3.

    Partial conjugations and conjugations by a generator are among the
    factors, so inner products turn up as often as outer ones."""
    n = draw(st.sampled_from([2, 3]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    factor = st.one_of(
        st.tuples(st.sampled_from(["rho", "lam", "sigma"]), st.sampled_from(pairs))
        .map(lambda t: generator(n, t[0], *t[1])),
        st.tuples(st.sampled_from(["eps", "sigma_star"]), st.integers(1, n))
        .map(lambda t: generator(n, t[0], t[1])),
        st.just(generator(n, "delta")),
        st.sampled_from(pairs).map(lambda p: W.rho(*p, n) * generator(n, "lam", *p).inverse()),
        st.integers(1, n).map(lambda j: W.automorphism(n, total_twist(j, n))),
    )
    product = W.automorphism(n, [])
    for f in draw(st.lists(factor, max_size=3)):
        product = product * f
    return product


class TestInnerBruteForce:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.lists(
        st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]), max_size=3)
        .map(lambda seq: (reduce_word(seq, n), n))))
    def test_recovers_the_conjugator(self, case):
        w, n = case
        assert W.is_inner(W.inner(w, n)) == w

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(short_nielsen_products())
    def test_none_exactly_when_no_short_conjugator(self, a):
        # for reduced w, some generator's image under c_w has 2|w| + 1
        # letters, so every conjugator is at most this long
        bound = (max(len(img) for img in a.forward) - 1) // 2
        conjugators = [w for w in reduced_words(a.rank, bound)
                       if W.inner(w, a.rank) == a.forward]
        found = W.is_inner(a.forward)
        if found is None:
            assert conjugators == []
        else:
            assert conjugators == [found]


# Conjugators a_1^t u with u not starting in a_1^+-1: the read-off in
# ``is_inner`` splits exactly there, and random words seldom start with
# a long a_1 run.
TAILS = [(), (2,), (-2,), (2, 1), (-2, -1, -1, 3), (3, 1, -2, 1), (-3, 2, 2, -1, 3)]


class TestInnerReadOff:
    @pytest.mark.parametrize("t", range(-6, 7))
    @pytest.mark.parametrize("tail", TAILS)
    def test_leading_generator_runs(self, t, tail):
        w = (1 if t > 0 else -1,) * abs(t) + tail
        a = W.inner(w, 3)
        assert W.is_inner(a) == w == oracle_is_inner(a)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("tail", TAILS)
    def test_near_misses(self, n, tail):
        # c_w with the image of one generator a_k replaced by its conjugate
        # under another word v.  The images left alone pin any conjugator
        # to w (two generators have trivial common centraliser), so the
        # result is not inner once the replaced image has changed.
        w = (1, 1) + tail
        images = W.inner(w, n)
        misses = 0
        for k in range(1, n + 1):
            for v in [()] + [reduce_word((j,) + w, n) for j in range(1, n + 1)]:
                img = conjugate((k,), v, n)
                if img != images[k - 1]:
                    misses += 1
                    near = images[:k - 1] + (img,) + images[k:]
                    assert W.is_inner(near) is None
        assert misses >= n * (n - 1)


class TestIdentityExit:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_images_agree_with_the_oracle(self, n):
        gens = tuple((k,) for k in range(1, n + 1))
        for a in (gens, W.automorphism(n, []).forward, W.relator_automorphism(n, [])):
            assert W.is_inner(a) == oracle_is_inner(a) == ()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_changed_image_agrees_with_the_oracle(self, n):
        # a_k -> a_k^2 or a_k^-1 is never inner; a_k -> a_j a_k a_j^-1 is
        # inner at rank 2 only, where c_{a_j^-1} also fixes a_j
        gens = tuple((k,) for k in range(1, n + 1))
        inner = 0
        for k in range(1, n + 1):
            j = k % n + 1
            for letters in [(k, k), (-k,)] + ([(j, k, -j)] if n > 1 else []):
                a = gens[:k - 1] + (letters,) + gens[k:]
                found = W.is_inner(a)
                assert found == oracle_is_inner(a)
                inner += found is not None
        assert inner == (2 if n == 2 else 0)


class TestOuterEqual:
    """Token words u and v are equal in the outer group exactly when the
    moved images of u v^-1 are inner."""

    def test_reflexive(self):
        u = [(("rho", 1, 2), 1)]
        assert W.is_inner(W.relator_automorphism(3, u + W._inv_word(u))) is not None

    def test_twisted_rho_is_lambda_inverse(self):
        e1 = ("eps", 1, None)
        u = [(e1, 1), (("rho", 1, 2), 1), (e1, 1)]
        v = [(("lam", 1, 2), -1)]
        assert W.is_inner(W.relator_automorphism(3, u + W._inv_word(v))) is not None

    def test_star_product_formula(self):
        for n in (3, 4, 5, 6):
            u = [(("eps", 1, None), 1), (("sigma_star", 1, None), 1)]
            v = [(("rho", i, 1), 1) for i in range(2, n + 1)]
            # exact, not just outer
            assert W.relator_automorphism(n, u) == W.relator_automorphism(n, v)
            assert W.is_inner(W.relator_automorphism(n, u + W._inv_word(v))) is not None

    def test_remark_relations_exact(self):
        n = 4
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                r = ("rho", i, j)
                tw_j = [(("eps", j, None), 1), (r, 1), (("eps", j, None), 1)]
                assert W.relator_automorphism(n, tw_j) == W.relator_automorphism(n, [(r, -1)])
                tw_i = [(("eps", i, None), 1), (r, 1), (("eps", i, None), 1)]
                assert W.relator_automorphism(n, tw_i) == \
                    W.relator_automorphism(n, [(("lam", i, j), -1)])

    @pytest.mark.parametrize("n", range(3, 8))
    def test_coxeter_relations_of_type_a(self, n):
        # sigma_{i,i+1} for i < n, then sigma_star_n: the Coxeter
        # generators of S_{n+1}, of type A_n in this order
        gens = [("sigma", i, i + 1) for i in range(1, n)] + [("sigma_star", n, None)]

        def outer_order(word):
            """The least k <= 3 with word^k inner, else None."""
            for k in range(1, 4):
                if W.is_inner(W.relator_automorphism(n, word * k)) is not None:
                    return k
            return None

        for a, s in enumerate(gens):
            assert outer_order([(s, 1)]) == 2
            for b in range(a + 1, len(gens)):
                assert outer_order([(s, 1), (gens[b], 1)]) == (3 if b == a + 1 else 2)


class TestGersten:
    def test_rank_three_all_families_pass(self):
        rep = W.verify_gersten(3)
        assert rep["ok"]
        assert len(rep["families"]) == 9

    def test_rejects_small_rank(self):
        with pytest.raises(ValueError):
            W.verify_gersten(2)

    def test_commuting_pair_family_count(self):
        # at n=4: 12 ordered (i,j); k has 2 choices, l has 2; rho and lam
        fams = {f["name"]: f for f in W.verify_gersten(4)["families"]}
        assert fams["right-right and left-left commuting pairs"]["count"] == 12 * 2 * 2 * 2


# ---------------------------------------------------------------------------
# the suite up to the quarter turns: pi_k read off the move engine, and the
# orbits of the suite under it found by a union-find


@lru_cache(maxsize=None)
def engine_quarter_turn_images(n):
    """k -> {token: (token', e)} with tau_k x tau_k^-1 = x'^e, found by
    looking the moved images up among those of the generators and their
    inverses (eps1 is its own inverse and is looked up with e = 1)."""
    tokens = W.gersten_generators(n)
    letters = {W.relator_automorphism(n, [(t, e)]): (t, e) for e in (-1, 1) for t in tokens}
    out = {}
    for k in range(2, n):
        tau = [(("rho", k, k + 1), 1), (("rho", k + 1, k), -1), (("lam", k, k + 1), 1)]
        out[k] = {t: letters[W.relator_automorphism(n, tau + [(t, 1)] + W._inv_word(tau))]
                  for t in tokens}
    return out


def canonical(word):
    """The least rotation of a word or of its inverse, letters as
    nonzero ints (-x the inverse of x)."""
    inverse = tuple(-x for x in reversed(word))
    return min(w[r:] + w[:r] for w in (word, inverse) for r in range(len(w)))


def suite_orbits(n, suite):
    """The orbits of the relators ``suite`` (rows of ``gersten_relators``)
    under pi_k, k = 2..n-1, up to rotation and inversion: a union-find
    links each relator r to the relator whose canonical form is that of
    pi_k(r).  Returns a list of sets of ``(family, label)``."""
    code = {t: c for c, t in enumerate(W.gersten_generators(n), 1)}
    encoded = [tuple(e * code[t] for t, e in word) for _, _, word in suite]
    where = {}
    for i, word in enumerate(encoded):
        where.setdefault(canonical(word), i)
    parent = list(range(len(suite)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, images in engine_quarter_turn_images(n).items():
        pi = {code[t]: e * code[u] for t, (u, e) in images.items()}
        pi.update({-c: -x for c, x in pi.items()})
        for i, word in enumerate(encoded):
            j = where.get(canonical(tuple(pi[x] for x in word)))
            if j is not None:
                parent[find(i)] = find(j)
    orbits = {}
    for i, (family, label, _) in enumerate(suite):
        orbits.setdefault(find(i), set()).add((family, label))
    return list(orbits.values())


def split_reduced_suite(n):
    rows = list(W.reduced_suite(n))
    return ([(f, l) for f, l, _ in rows if f != W.QUARTER_TURN_FAMILY],
            [(l, w) for f, l, w in rows if f == W.QUARTER_TURN_FAMILY])


class TestReducedSuite:
    ORBITS = {3: 33, 4: 35, 5: 36, 6: 37, 7: 38, 8: 39, 9: 40, 10: 41}

    @pytest.mark.parametrize("n", list(ORBITS))
    def test_quarter_turn_images_match_the_move_engine(self, n):
        for k, images in engine_quarter_turn_images(n).items():
            want = [(k + 1,) if m == k else (-k,) if m == k + 1 else (m,)
                    for m in range(1, n + 1)]
            assert W.relator_automorphism(n, W.quarter_turn(k)) == tuple(want)
            for token in W.gersten_generators(n):
                assert W.quarter_turn_image(k, token) == images[token]

    @pytest.mark.parametrize("n", list(ORBITS))
    def test_conjugation_relators_are_every_k_and_generator(self, n):
        _, conjugations = split_reduced_suite(n)
        assert len(conjugations) == (n - 2) * (2 * n * (n - 1) + 1) \
            == {3: 13, 4: 50, 5: 123, 6: 244, 7: 425, 8: 678, 9: 1015, 10: 1448}[n]
        images = engine_quarter_turn_images(n)
        want, spelt = {}, {}
        for k in range(2, n):
            tau, turn = ("tau", k, None), W.quarter_turn(k)
            for token in W.gersten_generators(n):
                y, e = images[k][token]
                label = f"k={k},x={W.generator_name(token)}"
                want[label] = [(tau, 1), (token, 1), (tau, -1), (y, -e)]
                spelt[label] = turn + [(token, 1)] + W._inv_word(turn) + [(y, -e)]
        assert dict(conjugations) == want
        assert {label: spelt_out(word) for label, word in conjugations} == spelt
        identity = W.relator_automorphism(n, [])
        for label, word in conjugations:
            assert len(word) == 4 and len(spelt[label]) == 8
            assert W.relator_automorphism(n, word) == identity
            assert W.relator_automorphism(n, spelt[label]) == identity

    @pytest.mark.parametrize("n", list(ORBITS))
    def test_every_orbit_has_exactly_one_representative(self, n):
        suite = list(W.gersten_relators(n))
        orbits = suite_orbits(n, suite)
        assert len(orbits) == self.ORBITS[n]
        twists = [o for o in orbits if any(f == "total twist is inner" for f, _ in o)]
        assert len(twists) == n and all(len(o) == 1 for o in twists)
        representatives, _ = split_reduced_suite(n)
        assert len(representatives) == len(set(representatives)) == len(orbits)
        assert all(len(o & set(representatives)) == 1 for o in orbits)

    def test_a_relator_off_the_suite_has_no_representative(self):
        # "rho i=1,j=3,k=2,l=3" is no representative; with one exponent
        # flipped it is no relator either, and it links to nothing
        n = 4
        suite = list(W.gersten_relators(n))
        i = next(i for i, (f, l, _) in enumerate(suite) if l == "rho i=1,j=3,k=2,l=3")
        family, label, word = suite[i]
        suite[i] = family, label, [word[0], (word[1][0], -word[1][1])] + word[2:]
        orbits = suite_orbits(n, suite)
        representatives, _ = split_reduced_suite(n)
        assert {(family, label)} in orbits
        assert (family, label) not in representatives
        assert len(orbits) == self.ORBITS[n] + 1

    @pytest.mark.parametrize("n", [2, 11])
    def test_unproven_ranks_are_refused(self, n):
        with pytest.raises(ValueError):
            list(W.reduced_suite(n))


class TestQuarterTurnLetter:
    """The letter ``("tau", k, None)`` against the word ``quarter_turn(k)``
    in the move engine."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_letter_is_the_quarter_turn_word(self, n):
        for k in range(2, n):
            turn = W.quarter_turn(k)
            assert W.relator_automorphism(n, [(("tau", k, None), 1)]) == \
                W.relator_automorphism(n, turn)
            assert W.relator_automorphism(n, [(("tau", k, None), -1)]) == \
                W.relator_automorphism(n, W._inv_word(turn))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_bad_index_is_refused(self, n):
        for k in (1, n, 1.0):
            for e in (1, -1):
                with pytest.raises(ValueError, match="out of range"):
                    W.relator_automorphism(n, [(("rho", 1, 2), 1), (("tau", k, None), e)])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_conjugation_relators_take_the_spelt_out_verdict(self, n):
        # with tau one letter and spelt out, each conjugation relator has
        # the same images; with the exponent of x flipped it fails alike
        _, conjugations = split_reduced_suite(n)
        verdicts = set()
        for _, word in conjugations:
            flipped = word[:1] + [(word[1][0], -word[1][1])] + word[2:]
            for w in (word, flipped):
                images = W.relator_automorphism(n, w)
                assert images == W.relator_automorphism(n, spelt_out(w))
                verdicts.add(W.is_inner(images) is not None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_words_with_quarter_turns(self, n):
        rng = random.Random(200 + n)
        letters = [(t, e) for t in W.gersten_generators(n) for e in (1, -1)]
        letters += [(("tau", k, None), e) for k in range(2, n) for e in (1, -1)]
        for length in range(1, 9):
            word = [rng.choice(letters) for _ in range(length)]
            assert W.relator_automorphism(n, word) == W.relator_automorphism(n, spelt_out(word))


# ---------------------------------------------------------------------------
# verify_gersten against every suite relator decided alone


def whole_suite_report(n):
    """The ``verify_gersten`` report with every suite relator decided
    alone by ``is_inner`` on its own images."""
    rows = [(family, label, W.relator_automorphism(n, word))
            for family, label, word in W.gersten_relators(n)]
    families = W.family_report((family, label, W.is_inner(images) is not None)
                               for family, label, images in rows)
    for fam in families:
        if fam["failures"]:
            fam["images"] = {label: [list(w) for w in images] for family, label, images in rows
                             if family == fam["name"] and label in fam["failures"]}
    return {"n": n, "families": families, "total": len(rows),
            "ok": all(not fam["failures"] for fam in families)}


def failing_images(report):
    return [(fam["name"], fam["failures"], list(fam["images"]))
            for fam in report["families"] if fam["failures"]]


class TestGerstenAgreesWithTheWholeSuite:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_passing_report_equals_the_whole_suite(self, n):
        report = W.verify_gersten(n)
        assert report["ok"] and report == whole_suite_report(n)
        # the counts read off the table sum to the closed form
        assert sum(fam["count"] for fam in report["families"]) == report["total"] \
            == benchmark_relator_count()(n)

    def test_a_passing_check_builds_no_suite_word(self, monkeypatch):
        reports = {n: W.verify_gersten(n) for n in range(3, 11)}

        def forbidden(n):
            raise AssertionError("a passing check built the suite")
        monkeypatch.setattr(W, "gersten_relators", forbidden)
        for n, report in reports.items():
            assert report["ok"] and W.verify_gersten(n) == report

    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_passing_check_builds_the_table_once(self, n):
        W._families.cache_clear()
        assert W.verify_gersten(n)["ok"]
        assert W._families.cache_info().misses == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_a_flipped_representative_is_reported_with_its_images(self, monkeypatch, n):
        family, label = "rho commutator identities", "inv-inv i=1,j=2,k=3"
        flip_one_exponent(monkeypatch, (family, label))
        report = W.verify_gersten(n)
        assert report == whole_suite_report(n)
        assert failing_images(report) == [(family, [label], [label])]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_a_failing_check_builds_the_suite_once(self, monkeypatch, n):
        family, label = "rho commutator identities", "inv-inv i=1,j=2,k=3"
        flip_one_exponent(monkeypatch, (family, label))
        built, real = [], W.gersten_relators
        monkeypatch.setattr(W, "gersten_relators", lambda n: built.append(n) or real(n))
        report = W.verify_gersten(n)
        assert built == [n]
        assert not report["ok"] and report == whole_suite_report(n)

    def test_a_flipped_non_representative_is_seen_by_the_whole_check_only(self, monkeypatch):
        # the flipped word lies in no orbit (see TestReducedSuite), so the
        # reduced check, which certifies the suite that gersten_relators
        # generates, does not see it; with the ranks patched empty it is
        # reported with its images
        family, label = "right-right and left-left commuting pairs", "rho i=1,j=3,k=2,l=3"
        flip_one_exponent(monkeypatch, (family, label))
        assert W.verify_gersten(4)["ok"]
        monkeypatch.setattr(W, "REDUCED_SUITE_RANKS", range(0))
        report = W.verify_gersten(4)
        assert report == whole_suite_report(4)
        assert failing_images(report) == [(family, [label], [label])]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_missing_representative_makes_the_suite_checked_whole(self, monkeypatch, n):
        # eps1^2 replaced by eps1^3: no representative is flipped, but one
        # is missing, so the reduced verdict settles nothing
        table = W._families

        def stand_in(n):
            rows = []
            for family, names, tuples, variants in table(n):
                if family == "inversion is an involution":
                    [(_, word)] = variants
                    variants = (("eps1^3", lambda: word() + word()[:1]),)
                rows.append((family, names, tuples, variants))
            return tuple(rows)
        monkeypatch.setattr(W, "_families", stand_in)
        report = W.verify_gersten(n)
        assert report == whole_suite_report(n)
        assert failing_images(report) == [("inversion is an involution", ["eps1^3"], ["eps1^3"])]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_a_family_without_a_representative_makes_the_suite_checked_whole(
            self, monkeypatch, n):
        # every listed representative is a row and passes, but the added
        # family has none, so the reduced verdict settles nothing
        table = W._families
        monkeypatch.setattr(W, "_families", lambda n: table(n) + bare_rho12(n))
        report = W.verify_gersten(n)
        assert report == whole_suite_report(n)
        assert failing_images(report) == [("bare", ["rho12"], ["rho12"])]

    def test_a_twist_relator_beyond_the_proven_ranks_is_decided(self, monkeypatch):
        # each "total twist is inner" relator is an orbit of its own, so
        # the reduced suite at rank n holds all n of them: with the ranks
        # patched to reach 11, a failing j = 11 makes the suite checked whole
        n, family = 11, "total twist is inner"
        [(_, _, _, [(_, twist)])] = [row for row in W._families(n) if row[0] == family]
        monkeypatch.setattr(W, "REDUCED_SUITE_RANKS", range(3, n + 1))
        families, failed = W.check_suite(n, lambda word: word != twist(n))
        assert [fam["failures"] for fam in families if fam["failures"]] == [["j=11"]]
        assert list(failed) == [(family, "j=11")]

    def test_a_passing_check_evaluates_the_reduced_suite_alone(self, monkeypatch):
        calls = []
        real = W.relator_automorphism
        monkeypatch.setattr(W, "relator_automorphism",
                            lambda n, word: calls.append(word) or real(n, word))
        assert W.verify_gersten(4)["ok"]
        assert len(calls) == 35 + 50
        calls.clear()
        monkeypatch.setattr(W, "REDUCED_SUITE_RANKS", range(0))
        assert W.verify_gersten(4)["ok"] and len(calls) == 415


def oracle_relator_automorphism(n, token_word):
    """A token word evaluated through certified automorphism products."""
    acc = W.automorphism(n, [])
    for tok, e in token_word:
        g = generator(n, *tok)
        if e < 0:
            g = g.inverse()
        acc = acc * g
    return acc


def conjugate(x, w, n):
    """w^-1 x w at rank n, freely reduced by ``reduce_word``."""
    return reduce_word([-y for y in reversed(w)] + list(x) + list(w), n)


def oracle_is_inner(images):
    """A bounded conjugator search on letter tuples reduced by
    ``reduce_word``, the slow oracle for the read-off in ``is_inner``,
    on the forward images of an automorphism."""
    n = len(images)
    if n == 1:
        return () if images == ((1,),) else None
    u1 = images[0]
    if len(u1) % 2 == 0:
        return None
    mid = len(u1) // 2
    if u1[mid] != 1:
        return None
    tail = reduce_word(u1[mid + 1:], n)
    if conjugate((1,), tail, n) != u1:
        return None
    bound = max(len(img) for img in images)
    for t in range(0, bound + 1):
        for sign in ((1,) if t == 0 else (1, -1)):
            w = reduce_word((sign,) * t + tail, n)
            if all(images[k] == conjugate((k + 1,), w, n)
                   for k in range(n)):
                return w
    return None


def flipped(word, rng):
    """The token word with one letter's exponent reversed."""
    k = rng.randrange(len(word))
    tok, e = word[k]
    return word[:k] + [(tok, -e)] + word[k + 1:]


@st.composite
def token_words(draw):
    """A token word over all six kinds."""
    n = draw(st.sampled_from([2, 3, 4]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    token = st.one_of(
        st.tuples(st.sampled_from(["rho", "lam", "sigma"]), st.sampled_from(pairs))
        .map(lambda t: (t[0], *t[1])),
        st.tuples(st.sampled_from(["eps", "sigma_star"]), st.integers(1, n))
        .map(lambda t: (t[0], t[1], None)),
        st.just(("delta", None, None)),
    )
    return n, draw(st.lists(st.tuples(token, st.sampled_from([1, -1])), max_size=8))


# Generator images at rank 3, written out by hand: (forward, backward).
HAND_TABLES = {
    ("rho", 2, 3): ([[1], [2, 3], [3]], [[1], [2, -3], [3]]),
    ("lam", 2, 3): ([[1], [3, 2], [3]], [[1], [-3, 2], [3]]),
    ("lam", 3, 1): ([[1], [2], [1, 3]], [[1], [2], [-1, 3]]),
    ("eps", 2, None): ([[1], [-2], [3]], [[1], [-2], [3]]),
    ("sigma", 1, 3): ([[3], [2], [1]], [[3], [2], [1]]),
    ("sigma_star", 2, None): ([[1, -2], [-2], [3, -2]], [[1, -2], [-2], [3, -2]]),
    ("delta", None, None): ([[-1], [-2], [-3]], [[-1], [-2], [-3]]),
}


def image_lists(images):
    return [list(w) for w in images]


class TestRelatorMoves:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_relator_agrees_with_the_oracle(self, n):
        rng = random.Random(1000 + n)
        relators = [word for _, _, word in W.gersten_relators(n)]
        flips = [flipped(word, rng) for word in relators[::3]]
        outer = 0
        for word in relators + flips:
            fast = W.relator_automorphism(n, word)
            slow = oracle_relator_automorphism(n, word)
            assert fast == slow.forward
            found = W.is_inner(fast)
            assert found == oracle_is_inner(slow.forward)
            outer += found is None
        # most flips are not inner, so both verdicts are exercised
        assert len(flips) // 2 < outer <= len(flips)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_relator_images_are_the_substituted_letters(self, n):
        for _, _, word in W.gersten_relators(n):
            images = W.relator_automorphism(n, word)
            assert all(type(img) is tuple for img in images)
            assert images == tuple(oracle_token_images(n, word))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(token_words())
    def test_images_agree_with_the_oracle_on_every_kind(self, case):
        n, word = case
        images = W.relator_automorphism(n, word)
        assert images == oracle_relator_automorphism(n, word).forward
        assert images == tuple(oracle_token_images(n, word))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(token_words())
    def test_moved_images_pass_full_validation(self, case):
        # the move engine builds its images without checks; the
        # reduction oracle, which refuses a letter out of range, is the
        # check that they are valid
        n, word = case
        images = W.relator_automorphism(n, word)
        assert type(images) is tuple and len(images) == n
        for img in images:
            assert type(img) is tuple and reduce_word(img, n) == img

    @pytest.mark.parametrize("token", sorted(HAND_TABLES, key=str))
    def test_generator_tables_match_hand_images(self, token):
        forward, backward = HAND_TABLES[token]
        a = generator(3, *token)
        assert image_lists(a.forward) == forward
        assert image_lists(a.backward) == backward
        assert image_lists(W.relator_automorphism(3, [(token, 1)])) == forward
        assert image_lists(W.relator_automorphism(3, [(token, -1)])) == backward

    @pytest.mark.parametrize("token", [
        ("frob", 1, 2), ("rho", 1, 1), ("lam", 2, 2), ("sigma", 3, 3),
        ("rho", 1, 4), ("lam", 0, 2), ("eps", 4, None), ("sigma_star", 0, None),
        ("rho", 1.0, 2), ("lam", 2, "1"), ("eps", 1.5, None), (["rho"], 1, 2),
        ("lambda", 1, 2),
    ])
    def test_bad_tokens_are_value_errors(self, token):
        with pytest.raises(ValueError):
            W.relator_automorphism(3, [(("rho", 1, 2), 1), (token, 1)])

    @pytest.mark.parametrize("e", [2, 0, -2])
    def test_an_exponent_other_than_one_or_minus_one_is_refused(self, e):
        # rho12^2 read as rho12 here and as rho12^-1 by the induced
        # evaluator would give the two different verdicts
        for token in (("rho", 1, 2), ("eps", 1, None), ("tau", 2, None)):
            for word in ([(token, e)], [(("lam", 2, 3), 1), (token, e)]):
                with pytest.raises(ValueError, match="exponent"):
                    W.relator_automorphism(3, word)

    def test_a_bad_letter_raises_after_its_equal_valid_letter_ran(self):
        good, bad = (("rho", 1, 2), 1), (("rho", 1.0, 2), 1)
        assert good == bad
        W.relator_automorphism(3, [good])
        with pytest.raises(ValueError):
            W.relator_automorphism(3, [bad])
        with pytest.raises(ValueError):
            W.relator_automorphism(3, [good, bad])

    def test_a_letter_valid_at_rank_four_raises_at_rank_three(self):
        W.relator_automorphism(4, [(("rho", 4, 1), 1)])
        with pytest.raises(ValueError):
            W.relator_automorphism(3, [(("rho", 4, 1), 1)])

    def test_bool_indices_read_as_ints(self):
        for kind in ("rho", "lam"):
            assert W.relator_automorphism(3, [((kind, True, 2), -1)]) \
                == W.relator_automorphism(3, [((kind, 1, 2), -1)])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(short_nielsen_products())
    def test_is_inner_reads_only_forward_images(self, a):
        assert W.is_inner(a.forward) == oracle_is_inner(a.forward)


class TestAbelianize:
    def test_rho_is_elementary(self):
        m = W.abelianize(W.rho(1, 2, 3).forward)
        assert m.data[1][0] == 1
        assert (m - W.Matrix.identity(3)).data[1][0] == 1

    def test_eps_determinant(self):
        assert W.abelianize(generator(3, "eps", 1).forward).determinant() == -1

    def test_partial_conjugation_vanishes(self):
        pc = W.rho(1, 2, 3) * generator(3, "lam", 1, 2).inverse()
        assert W.abelianize(pc.forward).is_identity()

    def test_homomorphism_on_random_products(self):
        rng = random.Random(99)
        n = 4
        pool = []
        for i in range(1, n + 1):
            pool.append(generator(n, "eps", i))
            for j in range(1, n + 1):
                if i != j:
                    pool += [W.rho(i, j, n), generator(n, "lam", i, j)]
        for _ in range(25):
            autos = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            prod = W.automorphism(n, [])
            mat = W.Matrix.identity(n)
            for a in autos:
                prod = prod * a
                mat = mat * W.abelianize(a.forward)
            assert W.abelianize(prod.forward) == mat


class TestFunctionalAction:
    """The left action on nonzero mod-2 functionals, as bitmasks whose
    bit k reads the parity of a_{k+1}."""

    def test_eps_acts_trivially(self):
        assert induced.act_on_mask(generator(3, "eps", 1).backward, 0b101) == 0b101

    def test_swap(self):
        assert induced.act_on_mask(generator(3, "sigma", 1, 2).backward, 0b001) == 0b010

    def test_rho_fixes_base(self):
        assert induced.act_on_mask(W.rho(1, 2, 3).backward, 0b100) == 0b100

    def test_zero_rejected(self):
        # the action is linear and invertible, so the zero functional is
        # fixed and never reached: the nonzero masks are permuted
        n = 3
        for a in (W.rho(1, 2, n), generator(n, "lam", 3, 1), generator(n, "sigma_star", 2),
                  generator(n, "delta")):
            assert induced.act_on_mask(a.backward, 0) == 0
            assert sorted(induced.act_on_mask(a.backward, m) for m in range(1, 2 ** n)) == \
                list(range(1, 2 ** n))
        assert 0 not in induced.coset_transversal(n)

    def test_left_action_law(self):
        rng = random.Random(4)
        n = 3
        pool = [W.rho(1, 2, n), W.rho(2, 3, n), generator(n, "lam", 3, 1),
                generator(n, "eps", 2), generator(n, "sigma", 1, 3),
                generator(n, "sigma_star", 2)]
        for _ in range(30):
            f, g = rng.choice(pool), rng.choice(pool)
            mask = rng.randrange(1, 2 ** n)
            lhs = induced.act_on_mask((f * g).backward, mask)
            rhs = induced.act_on_mask(f.backward, induced.act_on_mask(g.backward, mask))
            assert lhs == rhs == oracle_act_on_mask(f * g, mask)


class TestJson:
    def test_automorphism_rejects_a_table_that_is_not_an_inverse(self):
        for forward, backward in (
                (W.rho(1, 2, 3).forward, ((1, 2), (2,), (3,))),
                (generator(3, "eps", 1).forward, ((1,), (2,), (3,))),
                (generator(3, "sigma", 1, 2).forward, ((1,), (3,), (2,))),
                (((1, 1), (2,)), ((1,), (2,)))):
            with pytest.raises(ValueError):
                W.Automorphism(forward, backward)
