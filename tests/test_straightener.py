"""The one PBW straightener against the three swap recursions it replaced.

The parameters reach denominators up to 10^4: the factors 3, 4 and 6 meet
the /12 of the central term, and primes coprime to 12 must be cleared by
the module scale alone.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw_oracle import ReferenceRewriter, reference_normal_order, reference_verma_act
from virwhit.linalg import MAX_CONTEXTS, Straighteners
from virwhit.universal import UniversalVector, _psi_rule, apply_word, basis_vector
from virwhit.verma import VermaContext, VermaVector, _highest_weight_rule, act
from virwhit.verma import enumerate_partitions, straightener
from virwhit.verma import basis_vector as verma_basis_vector
from virwhit.virasoro import Straightener, normal_order
from virwhit.whittaker import WhittakerType1N, WhittakerTypeR

C = Fraction(11, 3)

denominators = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12, 5, 7, 11, 13, 9973]),
    st.integers(1, 10**4),
)
rationals = st.builds(Fraction, st.integers(-(10**4), 10**4), denominators)
nonzero = rationals.filter(bool)
maybe_zero = st.one_of(st.just(Fraction(0)), rationals)
partitions = st.integers(0, 7).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-4, 4), max_size=6), rationals)
def test_normal_order_matches_swap_recursion(word, c):
    assert normal_order(word, c).terms == reference_normal_order(word, c)


@settings(deadline=None, max_examples=60)
@given(st.integers(-5, 5), partitions, rationals, rationals)
def test_verma_action_matches_recursion(m, partition, c, delta):
    ctx = VermaContext(c, delta)
    image = act(m, verma_basis_vector(ctx, partition))
    assert image.terms == reference_verma_act(m, partition, c, delta)


@st.composite
def _order_type_words(draw):
    r = draw(st.integers(1, 3))
    mu = draw(st.lists(maybe_zero, min_size=r + 1, max_size=r + 1).filter(any))
    typ = WhittakerTypeR(r, tuple(mu))
    word = draw(st.lists(st.integers(-4, 2 * r + 1), max_size=4))
    base = sorted(draw(st.lists(st.integers(-3, r - 1), max_size=3)))
    return typ, tuple(word), tuple(base)


@st.composite
def _pair_type_words(draw):
    n = draw(st.integers(3, 6))
    typ = WhittakerType1N(n, draw(nonzero), draw(nonzero))
    word = draw(st.lists(st.integers(-3, n + 1), max_size=4))
    letters = st.integers(-3, n - 1).filter(lambda x: x != 1)
    base = sorted(draw(st.lists(letters, max_size=3)))
    return typ, tuple(word), tuple(base)


@settings(deadline=None, max_examples=60)
@given(st.one_of(_order_type_words(), _pair_type_words()), rationals)
def test_whittaker_action_matches_swap_recursion(case, c):
    typ, word, base = case
    image = apply_word(word, basis_vector(typ, c, base))
    assert image.terms == ReferenceRewriter(typ, c).reduce(word + base)


@settings(deadline=None, max_examples=60)
@given(st.integers(-5, 5), partitions, rationals, rationals)
def test_verma_images_are_integers_under_the_graded_denominator(m, partition, c, delta):
    rule = straightener(VermaContext(c, delta))
    assert rule.scale == lcm(2 * c.denominator, delta.denominator)
    # The straightener's word for a partition is its negated parts.
    image = tuple(rule.times(m, tuple(-x for x in partition)))
    assert all(type(n) is int for _, n in image)
    graded = {
        tuple(-x for x in v): Fraction(n, rule.scale ** (1 + len(partition) - len(v)))
        for v, n in image
    }
    assert graded == reference_verma_act(m, partition, c, delta)


@st.composite
def _mixed_length_vectors(draw):
    # One base word per drawn length, so the input mixes word lengths.
    typ, word, _ = draw(st.one_of(_order_type_words(), _pair_type_words()))
    if isinstance(typ, WhittakerType1N):
        letters = st.integers(-3, typ.n - 1).filter(lambda x: x != 1)
    else:
        letters = st.integers(-3, typ.r - 1)
    lengths = draw(st.sets(st.integers(0, 3), min_size=2, max_size=3))
    terms = {
        tuple(sorted(draw(st.lists(letters, min_size=k, max_size=k)))): draw(nonzero)
        for k in sorted(lengths)
    }
    return typ, word, terms


@settings(deadline=None, max_examples=60)
@given(_mixed_length_vectors(), rationals)
def test_apply_word_on_mixed_lengths_matches_swap_recursion(case, c):
    typ, word, terms = case
    image = apply_word(word, UniversalVector(typ, c, terms))
    expected: dict = {}
    rewriter = ReferenceRewriter(typ, c)
    for base, coeff in terms.items():
        for out, value in rewriter.reduce(word + base).items():
            expected[out] = expected.get(out, 0) + coeff * value
    assert image.terms == {w: x for w, x in expected.items() if x}


@settings(deadline=None, max_examples=30)
@given(st.integers(-5, 5), st.lists(partitions, min_size=2, max_size=4), rationals, rationals)
def test_verma_action_on_mixed_lengths_matches_recursion(m, parts, c, delta):
    coeffs = [Fraction(k + 1, 3 * k + 4) for k in range(len(parts))]
    vector = VermaVector(VermaContext(c, delta), dict(zip(parts, coeffs)))
    expected: dict = {}
    for part, coeff in vector.terms.items():
        for out, value in reference_verma_act(m, part, c, delta).items():
            expected[out] = expected.get(out, 0) + coeff * value
    assert act(m, vector).terms == {p: x for p, x in expected.items() if x}


def test_deep_word_normal_orders():
    # The swap recursion raised RecursionError on this word.
    element = normal_order((1,) * 3 + (-1,) * 300, C)
    assert element.coefficient((-1,) * 300 + (1,) * 3) == 1
    assert all(list(mono) == sorted(mono) for mono in element.terms)


def test_deep_verma_action():
    # L_1 L_{-1}^n |Delta> = n (2 Delta + n - 1) L_{-1}^{n-1} |Delta>.
    delta = Fraction(2, 7)
    n = 1200
    image = act(1, verma_basis_vector(VermaContext(C, delta), (1,) * n))
    assert image.terms == {(1,) * (n - 1): n * (2 * delta + n - 1)}


def test_cache_info_pools_hits_and_entries():
    family = Straighteners(Straightener)
    rule = family[C]
    rule.times(1, (-1, -1))
    info = family.cache_info()
    assert info.misses == info.currsize == len(rule._cache) > 0
    rule.times(1, (-1, -1))
    assert family.cache_info().hits == info.hits + 1
    assert family.cache_info().misses == info.misses


def test_family_keeps_the_last_max_contexts():
    family = Straighteners(Straightener)
    keys = [Fraction(k, 3) for k in range(MAX_CONTEXTS + 3)]
    for key in keys:
        family[key].times(1, (-1,))
    assert list(family) == keys[-MAX_CONTEXTS:]


@pytest.mark.parametrize(
    "rule, word, base",
    [
        (Straightener(C), (2, 1, 3, -1, -2, -3, 1), ()),
        (_highest_weight_rule((C, Fraction(2, 7))), (2, 1, -1, -1, 3, -2), (-2, -1)),
        (_psi_rule((WhittakerTypeR(2, (Fraction(1), Fraction(0), Fraction(3, 2))), C)),
         (3, 2, -1, 1, -2, 4), (-1, 0)),
        (_psi_rule((WhittakerType1N(5, Fraction(2), Fraction(-3)), C)), (4, 1, -1, 6, 2), (-2, 3)),
    ],
    ids=["enveloping", "verma", "order-type", "pair-type"],
)
def test_memo_stores_one_flat_tuple_per_image(rule, word, base):
    rule.apply(word, {base: Fraction(1)})
    assert rule._cache
    for image in [*rule._cache.values(), *rule._ends.values()]:
        assert type(image) is tuple and len(image) % 2 == 0
        words, ints = image[::2], image[1::2]
        for v in words:
            ranks = list(map(rule.rank, v))
            assert type(v) is tuple and ranks == sorted(ranks)
        assert all(type(n) is int and n for n in ints)
        assert len(set(words)) == len(words)
