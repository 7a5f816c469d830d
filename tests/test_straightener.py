"""The one PBW straightener against the three swap recursions it replaced."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pbw_oracle import ReferenceRewriter, reference_normal_order, reference_verma_act
from virwhit.universal import apply_word, basis_vector
from virwhit.verma import VermaContext, act, enumerate_partitions
from virwhit.verma import basis_vector as verma_basis_vector
from virwhit.virasoro import Straightener, Straighteners, normal_order
from virwhit.whittaker import WhittakerType1N, WhittakerTypeR

C = Fraction(11, 3)

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
nonzero = rationals.filter(bool)
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
    mu = draw(st.lists(rationals, min_size=r + 1, max_size=r + 1).filter(any))
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
