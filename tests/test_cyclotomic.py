import cmath
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from specpair.cyclotomic import (
    exp_sum_is_zero, in_open_half_circle, residue_sum_is_zero, roots_sum_is_zero)


def _numeric(terms):
    return sum(float(c) * cmath.exp(2j * math.pi * float(q)) for c, q in terms)


def test_known_vanishing_sums():
    zeros = [
        [(F(1), F(0)), (F(1), F(1, 2))],
        [(F(1), F(0)), (F(1), F(1, 3)), (F(1), F(2, 3))],
        [(F(1), F(k, 5)) for k in range(5)],
        [(F(1), F(1, 6)), (F(-1), F(1, 3)), (F(-1), F(0))],
        [(F(1, 2), F(7, 2)), (F(1, 2), F(5))],
        [(F(2), F(1, 4)), (F(2), F(3, 4))],
    ]
    for terms in zeros:
        assert exp_sum_is_zero(terms) is True
        assert abs(_numeric(terms)) < 1e-12


def test_known_nonvanishing_sums():
    nonzeros = [
        [(F(1), F(0)), (F(1), F(1, 3))],
        [(F(1), F(1, 7)), (F(1), F(2, 7)), (F(1), F(3, 7))],
        [(F(1), F(0)), (F(-1), F(1, 4))],
        [(F(1, 2), F(0)), (F(1, 2), F(2, 3))],  # the ternary mask at 1
    ]
    for terms in nonzeros:
        assert exp_sum_is_zero(terms) is False
        assert abs(_numeric(terms)) > 1e-6


def test_empty_and_cancelling_coefficients():
    assert exp_sum_is_zero([]) is True
    assert exp_sum_is_zero([(F(0), F(1, 3))]) is True
    assert exp_sum_is_zero([(F(1), F(1, 3)), (F(-1), F(4, 3))]) is True


def test_large_conductors_are_decided():
    # conductor 5000: three unit vectors within 0.01 rad of each other
    terms = [(F(1), F(1, 5000)), (F(1), F(3, 5000)), (F(1), F(7, 5000))]
    assert exp_sum_is_zero(terms) is False
    assert abs(_numeric(terms)) > 2.9
    assert exp_sum_is_zero([(F(1), F(1, 5000)), (F(1), F(2501, 5000))]) is True
    # conductor 3 * 7 * 2^40: zeta_3 + zeta_7 + zeta_{2^40}
    terms = [(F(1), F(1, 3)), (F(1), F(1, 7)), (F(1), F(1, 2**40))]
    assert exp_sum_is_zero(terms) is False
    assert abs(_numeric(terms)) > 1
    # every 5003rd root of unity once: a coset sum at a prime conductor,
    # also turned by 1/7; one root short it is -1
    assert exp_sum_is_zero([(F(1), F(k, 5003)) for k in range(5003)]) is True
    coset = [(F(1), F(k, 5003) + F(1, 7)) for k in range(5003)]
    assert exp_sum_is_zero(coset) is True
    assert abs(_numeric(coset)) < 1e-9
    assert exp_sum_is_zero([(F(1), F(k, 5003)) for k in range(1, 5003)]) is False


# residues mod a large q: scattered ones, plus full orbits (every n-th root
# of unity once, turned by a shift), whose sums vanish
LARGE_DENS = (2 * 3 * 5 * 7 * 11 * 13, 2**40, 6 * 10**15, 2**20 * 3**5 * 101)


@st.composite
def residue_multisets(draw):
    q = draw(st.sampled_from(LARGE_DENS))
    residues = draw(st.lists(st.integers(0, q - 1), max_size=4))
    for n in draw(st.lists(st.sampled_from([n for n in (2, 3, 4, 5, 6, 8) if q % n == 0]),
                           max_size=3)):
        shift = draw(st.integers(0, q - 1))
        residues += [(shift + k * q // n) % q for k in range(n)]
    if not residues:
        residues = [draw(st.integers(0, q - 1))]
    return draw(st.permutations(residues)), q


@settings(deadline=None, max_examples=400)
@given(residue_multisets())
def test_half_circle_never_holds_a_vanishing_sum(case):
    residues, q = case
    if in_open_half_circle(residues, q):
        assert not residue_sum_is_zero(Counter(residues), q)


@pytest.mark.parametrize("residues, den, expected", [
    ([0, 3], 6, False),           # antipodal: the two gaps are exactly den / 2
    ([0, 2], 6, True),
    ([5, 5], 6, True),            # one root twice
    ([1, 2], 2**61, True),        # the widest gap is the wrap-around one
    ([0, 1, 2], 3, False),
    ([0, 1, 2], 4, False),        # a closed half circle: nonzero, but not decided here
    ([0, 2**40 - 1, 1], 2**40, True),
])
def test_half_circle_examples(residues, den, expected):
    assert in_open_half_circle(residues, den) is expected


MEMO_MAX_DEN = 3**25 * 32


@st.composite
def root_patterns(draw):
    """At most six residues mod q <= 3^25 * 32, sorted: up to two shifted
    full orbits of n-th roots (n | q), whose sums vanish, and scattered
    residues, so that both verdicts come up."""
    orbits = draw(st.lists(st.sampled_from((2, 3, 4, 6)), max_size=2)
                  .filter(lambda ns: sum(ns) <= 6))
    period = math.lcm(1, *orbits)
    q = period * draw(st.one_of(st.integers(1, 12), st.integers(1, MEMO_MAX_DEN // period)))
    residues = []
    for n in orbits:
        shift = draw(st.integers(0, q - 1))
        residues += [(shift + k * q // n) % q for k in range(n)]
    residues += draw(st.lists(st.integers(0, q - 1), min_size=0 if residues else 1,
                              max_size=6 - len(residues)))
    return tuple(sorted(residues)), q


@settings(deadline=None, max_examples=400)
@given(root_patterns(), st.integers(2, 3**5 * 7), st.data())
def test_memoized_root_sum_is_the_recursion(case, k, data):
    # the memo is not cleared between examples, so earlier keys stay in it
    residues, q = case
    want = residue_sum_is_zero(Counter(residues), q)
    assert roots_sum_is_zero(residues, q) is want
    assert roots_sum_is_zero(residues, q) is want
    # a scaled copy is another key with the same verdict
    assert roots_sum_is_zero(tuple(k * r for r in residues), k * q) is want
    # the same residues over another q are another key, decided on their own
    other = data.draw(st.integers(residues[-1] + 1, MEMO_MAX_DEN))
    assert roots_sum_is_zero(residues, other) is residue_sum_is_zero(Counter(residues), other)


def test_memo_keys_hold_q():
    roots_sum_is_zero.cache_clear()
    assert roots_sum_is_zero((0, 1), 2) is True
    assert roots_sum_is_zero((0, 1), 4) is False
    assert roots_sum_is_zero((0, 2), 4) is True
    assert roots_sum_is_zero((0, 1), 2) is True
    info = roots_sum_is_zero.cache_info()
    assert (info.hits, info.misses) == (1, 3)
