import cmath
import math
from fractions import Fraction as F

from specpair.cyclotomic import exp_sum_is_zero


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
