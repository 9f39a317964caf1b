from fractions import Fraction as F

import pytest

import specpair as sp
from specpair import exact


def test_as_rational_accepts_strings_ints_fractions():
    assert exact.as_rational("3/4") == F(3, 4)
    assert exact.as_rational("0.25") == F(1, 4)
    assert exact.as_rational("-2") == F(-2)
    assert exact.as_rational(7) == F(7)
    assert exact.as_rational(F(1, 3)) == F(1, 3)


def test_as_rational_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        exact.as_rational(0.5)
    with pytest.raises(ValueError):
        exact.as_rational("1/0")
    with pytest.raises(ValueError):
        exact.as_rational("one half")


def test_format_round_trip():
    for value in (F(0), F(5), F(-3, 7), F(10, 4)):
        assert exact.as_rational(exact.format_rational(value)) == value


def test_matrix_inverse_and_det():
    m = exact.as_matrix([[2, 1], [0, 1]])
    assert exact.det(m) == 2
    inv = exact.inverse(m)
    assert exact.mat_mul(m, inv) == exact.identity(2)
    assert exact.inverse(inv) == m


def test_characteristic_polynomial():
    # det(x I - m), ascending: x^2 + 1 for a square root of -I
    root = exact.as_matrix([[3, -5], [2, -3]])
    assert exact.characteristic_polynomial(root) == [1, 0, 1]
    # (x - 2)(x - 1/2)(x + 1)
    m = exact.as_matrix([[2, 1, 0], [0, "1/2", 0], [1, 0, -1]])
    assert exact.characteristic_polynomial(m) == [1, F(-3, 2), F(-3, 2), 1]
    assert exact.characteristic_polynomial(exact.as_matrix([[4]])) == [-4, 1]


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        exact.inverse(exact.as_matrix([[1, 2], [2, 4]]))
    assert exact.det(exact.as_matrix([[1, 2], [2, 4]])) == 0


def test_mat_vec_and_dot():
    m = exact.as_matrix([["1/2", 0], [1, 1]])
    assert exact.mat_vec(m, (F(2), F(3))) == (F(1), F(5))
    assert exact.dot((F(1, 2), F(3)), (F(4), F(1, 3))) == F(3)


def test_vector_helpers():
    assert exact.as_vector("1/2") == (F(1, 2),)
    assert exact.as_vector([1, "2/3"]) == (F(1), F(2, 3))
    with pytest.raises(ValueError):
        exact.as_vector([1, 2], dim=3)
    assert exact.vec_add((F(1),), (F(2),)) == (F(3),)
    assert exact.vec_sub((F(1), F(2)), (F(2), F(1))) == (F(-1), F(1))
    assert exact.is_integral((F(2), F(-7)))
    assert not exact.is_integral((F(1, 2),))


@pytest.mark.parametrize("op", [exact.vec_add, exact.vec_sub, exact.dot])
def test_vector_operations_reject_mismatched_lengths(op):
    with pytest.raises(ValueError):
        op((F(1), F(2)), (F(3),))
    with pytest.raises(ValueError):
        op((F(1),), (F(3), F(4)))


_SCALE4 = sp.parse_spec("scale4").system


@pytest.mark.parametrize("call", [
    lambda: exact.as_point(float("nan")),
    lambda: sp.mu_hat_value(_SCALE4, float("nan")),
    lambda: sp.mask(_SCALE4, float("inf")),
    lambda: sp.completeness_table(_SCALE4, float("nan"), [2]),
    lambda: sp.integrate_exponential(sp.refine_measure(sp.build_ifs(_SCALE4), 2),
                                     (float("-inf"),)),
    lambda: sp.separation_witness(_SCALE4, float("nan"), 0.0),
    lambda: sp.separation_witness(_SCALE4, 0.5, float("inf")),
    lambda: sp.separation_witnesses(_SCALE4, [[0.0], [float("nan")]], [[0.5], [0.0]]),
], ids=["as_point", "mu_hat_value", "mask", "completeness_table",
        "integrate_exponential", "separation_witness-nan", "separation_witness-inf",
        "separation_witnesses"])
def test_non_finite_points_are_rejected(call):
    with pytest.raises(sp.NonFinitePoint) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, sp.SpectralPairError)
