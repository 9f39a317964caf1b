import random
from fractions import Fraction as F

import numpy as np
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
    assert sp.Lattice(m).det == 2
    inv = sp.Lattice(m).inverse
    assert exact.mat_mul(m, inv) == exact.identity(2)
    assert sp.Lattice(inv).inverse == m


def test_characteristic_polynomial():
    # det(x I - m), ascending: x^2 + 1 for a square root of -I
    root = exact.as_matrix([[3, -5], [2, -3]])
    assert exact.characteristic_polynomial(root) == [1, 0, 1]
    # (x - 2)(x - 1/2)(x + 1)
    m = exact.as_matrix([[2, 1, 0], [0, "1/2", 0], [1, 0, -1]])
    assert exact.characteristic_polynomial(m) == [1, F(-3, 2), F(-3, 2), 1]
    assert exact.characteristic_polynomial(exact.as_matrix([[4]])) == [-4, 1]


def test_singular_matrix_rejected():
    singular = exact.as_matrix([[1, 2], [2, 4]])
    assert exact._gauss_jordan(singular) is None
    with pytest.raises(ValueError):
        sp.Lattice(singular)


def oracle_det(m):
    """Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * oracle_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def oracle_inverse(m):
    """The adjugate over the determinant: entry (i, j) is the (j, i) cofactor / det."""
    n, d = len(m), oracle_det(m)
    if n == 1:
        return ((1 / d,),)
    return tuple(tuple((-1) ** (i + j) * oracle_det(
        [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]) / d
        for j in range(n)) for i in range(n))


def _seeded_matrices():
    rng = random.Random(20261019)
    # a zero leading pivot forces a row swap, which flips the sign
    yield exact.as_matrix([[0, 1], [1, 0]])
    yield exact.as_matrix([[0, 2, 1], [0, 1, "1/2"], [3, 0, 1]])  # singular
    for _ in range(60):
        n = rng.randint(1, 3)
        entries = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n * n)]
        yield exact.as_matrix([entries[i * n:(i + 1) * n] for i in range(n)])


def test_elimination_matches_cofactor_oracle():
    singular = swapped = 0
    for m in _seeded_matrices():
        expected = oracle_det(m)
        if expected == 0:
            singular += 1
            assert exact._gauss_jordan(m) is None
            with pytest.raises(ValueError, match="singular"):
                sp.Lattice(m)
            continue
        swapped += m[0][0] == 0
        assert exact._gauss_jordan(m) == (expected, oracle_inverse(m))
        lattice = sp.Lattice(m)
        assert (lattice.det, lattice.inverse) == (expected, oracle_inverse(m))
    assert singular >= 2 and swapped >= 2


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
    lambda: sp.integrate_exponential(sp.refine_measure(sp.build_ifs(_SCALE4), 2),
                                     np.array([float("nan")])),
    lambda: sp.separation_witness(_SCALE4, float("nan"), 0.0),
    lambda: sp.separation_witness(_SCALE4, 0.5, float("inf")),
    lambda: sp.separation_witnesses(_SCALE4, [[0.0], [float("nan")]], [[0.5], [0.0]]),
], ids=["as_point", "mu_hat_value", "mask", "completeness_table",
        "integrate_exponential", "integrate_exponential-array",
        "separation_witness-nan", "separation_witness-inf", "separation_witnesses"])
def test_non_finite_points_are_rejected(call):
    with pytest.raises(sp.NonFinitePoint) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, sp.SpectralPairError)
