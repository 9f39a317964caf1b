import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import specpair as sp
from specpair import pair
from specpair.boxes import Box, BoxUnion
from specpair.pair import MONTE_CARLO_DEFECT, rectangular_cell

UNIT = BoxUnion((Box((0,), (1,)),))


def test_transform_at_zero_is_measure(scale4):
    assert sp.indicator_transform(UNIT, 0) == 1.0
    assert sp.indicator_transform(scale4.omega, 0) == 0.5


def test_transform_full_period_vanishes_exactly():
    for n in (1, -1, 2, 7):
        assert sp.indicator_transform(UNIT, n) == 0


def test_transform_two_interval_zeros(scale4):
    omega = scale4.omega
    # odd frequencies kill the translate factor, multiples of 4 the box factor
    for t in (1, 3, -5, 4, 8, -12):
        assert sp.indicator_transform(omega, t) == 0
    # even-but-not-multiple-of-4 frequencies do not vanish: value i/pi at 2
    value = sp.indicator_transform(omega, 2)
    assert value != 0
    assert abs(value - 1j / math.pi) < 1e-15


def test_transform_zero_past_small_conductors(scale4x2):
    # the first axis vanishes at t_0 = 1; the second brings in 5003rd roots
    assert sp.indicator_transform(scale4x2.omega, (1, F(1, 5003))) == 0j


def test_transform_conjugate_symmetry(scale4):
    omega = scale4.omega
    for t in (F(1, 3), F(5, 7), 0.37, 2.25):
        left = sp.indicator_transform(omega, -t)
        right = sp.indicator_transform(omega, t).conjugate()
        assert abs(left - right) < 1e-15


def test_orthogonality_identity_matrices(scale4):
    spectrum = sp.TruncatedSpectrum(((F(0),), (F(1),), (F(2),), (F(3),)))
    gram = sp.orthogonality_matrix(UNIT, spectrum)
    assert np.array_equal(gram, np.eye(4))

    pair_spectrum = sp.TruncatedSpectrum(((F(0),), (F(1),), (F(4),), (F(5),)))
    gram = sp.orthogonality_matrix(scale4.omega, pair_spectrum)
    assert np.array_equal(gram, np.eye(4))


def test_orthogonality_off_diagonal_magnitude():
    spectrum = sp.TruncatedSpectrum(((F(0),), (F(1, 2),)))
    gram = sp.orthogonality_matrix(UNIT, spectrum)
    assert abs(abs(gram[0, 1]) - 2 / math.pi) < 1e-15
    assert gram[1, 0] == gram[0, 1].conjugate()
    assert np.allclose(np.diag(gram), 1.0)


def test_truncate_spectrum(scale4):
    spectrum = sp.truncate_spectrum(scale4.system, 5)
    values = sorted(p[0] for p in spectrum.points)
    assert values == [F(-4), F(-3), F(0), F(1), F(4), F(5)]
    assert (F(0),) in spectrum.points


@pytest.mark.parametrize("radius", [-1, "-1/2"])
def test_truncate_spectrum_rejects_negative_radius(scale4, radius):
    with pytest.raises(ValueError, match="negative"):
        sp.truncate_spectrum(scale4.system, radius)


def test_truncated_spectrum_invariants():
    with pytest.raises(ValueError):
        sp.TruncatedSpectrum(((F(1),), (F(2),)))  # zero missing
    with pytest.raises(ValueError):
        sp.TruncatedSpectrum(((F(0),), (F(0),)))  # duplicate
    with pytest.raises(ValueError, match="one dimension"):
        sp.TruncatedSpectrum(((0,), (1, 2)))


def test_empty_truncated_spectrum_is_rejected():
    with pytest.raises(ValueError, match="0"):
        sp.TruncatedSpectrum(())


@pytest.mark.parametrize("omega, points", [
    (BoxUnion((Box((0,), ("1/4",)), Box(("1/2",), ("3/4",)))),
     ((0, 0), (1, 0), (0, "1/2"))),
    (BoxUnion((Box((0, 0), (1, 1)),)), ((0,), (1,))),
], ids=["1d-union-2d-points", "2d-union-1d-points"])
def test_orthogonality_matrix_refuses_a_spectrum_of_another_dimension(
        omega, points, monkeypatch):
    # zipping rows of two lengths would drop coordinates without a word
    monkeypatch.setattr(sp.pair, "numerators", None)
    with pytest.raises(ValueError, match="does not match the box union's dimension"):
        sp.orthogonality_matrix(omega, sp.TruncatedSpectrum(points))


def test_rectangular_cell_detection():
    assert rectangular_cell(sp.Lattice([["1/4", 0], [0, "1/2"]])) == (F(1, 4), F(1, 2))
    # permuted/negated columns: axis 0 is spanned by the -1/2 generator
    assert rectangular_cell(sp.Lattice([[0, "-1/2"], ["1/4", 0]])) == (F(1, 2), F(1, 4))
    assert rectangular_cell(sp.Lattice([[2, 1], [0, 1]])) is None
    # a unimodular shear of diag(1/4, 1/6) spans the rectangular lattice, but
    # the test is on the basis, so tiling_check still samples it
    shear = sp.Lattice([["1/4", "1/2"], [0, "1/6"]])
    assert rectangular_cell(shear) is None
    cell, reps = pair._rectangular_sublattice(shear)
    assert cell == (F(1, 4), F(1, 6)) and len(reps) == 1


def test_reduce_mod_lattice_examples(scale4):
    z = sp.Lattice([[1]])
    assert sp.reduce_mod_lattice(scale4.omega, z) == scale4.omega
    shifted = BoxUnion((Box((1,), ("5/4",)),))
    assert sp.reduce_mod_lattice(shifted, z) == BoxUnion((Box((0,), ("1/4",)),))
    overlapping = BoxUnion((Box((0,), ("1/4",)), Box((1,), ("5/4",))))
    with pytest.raises(sp.NotEmbeddable):
        sp.reduce_mod_lattice(overlapping, z)


def union(*boxes):
    return BoxUnion(tuple(Box(lo, hi) for lo, hi in boxes))


FIFTHS = sp.Lattice([["2/5", 0], [0, "3/4"]])


def test_reduction_message_keeps_its_bytes():
    # bytes as printed when the reduction ran on Fraction boxes
    omega = union((("-1/3", "1/4"), ("1/6", "3/4")), (("1/2", "-1/2"), ("5/6", "1/4")))
    with pytest.raises(sp.NotEmbeddable) as exc:
        sp.reduce_mod_lattice(omega, FIFTHS)
    assert str(exc.value) == (
        "reductions overlap on positive measure: Box(lo=(Fraction(1, 15), Fraction(1, 4)), "
        "hi=(Fraction(2, 5), Fraction(3, 4))) and Box(lo=(Fraction(0, 1), Fraction(1, 4)), "
        "hi=(Fraction(1, 6), Fraction(3, 4)))")


def test_tiling_details_keep_their_bytes():
    # bytes as printed when tiling_check ran on Fraction boxes
    report = sp.tiling_check(union((("-1/3", 0), ("1/6", "3/4"))),
                             sp.Lattice([["1/2", 0], [0, "3/4"]]), [(0, 0), ("1/4", "-1/3")])
    assert report.detail == (
        "translates overlap: Box(lo=(Fraction(-1, 3), Fraction(0, 1)), "
        "hi=(Fraction(1, 6), Fraction(3, 4))) and Box(lo=(Fraction(-1, 12), "
        "Fraction(-1, 3)), hi=(Fraction(5, 12), Fraction(5, 12)))")
    unit = union(((0, 0), (1, 1)))
    report = sp.tiling_check(union((("-1/3", 0), ("1/15", "3/4"))), FIFTHS,
                             [(0, 0), ("2/5", "-3/4"), ("1/6", 0)], omega_prime=unit)
    assert report.detail == (
        "translates overlap: Box(lo=(Fraction(-1, 3), Fraction(0, 1)), "
        "hi=(Fraction(1, 15), Fraction(3, 4))) and Box(lo=(Fraction(-1, 6), Fraction(0, 1)), "
        "hi=(Fraction(7, 30), Fraction(3, 4))); union of translates differs from the "
        "reduced domain")
    report = sp.tiling_check(union(((0, "-3/4"), ("1/5", 0)), (("2/5", 0), ("3/5", "3/4"))),
                             FIFTHS, [(0, 0), ("-1/3", "1/4")], omega_prime=unit)
    assert repr(report) == (
        "TilingReport(fundamental_domain=False, translates_disjoint=True, "
        "union_matches=False, method='exact', measure_domain=Fraction(3, 10), "
        "measure_cell=Fraction(3, 10), failure_probability=0.0, detail='reductions overlap "
        "on positive measure: Box(lo=(Fraction(0, 1), Fraction(0, 1)), hi=(Fraction(1, 5), "
        "Fraction(3, 4))) and Box(lo=(Fraction(0, 1), Fraction(0, 1)), hi=(Fraction(1, 5), "
        "Fraction(3, 4))); union of translates differs from the reduced domain')")


def test_reduce_splits_straddling_box():
    z = sp.Lattice([[1]])
    straddle = BoxUnion((Box(("3/4",), ("5/4",)),))
    reduced = sp.reduce_mod_lattice(straddle, z)
    assert reduced.measure == F(1, 2)
    assert sorted((b.lo[0], b.hi[0]) for b in reduced.boxes) == [
        (F(0), F(1, 4)), (F(3, 4), F(1)),
    ]


def test_tiling_check_scale4(scale4):
    report = sp.tiling_check(
        scale4.d_prime, scale4.system.Gamma, scale4.system.digits,
        omega_prime=scale4.omega,
    )
    assert report.ok
    assert report.method == "exact"
    assert report.failure_probability == 0.0
    assert report.measure_domain == F(1, 4)
    # accounting identity: translates sum to the reduced domain measure
    assert len(scale4.system.digits) * report.measure_domain == scale4.omega.measure


def test_tiling_check_measure_mismatch():
    report = sp.tiling_check(
        BoxUnion((Box((0,), ("1/2",)),)), sp.Lattice([["1/4"]]), [(0,)],
    )
    assert not report.fundamental_domain
    assert not report.ok


def test_tiling_check_2d(scale4x2):
    report = sp.tiling_check(
        scale4x2.d_prime, scale4x2.system.Gamma, scale4x2.system.digits,
        omega_prime=scale4x2.omega,
    )
    assert report.ok and report.method == "exact"


def test_tiling_check_union_mismatch(scale4):
    wrong = BoxUnion((Box((0,), ("1/2",)),))
    report = sp.tiling_check(
        scale4.d_prime, scale4.system.Gamma, scale4.system.digits,
        omega_prime=wrong,
    )
    assert report.union_matches is False
    assert not report.ok


def test_tiling_check_overlapping_translates(scale4):
    report = sp.tiling_check(
        scale4.d_prime, scale4.system.Gamma, [(0,), ("1/8",)],
    )
    assert not report.translates_disjoint


SQUARE = BoxUnion((Box((0, 0), (1, 1)),))
LINE = sp.Lattice([[1]])


@pytest.mark.parametrize("call", [
    lambda: sp.tiling_check(SQUARE, LINE, []),
    lambda: sp.tiling_check(SQUARE, sp.Lattice([[1, 0], [0, 1]]), [(0, 0)],
                            omega_prime=BoxUnion((Box((0,), (1,)),))),
    lambda: sp.reduce_mod_lattice(SQUARE, LINE),
], ids=["tiling-lattice", "tiling-omega-prime", "reduce"])
def test_box_unions_refuse_other_dimensions(call):
    # a shorter cell would drop a coordinate of every box
    with pytest.raises(ValueError, match="dimension 1 does not match"):
        call()


def test_translation_membership_examples(scale4):
    z = sp.Lattice([[1]])
    omega = scale4.omega
    assert sp.translation_membership(omega, z, ("1/2",))
    assert not sp.translation_membership(omega, z, ("1/4",))
    assert sp.translation_membership(omega, z, (3,))  # lattice translation


def test_translation_membership_eighths(scale4):
    z = sp.Lattice([[1]])
    for k in range(8):
        expected = k in (0, 4)  # exactly the half-integer shifts
        assert sp.translation_membership(scale4.omega, z, (F(k, 8),)) == expected


HALVES = BoxUnion((Box((0, 0), ("1/4", 1)), Box(("1/2", 0), ("3/4", 1))))


@pytest.mark.parametrize("k", [3, 4])
def test_membership_is_exact_on_strongly_sheared_bases(k):
    # [[1, k], [0, 1]] spans Z^2: far from reduced, but the same lattice
    sheared = sp.Lattice([[1, k], [0, 1]])
    assert sp.translation_membership(HALVES, sheared, ("1/2", 0)) is True
    assert sp.translation_membership(HALVES, sheared, ("1/4", 0)) is False


def test_membership_on_lattices_without_a_diagonal_basis():
    # the checkerboard lattice has index 2 over 2Z^2: (1, 0) swaps its cosets
    checkerboard = sp.Lattice([[1, 1], [-1, 1]])
    square = BoxUnion((Box((0, 0), (1, 1)),))
    two = BoxUnion((Box((0, 0), (1, 1)), Box((1, 0), (2, 1))))
    assert sp.translation_membership(two, checkerboard, (1, 0)) is True
    assert sp.translation_membership(square, checkerboard, (1, 0)) is False
    # {x + y = 0 mod 3} has index 3 over 3Z^2; a strip of length 3 is
    # invariant along it, and a fundamental domain under every shift
    index3 = sp.Lattice([[2, 1], [1, 2]])
    strip = BoxUnion((Box((0, 0), (3, "1/2")),))
    assert sp.translation_membership(strip, index3, (1, 0)) is True
    assert sp.translation_membership(strip, index3, ("1/2", 0)) is True
    assert sp.translation_membership(strip, index3, (0, "1/2")) is False
    assert sp.translation_membership(strip, index3, ("1/2", "1/2")) is False
    fundamental = BoxUnion((Box((0, 0), (3, 1)),))
    assert sp.translation_membership(fundamental, index3, ("1/3", "1/7")) is True
    assert sp.translation_membership(two, index3, (1, 0)) is False


def test_membership_of_a_union_that_does_not_embed():
    # both boxes reduce to [0, 1/4) mod Z; the image is still well defined
    z = sp.Lattice([[1]])
    overlapping = BoxUnion((Box((0,), ("1/4",)), Box((1,), ("5/4",))))
    assert sp.translation_membership(overlapping, z, ("1/4",)) is False
    assert sp.translation_membership(overlapping, z, (1,)) is True
    assert sp.translation_membership(overlapping, z, ("1/2",)) is False


def test_membership_refuses_too_many_cosets(monkeypatch):
    class Enumerated(Exception):
        pass

    def refuse(sub, sup):
        raise Enumerated

    monkeypatch.setattr(pair, "coset_representatives", refuse)
    pair._rectangular_sublattice.cache_clear()
    assert pair.MEMBERSHIP_COSET_BUDGET == 2**10
    with pytest.raises(sp.BudgetExceeded, match="1025"):
        sp.translation_membership(HALVES, sp.Lattice([[1, "1/1025"], [0, 1]]), ("1/2", 0))
    with pytest.raises(Enumerated):
        sp.translation_membership(HALVES, sp.Lattice([[1, "1/1024"], [0, 1]]), ("1/2", 0))


def test_membership_at_the_coset_budget_is_quick():
    # 1024 cosets that differ only in their first coordinate: the old scan
    # of [0, 1024)^2 for class representatives took about 35 s (2-core
    # x86_64 VM); a Hermite form lists them in 1024 steps, about 0.4 s
    pair._rectangular_sublattice.cache_clear()
    lat = sp.Lattice([[1, 0], ["1/1024", 1]])
    start = time.perf_counter()
    assert sp.translation_membership(HALVES, lat, ("1/2", 0)) is True
    assert sp.translation_membership(HALVES, lat, ("1/4", 0)) is False
    assert time.perf_counter() - start < 8


def test_membership_takes_no_sampling_options():
    for option in ("samples", "seed"):
        with pytest.raises(TypeError):
            sp.translation_membership(HALVES, sp.Lattice([[1, 1], [0, 1]]), ("1/2", 0),
                                      **{option: 1})


def test_monte_carlo_fallback_agrees(scale4, monkeypatch):
    # a sheared basis of the integer lattice spans the same lattice, but
    # defeats the rectangular fast path and exercises the sampling route
    sheared = sp.Lattice([[1, 1], [0, 1]])
    omega = BoxUnion((
        Box((0, 0), ("1/4", 1)), Box(("1/2", 0), ("3/4", 1)),
    ))
    assert sp.translation_membership(omega, sheared, ("1/2", 0))
    assert not sp.translation_membership(omega, sheared, ("1/4", 0))
    monkeypatch.setattr(pair, "MONTE_CARLO_SAMPLES", 20_000)
    report = sp.tiling_check(BoxUnion((Box((0, 0), (1, 1)),)), sheared, [(0, 0)], seed=3)
    assert report.method == "monte_carlo"
    assert report.fundamental_domain
    assert 0 < report.failure_probability < 1e-6


def test_one_sample_is_enough_to_run(monkeypatch):
    sheared = sp.Lattice([[1, 1], [0, 1]])
    monkeypatch.setattr(pair, "MONTE_CARLO_SAMPLES", 1)
    report = sp.tiling_check(BoxUnion((Box((0, 0), (1, 1)),)), sheared, [(0, 0)], seed=3)
    assert report.ok and report.failure_probability == 1.0 - MONTE_CARLO_DEFECT
