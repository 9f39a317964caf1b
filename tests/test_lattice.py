import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import specpair as sp
from specpair import cli, exact, lattice, measure
from specpair.lattice import is_expansive, lattice_rows_in_box, same_lattice


def test_dual_of_integers_is_integers():
    z2 = sp.Lattice([[1, 0], [0, 1]])
    assert sp.dual_lattice(z2).basis == z2.basis


def test_dual_scaling():
    two_z = sp.Lattice([[2]])
    assert sp.dual_lattice(two_z).basis == ((F(1, 2),),)


def test_dual_sheared_basis():
    lat = sp.Lattice([[2, 1], [0, 1]])
    assert sp.dual_lattice(lat).basis == ((F(1, 2), F(0)), (F(-1, 2), F(1)))


def test_dual_involution_spans_same_lattice():
    for rows in ([[2, 1], [0, 1]], [["1/3", "1/7"], ["2/5", "1"]], [[5]]):
        lat = sp.Lattice(rows)
        assert sp.dual_lattice(sp.dual_lattice(lat)).basis == lat.basis


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        sp.Lattice([[1, 2], [2, 4]])


def det_index(r) -> int:
    """The index |det R| of the sublattice an inclusion matrix R gives."""
    return abs(int(sp.Lattice(r).det))


def test_inclusion_matrix_examples():
    sub, sup = sp.Lattice([[1]]), sp.Lattice([["1/4"]])
    assert sp.inclusion_matrix(sub, sup) == ((4,),)
    assert det_index(sp.inclusion_matrix(sub, sup)) == abs(sub.det / sup.det) == 4
    assert sp.inclusion_matrix(sp.Lattice([[1]]), sp.Lattice([[1]])) == ((1,),)
    with pytest.raises(sp.NotASublattice):
        sp.inclusion_matrix(sp.Lattice([[1]]), sp.Lattice([["2/3"]]))


def test_same_lattice_examples():
    z2 = sp.Lattice([[1, 0], [0, 1]])
    assert same_lattice(z2, sp.Lattice([[1, 1], [0, 1]]))
    # one inside the other, but not the same
    half = sp.Lattice([["1/2", 0], [0, 1]])
    assert not same_lattice(z2, half) and not same_lattice(half, z2)
    # the same determinant, neither inside the other
    wide, tall = sp.Lattice([[2, 0], [0, 1]]), sp.Lattice([[1, 0], [0, 2]])
    assert not same_lattice(wide, tall) and not same_lattice(tall, wide)
    # one Hermite column, over two denominators
    assert not same_lattice(sp.Lattice([[1]]), sp.Lattice([["1/2"]]))


@pytest.mark.parametrize("basis, form", [
    ([[1, 1], [0, 1]], (((1, 0), (0, 1)), 1)),
    ([[1, 0], [5, 1]], (((1, 0), (0, 1)), 1)),
    ([[12, -16], [4, -4]], (((4, 0), (0, 4)), 1)),
    ([[2, 1], [0, 3]], (((1, 0), (3, 6)), 1)),
    ([["1/4", "1/4", "1/4"], [0, "1/4", "1/4"], [0, 0, "1/4"]],
     (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 4)),
    ([["1/2", 0], ["1/3", "-1/3"]], (((3, 0), (0, 2)), 6)),
    ([[-3]], (((3,),), 1)),
])
def test_hermite_form_examples(basis, form):
    # columns generate den * lattice, lower triangular with a positive
    # diagonal, each entry left of it in [0, its diagonal)
    assert sp.Lattice(basis).hermite == form


def test_inclusion_membership_consistency_random():
    rng = random.Random(7)
    sub = sp.Lattice([[1, 0], [0, 1]])
    sup = sp.Lattice([["1/4", 0], [0, "1/6"]])
    sp.inclusion_matrix(sub, sup)
    for _ in range(1000):
        z = (F(rng.randrange(-50, 51)), F(rng.randrange(-50, 51)))
        member = exact.mat_vec(sub.basis, z)
        assert sup.contains(member)
        assert exact.is_integral(sup.coordinates(member))


def test_coset_representatives_examples():
    reps = sp.coset_representatives(sp.Lattice([[1]]), sp.Lattice([["1/2"]]))
    assert reps == ((F(0),), (F(1, 2),))
    assert sp.coset_representatives(sp.Lattice([[1]]), sp.Lattice([[1]])) == ((F(0),),)


@pytest.mark.parametrize("digits, detail", [
    ([(0,), (1,)], "digits (Fraction(0, 1),) and (Fraction(1, 1),) collide mod K"),
    ([(0,)], "|digits| = 1 but [A : K] = 2"),
    ([(0,), ("1/3",)], "digit (Fraction(1, 3),) not in A"),
], ids=["collision", "wrong-count", "not-in-A"])
def test_digit_section_examples(scale4, digits, detail):
    system = dataclasses.replace(
        scale4.system, digits=digits, freq_digits=[(0,), (1,)][:len(digits)])
    check = sp.validate_simple_factor(system).check("digit_section")
    assert not check.passed
    assert check.detail == detail


def test_coset_representatives_2d_count():
    z2 = sp.Lattice([[1, 0], [0, 1]])
    reps = sp.coset_representatives(z2, sp.Lattice([["1/2", 0], [0, "1/2"]]))
    assert len(reps) == 4
    for a in reps:
        for b in reps:
            if a != b:
                assert not z2.contains(exact.vec_sub(a, b))


def test_expansion_map_examples(scale4, scale4x2):
    assert scale4.system.E == ((F(4),),)
    same = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[1]]), Gamma=sp.Lattice([[1]]),
        digits=[(0,)], freq_digits=[(0,)],
    )
    assert same.E == exact.identity(1)
    assert scale4x2.system.E == ((F(4), F(0)), (F(0), F(4)))


def test_expansion_carries_lattices(scale4x2):
    system = scale4x2.system
    for g in system.Gamma.generators:
        assert system.K.contains(exact.mat_vec(system.E, g))
    for g in system.K_dual.generators:
        assert system.Gamma_dual.contains(exact.mat_vec(system.E_transpose, g))


def test_frequency_map_examples(scale4, scale4x2):
    assert sp.frequency_map(scale4.system, 0, (F(0),)) == (F(0),)
    assert sp.frequency_map(scale4.system, 1, (F(1),)) == (F(5),)
    assert sp.frequency_map(scale4x2.system, (1, 1), (F(1), F(0))) == (F(5), F(1))
    with pytest.raises(sp.UnknownDigit):
        sp.frequency_map(scale4.system, 2, (F(0),))


def box_points(lat, radius):
    """lattice_rows_in_box's points as Fraction vectors."""
    return exact.from_common_denominator(*lattice_rows_in_box(lat, radius))


def test_lattice_points_in_box_sheared_basis():
    lat = sp.Lattice([[1, F(1, 2)], [0, F(1, 2)]])  # columns (1, 0), (1/2, 1/2)
    points = box_points(lat, 2)
    span = {exact.mat_vec(lat.basis, (F(a), F(b)))
            for a in range(-9, 10) for b in range(-9, 10)}
    assert sorted(points) == sorted(x for x in span if max(map(abs, x)) <= 2)
    half = F(1, 2)
    assert points[:5] == [(0, 0), (half, half), (half, -half), (-half, half),
                          (-half, -half)]  # nearest first, positive side first
    rows, den = lattice_rows_in_box(lat, 2)
    assert den == 2 and rows[:5] == [(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_box_radius_may_be_zero_or_rational():
    lat = sp.Lattice([["1/2", 0], ["1/3", "-1/3"]])
    assert box_points(lat, 0) == [(0, 0)]
    assert box_points(lat, F(1, 3)) == [(0, 0), (0, F(1, 3)), (0, F(-1, 3))]
    with pytest.raises(ValueError, match="negative"):
        lattice_rows_in_box(lat, F(-1, 3))


def test_box_budget_admits_every_box_the_cli_admits():
    # each CLI charge is the cube count times a factor of at least 1
    assert lattice.BOX_BUDGET >= cli.EVALUATION_BUDGET


def test_box_budget_is_charged_on_the_cube(monkeypatch):
    lat = sp.Lattice([[1, 0], [5, 1]])
    # b = 6 * 4 + 1 from the inverse's row sums 1 and 6; the lattice is Z^2
    assert lattice.box_candidates(lat, 4) == 51**2
    monkeypatch.setattr(lattice, "BOX_BUDGET", 51**2)
    assert len(lattice_rows_in_box(lat, 4)[0]) == 81
    monkeypatch.setattr(lattice, "BOX_BUDGET", 51**2 - 1)
    with pytest.raises(sp.BudgetExceeded, match=f"{51**2} box candidates exceed"):
        lattice_rows_in_box(lat, 4)


def dilated_scale4x2():
    """scale4x2 dilated by 1000: dual(K) = Z^2 / 1000."""
    return sp.SimpleFactor(
        K=sp.Lattice([[1000, 0], [0, 1000]]), A=sp.Lattice([[500, 0], [0, 500]]),
        Gamma=sp.Lattice([[250, 0], [0, 250]]),
        digits=[(0, 0), (500, 0), (0, 500), (500, 500)],
        freq_digits=[(0, 0), ("1/1000", 0), (0, "1/1000"), ("1/1000", "1/1000")])


def _one_atom_classify(system):
    one_atom = measure.DiscreteMeasure(depth=0, base=1, points=np.zeros((1, 2)))
    # 1 atom times 8003^2 * 14 evaluations passes the quadrature budget
    return sp.classify_measure(one_atom, system.K, system.Gamma, system.freq_digits)


@pytest.mark.parametrize("request_, candidates", [
    (sp.relation_residuals, 64003**2),
    (lambda system: sp.separation_witness(system, (0.0, 0.0), (0.5, 0.0)), 16003**2),
    (lambda system: sp.separation_witnesses(system, [[0.0, 0.0]], [[0.5, 0.0]]),
     16003**2),
    (_one_atom_classify, 8003**2),
], ids=["relation_residuals", "separation_witness", "separation_witnesses",
        "classify_one_atom"])
def test_library_boxes_are_charged_before_the_walk(monkeypatch, request_, candidates):
    system = dilated_scale4x2()
    assert sp.validate_simple_factor(system).ok

    def walked(*args, **kwargs):
        raise AssertionError("the box was walked before the budget check")

    monkeypatch.setattr(lattice, "_triangular_walk", walked)
    monkeypatch.setattr(sp.Lattice, "hermite", property(walked))
    with pytest.raises(sp.BudgetExceeded, match=f"^{candidates} box candidates exceed"):
        request_(system)


def test_push_and_pull_keep_the_point_kind(scale4x2):
    system = scale4x2.system
    pushed = system.push((F(1, 3), F(-2)))
    assert pushed == (F(4, 3), F(-8)) and all(type(c) is F for c in pushed)
    assert system.pull(pushed) == (F(1, 3), F(-2))
    pulled = system.pull((1.0, -3.0))
    assert pulled == (0.25, -0.75) and all(type(c) is float for c in pulled)
    assert system.push(pulled) == (1.0, -3.0)


def test_frequency_map_accepts_floats(scale4):
    out = sp.frequency_map(scale4.system, 1, (0.25,))
    assert out == (2.0,)


def test_dual_chain_reversal(scale4):
    system = scale4.system
    a_dual = sp.dual_lattice(system.A)
    for g in system.Gamma_dual.generators:
        assert a_dual.contains(g)
    for g in a_dual.generators:
        assert system.K_dual.contains(g)


def test_dual_inclusion_matrix_is_transpose(scale4x2):
    system = scale4x2.system
    forward = sp.inclusion_matrix(system.K, system.Gamma)
    backward = sp.inclusion_matrix(system.Gamma_dual, system.K_dual)
    assert backward == tuple(zip(*forward))
    assert det_index(backward) == det_index(forward)


def test_frequency_zero_map_lands_in_gamma_dual(scale4):
    system = scale4.system
    index = det_index(sp.inclusion_matrix(system.K, system.Gamma))
    dual_index = det_index(sp.inclusion_matrix(system.Gamma_dual, system.K_dual))
    assert dual_index == index
    for g in system.K_dual.generators:
        image = exact.mat_vec(system.E_transpose, g)
        assert system.Gamma_dual.contains(image)


def test_validate_scale4(scale4):
    report = scale4.report
    assert report.ok
    assert not report.degenerate
    assert report.check("separation").passed
    assert report.check("hadamard_unitarity").passed


@pytest.mark.parametrize("ell", [40001, 4 * 10**18 + 1])
def test_validate_pairing_exact_at_large_frequency_digits(scale4, ell):
    # b.l = ell / 2 is a half-integer, so e(b.l) = -1 exactly, however far
    # a float of ell / 2 is from one
    system = dataclasses.replace(scale4.system, freq_digits=[(0,), (ell,)])
    report = sp.validate_simple_factor(system)
    assert report.ok, report.failures()
    assert report.check("hadamard_unitarity").detail == ""


def test_validate_middlethird_variants():
    for ell in (1, 2, 3):
        system = sp.SimpleFactor(
            K=sp.Lattice([[1]]), A=sp.Lattice([["1/3"]]),
            Gamma=sp.Lattice([["1/3"]]),
            digits=[(0,), ("2/3",)], freq_digits=[(0,), (ell,)],
        )
        report = sp.validate_simple_factor(system)
        assert not report.ok
        assert not report.check("hadamard_unitarity").passed
        assert report.check("hadamard_unitarity").detail == (
            f"non-orthogonal digit pairs: [((Fraction(0, 1),), (Fraction({ell}, 1),))]")
        if ell == 3:
            assert not report.check("separation").passed


def test_validate_degenerate_flag():
    degenerate = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[1]]), Gamma=sp.Lattice([[1]]),
        digits=[(0,)], freq_digits=[(0,)],
    )
    report = sp.validate_simple_factor(degenerate)
    assert report.degenerate
    for name in ("chain", "digit_section", "frequency_digits", "cardinality",
                 "separation", "hadamard_unitarity"):
        assert report.check(name).passed
    assert not report.check("expansive").passed  # identity expansion
    # K = A inside a larger Gamma: the index [A : K] is 1, [Gamma : K] is 4
    expansive = dataclasses.replace(degenerate, Gamma=sp.Lattice([["1/4"]]))
    report = sp.validate_simple_factor(expansive)
    assert report.degenerate and report.ok


def test_unitarity_implies_separation_on_builtins(scale4, scale4x2, middlethird):
    for loaded in (scale4, scale4x2, middlethird):
        report = loaded.report
        if report.check("hadamard_unitarity").passed:
            assert report.check("separation").passed


def test_is_expansive():
    assert is_expansive(exact.as_matrix([[4]]))[0]
    assert not is_expansive(exact.identity(2))[0]
    assert not is_expansive(exact.as_matrix([[2, 0], [0, "1/2"]]))[0]
    # [[3, -5], [2, -3]] squares to -I: eigenvalues +-i, of modulus exactly 1,
    # which floats put just above 1
    rotation = exact.as_matrix([[3, -5, 0], [2, -3, 0], [0, 0, 2]])
    assert is_expansive(rotation)[0] is False
    assert is_expansive(exact.as_matrix([[0, 2], [1, 0]]))[0]
    assert is_expansive(exact.as_matrix([[1, 1], [-1, 1]]))[0]  # modulus sqrt 2
    assert not is_expansive(exact.as_matrix([[2, 0], [0, 0]]))[0]


def test_simple_factor_shape_errors():
    with pytest.raises(ValueError):
        sp.SimpleFactor(
            K=sp.Lattice([[1]]), A=sp.Lattice([["1/2"]]),
            Gamma=sp.Lattice([["1/4"]]),
            digits=[(0,), ("1/2",)], freq_digits=[(0,)],
        )
    with pytest.raises(ValueError):
        sp.SimpleFactor(
            K=sp.Lattice([[1]]), A=sp.Lattice([["1/2", 0], [0, "1/2"]]),
            Gamma=sp.Lattice([["1/4"]]),
            digits=[(0,)], freq_digits=[(0,)],
        )


def test_equal_systems_hash_equal_and_share_cache_entries():
    a = sp.parse_spec("scale4x2").system
    b = sp.parse_spec("scale4x2").system
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(sp.Lattice(a.K.basis)) == hash(a.K)
    measure._dual_candidates.cache_clear()
    first = measure._dual_candidates(a, 1)
    assert measure._dual_candidates(b, 1) is first
    assert measure._dual_candidates.cache_info().hits == 1
    # the name takes part in equality, not in the hash
    renamed = dataclasses.replace(a, name="renamed")
    assert renamed != a and hash(renamed) == hash(a)
    assert measure._dual_candidates(renamed, 1) is not first
