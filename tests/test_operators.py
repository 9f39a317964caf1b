import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

import specpair as sp
from specpair import cyclotomic
from specpair.operators import ExponentialVector, apply_word, apply_word_adjoint
from specpair.transform import TransformSettings

DATA = Path(__file__).with_name("data")
E0 = ExponentialVector.basis((F(0),))


def test_generator_examples(scale4):
    system = scale4.system
    assert sp.apply_generator(system, 0, E0) == E0
    assert sp.apply_generator(system, 1, E0).freq == (F(1),)
    e1 = ExponentialVector.basis((F(1),))
    assert sp.apply_generator(system, 1, e1).freq == (F(5),)
    with pytest.raises(sp.UnknownDigit):
        sp.apply_generator(system, 3, E0)


def test_adjoint_examples(scale4):
    system = scale4.system
    assert sp.apply_adjoint(system, 0, E0) == E0
    killed = sp.apply_adjoint(system, 1, E0)
    assert killed.is_zero
    e1 = ExponentialVector.basis((F(1),))
    assert sp.apply_adjoint(system, 1, e1) == E0


def test_adjoint_generator_identities(scale4):
    system = scale4.system
    for freq in ((F(0),), (F(1),), (F(-3),), (F(8),)):
        v = ExponentialVector.basis(freq)
        for ell in (0, 1):
            lifted = sp.apply_generator(system, ell, v)
            assert sp.apply_adjoint(system, ell, lifted) == v  # T* T = I
            other = 1 - ell
            assert sp.apply_adjoint(system, other, lifted).is_zero  # ranges orthogonal


def test_zero_vector_is_absorbing(scale4):
    zero = ExponentialVector(coeff=0, freq=(F(7),))
    assert zero.freq == (F(0),)  # canonical form
    assert sp.apply_generator(scale4.system, 1, zero).is_zero
    assert sp.apply_adjoint(scale4.system, 1, zero).is_zero


def test_word_frequency_examples(scale4):
    system = scale4.system
    assert sp.word_frequency(system, ()) == (F(0),)
    assert sp.word_frequency(system, ((1,), (1,))) == (F(5),)
    assert sp.word_frequency(system, ((1,), (0,), (1,))) == (F(17),)


def test_word_frequency_matches_folded_generators(scale4x2):
    system = scale4x2.system
    for letters in itertools.product(system.freq_digits, repeat=3):
        folded = apply_word(system, letters, ExponentialVector.basis((F(0), F(0))))
        assert folded.freq == sp.word_frequency(system, letters)


def test_word_validation(scale4):
    with pytest.raises(sp.UnknownDigit):
        sp.word_frequency(scale4.system, ((2,),))
    # the adjoint of 1 kills the vacuum; the letter after it is still checked
    with pytest.raises(sp.UnknownDigit):
        apply_word_adjoint(scale4.system, (1, 2), E0)


def test_state_values(scale4):
    system = scale4.system
    assert sp.state_eval(system, (), ()) == 1.0
    assert abs(sp.state_eval(system, (0,), ()) - 1) < 1e-12
    assert abs(sp.state_eval(system, (0,), (0,)) - 1) < 1e-12
    assert abs(sp.state_eval(system, (1,), ())) < 1e-12


def test_state_positivity_short_words(scale4):
    system = scale4.system
    for length in range(1, 4):
        for alpha in itertools.product((0, 1), repeat=length):
            value = sp.state_eval(system, alpha, alpha)
            assert abs(value.imag) < 1e-12
            assert -1e-12 <= value.real <= 1 + 1e-9


def test_adjoint_word_annihilates_vacuum_unless_zeros(scale4):
    system = scale4.system
    v = apply_word_adjoint(system, (0, 0, 0), E0)
    assert v == E0
    assert apply_word_adjoint(system, (0, 1), E0).is_zero


def test_relation_residuals_scale4(scale4):
    report = sp.relation_residuals(scale4.system, box_radius=32, product_depth=40)
    assert report.isometry < 1e-10
    assert report.range_orthogonality == 0.0
    assert report.completeness < 1e-12
    assert not report.degenerate
    assert report.failures() == ()
    assert report.sample_count == 65


def test_relation_residuals_middlethird(middlethird):
    report = sp.relation_residuals(middlethird.system, box_radius=8)
    assert report.completeness > 0.4
    assert report.failures()


def test_relation_residuals_degenerate():
    system = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[1]]), Gamma=sp.Lattice([["1/4"]]),
        digits=[(0,)], freq_digits=[(0,)],
    )
    report = sp.relation_residuals(system, box_radius=8)
    assert report.degenerate
    assert report.isometry == 0.0
    assert report.range_orthogonality == 0.0
    assert report.completeness == 0.0


@pytest.mark.parametrize("source", [
    *sp.builtin_names(),
    *sorted(str(path) for path in DATA.glob("*.json")),
    # K = A, the paper's open case, with Gamma = Z/2 and B = L = {0}
    {"name": "k_equals_a", "dimension": 1, "K_basis": [["1"]], "A_basis": [["1"]],
     "Gamma_basis": [["1/2"]], "digits_B": [["0"]], "digits_L": [["0"]]},
], ids=lambda source: source["name"] if isinstance(source, dict) else Path(source).stem)
def test_validation_and_relations_flag_one_degenerate_case(source):
    loaded = sp.parse_spec(source, require_valid=False)
    report = sp.relation_residuals(loaded.system, box_radius=1)
    assert report.degenerate is loaded.report.degenerate
    assert report.degenerate is isinstance(source, dict)


def test_relation_residuals_rejects_an_empty_sample_box(scale4):
    with pytest.raises(ValueError, match="negative"):
        sp.relation_residuals(scale4.system, box_radius=-1)


def test_gram_of_short_words_is_identity(scale4):
    system = scale4.system
    settings = TransformSettings(product_depth=30)
    enum = sp.enumerate_spectrum(system, 4)
    for i, xi in enumerate(enum.elements):
        for j, xj in enumerate(enum.elements):
            value = sp.mu_hat_value(
                system, tuple(a - b for a, b in zip(xj, xi)), settings
            )
            assert abs(value - (1.0 if i == j else 0.0)) < 1e-8


def test_classify_self_consistent(scale4):
    system = scale4.system
    report = sp.classify_measure(system, system.K, system.Gamma, system.freq_digits)
    assert report.consistent
    assert report.completeness is not None
    assert report.failures() == ()


def test_classify_middlethird_inconsistent(middlethird):
    system = middlethird.system
    report = sp.classify_measure(system, system.K, system.Gamma, system.freq_digits)
    assert not report.consistent
    assert report.completeness > 0.4
    assert report.range_orthogonality > 0.1


def test_classify_mismatched_expansion(scale4):
    system = scale4.system
    measure = sp.refine_measure(sp.build_ifs(system), 12)
    gamma5 = sp.Lattice([["1/5"]])
    report = sp.classify_measure(measure, system.K, gamma5, [(0,), (1,)])
    assert not report.consistent
    assert report.isometry > 0.1
    assert report.completeness is None  # no digit set supplied


def test_classify_external_measure_with_digits(scale4):
    system = scale4.system
    measure = sp.refine_measure(sp.build_ifs(system), 12)
    report = sp.classify_measure(
        measure, system.K, system.Gamma, system.freq_digits, digits=system.digits
    )
    assert report.consistent
    assert report.completeness is not None


def test_classify_refuses_past_its_budget_before_refining(scale4x2, monkeypatch):
    def no_refinement(*args, **kwargs):
        raise AssertionError("refined before the budget check")

    monkeypatch.setattr(sp.transform, "refine_measure", no_refinement)
    sp.transform._cached_measure.cache_clear()
    system = scale4x2.system
    # 4^12 atoms times 121 candidates times 2 + 4 * 3 evaluations
    with pytest.raises(sp.BudgetExceeded, match="16777216 atoms times 1694"):
        sp.classify_measure(system, system.K, system.Gamma, system.freq_digits)


def test_classify_budget_charges_a_measure_by_its_atoms(scale4, monkeypatch):
    system = scale4.system
    measure = sp.refine_measure(sp.build_ifs(system), 6)
    args = (measure, system.K, system.Gamma, system.freq_digits)
    # 2^6 atoms times 11 candidates times 2 + 2 * 1 evaluations
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 44)
    assert isinstance(sp.classify_measure(*args), sp.ConsistencyReport)
    monkeypatch.setattr(sp.measure, "QUADRATURE_BUDGET", 64 * 44 - 1)
    with pytest.raises(sp.BudgetExceeded):
        sp.classify_measure(*args)


def test_classify_charges_before_it_enumerates(monkeypatch):
    # scale4x2 dilated by 1000: dual(K) = Z^2 / 1000, so its radius-4 box has
    # 8003^2 candidates, refused before lattice_rows_in_box is entered
    system = sp.SimpleFactor(
        K=sp.Lattice([[1000, 0], [0, 1000]]), A=sp.Lattice([[500, 0], [0, 500]]),
        Gamma=sp.Lattice([[250, 0], [0, 250]]),
        digits=[(0, 0), (500, 0), (0, 500), (500, 500)],
        freq_digits=[(0, 0), ("1/1000", 0), (0, "1/1000"), ("1/1000", "1/1000")])
    assert sp.validate_simple_factor(system).ok

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(sp.operators, "lattice_rows_in_box", no_enumeration)
    with pytest.raises(sp.BudgetExceeded, match=f"16777216 atoms times {8003**2 * 14}"):
        sp.classify_measure(system, system.K, system.Gamma, system.freq_digits)


@pytest.mark.parametrize("measured, lattices", [("scale4", "scale4x2"),
                                                ("scale4x2", "scale4")])
def test_classify_refuses_a_measure_of_another_dimension(measured, lattices, request,
                                                         monkeypatch):
    # reshaping the rows to the measure's dimension would fold 2-D samples
    # into 1-D ones (or pair 1-D ones up) without a word
    def refused(*args, **kwargs):
        raise AssertionError("charged or enumerated before the dimension check")

    monkeypatch.setattr(sp.operators, "check_quadrature_budget", refused)
    monkeypatch.setattr(sp.operators, "lattice_rows_in_box", refused)
    measure = sp.refine_measure(sp.build_ifs(request.getfixturevalue(measured).system), 4)
    system = request.getfixturevalue(lattices).system
    with pytest.raises(ValueError, match="does not match the lattices' dimension"):
        sp.classify_measure(measure, system.K, system.Gamma, system.freq_digits)


def test_classify_requires_sublattice(scale4):
    system = scale4.system
    with pytest.raises(sp.NotASublattice):
        sp.classify_measure(system, system.K, sp.Lattice([["2/3"]]),
                            system.freq_digits)


def test_relation_residuals_keep_the_zero_memo_bounded(scale4x2):
    memo = cyclotomic.roots_sum_is_zero
    memo.cache_clear()
    sp.relation_residuals(scale4x2.system, box_radius=16)
    info = memo.cache_info()
    assert info.currsize <= info.maxsize == 4096
    assert 0 < info.misses < info.hits
