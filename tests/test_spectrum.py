import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import specpair as sp
from specpair import exact, spectrum, transform
from specpair.spectrum import AllOrthogonal, Witness

DATA = Path(__file__).with_name("data")


def oracle_enumeration(system, depth):
    """The Fraction enumeration the integer rows replaced, verbatim: each
    level's digit sums built with exact.vec_add."""
    elements = [exact.zero_vector(system.dim)]
    contributions = system.freq_digits
    for level in range(1, depth + 1):
        if level > 1:
            contributions = [system.push(c) for c in contributions]
        elements = [
            exact.vec_add(base, c) for base in elements for c in contributions
        ]
    return tuple(elements)


@pytest.mark.parametrize("name, depth", [
    ("scale4", 9), ("scale4x2", 5), ("middlethird", 7),
    ("n3", 6), ("tri2", 6), ("shear3", 3), ("scale4x2_sheared", 5),
])
def test_enumeration_matches_fraction_oracle(name, depth):
    source = name if name in sp.specfile.BUILTIN_DOCUMENTS else DATA / f"{name}.json"
    system = sp.parse_spec(source, require_valid=False).system
    want = oracle_enumeration(system, depth)
    for d in range(depth + 1):
        enum = sp.enumerate_spectrum(system, d)
        assert enum.elements == want[::system.N ** (depth - d)]
        assert all(type(c) is F for xi in enum.elements for c in xi)
        assert enum.floats.tolist() == [list(exact.to_floats(xi)) for xi in enum.elements]


def large_e_system(e, ell):
    """K = Z and Gamma = Z / e, so E^T = e: the depth-2 frequencies are
    0, e ell, ell and (e + 1) ell, in that order."""
    return sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([["1/2"]]), Gamma=sp.Lattice([[F(1, e)]]),
        digits=[(0,), ("1/2",)], freq_digits=[(0,), (ell,)])


@pytest.mark.parametrize("e, ell", [
    (2**53 - 2, F(1, 3)),   # numerators up to 2**53 - 1: exact as floats
    (2**53, F(1, 3)),       # 2**53 + 1: an int64 -> float64 cast rounds
    (2**63 - 2, F(1)),      # the largest sum is 2**63 - 1, the int64 maximum
    (2**63 - 1, F(1)),      # the largest sum is 2**63
    (2**63 - 1, F(1, 3)),
])
def test_enumeration_bounds_keep_every_value(e, ell):
    system = large_e_system(e, ell)
    enum = sp.enumerate_spectrum(system, 2)
    want = oracle_enumeration(system, 2)
    assert enum.elements == want == ((0,), (e * ell,), (ell,), ((e + 1) * ell,))
    assert enum.floats.tolist() == [[float(xi[0])] for xi in want]
    if e == 2**53:
        top = (e + 1) * ell
        assert float(np.int64(top * 3)) / 3 != float(top)
    for s in (F(1, 5), F(2, 7) + e):
        terms = [abs(transform._exact_product(system, exact.vec_sub((s,), xi), 30)) ** 2
                 for xi in want]
        rows = sp.completeness_table(system, s, [0, 1, 2])
        assert [r.sigma for r in rows] == [terms[0], math.fsum(terms[::2]), math.fsum(terms)]
    floats = sp.completeness_table(system, 0.3, [2])
    assert floats[0].sigma == math.fsum(
        abs(v) ** 2 for v in sp.mu_hat_values(system, [[0.3 - float(xi[0])] for xi in want]))


def test_enumeration_examples(scale4, scale4x2):
    enum = sp.enumerate_spectrum(scale4.system, 2)
    assert {xi[0] for xi in enum.elements} == {0, 1, 4, 5}
    assert sp.enumerate_spectrum(scale4.system, 0).elements == ((F(0),),)
    enum2 = sp.enumerate_spectrum(scale4x2.system, 1)
    assert set(enum2.elements) == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
    }


def test_enumeration_nesting(scale4):
    deep = sp.enumerate_spectrum(scale4.system, 6)
    shallow = sp.enumerate_spectrum(scale4.system, 4)
    indices = deep.depth_slice(4)
    assert [deep.elements[i] for i in indices] == list(shallow.elements)


def test_enumeration_words_match_frequencies(scale4):
    enum = sp.enumerate_spectrum(scale4.system, 5)
    system = scale4.system
    for index in range(len(enum)):
        letters = [system.freq_digits[w] for w in enum.word(index)]
        assert sp.word_frequency(system, letters) == enum.elements[index]


def test_enumeration_collision_detected():
    # frequency digits {0,1,2,3} over expansion 2 collide: 2 = 0 + 2*1
    broken = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([["1/4"]]), Gamma=sp.Lattice([["1/2"]]),
        digits=[(0,), ("1/4",), ("1/2",), ("3/4",)],
        freq_digits=[(0,), (1,), (2,), (3,)],
    )
    with pytest.raises(sp.CollisionDetected):
        sp.enumerate_spectrum(broken, 2)


@pytest.mark.parametrize("freq_digits, xi", [
    ([(0,), (1,), (2,), (3,)], "(Fraction(2, 1),)"),
    ([("1/2",), ("3/2",), ("5/2",), ("7/2",)], "(Fraction(7, 2),)"),
])
def test_collision_message_prints_the_fraction_vector(freq_digits, xi):
    # 1/2 + 2 * 3/2 = 5/2 + 2 * 1/2: the message names the frequency, not its row
    broken = sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([["1/4"]]), Gamma=sp.Lattice([["1/2"]]),
        digits=[(0,), ("1/4",), ("1/2",), ("3/4",)], freq_digits=freq_digits,
    )
    with pytest.raises(sp.CollisionDetected) as caught:
        sp.enumerate_spectrum(broken, 2)
    assert str(caught.value) == f"words (0, 1) and (2, 0) both map to {xi}"


def test_enumeration_budget(scale4):
    with pytest.raises(sp.BudgetExceeded):
        sp.enumerate_spectrum(scale4.system, 60)


class Built(Exception):
    """Raised in place of the first frequency: the budget let the request through."""


def test_enumeration_budget_is_checked_before_building(scale4, scale4x2, monkeypatch):
    def build(system, s):
        raise Built

    # past the first level every frequency sums pushed frequency digits
    monkeypatch.setattr(sp.SimpleFactor, "push", build)
    assert spectrum.SPECTRUM_BUDGET == 2**18
    for system, at_budget in ((scale4.system, 18), (scale4x2.system, 9)):
        with pytest.raises(Built):
            sp.enumerate_spectrum(system, at_budget)
        with pytest.raises(sp.BudgetExceeded):
            sp.enumerate_spectrum(system, at_budget + 1)
    monkeypatch.setattr(spectrum, "SPECTRUM_BUDGET", 8)
    with pytest.raises(Built):
        sp.enumerate_spectrum(scale4.system, 3)
    with pytest.raises(sp.BudgetExceeded):
        sp.enumerate_spectrum(scale4.system, 4)
    with pytest.raises(sp.BudgetExceeded):
        sp.completeness_table(scale4.system, 2, [4])


@pytest.mark.parametrize("name, depth, s", [
    ("scale4", 14, ("1/3",)),
    ("scale4x2", 7, ("1/3", "1/5")),
    (Path(__file__).with_name("data") / "n3.json", 8, ("1/7",)),
], ids=["scale4", "scale4x2", "n3"])
def test_maximality_probe_scans_nearest_first(monkeypatch, name, depth, s):
    # the probe's order is the one a per-row norm key gave: by float norm,
    # ties in enumeration order; each row is s - xi over the row denominator
    system = sp.parse_spec(name).system
    seen = []

    def record(system_, num, den, depth_):
        seen.append(tuple(F(n, den) for n in num))
        return 0j

    monkeypatch.setattr(spectrum, "_exact_row", record)
    assert isinstance(sp.maximality_probe(system, s, depth), AllOrthogonal)
    enum = sp.enumerate_spectrum(system, depth)
    order = sorted(range(len(enum)),
                   key=lambda i: (float(np.linalg.norm(enum.floats[i])), i))
    point = exact.as_vector(s)
    assert seen == [exact.vec_sub(point, enum.elements[i]) for i in order]


def test_completeness_exactly_one_on_spectrum_point(scale4):
    # every term but the matching one is an exact zero, so the sum is 1.0
    rows = sp.completeness_table(scale4.system, 1, [6], product_depth=30)
    assert rows[0].sigma == 1.0


def test_completeness_monotone_and_bounded(scale4):
    rows = sp.completeness_table(scale4.system, 2, range(0, 9), product_depth=30)
    assert all(row.increment >= 0 for row in rows)
    assert all(row.sigma <= 1 + 1e-9 for row in rows)
    assert rows[-1].sigma > 0.999


def test_completeness_accepts_rational_strings(scale4):
    rows = sp.completeness_table(scale4.system, ("1/2",), [3])
    assert rows == sp.completeness_table(scale4.system, (F(1, 2),), [3])


def test_maximality_probe_witnesses(scale4):
    system = scale4.system
    probe = sp.maximality_probe(system, 2, 6)
    assert isinstance(probe, Witness)
    assert probe.xi == (F(0),)
    assert abs(probe.value) > 1e-6

    probe3 = sp.maximality_probe(system, 3, 6)
    assert isinstance(probe3, Witness)
    assert probe3.xi == (F(1),)


def test_maximality_probe_member_raises(scale4, scale4x2):
    for s in (1, 5, 1.0, 5.0):
        with pytest.raises(sp.MemberOfSpectrum):
            sp.maximality_probe(scale4.system, s, 6)
    xi = sp.enumerate_spectrum(scale4x2.system, 3).elements[-1]
    for s in (xi, exact.to_floats(xi)):
        with pytest.raises(sp.MemberOfSpectrum):
            sp.maximality_probe(scale4x2.system, s, 3)


def test_maximality_probe_inconclusive_at_threshold_one(scale4, monkeypatch):
    # with an absurd threshold nothing can witness, exercising the
    # inconclusive (not disproven) verdict
    monkeypatch.setattr(spectrum, "WITNESS_THRESHOLD", 2.0)
    result = sp.maximality_probe(scale4.system, 2, 3)
    assert isinstance(result, AllOrthogonal)
    assert result.enum_depth == 3


def test_depth12_completeness_matches_quadrature_oracle(scale4):
    # cross-backend: the depth-4 partial sum from the product formula
    # agrees with the quadrature value within the backend tolerance
    system = scale4.system
    prod = sp.completeness_table(system, 2, [4], product_depth=30)[0].sigma
    measure = sp.refine_measure(sp.build_ifs(system), 12)
    quad = math.fsum(
        abs(sp.integrate_exponential(measure, (2 - float(xi[0]),))) ** 2
        for xi in sp.enumerate_spectrum(system, 4).elements
    )
    assert abs(prod - quad) < 1e-6
