"""Property tests over randomized inputs."""

import cmath
import dataclasses
import math
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import specpair as sp
from specpair import exact
from specpair.boxes import Box, as_boxes, cut, numerators
from specpair.cyclotomic import exp_sum_is_zero
from specpair.operators import ExponentialVector, apply_word

small_fractions = st.fractions(
    min_value=F(-5), max_value=F(5), max_denominator=8
)
nonzero_fractions = small_fractions.filter(bool)
DATA = Path(__file__).with_name("data")
PAIRING_SYSTEMS = [
    sp.parse_spec(source).system for source in
    ("scale4", "scale4x2", str(DATA / "n3.json"), str(DATA / "scale4x2_sheared.json"))
]


def scaled_pair_system(c: F) -> sp.SimpleFactor:
    """The two-digit scale-4 datum rescaled by c; valid for every c != 0."""
    return sp.SimpleFactor(
        K=sp.Lattice([[c]]),
        A=sp.Lattice([[c / 2]]),
        Gamma=sp.Lattice([[c / 4]]),
        digits=[(0,), (c / 2,)],
        freq_digits=[(0,), (1 / c,)],
        name="scaled",
    )


@given(nonzero_fractions)
def test_scaled_family_validates(c):
    report = sp.validate_simple_factor(scaled_pair_system(c))
    assert report.ok
    assert not report.degenerate


@given(nonzero_fractions)
def test_scaled_family_round_trips(c):
    system = scaled_pair_system(c)
    again = sp.parse_document(sp.document_from(system))
    assert again.system == system


@given(st.lists(small_fractions, min_size=4, max_size=4))
def test_dual_involution_random(entries):
    matrix = exact.as_matrix([entries[:2], entries[2:]])
    assume(exact._gauss_jordan(matrix) is not None)
    lat = sp.Lattice(matrix)
    assert sp.dual_lattice(sp.dual_lattice(lat)).basis == lat.basis


@given(st.lists(small_fractions, min_size=4, max_size=4),
       st.lists(st.integers(-20, 20), min_size=2, max_size=2))
def test_dual_pairing_is_integral(entries, coeffs):
    matrix = exact.as_matrix([entries[:2], entries[2:]])
    assume(exact._gauss_jordan(matrix) is not None)
    lat = sp.Lattice(matrix)
    dual = sp.dual_lattice(lat)
    point = exact.mat_vec(lat.basis, tuple(F(c) for c in coeffs))
    for generator in dual.generators:
        assert exact.dot(generator, point).denominator == 1


@given(st.floats(-50, 50, allow_nan=False))
def test_mask_bounded_and_hermitian(t):
    system = sp.parse_spec("scale4").system
    value = sp.mask(system, t)
    assert abs(value) <= 1 + 1e-12
    assert abs(sp.mask(system, -t) - value.conjugate()) < 1e-14


@given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
def test_mask_2d_bounded(t0, t1):
    system = sp.parse_spec("scale4x2").system
    assert abs(sp.mask(system, (t0, t1))) <= 1 + 1e-12


@given(st.floats(-30, 30, allow_nan=False))
@settings(max_examples=30)
def test_mu_hat_bounded_and_hermitian(t):
    system = sp.parse_spec("scale4").system
    settings_ = sp.TransformSettings(product_depth=25)
    value = sp.mu_hat_value(system, t, settings_)
    assert abs(value) <= 1 + 1e-12
    assert abs(sp.mu_hat_value(system, -t, settings_) - value.conjugate()) < 1e-14


@given(st.lists(st.integers(0, 1), min_size=0, max_size=8))
def test_word_frequency_matches_folding(word):
    system = sp.parse_spec("scale4").system
    letters = [system.freq_digits[w] for w in word]
    folded = apply_word(system, letters, ExponentialVector.basis((F(0),)))
    assert folded.freq == sp.word_frequency(system, letters)
    assert folded.coeff == 1.0


@given(st.lists(st.tuples(small_fractions, small_fractions),
                min_size=1, max_size=5))
def test_forced_cancellation_is_detected(terms):
    mirrored = terms + [(-c, q) for c, q in terms]
    assert exp_sum_is_zero(mirrored) is True


@given(st.lists(st.tuples(nonzero_fractions, small_fractions),
                min_size=1, max_size=4))
def test_declared_zero_agrees_with_numerics(terms):
    verdict = exp_sum_is_zero(terms)
    numeric = sum(float(c) * cmath.exp(2j * math.pi * float(q)) for c, q in terms)
    if verdict:
        assert abs(numeric) < 1e-9
    else:
        assert abs(numeric) > 1e-12


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2**61 - 2)),
                max_size=6))
def test_verdict_is_a_bool_at_a_mersenne_prime_conductor(pairs):
    # fewer than p terms at the prime p = 2^61 - 1 vanish only when every
    # residue's weight cancels
    verdict = exp_sum_is_zero([(F(c), F(k, 2**61 - 1)) for c, k in pairs])
    weights: dict[int, int] = {}
    for c, k in pairs:
        weights[k] = weights.get(k, 0) + c
    assert type(verdict) is bool
    assert verdict is not any(weights.values())


@given(st.lists(small_fractions, min_size=4, max_size=4).map(sorted))
def test_box_subtraction_measure_identity(edges):
    a_lo, b_lo, b_hi, a_hi = edges
    assume(a_lo < a_hi and b_lo < b_hi)
    outer = Box((a_lo,), (a_hi,))
    cutter = Box((b_lo,), (b_hi,))
    (piece, cutter_piece), _, den = numerators([outer, cutter])
    pieces = as_boxes(cut(piece, cutter_piece), den)
    overlap_measure = max(F(0), min(a_hi, b_hi) - max(a_lo, b_lo))
    assert sum((p.measure for p in pieces), F(0)) == outer.measure - overlap_measure


@given(st.fractions(min_value=F(-8), max_value=F(8), max_denominator=12))
def test_indicator_transform_hermitian_rational(t):
    omega = sp.parse_spec("scale4").omega
    left = sp.indicator_transform(omega, -t)
    right = sp.indicator_transform(omega, t).conjugate()
    assert abs(left - right) < 1e-14


@given(st.integers(2, 9))
def test_coset_count_matches_index(m):
    reps = sp.coset_representatives(
        sp.Lattice([[1]]), sp.Lattice([[F(1, m)]])
    )
    assert len(reps) == m
    assert len({(r[0] * m) % m for r in reps}) == m


def assert_character_argument(report):
    """Each l in the dual of K is a character b -> e(b.l) of A/K.  With B a
    section of A/K and the l distinct characters, they are orthogonal, so
    the digit matrix is unitary; and orthogonal columns are never equal."""
    passed = {c.name: c.passed for c in report.checks}
    assert passed["chain"]
    if passed["digit_section"] and passed["frequency_digits"] and passed["separation"]:
        assert passed["hadamard_unitarity"]
    if passed["hadamard_unitarity"]:
        assert passed["separation"]


@given(st.sampled_from(PAIRING_SYSTEMS), st.data())
def test_pairing_check_under_large_dual_shifts(system, data):
    big = st.integers(-10**30, 10**30)

    def shift(ell):
        for g in system.Gamma_dual.generators:
            ell = exact.vec_add(ell, tuple(data.draw(big) * c for c in g))
        return ell

    # shifting by the dual of Gamma keeps every class, so the datum stays valid
    shifted = [shift(ell) if any(ell) else ell for ell in system.freq_digits]
    report = sp.validate_simple_factor(dataclasses.replace(system, freq_digits=shifted))
    assert report.ok, report.failures()
    assert_character_argument(report)

    i = data.draw(st.sampled_from([i for i, ell in enumerate(shifted) if any(ell)]))
    if data.draw(st.booleans()):
        # a generator of the dual of K over a prime is not in it
        g = data.draw(st.sampled_from(system.K_dual.generators))
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        moved = exact.vec_add(shifted[i], tuple(c / p for c in g))
        failing = {"frequency_digits"}
    else:
        j = data.draw(st.sampled_from([j for j in range(len(shifted)) if j != i]))
        moved = shift(shifted[j])
        failing = {"frequency_digits", "separation", "hadamard_unitarity"}
    perturbed = shifted[:i] + [moved] + shifted[i + 1:]
    report = sp.validate_simple_factor(dataclasses.replace(system, freq_digits=perturbed))
    assert failing <= {c.name for c in report.failures()}
    assert_character_argument(report)
