"""The integer-exact product and the batched separation, held to references.

The references are the Fraction product loop, the exact branch of the
mask and ``exp_sum_is_zero`` as they stood before the exact path moved to
Python integers, kept here verbatim (renamed ``oracle_*``); the batched
``separation_witnesses`` is held to the scalar ``separation_witness``
pair by pair.  Equality is bit for bit: ``==`` and ``repr``, so a
changed sign of zero shows too.

The batched tiling and membership sampler is held to the one-point-at-a-
time loops it replaced (``OracleCover``, ``oracle_*``): the same seed must
give the same bad count, detail, verdict and failure bound.  The Gram
matrix is held to one ``indicator_transform`` per entry.
"""

import cmath
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specpair as sp
from specpair import exact, measure, pair
from specpair.boxes import Box, BoxUnion
from specpair.cyclotomic import DEFAULT_CONDUCTOR_LIMIT, cyclotomic_polynomial, exp_sum_is_zero
from specpair.transform import MASK_CONDUCTOR_LIMIT, TransformSettings, mask, mu_hat_value

SYSTEMS = {
    "scale4": sp.parse_spec("scale4").system,
    "scale4x2": sp.parse_spec("scale4x2").system,
    "n3": sp.parse_spec(Path(__file__).with_name("data") / "n3.json").system,
}
# dyadic, non-dyadic below the mask conductor limit, and past it
DENOMINATORS = (1, 2, 4, 8, 64, 1024, 3, 5, 6, 7, 9, 15, 21, 97, 131, 625, 1001)
rationals = st.one_of(
    st.builds(Fraction, st.integers(-400, 400), st.sampled_from(DENOMINATORS)),
    # numerators and denominators past 2^53, where int-to-float conversion rounds
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(10**17, 10**19)),
)


def oracle_exp_sum_is_zero(terms, conductor_limit=DEFAULT_CONDUCTOR_LIMIT):
    combined: dict[Fraction, Fraction] = {}
    for coeff, phase in terms:
        if not coeff:
            continue
        q = phase - math.floor(phase)
        combined[q] = combined.get(q, Fraction(0)) + coeff
    combined = {q: c for q, c in combined.items() if c}
    if not combined:
        return True
    if len(combined) == 1:
        return False
    if len(combined) == 2:
        # c0 z^q0 + c1 z^q1 = 0 forces z^{q1-q0} = -c0/c1, a *rational*
        # root of unity, hence -1: the phases differ by exactly 1/2 and
        # the coefficients agree.
        (q0, c0), (q1, c1) = sorted(combined.items())
        return q1 - q0 == Fraction(1, 2) and c0 == c1
    n = math.lcm(*(q.denominator for q in combined))
    if n > conductor_limit:
        return None
    coeffs = [Fraction(0)] * n
    for q, coeff in combined.items():
        coeffs[int(q * n) % n] += coeff
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = coeffs
    for i in range(n - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j in range(deg + 1):
                rem[base + j] -= c * phi[j]
    return not any(rem[:deg])


def oracle_mask(system, freq):
    """The exact branch of the mask on a point of Fractions."""
    n = system.N
    phases = [exact.dot(b, freq) for b in system.digits]
    if all(p.denominator == 1 for p in phases):
        return complex(1.0)
    terms = [(Fraction(1, n), p) for p in phases]
    if oracle_exp_sum_is_zero(terms, MASK_CONDUCTOR_LIMIT) is True:
        return 0j
    return sum(
        cmath.exp(2j * math.pi * float(p)) for p in phases
    ) / n


def oracle_mu_hat_value(system, t, product_depth):
    freq, is_exact = exact.as_point(t, system.dim)
    assert is_exact
    value = complex(1.0)
    for _ in range(product_depth):
        factor = oracle_mask(system, freq)
        if factor == 0:
            return 0j
        value *= factor
        freq = system.pull(freq)
    return value


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_mu_hat_value_matches_fraction_oracle(name, data):
    system = SYSTEMS[name]
    t = data.draw(st.tuples(*[rationals] * system.dim))
    depth = data.draw(st.sampled_from((1, 3, 30, 60)))
    got = mu_hat_value(system, t, TransformSettings(product_depth=depth))
    assert_same(got, oracle_mu_hat_value(system, t, depth))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_mask_matches_fraction_oracle(name, data):
    system = SYSTEMS[name]
    t = data.draw(st.tuples(*[rationals] * system.dim))
    assert_same(mask(system, t), oracle_mask(system, t))


@pytest.mark.parametrize("name, t", [
    ("n3", (Fraction(1),)),          # cyclotomic zero at conductor 3
    ("n3", (Fraction(1, 5),)),       # decided nonzero, then past the limit
    ("scale4", (Fraction(1, 3),)),
    ("scale4", (Fraction(-7, 2),)),
    ("scale4x2", (Fraction(1, 3), Fraction(2, 5))),
    ("scale4x2", (Fraction(1), Fraction(3, 4))),
])
def test_pinned_frequencies_match_fraction_oracle(name, t):
    system = SYSTEMS[name]
    assert_same(mu_hat_value(system, t), oracle_mu_hat_value(system, t, 30))
    assert_same(mask(system, t), oracle_mask(system, t))


coefficients = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
phases = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-300, 300),
              st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 30, 60, 97, 128, 210))),
)
# every n-th root of unity once, times one weight: a sum that vanishes
orbits = st.builds(
    lambda n, c, shift: [(c, Fraction(k, n) + shift) for k in range(n)],
    st.integers(2, 12), coefficients, phases,
)
term_lists = st.one_of(
    st.lists(st.tuples(coefficients, phases), max_size=8),
    st.builds(lambda a, b: a + b, orbits, st.lists(st.tuples(coefficients, phases),
                                                   max_size=3)),
)


@settings(deadline=None, max_examples=400)
@given(term_lists, st.sampled_from((4, 16, 64, DEFAULT_CONDUCTOR_LIMIT)))
def test_exp_sum_is_zero_matches_fraction_oracle(terms, limit):
    assert exp_sum_is_zero(terms, limit) is oracle_exp_sum_is_zero(terms, limit)


@pytest.mark.parametrize("terms, limit, expected", [
    ([(Fraction(1, 3), Fraction(k, 3)) for k in range(3)], 64, True),
    ([(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 15)),
      (Fraction(1, 3), Fraction(2, 15))], 64, False),
    ([(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 135)),
      (Fraction(1, 3), Fraction(2, 135))], 64, None),
    ([(1, Fraction(1, 4)), (1, Fraction(3, 4))], 2, True),
])
def test_exp_sum_is_zero_outcomes_match_fraction_oracle(terms, limit, expected):
    assert exp_sum_is_zero(terms, limit) is expected
    assert oracle_exp_sum_is_zero(terms, limit) is expected


def scalar_witnesses(system, x, y, radius, tol):
    """separation_witness per pair, as the index separation_witnesses reports."""
    candidates = [s for s, _ in measure._dual_candidates(system, radius)]
    found = [sp.separation_witness(system, tuple(a), tuple(b), radius, tol)
             for a, b in zip(x, y)]
    return [-1 if isinstance(w, sp.NoWitness) else candidates.index(w) for w in found]


# an eighth grid collides often (identical pairs, integer pairings); the
# open floats rarely do
coordinates = st.one_of(
    st.integers(-24, 24).map(lambda k: k / 8),
    st.floats(-4, 4, allow_nan=False),
)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(SYSTEMS)), st.data())
def test_separation_witnesses_match_scalar(name, data):
    system = SYSTEMS[name]
    m = data.draw(st.integers(0, 12))
    points = st.lists(st.lists(coordinates, min_size=system.dim, max_size=system.dim),
                      min_size=m, max_size=m)
    x = np.array(data.draw(points), dtype=float).reshape(m, system.dim)
    y = np.array(data.draw(points), dtype=float).reshape(m, system.dim)
    radius = data.draw(st.sampled_from((0, 1, 2, 3)))
    tol = data.draw(st.sampled_from((1e-9, 0.05)))
    try:
        expected = scalar_witnesses(system, x, y, radius, tol)
    except sp.IdenticalPoints:
        with pytest.raises(sp.IdenticalPoints):
            sp.separation_witnesses(system, x, y, radius, tol)
        return
    candidates, witness = sp.separation_witnesses(system, x, y, radius, tol)
    assert candidates == tuple(s for s, _ in measure._dual_candidates(system, radius))
    assert witness.tolist() == expected


def test_separation_witnesses_across_chunks(monkeypatch):
    system = SYSTEMS["scale4x2"]
    rng = np.random.default_rng(7)
    x = rng.integers(-16, 16, size=(40, 2)) / 8
    y = x + rng.integers(1, 4, size=(40, 2)) / rng.choice([1, 2, 8], size=(40, 1))
    expected = scalar_witnesses(system, x, y, 2, 1e-9)
    monkeypatch.setattr(measure, "SEPARATION_CHUNK", 3)
    _, witness = sp.separation_witnesses(system, x, y, 2)
    assert witness.tolist() == expected
    assert -1 in expected and max(expected) > 1


def test_separation_witnesses_radius_zero_finds_none():
    system = SYSTEMS["scale4"]
    candidates, witness = sp.separation_witnesses(system, [[0.0], [0.25]],
                                                  [[0.5], [0.0]], search_radius=0)
    assert candidates == ((Fraction(0),),)
    assert witness.tolist() == [-1, -1]
    assert sp.separation_witness(system, 0.0, 0.5, search_radius=0) == sp.NoWitness(0)


def test_separation_witnesses_reject_identical_points():
    system = SYSTEMS["scale4"]
    with pytest.raises(sp.IdenticalPoints):
        sp.separation_witnesses(system, [[0.0], [0.25]], [[0.5], [0.25]])


def test_separation_witnesses_reject_bad_shapes():
    system = SYSTEMS["scale4x2"]
    with pytest.raises(ValueError):
        sp.separation_witnesses(system, [[0.0]], [[0.5]])
    with pytest.raises(ValueError):
        sp.separation_witnesses(system, [[0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]])


class OracleCover:
    """Counts, for one float point, how many lattice translates land in a union."""

    def __init__(self, omega, lat):
        self.inv = np.array(exact.matrix_to_floats(lat.inverse))
        self.basis = np.array(exact.matrix_to_floats(lat.basis))
        self.boxes = omega.boxes
        self.centers = [
            np.array([(float(a) + float(b)) / 2 for a, b in zip(box.lo, box.hi)])
            for box in omega.boxes
        ]
        self.deltas = [
            np.array(d) for d in itertools.product((-1, 0, 1), repeat=lat.dim)
        ]

    def count(self, point) -> int:
        x = np.asarray(point, dtype=float)
        hits = 0
        for box, center in zip(self.boxes, self.centers):
            z0 = np.round(self.inv @ (center - x))
            for delta in self.deltas:
                candidate = x + self.basis @ (z0 + delta)
                if box.contains_point(candidate):
                    hits += 1
        return hits


def oracle_tiling_bad(d_prime, gamma, samples, seed):
    """Sampled points of the cell not covered exactly once, one draw at a time."""
    rng = np.random.default_rng(seed)
    basis = np.array(exact.matrix_to_floats(gamma.basis))
    cover = OracleCover(d_prime, gamma)
    bad = 0
    for _ in range(samples):
        if cover.count(basis @ rng.random(gamma.dim)) != 1:
            bad += 1
    return bad


def oracle_membership(omega, lat, a, samples, seed):
    """The sampled branch of translation_membership, one draw at a time."""
    rng = np.random.default_rng(seed)
    weights = [float(b.measure) for b in omega.boxes]
    weights = np.array(weights) / sum(weights)
    shift = np.array(exact.to_floats(exact.as_vector(a, omega.dim)))
    cover = OracleCover(omega, lat)
    for _ in range(samples):
        box = omega.boxes[rng.choice(len(omega.boxes), p=weights)]
        point = np.array([
            float(lo) + rng.random() * (float(hi) - float(lo))
            for lo, hi in zip(box.lo, box.hi)
        ])
        if cover.count(point + shift) == 0:
            return False
    return True


def union(*boxes):
    return BoxUnion(tuple(Box(lo, hi) for lo, hi in boxes))


# cells of measure 1 for the integer lattice: the unit square cut at 1/3,
# a fundamental domain of two boxes, and a strip of the right measure that
# is not one
TILING_DOMAINS = [
    union(((0, 0), ("1/3", 1)), (("1/3", 0), (1, 1))),
    union(((0, 0), ("1/2", 1)), (("3/2", "1/3"), (2, "4/3"))),
    union(((0, 0), ("1/3", 3))),
]
SHEARS = (1, -2, 3)  # Gamma basis [[1, k], [0, 1]]: the integer lattice
ORACLE_SEEDS = (0, 3, 11)


@pytest.mark.parametrize("k", SHEARS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_sampled_tiling_matches_scalar_oracle(monkeypatch, k, seed):
    monkeypatch.setattr(pair, "SAMPLE_CHUNK", 64)  # 1, 2, ..., 64, 64, ...
    gamma = sp.Lattice([[1, k], [0, 1]])
    samples = 300
    for d_prime in TILING_DOMAINS:
        report = sp.tiling_check(d_prime, gamma, [(0, 0)], samples=samples, seed=seed)
        bad = oracle_tiling_bad(d_prime, gamma, samples, seed)
        assert report.method == "monte_carlo"
        assert report.fundamental_domain is (bad == 0)
        assert report.ok is (bad == 0)
        assert report.detail == (f"{bad}/{samples} sampled points not covered once"
                                 if bad else "")
        assert report.failure_probability == (1.0 - pair.MONTE_CARLO_DEFECT) ** samples


# rational unions in the unit cell with shifts that do and do not map
# them onto themselves modulo the integer lattice
MEMBERSHIP_CASES = [
    (union(((0, 0), ("1/4", 1)), (("1/2", 0), ("3/4", 1))), ("1/2", 0), True),
    (union(((0, 0), ("1/4", 1)), (("1/2", 0), ("3/4", 1))), ("1/4", 0), False),
    (union(((0, 0), ("1/3", 1)), (("2/3", 0), (1, "1/2"))), ("2/3", 0), False),
    (union(((0, 0), (1, "1/3")), ((0, "2/3"), (1, 1))), (0, "1/3"), False),
    (union(((0, 0), ("1/3", "1/2")), (("1/3", "1/2"), ("2/3", 1)),
           (("2/3", 0), (1, "1/2"))), ("2/3", 0), False),
    (union(((0, 0), ("1/3", "1/2")), (("1/3", "1/2"), ("2/3", 1)),
           (("2/3", 0), (1, "1/2"))), ("1/3", "1/2"), False),
    (union(((0, 0), (1, "1/3")), ((0, "1/2"), (1, "5/6"))), (0, "1/2"), True),
]


@pytest.mark.parametrize("k", SHEARS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_sampled_membership_matches_scalar_oracle(monkeypatch, k, seed):
    monkeypatch.setattr(pair, "SAMPLE_CHUNK", 64)
    lat = sp.Lattice([[1, k], [0, 1]])
    z2 = sp.Lattice([[1, 0], [0, 1]])
    for omega, shift, member in MEMBERSHIP_CASES:
        assert sp.translation_membership(omega, z2, shift) is member  # exact path
        got = sp.translation_membership(omega, lat, shift, samples=300, seed=seed)
        assert got is oracle_membership(omega, lat, shift, 300, seed)


def test_cover_corner_tests_are_exact():
    # float(1/3) lies just below 1/3: outside [1/3, 1), inside [0, 1/3)
    x = float(Fraction(1, 3))
    assert x < Fraction(1, 3) and pair._float_at_least(Fraction(1, 3)) > x
    assert pair._float_at_least(Fraction(1, 4)) == 0.25
    lat = sp.Lattice([[1, 0], [0, 1]])
    for omega, hits in ((union(((0, 0), ("1/3", 1))), 1),
                        (union((("1/3", 0), (1, 1))), 0)):
        assert OracleCover(omega, lat).count([x, 0.5]) == hits
        assert pair._LatticeCover(omega, lat).counts(np.array([[x, 0.5]])).tolist() == [hits]


def oracle_orthogonality_matrix(omega, spectrum):
    measure_ = float(omega.measure)
    points = spectrum.points
    n = len(points)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        gram[i, i] = 1.0
        for j in range(i + 1, n):
            value = sp.indicator_transform(omega, exact.vec_sub(points[j], points[i]))
            gram[i, j] = value / measure_
            gram[j, i] = gram[i, j].conjugate()
    return gram


@pytest.mark.parametrize("name, radius", [("scale4", 40), ("scale4x2", 6)])
def test_orthogonality_matrix_matches_per_entry_oracle(name, radius):
    loaded = sp.parse_spec(name)
    spectrum = sp.truncate_spectrum(loaded.system, radius)
    got = sp.orthogonality_matrix(loaded.omega, spectrum)
    want = oracle_orthogonality_matrix(loaded.omega, spectrum)
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signs of zero


def test_sampled_membership_verdict_follows_the_draws():
    # the shift maps all but a sliver of 1/500 of the union back onto it,
    # so 300 samples miss the sliver for some seeds and hit it for others
    lat = sp.Lattice([[1, 1], [0, 1]])
    omega = union(((0, 0), (1, "1/4")), ((0, "1/2"), (1, "3/4")))
    shift = (0, "1001/2000")
    seeds = range(16)
    got = [sp.translation_membership(omega, lat, shift, samples=300, seed=s)
           for s in seeds]
    assert got == [oracle_membership(omega, lat, shift, 300, s) for s in seeds]
    assert True in got and False in got
