"""The integer-exact product and the batched separation, held to references.

The references are the Fraction product loop, the exact branch of the
mask and ``exp_sum_is_zero`` as they stood before the exact path moved to
Python integers, kept here verbatim (renamed ``oracle_*``) together with
the cyclotomic polynomial their zero test divided by; the batched
``separation_witnesses`` is held to the scalar ``separation_witness``
pair by pair.  Equality is bit for bit: ``==`` and ``repr``, so a
changed sign of zero shows too.

The exact product is also run on the benchmark's datum families (N = 2
with E = 2k, N = 3 with A = Z/3, and their 2-D products with N = 4), with
numerators large enough that no level is a structural 1 and the product
runs to full depth.

The batched exact product ``_exact_block`` is held row by row to the
scalar loop as it stood before the nonzero box (``oracle_exact_product``,
which tests every level for a zero), on Fraction points put over their
least denominator, and so is the scalar ``_exact_row``; the box's
constants (C, r) are pinned on three data, one of them non-normal, and
checked in Fractions: every phase stays within a quarter turn from the
first level in the box on.  ``completeness_table`` is held to the
per-row loop it replaced
(``per_row_block``); and ``relation_residuals`` and ``classify_measure``,
which build their points as integer rows over one denominator, to the
Fraction fold they replaced (``oracle_relation_maxima``): the oracle's
box, Fraction push, sums and differences, and one scalar value per
point.  Two conjugate data (``conjugate``) put those rows over q = 9 and
q = 2; every other datum has q = 1.

The Fraction oracle gives up past a conductor limit, where the package
now decides every sum exactly.  Where the oracle decides, its verdicts
and mask bits stay in force; where it answers None, the package's answer
is checked by ``independent_verdict``, exact at every conductor: while
the radical of the conductor is within the limit, ``radical_verdict``
divides by Phi_rad(q)(x^(q / rad q)) one residue class mod q / rad q at a
time; past that, ``mann_verdict`` splits the sum into classes of roots
whose ratios have order dividing the product of the primes up to the
term count, and decides each class at that small conductor.

The batched float product ``mu_hat_values`` is held to the scalar float
loop it replaced (``oracle_float_*``), value by value, every sign of zero
included.  The quadrature kernel ``integrate_exponential``, which writes
(cos, sin) of real angles into a complex buffer one block of atoms at a
time and adds the blocks' sums as numpy's pairwise sum splits, and the
quadrature backend of ``mu_hat_values`` are held bit for bit to the mean
of the complex exponential over the whole array
(``oracle_integrate_exponential``), at counts on either side of every
split boundary; so is the batch ``integrate_exponentials``, row by row,
whatever number of CPUs it spreads its rows over.

``push`` and ``pull``, which read the exact E^T and (E^T)^-1 for every
kind of point, are held at float points to the float copy of the matrix
they once kept (``oracle_float_map``), and the refinement, which writes
each step's images into one array, to the broadcast it replaced
(``oracle_refine_measure``), atom by atom.  A refinement holds a core of
at most one block and makes the rest of its atoms on demand; with the
block made small, its quadrature, which makes each leaf from the core,
is held to the quadrature over the oracle's explicit points.

The batched tiling sampler is held to the one-point-at-a-time loop it
replaced (``OracleCover``, ``oracle_tiling_bad``): the same seed must give
the same bad count, detail, verdict and failure bound.  Translation
membership, exact on every lattice, is held to a second exact argument
(``oracle_membership``): omega + a minus the lattice translates of omega
must be null, by the Fraction guillotine (``oracle_subtract_box``,
``oracle_subtract_union``) the package ran before its box set arithmetic
moved to integer numerators over one denominator.  The integer engine is
held to that guillotine and to the Fraction reduction (``oracle_reduce``)
on grid unions with corners over 1/3, 1/4 and 1/6 and cells over 5 and 7:
``reduce_mod_lattice`` (the same boxes in the same order, or the same
NotEmbeddable message), every field of ``tiling_check``'s report,
``overlapping_pair``, the difference pieces and the a.e.-equality test.  The
Gram matrix and ``indicator_transform`` are held to one transform per
entry whose zero test is the Fraction expansion ``pair`` used before it
decided zeros on integer rows (``oracle_exact_zero``).  Coset representatives, read off a Hermite
form, are held to the scan of [0, index)^d they replaced
(``oracle_coset_representatives``).

The box enumeration, which walks a lattice's Hermite form level by level,
is held to the cube of coefficient vectors it replaced
(``oracle_lattice_points_in_box``): the same list in the same order, as
integer rows over one denominator, on sheared and
scaled lattices at integer and rational radii, 0 included, and on two
shears and a conjugate lattice at radius 32 and shear3's dual lattices at
radius 8; ``truncate_spectrum`` and the separation
candidates, which read the rows, are held to the Fraction points and
floats the oracle's box gives (``oracle_truncate_spectrum``).
``same_lattice``, which compares Hermite forms, is held to containment
with equal ``|det|``.
"""

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from unittest import mock

import specpair as sp
from specpair import exact, measure, pair, transform
from specpair.boxes import Box, BoxUnion, numerators, overlapping_pair, subtract
from specpair.cyclotomic import exp_sum_is_zero, in_open_half_circle, roots_sum_is_zero
from specpair.lattice import lattice_rows_in_box, same_lattice
from specpair.transform import TransformSettings, mask, mu_hat_value

SYSTEMS = {
    "scale4": sp.parse_spec("scale4").system,
    "scale4x2": sp.parse_spec("scale4x2").system,
    "n3": sp.parse_spec(Path(__file__).with_name("data") / "n3.json").system,
}


def family_system(axes):
    """The product of 1-D factors (N, E, L) as the benchmark builds its
    datum families: K = Z, A = Z/N, Gamma = Z/E and B = {0, 1/N, ...,
    (N-1)/N} on each axis."""
    dim = len(axes)

    def diag(values):
        return [[str(v) if i == j else "0" for j in range(dim)]
                for i, v in enumerate(values)]

    return sp.parse_spec({
        "name": "family", "dimension": dim,
        "K_basis": diag([1] * dim),
        "A_basis": diag([Fraction(1, n) for n, _, _ in axes]),
        "Gamma_basis": diag([Fraction(1, e) for _, e, _ in axes]),
        "digits_B": [[str(c) for c in b] for b in itertools.product(
            *([Fraction(j, n) for j in range(n)] for n, _, _ in axes))],
        "digits_L": [[str(c) for c in l] for l in itertools.product(
            *(ls for _, _, ls in axes))],
    }).system


FAMILY_SYSTEMS = {
    "n2_e6": family_system([(2, 6, (0, 3))]),
    "n2_e8": family_system([(2, 8, (0, 5))]),
    "n3_e6": family_system([(3, 6, (0, 1, 2))]),
    "n3_e9": family_system([(3, 9, (0, 1, 2))]),
    "prod_e4_e6": family_system([(2, 4, (0, 1)), (2, 6, (0, 3))]),
    "prod_e6_e4": family_system([(2, 6, (0, 3)), (2, 4, (0, 1))]),
}
# d = 3 with a pull row of three nonzero entries, where the order of a
# float row sum shows, and a cyclic digit group Z/3 in the plane
DATA_SYSTEMS = {
    name: sp.parse_spec(Path(__file__).with_name("data") / f"{name}.json").system
    for name in ("shear3", "tri2")
}
EXACT_SYSTEMS = {**SYSTEMS, **FAMILY_SYSTEMS, **DATA_SYSTEMS}
FLOAT_SYSTEMS = {
    **SYSTEMS,
    **DATA_SYSTEMS,
    "scale4x2_sheared": sp.parse_spec(
        Path(__file__).with_name("data") / "scale4x2_sheared.json").system,
}
# dyadic, non-dyadic below the oracle's mask conductor limit, and past it
DENOMINATORS = (1, 2, 4, 8, 64, 1024, 3, 5, 6, 7, 9, 15, 21, 97, 131, 625, 1001)
rationals = st.one_of(
    st.builds(Fraction, st.integers(-400, 400), st.sampled_from(DENOMINATORS)),
    # numerators and denominators past 2^53, where int-to-float conversion rounds
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(10**17, 10**19)),
    # numerators up to 10^50 over small denominators: products that run to
    # full depth on large integers
    st.builds(Fraction, st.integers(-10**50, 10**50), st.sampled_from(DENOMINATORS)),
)

# the oracle's conductor limits: past them it answers None (undecided),
# and its mask falls back to floats
ORACLE_CONDUCTOR_LIMIT = 4096
ORACLE_MASK_LIMIT = 64


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic, division is exact by construction
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        coeff = rem[i + len(den) - 1]
        out[i] = coeff
        if coeff:
            for j, dj in enumerate(den):
                rem[i + j] -= coeff * dj
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in (5, 8, 9, 10, 15, 36, 105):
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n)


def test_bad_conductor():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def oracle_exp_sum_is_zero(terms, conductor_limit=ORACLE_CONDUCTOR_LIMIT):
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
    # scaling every coefficient by one positive integer keeps the verdict,
    # so the reduction mod Phi_n runs on Python integers
    scale = math.lcm(*(c.denominator for c in combined.values()))
    coeffs = [0] * n
    for q, coeff in combined.items():
        coeffs[int(q * n) % n] += int(coeff * scale)
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


def mann_verdict(terms) -> bool:
    """Whether sum c_k e^{i 2 pi q_k} vanishes, exactly at every conductor.

    Mann (Mathematika 12, 1965): when k distinct roots of unity with
    nonzero rational weights sum to zero and no proper subsum does, every
    ratio of two of them is an m-th root of unity, m the product of the
    primes up to k.  A vanishing sum is a sum of such minimal ones, and
    the ratio classes mod the m-th roots are closed, so the sum vanishes
    exactly when every class does; a class turned back by one of its
    roots is a sum at a conductor dividing m, which the oracle decides.
    """
    combined: dict[Fraction, Fraction] = {}
    for coeff, phase in terms:
        q = phase - math.floor(phase)
        combined[q] = combined.get(q, Fraction(0)) + coeff
    combined = {q: c for q, c in combined.items() if c}
    m = math.prod(p for p in range(2, len(combined) + 1)
                  if all(p % d for d in range(2, p)))
    # each class keyed by its first root, its terms turned back by it
    classes: dict[Fraction, list[tuple[Fraction, Fraction]]] = {}
    for q, c in combined.items():
        first = next((r for r in classes if ((q - r) * m).denominator == 1), q)
        classes.setdefault(first, []).append((c, q - first))
    return all(oracle_exp_sum_is_zero(cls, m) for cls in classes.values())


def radical_within(n: int, limit: int) -> int | None:
    """The product of the distinct primes dividing n, when it is at most
    ``limit``; None otherwise."""
    radical = 1
    for p in range(2, limit + 1):
        if n == 1:
            break
        if n % p == 0:  # p is prime: its smaller prime factors are gone
            radical *= p
            while n % p == 0:
                n //= p
    return radical if n == 1 and radical <= limit else None


def radical_verdict(terms, q: int, radical: int) -> bool:
    """Whether sum c_k e^{i 2 pi phase_k} vanishes, every phase a multiple
    of 1/q and rad(q) = ``radical``.

    The sum is P(zeta) with zeta = e^{i 2 pi / q} and P of degree < q; it
    vanishes when Phi_q divides P.  With m = q / rad(q),
    Phi_q(x) = Phi_rad(q)(x^m), and Z[x] / Phi_q(x) is free over
    Z[y] / Phi_rad(q)(y), y = x^m, with basis 1, x, ..., x^(m-1).  So P
    vanishes when, for each residue class s mod m, the polynomial
    sum_{k = s mod m} c_k y^((k - s) / m) is divisible by Phi_rad(q)(y).
    """
    m = q // radical
    scale = math.lcm(*(c.denominator for c, _ in terms))
    classes: dict[int, list[int]] = {}
    for c, phase in terms:
        k = phase.numerator * (q // phase.denominator) % q
        classes.setdefault(k % m, [0] * radical)[k // m] += int(c * scale)
    phi = cyclotomic_polynomial(radical)
    deg = len(phi) - 1
    for rem in classes.values():
        for i in range(radical - 1, deg - 1, -1):
            c = rem[i]
            if c:
                for j in range(deg + 1):
                    rem[i - deg + j] -= c * phi[j]
        if any(rem[:deg]):
            return False
    return True


def independent_verdict(terms, conductor_limit=ORACLE_CONDUCTOR_LIMIT):
    """The oracle's verdict at ``conductor_limit``; where it answers None,
    the oracle's at ORACLE_CONDUCTOR_LIMIT; past that, the exact
    ``radical_verdict`` while rad(conductor) is within that limit; past
    both, the exact ``mann_verdict``."""
    terms = [(Fraction(c), Fraction(q)) for c, q in terms]
    for limit in (conductor_limit, ORACLE_CONDUCTOR_LIMIT):
        verdict = oracle_exp_sum_is_zero(terms, limit)
        if verdict is not None:
            return verdict
    conductor = math.lcm(*(q.denominator for _, q in terms))
    radical = radical_within(conductor, ORACLE_CONDUCTOR_LIMIT)
    if radical is not None:
        return radical_verdict(terms, conductor, radical)
    return mann_verdict(terms)


def oracle_mask(system, freq):
    """The exact branch of the mask on a point of Fractions, its zero test
    resolved past the oracle's mask limit by ``independent_verdict``."""
    n = system.N
    phases = [exact.dot(b, freq) for b in system.digits]
    if all(p.denominator == 1 for p in phases):
        return complex(1.0)
    terms = [(Fraction(1, n), p) for p in phases]
    if independent_verdict(terms, ORACLE_MASK_LIMIT):
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


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(EXACT_SYSTEMS)),
       st.tuples(*[rationals] * max(s.dim for s in EXACT_SYSTEMS.values())),
       st.sampled_from((1, 3, 30, 60)))
# level 24 sums e(k / 2^51) over k = 0, 5, 2^50 - 5, 2^50 + 10: not zero,
# though a longdouble margin called it zero
@example("scale4x2", (Fraction(-562949953421307, 2), Fraction(1125899906842619, 4),
                      Fraction(0)), 30)
# shear3's level 25 is not zero, though the mask is near 1e-60 there
@example("shear3", (Fraction(1, 10**17 + 1), Fraction(2**50), Fraction(0)), 30)
def test_mu_hat_value_matches_fraction_oracle(name, coords, depth):
    system = EXACT_SYSTEMS[name]
    t = coords[:system.dim]
    got = mu_hat_value(system, t, TransformSettings(product_depth=depth))
    assert_same(got, oracle_mu_hat_value(system, t, depth))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(EXACT_SYSTEMS)), st.data())
def test_mask_matches_fraction_oracle(name, data):
    system = EXACT_SYSTEMS[name]
    t = data.draw(st.tuples(*[rationals] * system.dim))
    assert_same(mask(system, t), oracle_mask(system, t))


@pytest.mark.parametrize("name, t", [
    ("n3", (Fraction(1),)),          # cyclotomic zero at conductor 3
    ("n3", (Fraction(1, 5),)),       # decided nonzero, then past the oracle's limit
    ("scale4", (Fraction(1, 3),)),
    ("scale4", (Fraction(-7, 2),)),
    ("scale4x2", (Fraction(1, 3), Fraction(2, 5))),
    ("scale4x2", (Fraction(1), Fraction(3, 4))),
    # exact zeros at conductors 128 and 202, past the oracle's mask limit,
    # where it returned 1.04e-16j and 2.17e-17j
    ("scale4x2", (Fraction(1, 64), Fraction(1))),
    ("scale4x2", (Fraction(1), Fraction(1, 101))),
    # 8e-17 short of the mask zero at 125: nonzero, but only just
    ("n3", (Fraction(1562499999999999999, 12500000000000000),)),
    # the benchmark's families: zeros at levels 0 and 3, then products that
    # run all 30 levels from numerators near 10^40
    ("n2_e6", (Fraction(1),)),
    ("n2_e6", (Fraction(6**3 * 5),)),
    ("n2_e8", (Fraction(10**40 + 1, 3),)),
    ("n3_e9", (Fraction(2),)),
    ("n3_e6", (Fraction(-(10**40) - 7, 5),)),
    ("prod_e4_e6", (Fraction(1), Fraction(1, 2))),
    ("prod_e4_e6", (Fraction(10**40, 7), Fraction(-(10**41), 9))),
    ("prod_e6_e4", (Fraction(3**80, 2), Fraction(2**130 + 1, 11))),
    ("shear3", (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))),
    ("tri2", (Fraction(1, 2), Fraction(1, 5))),
    ("tri2", (Fraction(1), Fraction(0))),  # a zero of the Z/3 digit sum
])
def test_pinned_frequencies_match_fraction_oracle(name, t):
    system = EXACT_SYSTEMS[name]
    assert_same(mu_hat_value(system, t), oracle_mu_hat_value(system, t, 30))
    assert_same(mask(system, t), oracle_mask(system, t))


def oracle_exact_row(system, num, den, depth):
    """The depth-``depth`` product at the point num / den, as the package's
    _exact_row ran it before its nonzero box: every level's residues,
    half-plane test and cyclotomic decision, at every level."""
    digits, digit_den, pull, pull_den = system._integer_maps
    value = complex(1.0)
    for level in range(depth):
        if level:
            num = [sum(map(mul, row, num)) for row in pull]
            den *= pull_den
        q = digit_den * den
        phases = [sum(map(mul, b, num)) for b in digits]
        residues = sorted(p % q for p in phases)
        if not residues[-1]:
            factor = complex(1.0)
        elif (not in_open_half_circle(residues, q)
              and roots_sum_is_zero(tuple(residues), q)):
            return 0j
        else:
            factor = sum(cmath.exp(2j * math.pi * (p / q)) for p in phases) / system.N
            # the float sum of a nonzero root sum can still round to 0j
            if factor == 0:
                return 0j
        value *= factor
    return value


def oracle_exact_product(system, freq, depth):
    """oracle_exact_row at an exact frequency, over its least denominator."""
    (num,), den = exact.over_common_denominator((freq,))
    return oracle_exact_row(system, num, den, depth)


def first_zero_level(system, t, depth=30):
    """The level at which the scalar product of ``t`` first vanishes, or None."""
    return next((k for k in range(depth)
                 if oracle_exact_product(system, t, k + 1) == 0), None)


def staged_zeros(system, levels=4):
    """Frequencies whose products first vanish at levels 0, 1, ...: a
    difference of frequency digits is a mask zero, and each push moves the
    zero one level later, though on some data an earlier level vanishes too."""
    zero = exact.vec_sub(system.freq_digits[1], system.freq_digits[0])
    out = []
    for _ in range(levels):
        out.append(zero)
        zero = system.push(zero)
    return out


def assert_same_products(system, freqs, depth):
    got = transform._exact_block(system, *exact.over_common_denominator(freqs), depth)
    want = [oracle_exact_product(system, t, depth) for t in freqs]
    assert [repr(v) for v in got] == [repr(v) for v in want]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(EXACT_SYSTEMS)), st.data())
def test_exact_products_match_scalar_oracle(name, data):
    system = EXACT_SYSTEMS[name]
    points = st.one_of(st.tuples(*[rationals] * system.dim),
                       st.sampled_from(staged_zeros(system)))
    freqs = data.draw(st.lists(points, max_size=8))
    depth = data.draw(st.one_of(st.sampled_from((1, 30)), st.integers(1, 60)))
    chunk = data.draw(st.sampled_from((1, 3, transform.CHUNK_ROWS)))
    with mock.patch.object(transform, "CHUNK_ROWS", chunk):
        assert_same_products(system, freqs, depth)


@pytest.mark.parametrize("name", sorted(EXACT_SYSTEMS))
@pytest.mark.parametrize("chunk", (3, transform.CHUNK_ROWS))
def test_exact_products_mix_zero_levels_and_full_depth(monkeypatch, name, chunk):
    """One batch holds rows that vanish at different levels and rows that
    run all 30 levels while q passes 2^53 and then 2^63.  Forty rows: on a
    handful, numpy's fused complex multiply rounded as the written-out one
    does, so a short batch hid that mistake."""
    system = EXACT_SYSTEMS[name]
    den = 2**20 + 7
    full = [tuple(Fraction(k * 10**30 + j, den) for j in range(system.dim))
            for k in range(-18, 18)]
    freqs = [val for pair in itertools.zip_longest(staged_zeros(system), full)
             for val in pair if val is not None]
    levels = {first_zero_level(system, t) for t in freqs}
    assert None in levels and len(levels - {None}) >= 2
    digit_den, pull_den = system._integer_maps[1], system._integer_maps[3]
    assert digit_den * den < 2**53 and digit_den * den * pull_den**29 > 2**63
    monkeypatch.setattr(transform, "CHUNK_ROWS", chunk)
    for depth in (1, 30):
        assert_same_products(system, freqs, depth)
    assert transform._exact_block(system, [], 1, 30) == []
    assert transform._exact_block(system, (), 6, 1) == []


def oracle_relation_maxima(k_dual, radius, push, freq_digits, transform_, mask_):
    """The relation residuals as the package folded them on Fraction
    points, one sample at a time: the oracle's box, E^T u, E^T u + l' - l
    and u - l as Fraction vectors, and one ``transform_`` or ``mask_``
    value per point; also the sample count."""
    isometry = 0.0
    range_orth = 0.0
    completeness = None if mask_ is None else 0.0
    differences = [exact.vec_sub(lb, la)
                   for la in freq_digits for lb in freq_digits if la != lb]
    samples = oracle_lattice_points_in_box(k_dual, radius)
    for u in samples:
        pushed = exact.mat_vec(push, u)
        isometry = max(isometry, abs(transform_(pushed) - transform_(u)))
        for difference in differences:
            arg = exact.vec_add(pushed, difference)
            range_orth = max(range_orth, abs(transform_(arg)))
        if mask_ is not None:
            total = sum(mask_(exact.vec_sub(u, l)) for l in freq_digits)
            completeness = max(completeness, abs(total - 1))
    return isometry, range_orth, completeness, len(samples)


def oracle_relation_residuals(system, radius, depth=30):
    """relation_residuals from the Fraction fold, the scalar product
    ``_exact_product`` at each point."""
    isometry, range_orth, completeness, count = oracle_relation_maxima(
        system.K_dual, radius, system.E_transpose, system.freq_digits,
        lambda t: oracle_exact_product(system, t, depth),
        lambda t: oracle_exact_product(system, t, 1))
    return sp.RelationReport(isometry=isometry, range_orthogonality=range_orth,
                             completeness=completeness, box_radius=radius,
                             sample_count=count,
                             degenerate=same_lattice(system.K, system.A))


def oracle_classify_measure(measure_, K, gamma, freq_digits, digits=None):
    """classify_measure on an explicit measure from the Fraction fold at
    CLASSIFY_BOX_RADIUS: integrate_exponential at each Fraction point, and
    each mask as the mean of cmath.exp(2j pi float(b.s)) over the digits."""
    def mask_(s):
        return sum(cmath.exp(2j * math.pi * float(exact.dot(b, s)))
                   for b in digits) / len(digits)

    k_dual, e = sp.dual_lattice(K), sp.lattice.expansion_matrix(K, gamma)
    isometry, range_orth, completeness, _ = oracle_relation_maxima(
        k_dual, sp.operators.CLASSIFY_BOX_RADIUS, exact.transpose(e), freq_digits,
        lambda t: sp.integrate_exponential(measure_, t),
        None if digits is None else mask_)
    structure = (sp.lattice.frequency_digit_check(freq_digits, k_dual, sp.dual_lattice(gamma)),
                 sp.lattice.expansive_check(e))
    return sp.ConsistencyReport(structure=structure, isometry=isometry,
                                range_orthogonality=range_orth, completeness=completeness)


def per_row_block(system, rows, den, depth):
    """_exact_block as the scalar loop at each row's Fraction point."""
    return [oracle_exact_product(system, tuple(Fraction(int(n), den) for n in row), depth)
            for row in rows]


CONSUMER_SYSTEMS = {
    **FLOAT_SYSTEMS,
    "middlethird": sp.parse_spec("middlethird", require_valid=False).system,
}


def conjugate(system, u):
    """The datum conjugated by an invertible rational U: K, A, Gamma and
    the digits B map to U., the frequency digits L to U^{-T}."""
    u = exact.as_matrix(u)
    u_inv_t = exact.transpose(sp.Lattice(u).inverse)

    def lattice(lat):
        return sp.Lattice(exact.mat_mul(u, lat.basis))

    return sp.SimpleFactor(
        K=lattice(system.K), A=lattice(system.A), Gamma=lattice(system.Gamma),
        digits=[exact.mat_vec(u, b) for b in system.digits],
        freq_digits=[exact.mat_vec(u_inv_t, l) for l in system.freq_digits])


# valid data whose relation points need a denominator q > 1: every other
# datum here has integer dual(K) samples, E^T and frequency digits
CONJUGATE_SYSTEMS = {
    # E^T = [[4, 0], [-4/3, 4]], dual(K) over 3, L over 3: q = 9
    "scale4x2_sheared_u": conjugate(CONSUMER_SYSTEMS["scale4x2_sheared"], [[1, 1], [0, 3]]),
    # E^T = 4 I, dual(K) and L over 2: q = 2
    "scale4x2_u": conjugate(SYSTEMS["scale4x2"], [[1, 0], [0, 2]]),
}
# every built-in datum, every datum under tests/data, the benchmark's
# families and the two conjugates
RELATION_SYSTEMS = {**EXACT_SYSTEMS, **CONSUMER_SYSTEMS, **CONJUGATE_SYSTEMS}
RELATION_RADII = (0, 1, 3, 6)


def relation_denominator(system):
    """The q the relation checks build their rows over."""
    den = lattice_rows_in_box(system.K_dual, 0)[1]
    e = exact.over_common_denominator(system.E_transpose)[1]
    f = exact.over_common_denominator(system.freq_digits)[1]
    return math.lcm(den * e, f)


def test_conjugates_are_valid_and_need_a_denominator():
    for system in RELATION_SYSTEMS.values():
        assert (relation_denominator(system) == 1) is (system not in CONJUGATE_SYSTEMS.values())
    sheared, diagonal = CONJUGATE_SYSTEMS.values()
    assert sheared.E_transpose == ((4, 0), (Fraction(-4, 3), 4))
    assert [relation_denominator(s) for s in (sheared, diagonal)] == [9, 2]
    assert all(sp.validate_simple_factor(s).ok for s in (sheared, diagonal))


# a non-normal conjugate: E' = [[12, -16], [4, -4]], a Jordan block with
# eigenvalue 4, so sup_j ||(E'^T)^-j||_inf = 7/4 exceeds the spectral radius
NON_NORMAL = conjugate(CONSUMER_SYSTEMS["scale4x2_sheared"], [[2, 1], [1, 1]])
# every datum above and three conjugates, two of them over q > 1
TAIL_SYSTEMS = {**RELATION_SYSTEMS, "scale4x2_sheared_v": NON_NORMAL}
tail_rationals = st.builds(Fraction, st.integers(-4**12, 4**12), st.integers(1, 12))


def line_system(gamma, digits):
    """A 1-D datum K = Z, Gamma = Z / gamma with the given digits, its
    frequency digits 0, 1, ...: built as is, valid or not."""
    return sp.SimpleFactor(
        K=sp.Lattice([[1]]), A=sp.Lattice([[Fraction(1, len(digits))]]),
        Gamma=sp.Lattice([[Fraction(1, gamma)]]),
        digits=[(b,) for b in digits], freq_digits=[(l,) for l in range(len(digits))])


def test_nonzero_box_constants():
    """(C, r): C = sup_j ||(E^T)^-j||_inf and r = 1 / (4 max_b |b|_1)."""
    assert SYSTEMS["scale4"]._nonzero_box == (1, Fraction(1, 2))
    assert SYSTEMS["scale4x2"]._nonzero_box == (1, Fraction(1, 4))
    assert NON_NORMAL.E == ((12, -16), (4, -4))
    assert NON_NORMAL._nonzero_box == (Fraction(7, 4), Fraction(1, 10))
    # no power of (E^T)^-1 = 1 halves a vector; with B = {0} no factor can vanish
    assert line_system(1, [0, Fraction(1, 2)])._nonzero_box is None
    assert line_system(2, [0])._nonzero_box is None


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(TAIL_SYSTEMS)), st.data())
def test_nonzero_tail_keeps_the_oracle_bits(name, data):
    """_exact_block, with its slabs cut to three cells, and _exact_row give
    the oracle's value, which tests every level, at every point."""
    system = TAIL_SYSTEMS[name]
    freqs = data.draw(st.lists(st.tuples(*[tail_rationals] * system.dim), max_size=8))
    depth = data.draw(st.integers(1, 60))
    want = [repr(oracle_exact_product(system, t, depth)) for t in freqs]
    with mock.patch.object(transform, "CHUNK_ROWS", 3):
        block = transform._exact_block(system, *exact.over_common_denominator(freqs), depth)
    rows = [transform._exact_row(system, *exact.as_point_row(t), depth) for t in freqs]
    assert [repr(v) for v in block] == want == [repr(v) for v in rows]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(TAIL_SYSTEMS)), st.data())
def test_phases_stay_within_a_quarter_turn_from_the_box_on(name, data):
    """In Fractions: from the first level where C |t|_inf < r, every
    |b.t| < 1/4 at that level and each of the next 60."""
    system = TAIL_SYSTEMS[name]
    c, r = system._nonzero_box
    t = data.draw(st.tuples(*[tail_rationals] * system.dim))
    while c * max(map(abs, t)) >= r:
        t = system.pull(t)
    for _ in range(61):
        assert all(abs(exact.dot(b, t)) < Fraction(1, 4) for b in system.digits)
        t = system.pull(t)


def test_nonzero_tail_edges(monkeypatch):
    """B = {0}, which has no box; no rows; 4^40 at depth 30, which never
    enters scale4's box; and 1/3, which enters it at level 0."""
    calls, tail = [], transform._tail_product

    def counted(*args):
        calls.append(args[3])  # the level the tail starts at
        return tail(*args)

    monkeypatch.setattr(transform, "_tail_product", counted)
    trivial = line_system(2, [0])
    freqs = [(Fraction(k, 7),) for k in range(-9, 10)]
    want = [oracle_exact_product(trivial, t, 30) for t in freqs]
    assert want == [1 + 0j] * len(freqs)
    assert transform._exact_block(trivial, *exact.over_common_denominator(freqs), 30) == want
    assert [transform._exact_row(trivial, *exact.as_point_row(t), 30) for t in freqs] == want
    system = SYSTEMS["scale4"]
    assert transform._exact_block(system, [], 1, 30) == []
    big = oracle_exact_product(system, (4**40,), 30)
    assert_same(transform._exact_block(system, [(4**40,)], 1, 30)[0], big)
    assert_same(transform._exact_row(system, (4**40,), 1, 30), big)
    assert calls == []
    assert_same(transform._exact_block(system, [(1,)], 3, 30)[0],
                oracle_exact_product(system, (Fraction(1, 3),), 30))
    assert calls == [0]


@pytest.mark.parametrize("name, s, depths", [
    ("scale4", (Fraction(1, 3),), range(9)),
    ("scale4", (Fraction(2),), range(4, 9)),
    ("scale4x2", (Fraction(1, 3), Fraction(-2, 5)), range(5)),
    ("scale4x2_sheared", (Fraction(1, 2), Fraction(1, 7)), range(5)),
    ("middlethird", (Fraction(3, 4),), range(7)),
    ("n3", (Fraction(1, 2),), range(6)),
    ("scale4x2_sheared_u", (Fraction(1, 2), Fraction(1, 7)), range(5)),
    ("scale4x2_u", (Fraction(1, 3), Fraction(-2, 5)), range(5)),
])
def test_exact_consumers_match_per_row_oracle(monkeypatch, name, s, depths):
    """completeness_table through the batch equals the per-row loop it
    replaced, and relation_residuals the Fraction fold, bit for bit."""
    system = RELATION_SYSTEMS[name]
    assert repr(sp.relation_residuals(system, box_radius=3)) == repr(
        oracle_relation_residuals(system, 3))
    batched = sp.completeness_table(system, s, depths)
    monkeypatch.setattr(sp.spectrum, "_exact_block", per_row_block)
    assert repr(batched) == repr(sp.completeness_table(system, s, depths))


@pytest.mark.parametrize("name", sorted(RELATION_SYSTEMS))
def test_relation_residuals_match_fraction_fold(name):
    """The relation points built as integer rows over one q give the
    report the Fraction fold gives, at radii 0 to 6, and at radius 3 at
    product depth 7 too."""
    system = RELATION_SYSTEMS[name]
    for radius, depth in [(radius, 30) for radius in RELATION_RADII] + [(3, 7)]:
        assert repr(sp.relation_residuals(system, radius, depth)) == repr(
            oracle_relation_residuals(system, radius, depth))


@pytest.mark.parametrize("name", sorted(RELATION_SYSTEMS))
def test_classify_measure_matches_per_sample_fold(monkeypatch, name):
    """classify_measure on an explicit measure, with and without digits,
    gives the Fraction fold's report at radii 0 to 6; in three dimensions
    up to 3, since shear3's radius-6 box is 127,000 quadrature rows a
    call, about 20 s with the oracle."""
    system = RELATION_SYSTEMS[name]
    measure_ = sp.refine_measure(sp.build_ifs(system), 2)
    args = (measure_, system.K, system.Gamma, system.freq_digits)
    for radius in RELATION_RADII if system.dim < 3 else RELATION_RADII[:-1]:
        monkeypatch.setattr(sp.operators, "CLASSIFY_BOX_RADIUS", radius)
        for digits in (system.digits, None):
            assert repr(sp.classify_measure(*args, digits=digits)) == repr(
                oracle_classify_measure(*args, digits=digits))


# every built-in datum, every datum under tests/data and the benchmark's families
MEMO_SYSTEMS = {**EXACT_SYSTEMS, **CONSUMER_SYSTEMS}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(MEMO_SYSTEMS)),
       st.tuples(*[rationals] * max(s.dim for s in MEMO_SYSTEMS.values())),
       st.integers(2, 10**6))
@example("scale4", (Fraction(1, 3),) * 3, 7)
@example("scale4x2", (Fraction(1, 6), Fraction(3, 4), Fraction(0)), 5)
def test_point_memo_keeps_the_scalar_loop_bits(name, coords, scale):
    """mu_hat_value and mask at an exact point, memoized per point, equal
    the unmemoized _exact_row bit for bit: at depths 1 and 30 at one point
    and at the same point written over a larger denominator, whichever
    the memo met first."""
    system = MEMO_SYSTEMS[name]
    t = coords[:system.dim]
    (row,), den = exact.over_common_denominator((t,))
    want = {depth: transform._exact_row(system, row, den, depth) for depth in (1, 30)}
    written = [f"{x.numerator * scale}/{x.denominator * scale}" for x in t]
    transform._row_product.cache_clear()
    assert_same(mask(system, written), want[1])
    assert_same(mu_hat_value(system, t), want[30])
    assert_same(mask(system, t), want[1])
    assert_same(mu_hat_value(system, written), want[30])
    info = transform._row_product.cache_info()
    assert (info.hits, info.misses) == (2, 2)


@pytest.mark.parametrize("name, depth", [("scale4", None), ("tri2", 8)])
def test_classify_measure_matches_per_point_quadrature(monkeypatch, name, depth):
    """classify_measure's batches of quadrature rows give the report the
    per-point integrate_exponential gave; depth None is the datum's own
    refinement at the default quadrature depth (for tri2 that is 3^12
    atoms, about 15 s with the oracle, so tri2 passes a depth-8 measure)."""
    system = CONSUMER_SYSTEMS[name]
    source = system if depth is None else sp.refine_measure(sp.build_ifs(system), depth)
    measure_ = (transform._cached_measure(system, TransformSettings().quadrature_depth)
                if depth is None else source)
    args = (source, system.K, system.Gamma, system.freq_digits)
    batched = repr(sp.classify_measure(*args, digits=system.digits))
    fold = sp.operators._relation_maxima

    def per_point(samples, push, freq_digits, transforms, masks_at):
        def transforms_(rows, q):
            return [sp.integrate_exponential(measure_, [Fraction(n, q) for n in row])
                    for row in rows]

        return fold(samples, push, freq_digits, transforms_, masks_at)

    monkeypatch.setattr(sp.operators, "_relation_maxima", per_point)
    assert batched == repr(sp.classify_measure(*args, digits=system.digits))


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
@given(term_lists, st.sampled_from((4, 16, 64, ORACLE_CONDUCTOR_LIMIT)))
def test_exp_sum_is_zero_matches_fraction_oracle(terms, limit):
    assert exp_sum_is_zero(terms) is independent_verdict(terms, limit)


# the oracle's limit, then the exact answer; the oracle leaves the third
# row undecided at 64 and decides it at its true conductor, 135
@pytest.mark.parametrize("terms, limit, expected", [
    ([(Fraction(1, 3), Fraction(k, 3)) for k in range(3)], 64, True),
    ([(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 15)),
      (Fraction(1, 3), Fraction(2, 15))], 64, False),
    ([(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 135)),
      (Fraction(1, 3), Fraction(2, 135))], 64, False),
    ([(1, Fraction(1, 4)), (1, Fraction(3, 4))], 2, True),
])
def test_exp_sum_is_zero_outcomes_match_fraction_oracle(terms, limit, expected):
    assert exp_sum_is_zero(terms) is expected
    assert independent_verdict(terms, limit) is expected


@settings(deadline=None, max_examples=300)
@given(term_lists)
def test_radical_verdict_matches_fraction_oracle(terms):
    terms = [(Fraction(c), Fraction(q)) for c, q in terms]
    conductor = math.lcm(*(q.denominator for _, q in terms))
    radical = radical_within(conductor, ORACLE_CONDUCTOR_LIMIT)
    verdict = oracle_exp_sum_is_zero(terms)
    assume(verdict is not None and radical is not None)
    assert radical_verdict(terms, conductor, radical) is verdict


@settings(deadline=None, max_examples=300)
@given(term_lists)
def test_mann_verdict_matches_fraction_oracle(terms):
    terms = [(Fraction(c), Fraction(q)) for c, q in terms]
    verdict = oracle_exp_sum_is_zero(terms)
    assume(verdict is not None)
    assert mann_verdict(terms) is verdict


Q51 = 2**51
Q50_17 = 2**50 * (10**17 + 1)
SHEAR3_LEVEL_25 = (Fraction(1, Q50_17), 1 + Fraction(25, Q50_17), 25 + Fraction(325, Q50_17))


# past the oracle's conductor limit the verdict is exact, with rad(q) within
# it (the first four rows) and past it (the last): the first and the last
# row are levels a longdouble margin called zero
@pytest.mark.parametrize("terms, expected", [
    ([(Fraction(1, 4), Fraction(k, Q51)) for k in (0, 5, Q51 // 2 - 5, Q51 // 2 + 10)],
     False),
    ([(1, Fraction(5, Q51) + Fraction(k, 3)) for k in range(3)], True),
    ([(1, Fraction(5, Q51) + Fraction(k, 3)) for k in range(3)] + [(1, Fraction(1, Q51))],
     False),
    ([(2, Fraction(7, 5 * 3**20) + Fraction(k, 5)) for k in range(5)], True),
    # shear3's mask at level 25 from (1/(10^17 + 1), 2^50, 0): a product of
    # three 1 + e(x), two of them with x a hair past half a turn, near 1e-60
    ([(Fraction(1, 8), sum(e * f for e, f in zip(eps, SHEAR3_LEVEL_25)) / 2)
      for eps in itertools.product((0, 1), repeat=3)], False),
])
def test_past_limit_verdicts_are_exact(terms, expected):
    assert exp_sum_is_zero(terms) is expected
    assert independent_verdict(terms) is expected

def oracle_float_mask(system, freq):
    return sum(
        cmath.exp(2j * math.pi * sum(float(bc) * tc for bc, tc in zip(b, freq)))
        for b in system.digits
    ) / system.N


def oracle_float_mu_hat_value(system, t, product_depth):
    """The float product loop one frequency at a time, pulling back
    through the float (E^T)^{-1} as exact.mat_vec does."""
    freq, is_exact = exact.as_point(t, system.dim)
    assert not is_exact
    pull = exact.matrix_to_floats(system.E_transpose_inverse)
    value = complex(1.0)
    for _ in range(product_depth):
        factor = oracle_float_mask(system, freq)
        if factor == 0:
            return 0j
        value *= factor
        freq = tuple(sum(row[j] * freq[j] for j in range(len(freq))) for row in pull)
    return value


def assert_same_values(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (repr(a.real), repr(a.imag)) == (repr(b.real), repr(b.imag))


float_coordinates = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-8, 8, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 4.0)),
)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(FLOAT_SYSTEMS)), st.data())
def test_mu_hat_values_match_scalar_float_oracle(name, data):
    system = FLOAT_SYSTEMS[name]
    m = data.draw(st.integers(1, 6))
    points = data.draw(st.lists(
        st.tuples(*[float_coordinates] * system.dim), min_size=m, max_size=m))
    depth = data.draw(st.one_of(st.integers(1, 200), st.sampled_from((1, 30, 200))))
    chunk = data.draw(st.sampled_from((1, 2, 3, transform.CHUNK_ROWS)))
    settings_ = TransformSettings(product_depth=depth)
    with mock.patch.object(transform, "CHUNK_ROWS", chunk):
        got = sp.mu_hat_values(system, points, settings_).tolist()
    assert_same_values(got, [oracle_float_mu_hat_value(system, t, depth) for t in points])
    assert_same_values([mu_hat_value(system, t, settings_) for t in points[:2]], got[:2])
    assert_same_values([mask(system, t) for t in points],
                       [oracle_float_mask(system, t) for t in points])


# float masks that are exactly zero: the sines of pi and 2 pi cancel, at
# the first level or only after pulling back (4, 4) to (1, 1); past the
# zeros at (-3, -3) and (-7, -1) the product would go on to -0j
@pytest.mark.parametrize("name, t", [
    ("scale4x2", (1.0, 1.0)),
    ("scale4x2", (-1.0, 3.0)),
    ("scale4x2", (4.0, 4.0)),
    ("scale4x2", (-3.0, -3.0)),
    ("scale4x2_sheared", (-7.0, -1.0)),
    ("scale4x2", (1.0, 0.0)),
    ("scale4", (-0.0,)),
    ("n3", (1.0,)),
    # the pull's row (1/4, 1/4, 1/4) sums three terms, so its order shows
    ("shear3", (0.1, 0.2, -0.3)),
    ("tri2", (0.5, 0.2)),
])
def test_pinned_float_frequencies_match_scalar_oracle(monkeypatch, name, t):
    system = FLOAT_SYSTEMS[name]
    monkeypatch.setattr(transform, "CHUNK_ROWS", 2)
    points = [t, (0.25,) * system.dim, t]
    got = sp.mu_hat_values(system, points).tolist()
    assert_same_values(got, [oracle_float_mu_hat_value(system, p, 30) for p in points])
    assert_same_values([mu_hat_value(system, t), mask(system, t)],
                       [got[0], oracle_float_mask(system, t)])


def test_float_zero_rows_are_literal_zeros():
    system = SYSTEMS["scale4x2"]
    values = sp.mu_hat_values(system, [(1.0, 1.0), (4.0, 4.0), (0.25, 0.25)])
    assert values[:2].tolist() == [0j, 0j] and values[2] != 0
    assert oracle_float_mask(system, (4.0, 4.0)) != 0  # the zero is at level 2


def test_float_consumers_match_scalar_oracle(monkeypatch):
    system = SYSTEMS["scale4"]
    s = 16.4
    enum = sp.enumerate_spectrum(system, 6)
    terms = [abs(oracle_float_mu_hat_value(system, s - float(xi[0]), 30)) ** 2
             for xi in enum.elements]
    rows = sp.completeness_table(system, s, range(7))
    assert [r.sigma for r in rows] == [
        math.fsum(terms[i] for i in enum.depth_slice(d)) for d in range(7)]
    # scan order is nearest first; at 16.4 the first four values grow, so
    # the fifth is the first past the largest of them, in the third chunk
    monkeypatch.setattr(transform, "CHUNK_ROWS", 2)
    monkeypatch.setattr(sp.spectrum, "CHUNK_ROWS", 2)
    order = sorted(range(len(enum)), key=lambda i: (abs(float(enum.elements[i][0])), i))
    values = [oracle_float_mu_hat_value(system, s - float(enum.elements[i][0]), 30)
              for i in order]
    threshold = max(abs(v) for v in values[:4])
    monkeypatch.setattr(sp.spectrum, "WITNESS_THRESHOLD", threshold)
    probe = sp.maximality_probe(system, s, 6)
    assert abs(values[4]) > threshold
    assert probe.xi == enum.elements[order[4]]
    assert_same_values([probe.value], [values[4]])


def oracle_maximality_probe(system, s, enum_depth, threshold):
    """maximality_probe as it stood before s - xi came from integer rows,
    verbatim but for the threshold argument: membership by a Fraction or
    float tuple, and the exact scan one mu_hat_value per Fraction
    difference exact.vec_sub makes."""
    settings_ = TransformSettings()
    point, is_exact = exact.as_point(s, system.dim)
    enum = sp.enumerate_spectrum(system, enum_depth)
    if point in (enum.elements if is_exact else map(tuple, enum.floats)):
        raise sp.MemberOfSpectrum(f"{s!r} is in the depth-{enum_depth} enumeration")
    order = np.argsort(np.linalg.norm(enum.floats, axis=1), kind="stable").tolist()
    if is_exact:
        values = (mu_hat_value(system, exact.vec_sub(point, enum.elements[i]), settings_)
                  for i in order)
    else:
        shifted = np.array(point) - enum.floats[order]
        values = itertools.chain.from_iterable(
            sp.mu_hat_values(system, shifted[k:k + transform.CHUNK_ROWS], settings_).tolist()
            for k in range(0, len(order), transform.CHUNK_ROWS))
    for i, value in zip(order, values):
        if abs(value) > threshold:
            return sp.spectrum.Witness(xi=enum.elements[i], value=value)
    return sp.spectrum.AllOrthogonal(enum_depth=enum_depth, threshold=threshold)


def maximality_cases(system):
    """(label, probe, depth) for a datum: an exact and a float non-member,
    three times the last frequency digit, an exact and a float member and,
    for d > 1, the deepest frequency moved in its last coordinate only."""
    depth = max(1, int(math.log(256, system.N)))
    xi = sp.enumerate_spectrum(system, depth).elements[-1]
    cases = [
        ("third", (Fraction(1, 3),) * system.dim, depth),
        ("float", tuple(0.3 + 0.1 * j for j in range(system.dim)), depth),
        ("triple", tuple(3 * c for c in system.freq_digits[-1]), depth),
        ("exact member", xi, depth),
        ("float member", tuple(map(float, xi)), depth),
    ]
    if system.dim > 1:
        moved = xi[:-1] + (xi[-1] + Fraction(1, 7),)
        cases += [("one coordinate", moved, depth),
                  ("float one coordinate", tuple(map(float, moved)), depth)]
    return cases


def probe_outcome(probe, system, s, depth, threshold):
    """What the probe returned, as (type, xi, repr(value)), or what it raised."""
    try:
        found = probe(system, s, depth, threshold)
    except sp.SpectralPairError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(found, sp.spectrum.Witness):
        return type(found).__name__, found.xi, repr(found.value)
    return type(found).__name__, repr(found)


def package_maximality_probe(system, s, depth, threshold):
    with mock.patch.object(sp.spectrum, "WITNESS_THRESHOLD", threshold):
        return sp.maximality_probe(system, s, depth)


@pytest.mark.parametrize("name", sorted(CONSUMER_SYSTEMS))
def test_maximality_probe_matches_fraction_oracle(name):
    """The probe on integer rows gives the result type, xi and value bits
    the per-element Fraction scan gave, at both thresholds."""
    system = CONSUMER_SYSTEMS[name]
    for label, s, depth in maximality_cases(system):
        for threshold in (sp.spectrum.WITNESS_THRESHOLD, 1.0):
            got = probe_outcome(package_maximality_probe, system, s, depth, threshold)
            want = probe_outcome(oracle_maximality_probe, system, s, depth, threshold)
            assert got == want, (label, threshold)


def test_maximality_oracle_cases_cover_each_outcome():
    """Over the data, the cases above reach a witness at the nearest
    frequency and a later one, AllOrthogonal, exact and float members, and
    a 2-D probe that matches a frequency in one coordinate only."""
    seen = set()
    for system in CONSUMER_SYSTEMS.values():
        nearest = sp.enumerate_spectrum(system, 0).elements[0]
        for label, s, depth in maximality_cases(system):
            for threshold in (sp.spectrum.WITNESS_THRESHOLD, 1.0):
                outcome = probe_outcome(oracle_maximality_probe, system, s, depth,
                                        threshold)
                if outcome[0] == "Witness":
                    seen.add("nearest witness" if outcome[1] == nearest else "later witness")
                else:
                    seen.add(label if outcome[0] == "MemberOfSpectrum" else outcome[0])
                if (label.endswith("one coordinate") and system.dim == 2
                        and outcome[0] != "MemberOfSpectrum"):
                    seen.add("2-D one coordinate")
    assert seen >= {"nearest witness", "later witness", "AllOrthogonal", "exact member",
                    "float member", "2-D one coordinate"}


def oracle_functional_equation_residual(system, t, settings_):
    """functional_equation_residual as it stood before the batch: one
    point's two transforms and its mask, one scalar call each."""
    freq, _ = exact.as_point(t, system.dim)
    pushed = system.push(freq)
    left = mu_hat_value(system, pushed, settings_)
    right = mask(system, pushed) * mu_hat_value(system, freq, settings_)
    return abs(left - right)


@pytest.mark.parametrize("backend", ["product", "quadrature"])
@pytest.mark.parametrize("name", sorted(CONSUMER_SYSTEMS))
def test_functional_equation_residuals_match_scalar_oracle(name, backend):
    """The batch, and the scalar as its batch of one, give each point's
    residual bit for bit, with exact and float points mixed in one batch."""
    system = CONSUMER_SYSTEMS[name]
    rng = np.random.default_rng(len(name))
    floats = [tuple(row) for row in rng.uniform(-8, 8, (4, system.dim)).tolist()]
    exacts = [tuple(Fraction(int(n), 7) for n in row)
              for row in rng.integers(-60, 60, (4, system.dim))]
    points = ([floats[0], exacts[0], exacts[1], floats[1]] + floats[2:] + exacts[2:]
              + [(0,) * system.dim, (-0.0,) * system.dim, ("1/4",) * system.dim])
    settings_ = TransformSettings(quadrature_depth=4, backend=backend)
    want = [oracle_functional_equation_residual(system, t, settings_) for t in points]
    got = sp.functional_equation_residuals(system, points, settings_)
    assert [repr(v) for v in got] == [repr(v) for v in want]
    scalar = [sp.functional_equation_residual(system, t, settings_) for t in points]
    assert [repr(v) for v in scalar] == [repr(v) for v in want]
    assert sp.functional_equation_residuals(system, [], settings_) == []


def oracle_float_map(m, s):
    """push and pull as they were at a float point: m s through a float
    copy of the exact matrix m."""
    return exact.mat_vec(exact.matrix_to_floats(m), s)


@pytest.mark.parametrize("name", sorted(CONSUMER_SYSTEMS))
def test_push_pull_match_float_matrix_oracle(name):
    """push and pull read the exact E^T and (E^T)^-1 for every kind of
    point; at a float point that is the float matrix, bit for bit."""
    system = CONSUMER_SYSTEMS[name]
    dim = system.dim
    rng = np.random.default_rng(20261019)
    pinned = [(0.0,) * dim, (-0.0,) * dim, (1e6,) * dim, (-1e6,) * dim,
              (-0.0, 1e6, 0.0)[:dim], (0.1, -0.0, -1e6 + 0.5)[:dim]]
    drawn = np.concatenate((rng.uniform(-8, 8, (100, dim)),
                            rng.uniform(-1e6, 1e6, (50, dim)),
                            1e6 + rng.normal(0, 1, (50, dim))))
    for point in pinned + [tuple(p) for p in drawn.tolist()]:
        assert repr(system.push(point)) == repr(oracle_float_map(system.E_transpose, point))
        assert repr(system.pull(point)) == repr(
            oracle_float_map(system.E_transpose_inverse, point))
    for den in (1, 3, 7, 1024):
        point = tuple(Fraction(k - 2 * dim, den) for k in range(dim))
        pushed, pulled = system.push(point), system.pull(point)
        assert all(type(c) is Fraction for c in pushed + pulled)
        assert system.pull(pushed) == point == system.push(pulled)


def oracle_integrate_exponential(measure_, t):
    """The quadrature kernel as a complex exponential: the mean of
    e^{i 2 pi t.x} over the atoms, one complex array."""
    return complex(np.exp(2j * np.pi * (measure_.points @ np.array(t, dtype=float))).mean())


# N = 2, 4, 8 and 3 (a count that is no power of two), d = 1, 2 and 3,
# from one atom to 2^20 of them
QUADRATURE_CASES = [
    ("scale4", 0), ("scale4", 1), ("scale4", 12), ("scale4", 20),
    ("scale4x2", 6), ("scale4x2", 10), ("middlethird", 12),
    ("shear3", 5), ("tri2", 10), ("tri2", 11), ("n3", 10),
]


def quadrature_points(dim):
    """Signed zeros, an entry of 1e-300, +-1e6 and seeded points."""
    rng = np.random.default_rng(20261019)
    pinned = [(0.0,) * dim, (-0.0,) * dim, (1e-300,) * dim, (1e6,) * dim,
              (-1e6,) * dim, (-0.0, 1.0, -1e-300)[:dim]]
    drawn = np.concatenate((rng.uniform(-50, 50, (4, dim)), rng.normal(0, 3, (2, dim))))
    return pinned + [tuple(p) for p in drawn.tolist()]


@pytest.mark.parametrize("name, depth", QUADRATURE_CASES)
def test_quadrature_matches_complex_exp_oracle(name, depth):
    system = CONSUMER_SYSTEMS.get(name) or DATA_SYSTEMS[name]
    measure_ = sp.refine_measure(sp.build_ifs(system), depth)
    points = quadrature_points(system.dim)
    want = [oracle_integrate_exponential(measure_, t) for t in points]
    assert_same_values([sp.integrate_exponential(measure_, t) for t in points], want)
    # float rows skip the point coercion, an exact point takes it
    rows = np.array(points)
    assert_same_values([sp.integrate_exponential(measure_, row) for row in rows], want)
    exact_t = (Fraction(-3, 7),) * system.dim
    assert_same_values([sp.integrate_exponential(measure_, exact_t)],
                       [oracle_integrate_exponential(measure_, tuple(map(float, exact_t)))])
    settings_ = TransformSettings(backend="quadrature", quadrature_depth=depth)
    assert_same_values(sp.mu_hat_values(system, points, settings_).tolist(), want)
    assert_same_values([mu_hat_value(system, t, settings_) for t in points[:3]], want[:3])


# counts either side of numpy's 8-way unroll, its 64-atom pairwise leaf and
# its split, and of the quadrature block; 3^11 and the prime 131,101 are
# odd counts above the block, split unevenly more than once
BLOCK = measure.QUADRATURE_BLOCK
BLOCK_COUNTS = [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 8, 2 * BLOCK + 5, 3**11, 131_101]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_quadrature_blocks_match_complex_exp_oracle(count, dim):
    rng = np.random.default_rng(count * 10 + dim)
    points = rng.uniform(-2, 2, (count, dim))
    points.setflags(write=False)
    measure_ = measure.DiscreteMeasure(depth=0, base=1, points=points)
    ts = [(0.0,) * dim, (-0.0,) * dim, (1e6,) * dim] + [
        tuple(t) for t in rng.uniform(-50, 50, (3, dim)).tolist()]
    assert_same_values([sp.integrate_exponential(measure_, np.array(t)) for t in ts],
                       [oracle_integrate_exponential(measure_, t) for t in ts])


# counts either side of each split of the block test above; one to more
# CPUs than rows, so the rows run inline, in chunks of several rows each,
# and one row to a chunk
@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("count", [1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1,
                                   BLOCK + 8, 2 * BLOCK + 5, 131_101])
def test_quadrature_batch_matches_per_row_oracle(monkeypatch, count, cpus):
    """integrate_exponentials spread over the CPUs gives, in row order,
    each row's complex-exponential mean and integrate_exponential's value
    at that row, bit for bit."""
    rng = np.random.default_rng(count)
    points = rng.uniform(-2, 2, (count, 2))
    points.setflags(write=False)
    measure_ = measure.DiscreteMeasure(depth=0, base=1, points=points)
    rows = np.concatenate(([(0.0, -0.0), (-0.0, 1e6)], rng.uniform(-50, 50, (9, 2))))
    monkeypatch.setattr(measure, "_cpu_count", lambda: cpus)
    got = measure.integrate_exponentials(measure_, rows)
    want = np.array([oracle_integrate_exponential(measure_, t) for t in rows])
    assert got.tobytes() == want.tobytes()
    per_row = np.array([sp.integrate_exponential(measure_, t) for t in rows])
    assert got.tobytes() == per_row.tobytes()


def oracle_refine_measure(system, depth):
    """The refinement as it stood with a third array per step: the
    contracted atoms, then every digit added to them by broadcasting."""
    points = np.zeros((1, system.dim))
    pull = np.array(exact.matrix_to_floats(system.E_transpose_inverse))
    digits = np.array(exact.matrix_to_floats(system.digits)).reshape(system.N, system.dim)
    for _ in range(depth):
        contracted = points @ pull
        points = (
            digits[:, None, :] + contracted[None, :, :]
        ).reshape(-1, system.dim)
    return points


@pytest.mark.parametrize("name", sorted(CONSUMER_SYSTEMS))
def test_refinement_matches_broadcast_oracle(name):
    """Atom by atom, every sign of zero included, at every depth up to
    about 2^16 atoms."""
    system = CONSUMER_SYSTEMS[name]
    depth = 0
    while system.N ** depth <= 1 << 16:
        got = sp.refine_measure(sp.build_ifs(system), depth).points
        want = oracle_refine_measure(system, depth)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        depth += 1


# a block of 64 and 256 is a whole number of prefix blocks for N = 2, 4
# and 8; 81 is one for N = 3 only, and numpy's splits of 3^n fall inside
# prefix blocks, so unaligned leaves are made from their own index range
@pytest.mark.parametrize("block", [64, 81, 256])
@pytest.mark.parametrize("name", sorted(CONSUMER_SYSTEMS))
def test_leaf_atoms_match_refinement_oracle(monkeypatch, name, block):
    """With a small block, a refinement is a core and several maps: its
    quadrature, which makes every leaf from the core, matches the
    quadrature over the oracle's explicit points bit for bit, and so do
    the points it builds on demand, at every depth up to 64 blocks."""
    monkeypatch.setattr(measure, "QUADRATURE_BLOCK", block)
    system = CONSUMER_SYSTEMS[name]
    rows = np.array(quadrature_points(system.dim)[:8])
    depth = 0
    while system.N ** depth <= 64 * block:
        refined = sp.refine_measure(sp.build_ifs(system), depth)
        want = oracle_refine_measure(system, depth)
        explicit = measure.DiscreteMeasure(depth=0, base=1, points=want)
        assert refined.count == len(want)
        got = measure.integrate_exponentials(refined, rows)
        assert got.tobytes() == measure.integrate_exponentials(explicit, rows).tobytes()
        assert refined.points.tobytes() == want.tobytes()
        depth += 1


def scalar_witnesses(system, x, y, radius):
    """separation_witness per pair, as the index separation_witnesses reports."""
    candidates = [s for s, _ in measure._dual_candidates(system, radius)]
    found = [sp.separation_witness(system, tuple(a), tuple(b), radius)
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
    with mock.patch.object(measure, "SEPARATION_TOLERANCE", tol):
        try:
            expected = scalar_witnesses(system, x, y, radius)
        except sp.IdenticalPoints:
            with pytest.raises(sp.IdenticalPoints):
                sp.separation_witnesses(system, x, y, radius)
            return
        candidates, witness = sp.separation_witnesses(system, x, y, radius)
    assert candidates == tuple(s for s, _ in measure._dual_candidates(system, radius))
    assert witness.tolist() == expected


def test_separation_witnesses_across_chunks(monkeypatch):
    system = SYSTEMS["scale4x2"]
    rng = np.random.default_rng(7)
    x = rng.integers(-16, 16, size=(40, 2)) / 8
    y = x + rng.integers(1, 4, size=(40, 2)) / rng.choice([1, 2, 8], size=(40, 1))
    expected = scalar_witnesses(system, x, y, 2)
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


def oracle_intersect(a, b):
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(x >= y for x, y in zip(lo, hi)):
        return None
    return Box(lo, hi)


def oracle_subtract_box(a, b):
    """The set difference a \\ b as disjoint boxes (guillotine split)."""
    core = oracle_intersect(a, b)
    if core is None:
        return [a]
    pieces = []
    lo, hi = list(a.lo), list(a.hi)
    for j in range(a.dim):
        if lo[j] < core.lo[j]:
            upper = list(hi)
            upper[j] = core.lo[j]
            pieces.append(Box(tuple(lo), tuple(upper)))
            lo[j] = core.lo[j]
        if core.hi[j] < hi[j]:
            lower = list(lo)
            lower[j] = core.hi[j]
            pieces.append(Box(tuple(lower), tuple(hi)))
            hi[j] = core.hi[j]
    return pieces


def oracle_subtract_union(boxes, cutters):
    """Disjoint boxes covering (union of boxes) minus (union of cutters)."""
    remainder = list(boxes)
    for cutter in cutters:
        remainder = [piece for b in remainder for piece in oracle_subtract_box(b, cutter)]
    return remainder


def oracle_membership(omega, lat, a):
    """Translation membership by subtraction: (omega + a) minus every lattice
    translate of omega must be null.

    A translate omega + v meets omega + a only when |v - a| < span, the
    widest side of omega's bounding box, so its coordinates z = lat^-1 v
    lie within ||lat^-1|| span of lat^-1 a.
    """
    a = exact.as_vector(a, omega.dim)
    span = max(max(b.hi[j] for b in omega.boxes) - min(b.lo[j] for b in omega.boxes)
               for j in range(omega.dim))
    reach = span * max(sum(abs(c) for c in row) for row in lat.inverse)
    cutters = []
    for z in itertools.product(*(range(math.floor(c - reach), math.ceil(c + reach) + 1)
                                 for c in lat.coordinates(a))):
        v = exact.mat_vec(lat.basis, z)
        if all(abs(x - y) < span for x, y in zip(v, a)):
            cutters += [box.translate(v) for box in omega.boxes]
    target = omega.translate(a).boxes
    return sum((p.measure for p in oracle_subtract_union(target, cutters)), Fraction(0)) == 0


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
    monkeypatch.setattr(pair, "SAMPLE_CHUNK", 64)  # 64, 64, 64, 64, 44
    samples = 300
    monkeypatch.setattr(pair, "MONTE_CARLO_SAMPLES", samples)
    gamma = sp.Lattice([[1, k], [0, 1]])
    for d_prime in TILING_DOMAINS:
        report = sp.tiling_check(d_prime, gamma, [(0, 0)], seed=seed)
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
def test_sampled_membership_matches_scalar_oracle(k, seed):
    # the seed draws lattice vectors added to the union and to the shift,
    # which must not change the verdict
    lat = sp.Lattice([[1, k], [0, 1]])
    z2 = sp.Lattice([[1, 0], [0, 1]])
    rng = np.random.default_rng(seed)
    for omega, shift, member in MEMBERSHIP_CASES:
        assert sp.translation_membership(omega, z2, shift) is member
        assert sp.translation_membership(omega, lat, shift) is member
        u, v = (exact.mat_vec(lat.basis, tuple(map(int, z)))
                for z in rng.integers(-3, 4, size=(2, 2)))
        moved = sp.translation_membership(
            omega.translate(u), lat, exact.vec_add(exact.as_vector(shift), v))
        assert moved is member
        assert oracle_membership(omega, lat, shift) is member


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


def oracle_exact_zero(omega, t):
    """Exact vanishing of the box union's transform at a rational frequency,
    as ``pair`` decided it before its zero test moved to integer rows.

    With J = {j : t_j != 0}, the transform equals a common nonzero factor
    times  sum_boxes prod_{j not in J} (hi_j - lo_j)
                     prod_{j in J} (e^{i 2 pi t_j hi_j} - e^{i 2 pi t_j lo_j}),
    a rational combination of roots of unity.
    """
    live = [j for j, tj in enumerate(t) if tj != 0]
    terms = []
    for box in omega.boxes:
        base = Fraction(1)
        for j in range(omega.dim):
            if j not in live:
                base *= box.hi[j] - box.lo[j]
        for picks in itertools.product((1, 0), repeat=len(live)):
            coeff = base
            phase = Fraction(0)
            for j, hi_pick in zip(live, picks):
                corner = box.hi[j] if hi_pick else box.lo[j]
                phase += t[j] * corner
                if not hi_pick:
                    coeff = -coeff
            terms.append((coeff, phase))
    return exp_sum_is_zero(terms)


def oracle_indicator_transform(omega, t):
    t = exact.as_vector(t, omega.dim)
    if all(v == 0 for v in t):
        return complex(float(omega.measure))
    if oracle_exact_zero(omega, t):
        return 0j
    total = 0j
    for box in omega.boxes:
        factor = 1 + 0j
        for tj, lo, hi in zip(t, box.lo, box.hi):
            factor *= pair._axis_factor(float(tj), float(lo), float(hi))
        total += factor
    return total


def oracle_orthogonality_matrix(omega, spectrum):
    measure_ = float(omega.measure)
    points = spectrum.points
    n = len(points)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        gram[i, i] = 1.0
        for j in range(i + 1, n):
            value = oracle_indicator_transform(omega, exact.vec_sub(points[j], points[i]))
            gram[i, j] = value / measure_
            gram[j, i] = gram[i, j].conjugate()
    return gram


def assert_same_bytes(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signs of zero


@pytest.mark.parametrize("name, radius", [("scale4", 40), ("scale4x2", 6)])
def test_orthogonality_matrix_matches_per_entry_oracle(name, radius):
    loaded = sp.parse_spec(name)
    spectrum = sp.truncate_spectrum(loaded.system, radius)
    got = sp.orthogonality_matrix(loaded.omega, spectrum)
    assert_same_bytes(got, oracle_orthogonality_matrix(loaded.omega, spectrum))


# corners and frequencies over small denominators, so that many
# transforms vanish
grid_rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def cell_unions(draw, dim, values=grid_rationals):
    """A union of cells of a grid with rational lines on each axis."""
    axes = [sorted(draw(st.sets(values, min_size=2, max_size=4)))
            for _ in range(dim)]
    cells = list(itertools.product(*(range(len(a) - 1) for a in axes)))
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True))
    return union(*(([a[k] for a, k in zip(axes, cell)], [a[k + 1] for a, k in zip(axes, cell)])
                   for cell in chosen))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from((1, 2)), st.data())
def test_gram_and_transform_match_fraction_zero_oracle(dim, data):
    omega = data.draw(cell_unions(dim))
    points = data.draw(st.lists(st.tuples(*[grid_rationals] * dim), max_size=6, unique=True))
    spectrum = pair.TruncatedSpectrum(
        tuple({exact.zero_vector(dim), *map(exact.as_vector, points)}))
    got = sp.orthogonality_matrix(omega, spectrum)
    assert_same_bytes(got, oracle_orthogonality_matrix(omega, spectrum))
    for p in spectrum.points:
        value = sp.indicator_transform(omega, p)
        assert_same_bytes(np.array([value]), np.array([oracle_indicator_transform(omega, p)]))


def test_gram_rows_past_int64_match_oracle():
    # over the common denominator 3 the numerators reach n and their
    # differences 2n, past int64; the transform vanishes at the
    # difference 2, not at 1/3
    n = 2**62 + 1
    omega = union(((0,), ("1/2",)), ((1,), ("3/2",)))
    points = (0, 2, Fraction(1, 3), Fraction(n, 3), Fraction(-n, 3))
    spectrum = pair.TruncatedSpectrum(tuple((p,) for p in points))
    got = sp.orthogonality_matrix(omega, spectrum)
    want = oracle_orthogonality_matrix(omega, spectrum)
    assert (want == 0).any() and (want[~np.eye(len(points), dtype=bool)] != 0).any()
    assert_same_bytes(got, want)


def test_gram_classes_keep_the_exact_zero_coordinates():
    # over D = 1 and C = 2 the differences (2, 1) and (0, 1) agree mod D*C,
    # but the transform vanishes at (2, 1) and not at (0, 1), whose first
    # coordinate is exactly 0
    omega = union(((0, 0), ("1/2", "1/2")))
    spectrum = pair.TruncatedSpectrum(((0, 0), (2, 1), (0, 1)))
    got = sp.orthogonality_matrix(omega, spectrum)
    want = oracle_orthogonality_matrix(omega, spectrum)
    assert want[0, 1] == 0 and want[0, 2] != 0
    assert_same_bytes(got, want)


def test_sampled_membership_verdict_follows_the_draws():
    # the shift maps all but a sliver of 1/500 of the union back onto it
    omega = union(((0, 0), (1, "1/4")), ((0, "1/2"), (1, "3/4")))
    shift = (0, "1001/2000")
    for k in (0, 1, 3):
        lat = sp.Lattice([[1, k], [0, 1]])
        assert sp.translation_membership(omega, lat, shift) is False
        assert oracle_membership(omega, lat, shift) is False


# every basis spans a lattice whose rectangular sublattice has index 1 to 3;
# each sheared basis follows the diagonal basis it shears
MEMBERSHIP_BASES = {
    "z2": [[1, 0], [0, 1]],
    "shear1": [[1, 1], [0, 1]],
    "shear-3": [[1, -3], [0, 1]],
    "rect": [["1/2", 0], [0, 2]],
    "rect_sheared": [["1/2", 4], [0, 2]],
    "checkerboard": [[1, 1], [-1, 1]],
    "checkerboard_sheared": [[1, 2], [-1, 0]],
    "index3": [[2, 1], [1, 2]],
    "index3_skew": [["1/2", 0], ["1/2", "3/2"]],
    "fifths_sevenths": [["2/5", 0], [0, "5/7"]],  # denominators no corner has
}
TWINS = {"shear1": "z2", "shear-3": "z2", "rect_sheared": "rect",
         "checkerboard_sheared": "checkerboard"}


def order_mod(lat, a):
    """The least n >= 1 with n a in the lattice."""
    return math.lcm(*(c.denominator for c in lat.coordinates(a)))


def orbit_union(omega, a, n):
    """omega + {0, a, ..., (n-1) a} as disjoint boxes."""
    pieces = []
    for k in range(n):
        shifted = omega.translate(tuple(k * c for c in a)).boxes
        pieces += oracle_subtract_union(shifted, pieces)
    return BoxUnion(tuple(pieces))


grid_unions = st.builds(
    lambda hx, hy, cells: union(*(((i * hx, j * hy), ((i + 1) * hx, (j + 1) * hy))
                                  for i, j in cells)),
    st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))),
    st.sampled_from((Fraction(1, 2), Fraction(1, 4), Fraction(2, 3))),
    st.sets(st.tuples(st.integers(-2, 3), st.integers(-2, 3)), min_size=1, max_size=3),
)
grid_shifts = st.tuples(
    *(st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))
      for _ in range(2)))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(MEMBERSHIP_BASES)), grid_unions, grid_shifts)
def test_membership_matches_subtraction_oracle(name, omega, shift):
    lat = sp.Lattice(MEMBERSHIP_BASES[name])
    got = sp.translation_membership(omega, lat, shift)
    assert got is oracle_membership(omega, lat, shift)
    if name in TWINS:
        assert got is sp.translation_membership(
            omega, sp.Lattice(MEMBERSHIP_BASES[TWINS[name]]), shift)
    # the orbit of omega under the shift is invariant modulo the lattice
    n = order_mod(lat, shift)
    if n <= 4:
        orbit = orbit_union(omega, shift, n)
        assert sp.translation_membership(orbit, lat, shift) is True
        assert oracle_membership(orbit, lat, shift) is True


def oracle_reduce(boxes, cell):
    """Split boxes into pieces translated into the cell [0, cell)."""
    pieces = []
    for box in boxes:
        per_axis = []
        for lo, hi, side in zip(box.lo, box.hi, cell):
            axis = []
            k = lo // side  # Fraction floor division -> integer Fraction
            while k * side < hi:
                a = max(lo, k * side)
                b = min(hi, (k + 1) * side)
                axis.append((a - k * side, b - k * side))
                k += 1
            per_axis.append(axis)
        pieces += (Box(tuple(p[0] for p in combo), tuple(p[1] for p in combo))
                   for combo in itertools.product(*per_axis))
    return pieces


def oracle_first_overlap(boxes):
    for a, b in itertools.combinations(boxes, 2):
        if oracle_intersect(a, b) is not None:
            return a, b
    return None


def oracle_difference_measure(a, b):
    return sum((p.measure for p in oracle_subtract_union(a, b)), Fraction(0))


def oracle_reduce_mod_lattice(omega, lat):
    pieces = oracle_reduce(omega.boxes, pair.rectangular_cell(lat))
    overlap = oracle_first_overlap(pieces)
    if overlap is not None:
        raise sp.NotEmbeddable(
            "reductions overlap on positive measure: {} and {}".format(*overlap))
    return BoxUnion(tuple(pieces))


def oracle_tiling_check(d_prime, gamma, translates, omega_prime=None):
    """``tiling_check`` on a rectangular lattice, on Fraction boxes."""
    translates = [exact.as_vector(v, d_prime.dim) for v in translates]
    cell_measure = abs(gamma.det)
    fundamental = d_prime.measure == cell_measure
    detail = []
    if not fundamental:
        detail.append(f"measure {d_prime.measure} != |det gamma| = {cell_measure}")
    else:
        try:
            oracle_reduce_mod_lattice(d_prime, gamma)
        except sp.NotEmbeddable as exc:
            fundamental = False
            detail.append(str(exc))
    shifted = [box.translate(a) for a in translates for box in d_prime.boxes]
    overlap = oracle_first_overlap(shifted)
    if overlap is not None:
        detail.append("translates overlap: {} and {}".format(*overlap))
    union_matches = None
    if omega_prime is not None:
        union_matches = (oracle_difference_measure(shifted, omega_prime.boxes) == 0
                         and oracle_difference_measure(omega_prime.boxes, shifted) == 0)
        if not union_matches:
            detail.append("union of translates differs from the reduced domain")
    return pair.TilingReport(fundamental, overlap is None, union_matches, "exact",
                             d_prime.measure, cell_measure, 0.0, "; ".join(detail))


# corners over 1/3, 1/4 and 1/6, negative ones included, and cells whose
# sides' denominators (5, 7) do not divide the corners'
mixed_rationals = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((3, 4, 6)))
CELL_SIDES = tuple(map(Fraction, ("1", "1/2", "2/5", "3/4", "5/3", "5/7")))
INNER_LINES = sorted({Fraction(k, d) for d in (3, 4, 6) for k in range(1, 12)})


def diagonal_lattice(cell):
    return sp.Lattice([[c if i == j else 0 for j in range(len(cell))]
                       for i, c in enumerate(cell)])


@st.composite
def mixed_boxes(draw, dim):
    """Boxes with corners in ``mixed_rationals``: apart, touching or overlapping."""
    sides = st.sets(mixed_rationals, min_size=2, max_size=2).map(sorted)
    return [Box(*zip(*draw(st.tuples(*[sides] * dim))))
            for _ in range(draw(st.integers(1, 5)))]


@st.composite
def tiling_cases(draw):
    """(D', Gamma, translates, Omega') on a diagonal lattice.

    D' is the cell [0, cell) cut on lines over 1/3, 1/4 and 1/6, each piece
    moved by a lattice vector, so that its pieces touch; then maybe one
    piece moved off the lattice or dropped.  The translates are mostly
    lattice vectors; Omega' is none, the union of the translates, or that
    union spoiled.
    """
    dim = draw(st.sampled_from((1, 2)))
    cell = draw(st.tuples(*[st.sampled_from(CELL_SIDES)] * dim))
    axes = [[Fraction(0), *sorted(draw(st.sets(
        st.sampled_from([c for c in INNER_LINES if c < side]), max_size=2))), side]
        for side in cell]
    boxes = []
    for index in itertools.product(*(range(len(a) - 1) for a in axes)):
        z = draw(st.tuples(*[st.integers(-2, 2)] * dim))
        boxes.append(Box(tuple(a[k] + n * c for a, k, n, c in zip(axes, index, z, cell)),
                         tuple(a[k + 1] + n * c for a, k, n, c in zip(axes, index, z, cell))))
    change = draw(st.sampled_from(("none", "move", "drop")))
    i = draw(st.integers(0, len(boxes) - 1))
    if change == "move":
        boxes[i] = boxes[i].translate(draw(st.tuples(*[mixed_rationals] * dim)))
    elif change == "drop" and len(boxes) > 1:
        del boxes[i]
    assume(oracle_first_overlap(boxes) is None)
    d_prime = BoxUnion(tuple(boxes))
    offsets = st.sampled_from((0, 0, 0, Fraction(1, 3), Fraction(-1, 4)))
    translates = draw(st.lists(st.tuples(*(
        st.builds(lambda n, o, c=c: n * c + o, st.integers(-2, 2), offsets) for c in cell)),
        min_size=1, max_size=3))
    omega_prime = None
    kind = draw(st.sampled_from(("none", "union", "spoiled")))
    if kind != "none":
        pieces = []
        for a in translates:
            pieces += oracle_subtract_union(d_prime.translate(a).boxes, pieces)
        if kind == "spoiled":
            pieces = (pieces[:-1] if len(pieces) > 1
                      else [pieces[0].translate((Fraction(1, 6),) * dim)])
        omega_prime = BoxUnion(tuple(pieces))
    return d_prime, diagonal_lattice(cell), translates, omega_prime


@settings(deadline=None, max_examples=200)
@given(tiling_cases())
def test_tiling_check_matches_fraction_oracle(case):
    assert sp.tiling_check(*case) == oracle_tiling_check(*case)


def assert_same_reduction(omega, lat):
    try:
        want = oracle_reduce_mod_lattice(omega, lat)
    except sp.NotEmbeddable as exc:
        with pytest.raises(sp.NotEmbeddable) as got:
            sp.reduce_mod_lattice(omega, lat)
        assert str(got.value) == str(exc)
    else:
        assert sp.reduce_mod_lattice(omega, lat).boxes == want.boxes


@settings(deadline=None, max_examples=200)
@given(tiling_cases(), st.data())
def test_reduce_mod_lattice_matches_fraction_oracle(case, data):
    d_prime, lat = case[:2]
    omega = data.draw(cell_unions(d_prime.dim, mixed_rationals))
    assert_same_reduction(d_prime, lat)
    assert_same_reduction(omega, lat)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from((1, 2)), st.data())
def test_overlap_and_difference_match_fraction_oracle(dim, data):
    a = data.draw(mixed_boxes(dim))
    if data.draw(st.booleans()):
        # b is a cut up differently, so the two agree almost everywhere
        cutter = data.draw(mixed_boxes(dim))[0]
        b = oracle_subtract_union(a, [cutter])
        b += [core for box in a if (core := oracle_intersect(box, cutter)) is not None]
        b = data.draw(st.permutations(b))
    else:
        b = data.draw(mixed_boxes(dim))
    pieces, _, den = numerators(a + b)
    found = overlapping_pair(pieces)
    assert oracle_first_overlap(a + b) == (None if found is None
                                           else tuple((a + b)[i] for i in found))
    pa, pb = pieces[:len(a)], pieces[len(a):]
    assert sp.boxes.as_boxes(subtract(pa, pb), den) == oracle_subtract_union(a, b)
    assert sp.boxes.as_boxes(subtract(pb, pa), den) == oracle_subtract_union(b, a)
    assert (not subtract(pa, pb) and not subtract(pb, pa)) is (
        oracle_difference_measure(a, b) == 0 and oracle_difference_measure(b, a) == 0)


def oracle_coset_representatives(sub, sup):
    """The lexicographically first member of each class of sup/sub in
    [0, index)^d, found by scanning that box in lexicographic order."""
    rt = sp.Lattice(exact.transpose(sp.inclusion_matrix(sub, sup)))
    index = abs(int(rt.det))
    mt_inv = rt.inverse
    seen = {}
    for z in itertools.product(range(index), repeat=sup.dim):
        coords = exact.mat_vec(mt_inv, tuple(Fraction(c) for c in z))
        key = tuple(c - (c.numerator // c.denominator) for c in coords)
        if key not in seen:
            seen[key] = exact.mat_vec(sup.basis, tuple(Fraction(c) for c in z))
            if len(seen) == index:
                break
    return tuple(seen.values())


def _det(m):
    """The determinant of a square matrix, 0 when it is singular."""
    eliminated = exact._gauss_jordan(exact.as_matrix(m))
    return 0 if eliminated is None else eliminated[0]


@st.composite
def sublattice_pairs(draw):
    """(sub, sup): a rational basis of dimension 1 to 3 and the sublattice
    an integer matrix of index at most 60 picks out of it."""
    d = draw(st.integers(1, 3))
    entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    square = st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)
    sup = draw(square.filter(lambda m: _det(m) != 0))
    r = draw(st.lists(st.lists(st.integers(-5, 5), min_size=d, max_size=d),
                      min_size=d, max_size=d).filter(lambda m: 0 < abs(_det(m)) <= 60))
    sup = sp.Lattice(sup)
    return sp.Lattice(exact.mat_mul(sup.basis, exact.transpose(exact.as_matrix(r)))), sup


@settings(deadline=None, max_examples=150)
@given(sublattice_pairs())
def test_coset_representatives_match_scan_oracle(pair_):
    sub, sup = pair_
    reps = sp.coset_representatives(sub, sup)
    assert reps == oracle_coset_representatives(sub, sup)
    assert all(type(c) is Fraction for v in reps for c in v)
    # the index read off the two determinants is the number of classes and
    # |det R|, R the inclusion matrix
    assert len(reps) == abs(sub.det / sup.det) == abs(_det(sp.inclusion_matrix(sub, sup)))
    # sameness is mutual containment, in either order
    for a, b in ((sub, sup), (sup, sub)):
        mutual = all(b.contains(g) for g in a.generators) and all(
            a.contains(g) for g in b.generators)
        assert same_lattice(a, b) is mutual


def oracle_lattice_points_in_box(lat, radius):
    """The cube enumeration the package ran before it walked a Hermite
    form: every coefficient vector in [-b, b]^d, b from the row sums of
    the basis inverse, kept when its point lies in the box, nearest first
    and, in a tie, in decreasing lexicographic order."""
    bound = max(int(sum(abs(c) for c in row) * radius) + 1 for row in lat.inverse)
    points = []
    for z in itertools.product(range(-bound, bound + 1), repeat=lat.dim):
        x = exact.mat_vec(lat.basis, tuple(Fraction(c) for c in z))
        if all(abs(c) <= radius for c in x):
            points.append(x)
    points.sort(key=lambda x: (sum(c * c for c in x), tuple(-c for c in x)))
    return points


def oracle_truncate_spectrum(system, radius):
    """truncate_spectrum's points as it found them on Fraction vectors,
    over the oracle's box."""
    radius = exact.as_rational(radius)
    search = radius + max(abs(c) for l in system.freq_digits for c in l)
    points = set()
    for gamma_point in oracle_lattice_points_in_box(system.Gamma_dual, search):
        for l in system.freq_digits:
            p = exact.vec_add(gamma_point, l)
            if all(abs(c) <= radius for c in p):
                points.add(p)
    return tuple(sorted(points, key=lambda p: (sum(c * c for c in p), p)))


def assert_box_matches_oracle(lat, radius):
    want = oracle_lattice_points_in_box(lat, radius)
    rows, den = lattice_rows_in_box(lat, radius)
    assert all(type(n) is int for row in rows for n in row)
    assert [tuple(Fraction(n, den) for n in row) for row in rows] == want


def _shear(draw, d):
    """A unimodular integer matrix: up to three row operations r_i += k r_j."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3)) if d > 1 else 0):
        i, j = draw(st.sampled_from(list(itertools.permutations(range(d), 2))))
        k = draw(st.integers(-3, 3))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return exact.as_matrix(m)


@st.composite
def sheared_lattices(draw, dim=None):
    """S D T: a shear S of a diagonal scaling D, in a basis changed by a
    unimodular T; dimension ``dim``, or 1 to 3."""
    d = dim or draw(st.integers(1, 3))
    scales = draw(st.lists(st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)),
                           min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    scaling = [[s * c if i == j else 0 for j in range(d)]
               for i, (s, c) in enumerate(zip(signs, scales))]
    return sp.Lattice(exact.mat_mul(exact.mat_mul(_shear(draw, d), exact.as_matrix(scaling)),
                                    _shear(draw, d)))


BOX_RADII = st.one_of(st.just(0), st.integers(0, 3),
                      st.builds(Fraction, st.integers(0, 12), st.integers(1, 5)))


@settings(deadline=None, max_examples=200)
@given(sheared_lattices(), BOX_RADII)
def test_box_enumeration_matches_cube_oracle(lat, radius):
    assume(sp.lattice.box_candidates(lat, radius) <= 3000)
    assert_box_matches_oracle(lat, radius)


@pytest.mark.parametrize("lat, radius", [
    (sp.Lattice([[1, 0], [5, 1]]), 32),
    (sp.Lattice([[1, 3], [0, 1]]), 32),
    (sp.Lattice([[12, -16], [4, -4]]), 32),
    (DATA_SYSTEMS["shear3"].Gamma_dual, 8),
    (DATA_SYSTEMS["shear3"].K_dual, 8),
], ids=["shear-5", "shear-3", "conjugate", "shear3-gamma-dual", "shear3-k-dual"])
def test_roadmap_boxes_match_cube_oracle(lat, radius):
    assert_box_matches_oracle(lat, radius)


@pytest.mark.parametrize("name", sorted(FLOAT_SYSTEMS))
@pytest.mark.parametrize("radius", [0, 1, Fraction(5, 2), 4])
def test_truncate_spectrum_matches_fraction_oracle(name, radius):
    system = FLOAT_SYSTEMS[name]
    points = sp.truncate_spectrum(system, radius).points
    assert points == oracle_truncate_spectrum(system, radius)
    assert all(type(c) is Fraction for p in points for c in p)


@pytest.mark.parametrize("name", sorted(FLOAT_SYSTEMS))
def test_dual_candidates_match_fraction_oracle(name):
    system = FLOAT_SYSTEMS[name]
    measure._dual_candidates.cache_clear()
    got = measure._dual_candidates(system, 3)
    want = [(s, tuple(map(float, s)))
            for s in oracle_lattice_points_in_box(system.K_dual, 3)]
    assert [s for s, _ in got] == [s for s, _ in want]
    assert repr([f for _, f in got]) == repr([f for _, f in want])


@settings(deadline=None, max_examples=150)
@given(sheared_lattices(), st.data())
def test_same_lattice_is_containment_with_equal_det(a, data):
    d = a.dim
    kind = data.draw(st.sampled_from(("rebased", "scaled", "sublattice", "other")))
    if kind == "rebased":
        b = sp.Lattice(exact.mat_mul(a.basis, _shear(data.draw, d)))
    elif kind == "scaled":
        c = data.draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 4)))
        b = sp.Lattice([[c * x for x in row] for row in a.basis])
    elif kind == "sublattice":
        e = data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
        b = sp.Lattice([[x * k for x, k in zip(row, e)] for row in a.basis])
    else:
        b = data.draw(sheared_lattices(dim=d))
    for x, y in ((a, b), (b, a)):
        inside = all(y.contains(g) for g in x.generators)
        assert same_lattice(x, y) is (inside and abs(x.det) == abs(y.det))
    h, den = a.hermite
    assert all(h[i][j] == 0 for i in range(d) for j in range(i + 1, d))
    assert all(0 <= h[i][j] < h[i][i] for i in range(d) for j in range(i))
    assert math.gcd(den, *(x for row in h for x in row)) == 1
    form = sp.Lattice([[Fraction(x, den) for x in row] for row in h])
    assert abs(form.det) == abs(a.det) and all(a.contains(g) for g in form.generators)
