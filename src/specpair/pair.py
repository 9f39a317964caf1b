"""Classical harmonic analysis of a spectral pair on box unions.

The closed-form transform of a box union factors per axis; at rational
frequencies the numerator is a rational combination of roots of unity,
so structural zeros (the orthogonality relations of the pair) are decided
exactly through the cyclotomic test and reported as literal zeros, never
as small numbers.  The Gram matrix runs that test once per residue class
of its differences, not once per difference.

Translation membership is exact on every lattice, decided modulo the
largest sublattice with a diagonal basis.  Tiling is exact for rectangular
lattices (diagonal basis up to column order and sign), which covers every
built-in system; other lattices fall back to seeded sampling, in numpy
batches, with the failure bound stated on the report.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import exact
from .boxes import (Box, BoxUnion, Piece, as_boxes, numerators, overlapping_pair,
                    subtract, translate)
from .cyclotomic import residue_sum_is_zero
from .errors import BudgetExceeded, NotEmbeddable, UnknownDigit
from .exact import Vector
from .lattice import (Lattice, SimpleFactor, box_candidates, coset_representatives,
                      lattice_rows_in_box)

# most cosets of its rectangular sublattice a membership lattice may have
MEMBERSHIP_COSET_BUDGET = 2**10
MONTE_CARLO_SAMPLES = 100_000
MONTE_CARLO_DEFECT = 1e-3  # smallest relative defect the bound speaks about
# most sampled points tested at once
SAMPLE_CHUNK = 4096


def _axis_factor(t: float, lo: float, hi: float) -> complex:
    if t == 0.0:
        return complex(hi - lo)
    return (cmath.exp(2j * math.pi * t * hi) - cmath.exp(2j * math.pi * t * lo)) / (
        2j * math.pi * t
    )


def _closed_form(omega: BoxUnion, t: tuple[float, ...]) -> complex:
    """The transform at a float frequency, box by box and axis by axis."""
    total = 0j
    for box in omega.boxes:
        factor = 1 + 0j
        for tj, lo, hi in zip(t, box.lo, box.hi):
            factor *= _axis_factor(tj, float(lo), float(hi))
        total += factor
    return total


def _vanishes(corners, corner_den: int, row: tuple[int, ...], den: int) -> bool:
    """Exact vanishing of the transform at the nonzero frequency row / den.

    With t = row / den and J = {j : t_j != 0}, the transform equals a
    common nonzero factor times
        sum_boxes prod_{j not in J} (hi_j - lo_j)
                  prod_{j in J} (e^{i 2 pi t_j hi_j} - e^{i 2 pi t_j lo_j}),
    a sum of roots of unity: over the corners' denominator its weights are
    integers and its phases integer residues mod den * corner_den.
    """
    modulus = den * corner_den
    weights: dict[int, int] = {}
    for lo, hi in corners:
        terms = [(0, math.prod(h - l for l, h, n in zip(lo, hi, row) if not n))]
        for n, l, h in zip(row, lo, hi):
            if n:
                terms = [(r + n * c, s * w) for r, w in terms
                         for c, s in ((h, 1), (l, -1))]
        for r, w in terms:
            r %= modulus
            weights[r] = weights.get(r, 0) + w
    return residue_sum_is_zero(weights, modulus)


def indicator_transform(omega: BoxUnion, t) -> complex:
    """The transform integral of e^{i 2 pi t.x} over the box union.

    Evaluates the per-axis closed form; at exact rational ``t`` a vanishing
    value is detected exactly and returned as literal complex zero.
    """
    t, den = exact.as_point_row(t, omega.dim)
    if den is not None:
        if not any(t):
            return complex(float(omega.measure))
        corners, _, corner_den = numerators(omega.boxes)
        if _vanishes(corners, corner_den, t, den):
            return 0j
        # n / den rounds correctly, so it is float(Fraction(n, den))
        t = [n / den for n in t]
    return _closed_form(omega, tuple(map(float, t)))


@dataclass(frozen=True)
class TruncatedSpectrum:
    """A finite truncation of the spectrum L + dual(Gamma), 0 included;
    ``rows`` / ``den``, derived once, are the points over their least
    common denominator, and the checks run on them."""

    points: tuple[Vector, ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple(exact.as_vector(p) for p in self.points)
        rows, den = exact.over_common_denominator(points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)
        if len(set(rows)) != len(rows):
            raise ValueError("spectrum points must be pairwise distinct")
        if len(set(map(len, rows))) > 1:
            raise ValueError("spectrum points must share one dimension")
        if all(any(row) for row in rows):
            raise UnknownDigit("a truncated spectrum must contain 0")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.rows[0])


def _search_radius(system: SimpleFactor, radius: Fraction) -> Fraction:
    """Sup-norm radius of the dual(Gamma) points a digit shift can bring
    within ``radius``."""
    if radius < 0:
        raise ValueError(f"spectrum radius {radius} is negative")
    return radius + max(
        (abs(c) for l in system.freq_digits for c in l), default=Fraction(0)
    )


def spectrum_candidates(system: SimpleFactor, radius) -> int:
    """How many points ``truncate_spectrum`` tries: |L| per dual(Gamma) candidate."""
    search = _search_radius(system, exact.as_rational(radius))
    return len(system.freq_digits) * box_candidates(system.Gamma_dual, search)


def difference_candidates(system: SimpleFactor, radius) -> int:
    """A bound on the distinct differences of ``truncate_spectrum``'s points,
    the entries ``orthogonality_matrix`` transforms: |{l' - l}| per
    dual(Gamma) candidate in twice the search box."""
    search = _search_radius(system, exact.as_rational(radius))
    digits = system.freq_digits
    shifts = {exact.vec_sub(b, a) for a in digits for b in digits}
    return len(shifts) * box_candidates(system.Gamma_dual, 2 * search)


def truncate_spectrum(system: SimpleFactor, radius) -> TruncatedSpectrum:
    """All points of L + dual(Gamma) with sup-norm at most ``radius``."""
    radius = exact.as_rational(radius)
    gamma_rows, gamma_den = lattice_rows_in_box(system.Gamma_dual,
                                                _search_radius(system, radius))
    digits, digit_den = exact.over_common_denominator(system.freq_digits)
    # every point over den = lcm of the two denominators, as integer rows
    den = math.lcm(gamma_den, digit_den)
    gamma_scale, digit_scale = den // gamma_den, den // digit_den
    digits = [[digit_scale * c for c in l] for l in digits]
    bound = math.floor(radius * den)
    points = set()
    for g in gamma_rows:
        shifted = [gamma_scale * c for c in g]
        for l in digits:
            p = tuple([a + b for a, b in zip(shifted, l)])
            if all(abs(c) <= bound for c in p):
                points.add(p)
    rows = sorted(points, key=lambda p: (sum([c * c for c in p]), p))
    return TruncatedSpectrum(tuple(exact.from_common_denominator(rows, den)))


def orthogonality_matrix(omega: BoxUnion, spectrum: TruncatedSpectrum) -> np.ndarray:
    """Normalized pairings: entry (i, j) is transform(lambda_j - lambda_i) / measure.

    The upper triangle's differences are the spectrum's integer rows
    subtracted, over its denominator D, and deduplicated.  The exact zero
    test reads a row only through which coordinates are 0 (they pick the
    weights prod (hi - lo)) and the others mod D * C, C the corners'
    denominator (they fix the phases n * c mod D * C), so rows that agree
    there have one root-of-unity sum and one verdict: the test runs once
    per such class.  Only the rows that do not vanish are evaluated in
    floats.  The lower triangle is the conjugate of the upper.
    Raises ValueError when the points and the union differ in dimension.
    """
    _check_dims(omega, spectrum)
    measure = float(omega.measure)
    den = spectrum.den
    n = len(spectrum)
    points = np.array(spectrum.rows, dtype=object)
    upper = np.triu_indices(n, 1)
    index: dict[tuple[int, ...], int] = {}
    diffs = zip(*(points[upper[1]] - points[upper[0]]).T.tolist())
    inverse = [index.setdefault(diff, len(index)) for diff in diffs]
    corners, _, corner_den = numerators(omega.boxes)
    modulus = den * corner_den
    # one zero test per class; -1, never a residue, marks an exact zero coordinate
    zero: dict[tuple[int, ...], bool] = {}
    values = []
    for diff in index:
        key = tuple([c % modulus if c else -1 for c in diff])
        if key not in zero:
            zero[key] = _vanishes(corners, corner_den, diff, den)
        values.append(0j if zero[key]
                      else _closed_form(omega, tuple(c / den for c in diff)) / measure)
    values = np.array(values, dtype=complex)[inverse]
    gram = np.eye(n, dtype=complex)
    gram[upper] = values
    gram[upper[::-1]] = values.conj()
    return gram


def rectangular_cell(lat: Lattice) -> Vector | None:
    """Cell side lengths when the lattice is a product of scaled axes.

    Returns None when the basis is not diagonal up to column order and
    sign, in which case tiling_check samples.  A diagonal basis spans its
    own largest diagonal sublattice M, so the cell is M's.
    """
    if any(sum(v != 0 for v in generator) != 1 for generator in lat.generators):
        return None
    return _rectangular_sublattice(lat)[0]


def _reduce(pieces: Iterable[Piece], cell: tuple[int, ...]) -> list[Piece]:
    """Split pieces into pieces translated into the cell [0, cell), the
    cell's sides over the pieces' denominator."""
    reduced: list[Piece] = []
    for lo, hi in pieces:
        per_axis = []
        for a, b, side in zip(lo, hi, cell):
            axis = []
            k = a // side * side
            while k < b:
                axis.append((max(a, k) - k, min(b, k + side) - k))
                k += side
            per_axis.append(axis)
        reduced += (tuple(zip(*combo)) for combo in itertools.product(*per_axis))
    return reduced


def _embedding(boxes: Sequence[Box], cell: Vector) -> tuple[list[Piece], int]:
    """The boxes reduced into the cell [0, cell), as pieces over one
    denominator; raises NotEmbeddable when two reductions overlap on
    positive measure (the torus embedding is not injective)."""
    pieces, (side,), den = numerators(boxes, [cell])
    reduced = _reduce(pieces, side)
    found = overlapping_pair(reduced)
    if found is not None:
        raise NotEmbeddable("reductions overlap on positive measure: {} and {}".format(
            *as_boxes((reduced[i] for i in found), den)))
    return reduced, den


def _check_dims(omega: BoxUnion, *others) -> None:
    """Raise ValueError unless each lattice, union or spectrum in
    ``others`` that is not None has the union's dimension."""
    for other in others:
        if other is not None and other.dim != omega.dim:
            raise ValueError(f"dimension {other.dim} does not match the box "
                             f"union's dimension {omega.dim}")


def reduce_mod_lattice(omega: BoxUnion, lat: Lattice) -> BoxUnion:
    """The reduction of the union into the fundamental cell of the lattice.

    Exact, for rectangular lattices; raises NotEmbeddable when reductions
    of the boxes overlap on positive measure (the torus embedding is not
    injective), and ValueError when the dimensions differ.
    """
    _check_dims(omega, lat)
    cell = rectangular_cell(lat)
    if cell is None:
        raise ValueError(
            "reduction is implemented for rectangular lattices only"
        )
    return BoxUnion(tuple(as_boxes(*_embedding(omega.boxes, cell))))


@lru_cache(maxsize=32)
def _rectangular_sublattice(lat: Lattice) -> tuple[Vector, tuple[Vector, ...]]:
    """The cell of M, the largest sublattice of ``lat`` with a diagonal
    basis, and representatives of lat/M.

    Side i is the least c > 0 with c e_i in lat: c = q / gcd(n) when
    column i of lat^-1 is n / q.  Refuses [lat : M] > MEMBERSHIP_COSET_BUDGET.
    """
    columns, q = exact.over_common_denominator(exact.transpose(lat.inverse))
    cell = tuple(Fraction(q, math.gcd(*n)) for n in columns)
    index = abs(math.prod(cell) / lat.det)
    if index > MEMBERSHIP_COSET_BUDGET:
        raise BudgetExceeded(f"[lat : M] = {index} exceeds {MEMBERSHIP_COSET_BUDGET}")
    sub = Lattice(tuple(tuple(c if i == j else 0 for j in range(lat.dim))
                        for i, c in enumerate(cell)))
    return cell, coset_representatives(sub, lat)


def _float_at_least(q: Fraction) -> float:
    """The smallest float >= q: for every float x, x >= it exactly when x >= q."""
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


class _LatticeCover:
    """Counts, for float points, how many lattice translates land in a union.

    Corner tests are exact: with lo_f and hi_f the smallest floats at or
    above the rational corners lo and hi, a float x has lo <= x < hi
    exactly when lo_f <= x < hi_f.
    """

    def __init__(self, omega: BoxUnion, lat: Lattice):
        self.inv = np.array(exact.matrix_to_floats(lat.inverse))
        self.basis = np.array(exact.matrix_to_floats(lat.basis))
        self.centers = np.array([
            [(float(a) + float(b)) / 2 for a, b in zip(box.lo, box.hi)]
            for box in omega.boxes
        ])
        self.lo = np.array([[_float_at_least(c) for c in box.lo] for box in omega.boxes])
        self.hi = np.array([[_float_at_least(c) for c in box.hi] for box in omega.boxes])
        self.deltas = np.array(list(itertools.product((-1, 0, 1), repeat=lat.dim)))

    def counts(self, points: np.ndarray) -> np.ndarray:
        """Translates in the union for each row of an (n, d) array of points."""
        hits = np.zeros(len(points), dtype=np.intp)
        for center, lo, hi in zip(self.centers, self.lo, self.hi):
            z0 = np.round((center - points) @ self.inv.T)
            for delta in self.deltas:
                candidate = points + (z0 + delta) @ self.basis.T
                hits += ((candidate >= lo) & (candidate < hi)).all(axis=1)
        return hits


def _monte_carlo_failure_bound(samples: int) -> float:
    return float((1.0 - MONTE_CARLO_DEFECT) ** samples)


@dataclass(frozen=True)
class TilingReport:
    fundamental_domain: bool
    translates_disjoint: bool
    union_matches: bool | None
    method: str
    measure_domain: Fraction
    measure_cell: Fraction
    failure_probability: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.fundamental_domain
            and self.translates_disjoint
            and self.union_matches is not False
        )

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "measure_domain": exact.format_rational(self.measure_domain),
            "measure_cell": exact.format_rational(self.measure_cell),
            "ok": self.ok,
        }


def tiling_check(
    d_prime: BoxUnion,
    gamma: Lattice,
    translates,
    omega_prime: BoxUnion | None = None,
    seed: int = 0,
) -> TilingReport:
    """Verify the tiling decomposition behind a factor system.

    (a) ``d_prime`` is a fundamental domain for ``gamma``: its measure is
    |det gamma| and its reduction covers the cell without overlap -- exact
    for rectangular lattices, MONTE_CARLO_SAMPLES seeded samples otherwise;
    (b) the translated copies are pairwise disjoint and, when
    ``omega_prime`` is given, their union equals it up to measure zero
    (always exact).  Raises ValueError when ``gamma`` or ``omega_prime``
    has another dimension than ``d_prime``.
    """
    _check_dims(d_prime, gamma, omega_prime)
    samples = MONTE_CARLO_SAMPLES
    translates = tuple(exact.as_vector(v, d_prime.dim) for v in translates)
    cell_measure = abs(gamma.det)
    fundamental = d_prime.measure == cell_measure
    detail = []
    if not fundamental:
        detail.append(f"measure {d_prime.measure} != |det gamma| = {cell_measure}")
    failure_probability = 0.0

    cell = rectangular_cell(gamma)
    method = "monte_carlo" if cell is None else "exact"
    if fundamental and cell is not None:
        try:
            _embedding(d_prime.boxes, cell)
        except NotEmbeddable as exc:
            fundamental = False
            detail.append(str(exc))
    elif fundamental:  # not rectangular: sample the cover
        rng = np.random.default_rng(seed)
        cover = _LatticeCover(d_prime, gamma)
        bad = 0
        for start in range(0, samples, SAMPLE_CHUNK):
            size = min(SAMPLE_CHUNK, samples - start)
            points = rng.random((size, gamma.dim)) @ cover.basis.T
            bad += int((cover.counts(points) != 1).sum())
        fundamental = bad == 0
        failure_probability = _monte_carlo_failure_bound(samples)
        if bad:
            detail.append(f"{bad}/{samples} sampled points not covered once")

    pieces, shifts, den = numerators(
        d_prime.boxes + (() if omega_prime is None else omega_prime.boxes), translates)
    domain, others = pieces[:len(d_prime.boxes)], pieces[len(d_prime.boxes):]
    # the boxes of one translate are disjoint: an overlap is between two translates
    shifted = [translate(p, a) for a in shifts for p in domain]
    overlap = overlapping_pair(shifted)
    disjoint = overlap is None
    if not disjoint:
        detail.append("translates overlap: {} and {}".format(
            *as_boxes((shifted[i] for i in overlap), den)))

    union_matches: bool | None = None
    if omega_prime is not None:
        union_matches = not (subtract(shifted, others) or subtract(others, shifted))
        if not union_matches:
            detail.append("union of translates differs from the reduced domain")

    return TilingReport(
        fundamental_domain=fundamental,
        translates_disjoint=disjoint,
        union_matches=union_matches,
        method=method,
        measure_domain=d_prime.measure,
        measure_cell=cell_measure,
        failure_probability=failure_probability,
        detail="; ".join(detail),
    )


def translation_membership(omega: BoxUnion, lat: Lattice, a) -> bool:
    """Whether translating by ``a`` permutes the union modulo the lattice.

    Exact on every lattice.  Translation keeps measure on the torus, so it
    permutes the image of the union exactly when omega + a lies in
    omega + lat up to measure zero.  Modulo the rectangular sublattice M,
    that is: omega + a reduced into M's cell is covered by the reductions
    of omega + r, r over representatives of lat/M.
    """
    a = exact.as_vector(a, omega.dim)
    if lat.contains(a):
        return True
    cell, reps = _rectangular_sublattice(lat)
    pieces, (side, shift, *reps), _ = numerators(omega.boxes, [cell, a, *reps])
    cover = [p for r in reps for p in _reduce((translate(q, r) for q in pieces), side)]
    return not subtract(_reduce((translate(q, shift) for q in pieces), side), cover)
