"""The isometry family T_l on exponentials and its relation checks.

Each frequency digit l induces an isometry acting on exponentials by
T_l e_s = e_{E^T s + l}.  The family satisfies the Cuntz relations: the
ranges of distinct generators are orthogonal and the range projections
sum to the identity.  Rather than materializing truncated operator
matrices (the exponentials are not an orthogonal family, so truncation
would inject projection error), the relations are verified at the level
of transform values, where they are exact consequences of the digit-mask
zeros:

  isometry        max |transform(E^T u) - transform(u)|,     u in dual(K)
  range overlap   max |transform(E^T u + l' - l)|,           l != l'
  completeness    max |sum_l mask(s - l) - 1|,               s in dual(K)

The adjoint on an exponential is derived plumbing,
T_l* (c e_t) = c mask(t - l) e_{(E^T)^{-1}(t - l)}; on frequencies of the
form E^T s + l' with s in dual(K) the mask collapses to a Kronecker
delta, which the property tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from operator import add, mul, sub

import numpy as np

from . import exact
from .exact import Vector
from .lattice import (
    CheckResult,
    Lattice,
    SimpleFactor,
    box_candidates,
    dual_lattice,
    expansion_matrix,
    expansive_check,
    frequency_digit_check,
    frequency_map,
    inclusion_matrix,
    lattice_rows_in_box,
    same_lattice,
)
from .measure import DiscreteMeasure, check_quadrature_budget, integrate_exponentials
from .transform import (
    TransformSettings,
    _cached_measure,
    _exact_block,
    _root_means,
    check_product_depth,
    mask,
    mu_hat_value,
)

# relation residuals above this fail cuntz and classify_measure; truncated
# products at depth 12 leave about 2e-6
RELATION_TOLERANCE = 1e-6
# sup-norm radius of the dual(K) samples classify_measure checks
CLASSIFY_BOX_RADIUS = 4


@dataclass(frozen=True)
class ExponentialVector:
    """A scalar multiple of a pure exponential, coeff * e_freq.

    coeff == 0 encodes the zero vector; its frequency is canonicalized
    to 0 so equality behaves.
    """

    coeff: complex
    freq: tuple

    def __post_init__(self):
        coeff = complex(self.coeff)
        freq, _ = exact.as_point(self.freq)
        if coeff == 0:
            freq = (Fraction(0),) * len(freq)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "freq", freq)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @classmethod
    def basis(cls, freq) -> "ExponentialVector":
        return cls(coeff=1.0, freq=freq)


def apply_generator(
    system: SimpleFactor, ell, v: ExponentialVector
) -> ExponentialVector:
    """T_l: coeff unchanged, frequency mapped through s -> E^T s + l."""
    freq = frequency_map(system, ell, v.freq)
    return v if v.is_zero else ExponentialVector(coeff=v.coeff, freq=freq)


def apply_adjoint(
    system: SimpleFactor, ell, v: ExponentialVector
) -> ExponentialVector:
    """T_l*: scale by mask(freq - l), pull the frequency back through E^T."""
    digit = system.freq_digit(ell)
    if v.is_zero:
        return v
    shifted = exact.vec_sub(v.freq, digit)
    factor = mask(system, shifted)
    if factor == 0:
        return ExponentialVector(coeff=0j, freq=v.freq)
    return ExponentialVector(coeff=v.coeff * factor, freq=system.pull(shifted))


def word_frequency(system: SimpleFactor, word) -> Vector:
    """The exact frequency sum  sum_k (E^T)^{k-1} l_k  of a word."""
    vacuum = ExponentialVector.basis(exact.zero_vector(system.dim))
    return apply_word(system, word, vacuum).freq


def apply_word(system: SimpleFactor, word, v: ExponentialVector) -> ExponentialVector:
    """T_{l_1} ... T_{l_n} applied to v (innermost letter first)."""
    for letter in reversed(word):
        v = apply_generator(system, letter, v)
    return v


def apply_word_adjoint(
    system: SimpleFactor, word, v: ExponentialVector
) -> ExponentialVector:
    """(T_{l_1} ... T_{l_n})* applied to v (outermost adjoint first)."""
    for letter in word:
        v = apply_adjoint(system, letter, v)
    return v


def state_eval(
    system: SimpleFactor,
    alpha,
    beta,
    product_depth: int = TransformSettings.product_depth,
) -> complex:
    """The vacuum state  <e_0, T_alpha T_beta* e_0>.

    Digit arithmetic on frequencies is exact; the final pairing goes
    through the product transform at ``product_depth``.
    """
    settings = TransformSettings(product_depth=product_depth)
    v = apply_word_adjoint(system, beta, ExponentialVector.basis(exact.zero_vector(system.dim)))
    v = apply_word(system, alpha, v)
    if v.is_zero:
        return 0j
    return v.coeff * mu_hat_value(system, v.freq, settings)


@dataclass(frozen=True)
class RelationReport:
    """Worst-case residuals of the three relation checks over a sample box."""

    isometry: float
    range_orthogonality: float
    completeness: float
    box_radius: int
    sample_count: int
    degenerate: bool

    def failures(self) -> tuple[str, ...]:
        return _residual_failures(self)

    def as_dict(self) -> dict:
        return asdict(self)


def _residual_failures(report) -> tuple[str, ...]:
    """The residuals of ``report`` above RELATION_TOLERANCE, described;
    a completeness of None was not checked."""
    out = []
    if report.isometry > RELATION_TOLERANCE:
        out.append(f"isometry residual {report.isometry:.3e}")
    if report.range_orthogonality > RELATION_TOLERANCE:
        out.append(f"range orthogonality residual {report.range_orthogonality:.3e}")
    if report.completeness is not None and report.completeness > RELATION_TOLERANCE:
        out.append(f"completeness residual {report.completeness:.3e}")
    return tuple(out)


def relation_evaluations(k_dual: Lattice, box_radius, freq_digits) -> int:
    """How many transform values the relation checks over the dual(K)
    points within ``box_radius`` make at most: an isometry pair and
    |L|(|L| - 1) range overlaps per ``lattice_rows_in_box`` candidate."""
    digits = len(freq_digits)
    return box_candidates(k_dual, box_radius) * (2 + digits * (digits - 1))


def _relation_maxima(samples, push, freq_digits, transforms, masks_at):
    """Worst isometry, range-overlap and completeness residuals (None
    without ``masks_at``) over the samples u, lattice_rows_in_box's (rows,
    den): u, E^T u, E^T u + l' - l and u - l as integer rows over
    q = lcm(den e, f), the exact ``push`` E^T over e and ``freq_digits``
    over f.  ``transforms`` and ``masks_at`` map a list of rows and q to
    one value per row, in order."""
    rows, den = samples
    push, e = exact.over_common_denominator(push)
    digits, f = exact.over_common_denominator(freq_digits)
    q = math.lcm(den * e, f)
    points = [[c * (q // den) for c in u] for u in rows]
    pushed = [[sum(map(mul, m, u)) * (q // den // e) for m in push] for u in rows]
    digits = [[c * (q // f) for c in l] for l in digits]
    differences = [list(map(sub, lb, la)) for la in digits for lb in digits if la != lb]
    n = len(rows)
    values = transforms(pushed + points + [list(map(add, p, difference))
                                           for p in pushed for difference in differences], q)
    isometry = max([0.0] + [abs(a - b) for a, b in zip(values[:n], values[n:2 * n])])
    range_orth = max([0.0] + [abs(value) for value in values[2 * n:]])
    if masks_at is None:
        return isometry, range_orth, None
    masks = masks_at([list(map(sub, u, l)) for u in points for l in digits], q)
    per_sample = len(digits)
    completeness = max([0.0] + [abs(sum(masks[i:i + per_sample]) - 1)
                                for i in range(0, len(masks), per_sample)])
    return isometry, range_orth, completeness


def relation_residuals(
    system: SimpleFactor,
    box_radius: int = 32,
    product_depth: int = TransformSettings.product_depth,
) -> RelationReport:
    """Residuals of the isometry relations over dual points in a box.

    Transform values come from the product backend at ``product_depth``;
    the range-overlap terms are exact zeros whenever the leading mask
    factor vanishes exactly, so on a valid system that residual is
    literally 0.
    """
    check_product_depth(product_depth)
    samples = lattice_rows_in_box(system.K_dual, box_radius)
    isometry, range_orth, completeness = _relation_maxima(
        samples, system.E_transpose, system.freq_digits,
        partial(_exact_block, system, depth=product_depth),
        partial(_exact_block, system, depth=1),
    )
    return RelationReport(
        isometry=isometry,
        range_orthogonality=range_orth,
        completeness=completeness,
        box_radius=box_radius,
        sample_count=len(samples[0]),
        degenerate=same_lattice(system.K, system.A),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict on whether a measure fits a lattice-and-digits datum."""

    structure: tuple[CheckResult, ...]
    isometry: float
    range_orthogonality: float
    completeness: float | None

    @property
    def consistent(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[str, ...]:
        return tuple(f"structure: {c.name} ({c.detail})" for c in self.structure
                     if not c.passed) + _residual_failures(self)


def classify_measure(
    measure_source,
    K: Lattice,
    gamma: Lattice,
    freq_digits,
    digits=None,
) -> ConsistencyReport:
    """Decide whether a measure is consistent with a lattice datum.

    ``measure_source`` is a SimpleFactor (its refinement at the default
    quadrature depth and its digit set are used) or a DiscreteMeasure
    (optionally with explicit ``digits`` for the completeness check;
    without them that check is skipped).  The isometry and range-overlap
    residuals are evaluated against the *empirical* transform of the
    measure at the dual(K) points within CLASSIFY_BOX_RADIUS, with the
    expansion derived from K inside ``gamma`` -- nothing is taken from the
    measure's own provenance.  Residuals above RELATION_TOLERANCE fail.
    Raises NotASublattice when K is not contained in ``gamma``, ValueError
    when a DiscreteMeasure's dimension is not K's, and
    BudgetExceeded, before the sample box is enumerated or anything is
    refined, when the atoms (N^depth of a SimpleFactor, or the measure's
    count) times ``relation_evaluations`` exceed measure.QUADRATURE_BUDGET.

    A depth-n empirical transform carries truncation error that grows
    linearly in the sampled frequency, roughly 2 pi |u| diam contraction^n,
    so the box keeps that error under the tolerance at the default
    quadrature depth.
    """
    inclusion_matrix(K, gamma)  # raises NotASublattice

    depth = TransformSettings().quadrature_depth
    if isinstance(measure_source, SimpleFactor):
        if digits is None:
            digits = measure_source.digits
        atoms = measure_source.N**depth
    elif isinstance(measure_source, DiscreteMeasure):
        if measure_source.dim != K.dim:
            raise ValueError(f"the measure's dimension {measure_source.dim} does not "
                             f"match the lattices' dimension {K.dim}")
        atoms = measure_source.count
    else:
        raise TypeError("measure_source must be a SimpleFactor or DiscreteMeasure")
    if digits is not None:
        digits = tuple(exact.as_vector(b, K.dim) for b in digits)

    freq_digits = tuple(exact.as_vector(l, K.dim) for l in freq_digits)
    k_dual = dual_lattice(K)
    check_quadrature_budget(atoms, relation_evaluations(k_dual, CLASSIFY_BOX_RADIUS,
                                                        freq_digits))
    samples = lattice_rows_in_box(k_dual, CLASSIFY_BOX_RADIUS)
    measure = (measure_source if isinstance(measure_source, DiscreteMeasure)
               else _cached_measure(measure_source, depth))
    e = expansion_matrix(K, gamma)
    structure = [
        frequency_digit_check(freq_digits, k_dual, dual_lattice(gamma)),
        expansive_check(e),
    ]

    # n / q and each phase p / (b_den q) round correctly: float(Fraction)'s bits
    def transforms(rows, q):
        points = np.array([[n / q for n in row] for row in rows]).reshape(-1, measure.dim)
        return integrate_exponentials(measure, points).tolist()

    def digit_masks(rows, q):
        b_rows, b_den = exact.over_common_denominator(digits)
        phases = np.array([[sum(map(mul, b, row)) / (b_den * q) for row in rows]
                           for b in b_rows])
        re, im = _root_means(phases, len(digits))
        return [complex(a, b) for a, b in zip(re.tolist(), im.tolist())]

    isometry, range_orth, completeness = _relation_maxima(
        samples,
        exact.transpose(e),
        freq_digits,
        transforms,
        None if digits is None else digit_masks,
    )
    return ConsistencyReport(
        structure=tuple(structure),
        isometry=isometry,
        range_orthogonality=range_orth,
        completeness=completeness,
    )
