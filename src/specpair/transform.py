"""The digit mask, the measure transform, and its functional equation.

The transform of the invariant measure obeys

    transform(E^T t) = mask(E^T t) * transform(t),

which unrolls to the truncated product  prod_k mask((E^T)^{-k} t)  --
the product backend.  The quadrature backend integrates the exponential
against a depth-n refinement instead; the two paths share no code, which
is what makes their agreement a meaningful check.

At rational frequencies the product runs in one integer loop,
``_exact_row``: each level's phases are integers p over one q, so the
mask's zeros (which carry all orthogonality statements downstream) are
decided exactly, at every conductor, from the residues p mod q, and end
the product as a literal zero.  A factor whose roots lie in one open half
plane cannot vanish, which the residues show by one sort; only the others
go to ``cyclotomic.roots_sum_is_zero``, memoized per (sorted residues, q)
in at most 4,096 entries: a product meets the same few residue patterns
at most of its levels, so the cyclotomic recursion decides each once.

The loop reads one integer row over a denominator.  A single exact
point, mu_hat_value's or mask's, is read straight into one row of ints
over its least denominator (``exact.as_point_row``, no Fraction built)
and stays scalar, since a batch of one costs several times the plain
loop.  It runs through ``_row_product``, the loop memoized per
(system, row, den, depth) in at most 4,096 entries: a command asks for
the same points again and again (the differences of a frequency set
repeat, and so does each Gram), so only a new point runs the loop.  A
set of rational frequencies runs through ``_exact_block``: the same loop
on integer rows over one denominator, which its callers build, in numpy
object arrays, so each level is a few array operations, each value bit
for bit the one ``_exact_row`` gives.

Float frequencies go through one batched kernel, ``mu_hat_values``: an
(M, d) array of points runs the product level by level in numpy, each
operation the one Python's scalar complex arithmetic performs, so every
value is the float the scalar loop gives.  A single float point is a
batch of one, and so is every quadrature request.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from . import exact
from .cyclotomic import in_open_half_circle, roots_sum_is_zero
from .errors import BudgetExceeded, NonFinitePoint
from .lattice import SimpleFactor
from .measure import DiscreteMeasure, build_ifs, integrate_exponentials, refine_measure

MAX_PRODUCT_DEPTH = 200
# rows per numpy pass in mu_hat_values and _exact_block; bounds the
# (N, rows) phase arrays whatever the number of points
CHUNK_ROWS = 4096
TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class TransformSettings:
    """Truncation depths and backend choice for transform evaluation."""

    product_depth: int = 30
    quadrature_depth: int = 12
    backend: str = "product"

    def __post_init__(self):
        if self.backend not in ("product", "quadrature"):
            raise ValueError(f"unknown backend {self.backend!r}")
        check_product_depth(self.product_depth)
        if self.quadrature_depth < 0:
            raise ValueError("quadrature depth must be nonnegative")


def check_product_depth(depth: int) -> None:
    """Raise BudgetExceeded when ``depth`` lies outside [1, MAX_PRODUCT_DEPTH]."""
    if not 1 <= depth <= MAX_PRODUCT_DEPTH:
        raise BudgetExceeded(f"product depth {depth} outside [1, {MAX_PRODUCT_DEPTH}]")


# mask is the product truncated after its first factor
_MASK = TransformSettings(product_depth=1)


def mask(system: SimpleFactor, t) -> complex:
    """The digit mask (1/N) sum_b e^{i 2 pi b.t}: the depth-1 product.

    mask(0) = 1.  At rational ``t`` the value is pinned exactly when it
    is a structural 1 (all phases integral) or a structural 0 (the root
    of unity sum vanishes in its cyclotomic field).  A float ``t`` is the
    depth-1 float product on a batch of one.
    """
    return mu_hat_value(system, t, _MASK)


def _exact_product(system: SimpleFactor, freq: tuple, depth: int) -> complex:
    """The product of the masks at (E^T)^{-k} freq, k < depth, at an exact
    frequency: _exact_row on its numerators over their least denominator,
    with no memo (the tests' scalar reference)."""
    (num,), den = exact.over_common_denominator((freq,))
    return _exact_row(system, num, den, depth)


@lru_cache(maxsize=1 << 12)
def _row_product(system: SimpleFactor, row: tuple, den: int, depth: int) -> complex:
    """_exact_row at one exact point, memoized per (system, row, den, depth):
    a command meets the same few points again and again (each difference
    of a frequency set recurs), and a key of Python ints hashes an order
    of magnitude faster than one of Fractions.  Each entry holds its
    system, as _cached_measure's do."""
    return _exact_row(system, row, den, depth)


def _exact_row(system: SimpleFactor, num, den: int, depth: int) -> complex:
    """The depth-``depth`` product at the point num / den, for a sequence
    ``num`` of integers.

    The point is pulled back as integer numerators over a growing
    denominator, so each level's phases b.t are integers p over one q.  A
    level whose residues p mod q all vanish is a structural 1; one whose
    roots fail the half-plane test and whose root sum vanishes
    (roots_sum_is_zero on the sorted residues and q) ends the product as
    0j.  Any other factor is the float sum at p / q, which
    Python rounds correctly, so it equals float(Fraction(p, q)) bit for
    bit.  ``den`` need not be the least denominator (see _exact_block).
    """
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


def _root_means(phases: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of each column's
    sum(cmath.exp(2j * math.pi * phase) for phase in column) / n, for an
    (N, rows) array of float phases.

    The sum starts from the int 0, which is the ``0.0 +``; the imaginary
    part of 2j*pi*phase is 0.0*0.0 + 2pi*phase and its real part is a
    zero, so cmath.exp gives exactly (cos, sin) of that angle.
    """
    angles = TWO_PI * phases + 0.0
    cos, sin = np.cos(angles), np.sin(angles)
    re, im = 0.0 + cos[0], 0.0 + sin[0]
    for k in range(1, len(cos)):
        re += cos[k]
        im += sin[k]
    # complex / n divides by (n, 0.0) through the ratio 0.0 / n = 0.0
    return (re + im * 0.0) / n, (im - re * 0.0) / n


def _float_product(
    system: SimpleFactor, points: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the depth-``depth`` product at each row
    of ``points``.

    Each level's mask is what Python computes as
    sum(cmath.exp(2j * math.pi * sum(b_j * t_j)) for b in digits) / N on
    the level's coordinate columns t_j.  Python's complex multiply is
    written out in real operations, because numpy's complex multiply fuses
    them and rounds differently; pull is exact.mat_vec on floats.  Every
    phase and pull row is summed left to right from the int 0, which is
    the ``0.0``.  A row whose factor is an exact zero is 0j, the scalar
    loop's early exit.
    """
    digits, pull = system._float_digits, system._float_pull
    columns = list(points.T)
    re = np.ones(len(points))
    im = np.zeros(len(points))
    zero = np.zeros(len(points), dtype=bool)
    for level in range(depth):
        if level:
            columns = [sum((m * c for m, c in zip(row, columns)), 0.0) for row in pull]
        phases = sum((b[:, None] * c for b, c in zip(digits.T, columns)), 0.0)
        f_re, f_im = _root_means(phases, system.N)
        zero |= (f_re == 0) & (f_im == 0)
        re, im = re * f_re - im * f_im, re * f_im + im * f_re
    re[zero] = 0.0
    im[zero] = 0.0
    return re, im


def _exact_block(system: SimpleFactor, rows, den: int, depth: int) -> list[complex]:
    """The depth-``depth`` product at each of the (M, d) integer rows, the
    points rows / den, bit for bit the value _exact_row gives at each.

    The rows run CHUNK_ROWS at a time, level by level, so each chunk's
    phases are integers p over one q, in numpy object arrays of Python
    ints.  ``den`` need not be the least denominator: scaling p and q by
    one factor changes neither the correctly rounded float p / q, nor
    which residues vanish, nor the half-plane test, nor roots_sum_is_zero's
    verdict, only its memo key.  A row leaves its chunk as 0j at an exact
    zero or at a float factor that rounds to 0j, as the scalar loop does.
    """
    digits, digit_den, pull, pull_den = system._integer_maps
    digits, pull = np.array(digits, dtype=object), np.array(pull, dtype=object)
    values = [0j] * len(rows)
    for start in range(0, len(rows), CHUNK_ROWS):
        num = np.array(rows[start:start + CHUNK_ROWS], dtype=object).T
        live = np.arange(start, start + num.shape[1])
        re, im = np.ones(len(live)), np.zeros(len(live))
        for level in range(depth):
            if level:
                num = pull @ num
            q = digit_den * den * pull_den**level
            phases = digits @ num
            residues = np.sort(phases % q, axis=0)
            one = residues[-1] == 0
            # in_open_half_circle row by row: the widest gap around the circle
            gaps = np.concatenate((residues[1:], residues[:1] + q)) - residues
            undecided = np.flatnonzero(gaps.max(axis=0) <= q // 2)
            zero = np.zeros(len(live), dtype=bool)
            zero[undecided] = [roots_sum_is_zero(tuple(column), q)
                               for column in residues[:, undecided].T.tolist()]
            f_re, f_im = np.ones(len(live)), np.zeros(len(live))
            roots = ~(one | zero)
            f_re[roots], f_im[roots] = _root_means(
                (phases[:, roots] / q).astype(float), system.N)
            zero |= (f_re == 0) & (f_im == 0)
            re, im = re * f_re - im * f_im, re * f_im + im * f_re
            keep = ~zero
            live, num, re, im = live[keep], num[:, keep], re[keep], im[keep]
            if not len(live):
                break
        for j, value_re, value_im in zip(live.tolist(), re.tolist(), im.tolist()):
            values[j] = complex(value_re, value_im)
    return values


@lru_cache(maxsize=8)
def _cached_measure(system: SimpleFactor, depth: int) -> DiscreteMeasure:
    return refine_measure(build_ifs(system), depth)


def mu_hat_value(
    system: SimpleFactor, t, settings: TransformSettings = TransformSettings()
) -> complex:
    """The transform of the invariant measure at frequency ``t``.

    Backend "product" returns the truncated mask product; "quadrature"
    integrates against the cached refinement: _transforms_at on one point.
    """
    return _transforms_at(system, [exact.as_point_row(t, system.dim)], settings)[0]


def mu_hat_values(
    system: SimpleFactor, points, settings: TransformSettings = TransformSettings()
) -> np.ndarray:
    """The transform at every row of an (M, d) array of float points, as M
    complex values.

    Each value is bit for bit the one mu_hat_value gives at that row as a
    float point; the product runs CHUNK_ROWS rows per numpy pass and
    the quadrature backend hands every row to integrate_exponentials.
    Raises ValueError on another shape and NonFinitePoint on a NaN or
    infinite entry.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != system.dim:
        raise ValueError(f"expected an (M, {system.dim}) array of points")
    if not np.isfinite(points).all():
        raise NonFinitePoint("some point has a non-finite entry")
    if settings.backend == "quadrature":
        return integrate_exponentials(
            _cached_measure(system, settings.quadrature_depth), points)
    values = np.empty(len(points), dtype=complex)
    for start in range(0, len(points), CHUNK_ROWS):
        chunk = slice(start, start + CHUNK_ROWS)
        values.real[chunk], values.imag[chunk] = _float_product(
            system, points[chunk], settings.product_depth)
    return values


def functional_equation_residual(
    system: SimpleFactor,
    t,
    settings: TransformSettings = TransformSettings(backend="quadrature"),
) -> float:
    """| transform(E^T t) - mask(E^T t) transform(t) | for the chosen backend.

    Defaults to the quadrature backend, where the residual measures real
    refinement error; the product backend satisfies the identity by
    construction up to its truncation tail.  functional_equation_residuals'
    value at [t], from two mu_hat_value calls and one mask call.
    """
    freq, _ = exact.as_point(t, system.dim)
    pushed = system.push(freq)
    left, right = mu_hat_value(system, pushed, settings), mu_hat_value(system, freq, settings)
    return abs(left - mask(system, pushed) * right)


def functional_equation_residuals(
    system: SimpleFactor,
    points,
    settings: TransformSettings = TransformSettings(backend="quadrature"),
) -> list[float]:
    """functional_equation_residual at each point of ``points``, in order:
    three batches (the transforms at the pushed points, the masks there
    and the transforms at the points), each value bit for bit
    mu_hat_value's, then Python's complex abs(left - mask * right)."""
    freqs = [exact.as_point(t, system.dim)[0] for t in points]
    pushed = [exact.as_point_row(system.push(freq)) for freq in freqs]
    return [abs(left - factor * right) for left, factor, right in zip(
        _transforms_at(system, pushed, settings),
        _transforms_at(system, pushed, _MASK),
        _transforms_at(system, [exact.as_point_row(freq) for freq in freqs], settings))]


def _transforms_at(system: SimpleFactor, points: list,
                   settings: TransformSettings) -> list[complex]:
    """The transform at each of exact.as_point_row's (row, den) pairs, in
    order: the exact points of the product backend on the integer loop (a
    lone point through the memo _row_product), every other point in one
    mu_hat_values batch."""
    looped = [den is not None and settings.backend == "product" for _, den in points]
    if looped == [True]:
        return [_row_product(system, *points[0], settings.product_depth)]
    exacts = [point for point, loop in zip(points, looped) if loop]
    # n / den rounds correctly, so it is float(Fraction(n, den))
    floats = [row if den is None else [n / den for n in row]
              for (row, den), loop in zip(points, looped) if not loop]
    exact_values = iter(())
    if exacts:
        den = math.lcm(*[d for _, d in exacts])
        rows = [[n * (den // d) for n in row] for row, d in exacts]
        exact_values = iter(_exact_block(system, rows, den, settings.product_depth))
    float_values = iter(mu_hat_values(system, floats, settings).tolist() if floats else ())
    return [next(exact_values if loop else float_values) for loop in looped]
