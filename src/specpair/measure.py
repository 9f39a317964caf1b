"""The depth-n invariant measure of a datum's contraction system.

Refinement is the deterministic full tree: depth n holds one atom per
digit word of length n, uniformly weighted.  Atoms are floats (the digit
word is the exact representation and can be re-evaluated exactly).  A
refinement holds only its core, at most QUADRATURE_BLOCK atoms (1.5 MiB
at d = 3), and the maps that take them the rest of the way; every atom
has the same bits wherever it is made, and ``points`` builds them all.

Quadrature (integrate_exponentials) is one gemv per frequency (one
matrix product would round 2-D angles otherwise), then (cos, sin) of
2 pi t.x summed over leaves of at most QUADRATURE_BLOCK atoms, added
where numpy's pairwise sum splits the whole array: bit for bit the mean
of the complex exponential.  The frequencies are spread over the CPUs
the process may run on, one thread per chunk of rows, each value keeping
its bits; the threads live only for the call, so importing the package
starts none and a forked child inherits none.  Each request is charged
its atoms times rows against QUADRATURE_BUDGET before any work.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import exact
from .errors import (BudgetExceeded, DepthTooLarge, IdenticalPoints, NonFinitePoint,
                     NotExpansive, UnknownDigit)
from .exact import Vector
from .lattice import SimpleFactor, is_expansive, lattice_rows_in_box

# most atoms one refinement may have, checked before it builds any
ATOM_BUDGET = 1 << 24
# most atoms times rows one quadrature request may charge
QUADRATURE_BUDGET = 2**30
# most atoms a refinement's core holds, and integrate_exponentials makes
# and holds angles and (cos, sin) values for at once; at least the 64
# atoms of numpy's pairwise leaf, so numpy splits every longer run as the
# kernel does
QUADRATURE_BLOCK = 1 << 16
# a pairing farther than this from every integer separates two float atoms
SEPARATION_TOLERANCE = 1e-9
# pairs whose pairings separation_witnesses evaluates at once, and the
# most pairs criterion 7 hands it in one call
SEPARATION_CHUNK = 1 << 16
# concrete types ahead of the ABC, whose isinstance check is several times slower
_SCALARS = (float, int, Fraction, numbers.Number)


def build_ifs(system: SimpleFactor) -> SimpleFactor:
    """The datum itself, once it is checked to give a contraction system:
    E must be expansive (else NotExpansive) and 0 a digit (else
    UnknownDigit).  The maps x -> E^{-1} x + b, one per digit b, are read
    from the datum's own cached copies."""
    expansive, smallest = is_expansive(system.E)
    if not expansive:
        raise NotExpansive(
            f"eigenvalue modulus {smallest:.6g} <= 1; no invariant measure"
        )
    if exact.zero_vector(system.dim) not in system.digits:
        raise UnknownDigit("digit set must contain 0")
    return system


class DiscreteMeasure:
    """The depth-n refinement: one atom per digit word, uniform weights.

    Atom index i encodes its word in base N, most significant letter
    first, so the depth-(n-1) atoms sit at the indices divisible by N.

    The measure holds its core: the atoms of its first depth - steps
    letters, and the float pull and digits of the maps x -> E^{-1} x + b.
    Atom p * len(core) + r is core atom r taken through the maps of the
    letters of p, least significant letter first, as refinement takes it.
    Built from an explicit point set, a measure is a core with no steps.
    ``points`` builds every atom on its first read and keeps them; the
    quadrature makes its atoms from the core, a leaf at a time.
    """

    def __init__(self, depth: int, base: int, points: np.ndarray,
                 steps: int = 0, pull: np.ndarray | None = None,
                 digits: np.ndarray | None = None):
        self.depth = depth
        self.base = base
        self.core = points
        self.steps = steps
        self.pull = pull
        self.digits = digits

    @property
    def count(self) -> int:
        return len(self.core) * self.base**self.steps

    @property
    def weight(self) -> float:
        return 1.0 / self.count

    @property
    def dim(self) -> int:
        return self.core.shape[1]

    @cached_property
    def points(self) -> np.ndarray:
        """Every atom, in index order: the core, or the atoms refined from
        it on first read."""
        if not self.steps:
            return self.core
        points = _refined(self.core, self.pull, self.digits, self.steps)
        points.setflags(write=False)
        return points

    def word(self, index: int) -> tuple[int, ...]:
        """The digit-index word generating atom ``index``."""
        return word_at(index, self.base, self.depth)


def word_at(index: int, base: int, depth: int) -> tuple[int, ...]:
    """The length-``depth`` word of ``index`` in base ``base``, most
    significant letter first; the index order of atoms and frequencies."""
    if not 0 <= index < base**depth:
        raise IndexError(index)
    letters = []
    for _ in range(depth):
        index, letter = divmod(index, base)
        letters.append(letter)
    return tuple(reversed(letters))


def refine_measure(system: SimpleFactor, depth: int) -> DiscreteMeasure:
    """The depth-n discrete approximation of the invariant measure.

    Depth 0 is the point mass at 0; each step replaces every atom x by
    its N images E^{-1} x + b.  The measure holds the atoms of the
    largest depth m <= n with N^m <= QUADRATURE_BLOCK as its core, and
    the maps for the n - m steps left.  Raises DepthTooLarge past
    ATOM_BUDGET.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if system.N**depth > ATOM_BUDGET:
        raise DepthTooLarge(
            f"{system.N}^{depth} atoms exceed the budget of {ATOM_BUDGET}"
        )
    core_depth = depth
    while system.N**core_depth > QUADRATURE_BLOCK:
        core_depth -= 1
    digits = system._float_digits
    # rows times (E^{-1})^T, which is the pull (E^T)^{-1}
    pull = np.array(system._float_pull)
    core = _refined(np.zeros((1, system.dim)), pull, digits, core_depth)
    core.setflags(write=False)
    return DiscreteMeasure(depth=depth, base=system.N, points=core,
                           steps=depth - core_depth, pull=pull, digits=digits)


def _refined(points, pull, digits, steps: int) -> np.ndarray:
    """The atoms ``steps`` refinement steps below ``points``: image k of
    atom i, digit k + the contracted atom, at index k * len(points) + i."""
    dim = points.shape[1]
    for _ in range(steps):
        # the contracted atoms go into block 0 and digit 0 is added there
        # last, so only the parent atoms and their images are held
        images = np.empty((len(digits), len(points), dim))
        np.matmul(points, pull, out=images[0])
        np.add(digits[1:, None, :], images[0], out=images[1:])
        images[0] += digits[0]
        points = images.reshape(-1, dim)
    return points


def integrate_exponential(measure: DiscreteMeasure, t) -> complex:
    """The quadrature value of the transform: mean of e^{i 2 pi t.x}.

    ``t`` is a point as exact.as_point reads it (a 0-d array is the
    scalar it holds), or a float array of length d, which skips that
    coercion; a non-finite entry raises NonFinitePoint either way.  The
    value is integrate_exponentials' at the one row ``t``.
    """
    if not isinstance(t, np.ndarray) or not t.ndim:
        t = np.array(exact.as_point(t, measure.dim)[0], dtype=float)
    return complex(integrate_exponentials(measure, t[None])[0])


def integrate_exponentials(measure: DiscreteMeasure, rows) -> np.ndarray:
    """integrate_exponential at every row of an (M, d) float array, as M
    complex values in row order.

    Bit for bit each value is complex(np.exp(2j * np.pi * (points @ t)).mean()):
    the imaginary part of 2j*pi*phase is 0.0*0.0 + 2pi*phase and its real
    part is a zero, so the complex exponential is (cos, sin) of that
    angle.  The atoms go in leaves of at most QUADRATURE_BLOCK through
    one angle buffer and one complex buffer, 24 bytes per atom of a block;
    a leaf of a refinement is made from its core once and every row is
    summed over it before the next leaf is made.  np.add.reduce sums each
    leaf as complex numbers (the real and imaginary halves summed apart
    would be grouped otherwise).  Above the block a run of c atoms splits
    where numpy's complex pairwise sum splits its 2c scalars, after
    (c - c % 8) // 2 atoms, and the halves' sums are added, so the total
    is numpy's sum of the whole array, divided by the count as
    values.mean() divides it.
    tests/test_reference.py::test_quadrature_matches_complex_exp_oracle
    and ::test_quadrature_blocks_match_complex_exp_oracle hold it to that
    formula on either side of every split.

    The rows are cut into one contiguous chunk per CPU the process may
    run on; the calling thread computes the first and worker threads made
    for this call the rest (numpy releases the GIL in the gemv, cos, sin
    and sum), each chunk with its own two buffers.  Every value is made
    by the same operations whichever thread makes it.  One chunk -- one
    row, or one CPU -- runs inline, with no thread.  Raises ValueError on
    another shape, NonFinitePoint on a NaN or infinite entry and
    BudgetExceeded past QUADRATURE_BUDGET, before any work starts.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != measure.dim:
        raise ValueError(f"expected an (M, {measure.dim}) array of points")
    if not np.isfinite(rows).all():
        raise NonFinitePoint("some point has a non-finite entry")
    check_quadrature_budget(measure.count, len(rows))
    chunks = min(_cpu_count(), len(rows))
    if not chunks:  # no rows, no leaf to make
        return np.empty(0, dtype=complex)
    if chunks == 1:
        return _exponential_means(measure, rows)
    from concurrent.futures import ThreadPoolExecutor
    bounds = [len(rows) * k // chunks for k in range(chunks + 1)]
    with ThreadPoolExecutor(chunks - 1, thread_name_prefix="specpair-quadrature") as pool:
        futures = [pool.submit(_exponential_means, measure, rows[a:b])
                   for a, b in zip(bounds[1:-1], bounds[2:])]
        first = _exponential_means(measure, rows[:bounds[1]])
    return np.concatenate([first] + [future.result() for future in futures])


def check_quadrature_budget(atoms: int, rows: int) -> None:
    """Raise BudgetExceeded when ``atoms`` times ``rows`` exceed QUADRATURE_BUDGET."""
    if atoms * rows > QUADRATURE_BUDGET:
        raise BudgetExceeded(f"{atoms} atoms times {rows} transform evaluations "
                             f"exceed the budget {QUADRATURE_BUDGET}")


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _exponential_means(measure: DiscreteMeasure, rows) -> np.ndarray:
    """The mean of e^{i 2 pi t.x} over the atoms for each row t, through
    one angle buffer, one complex buffer and, when the leaves are made
    from the core, two atom buffers; the only function the worker
    threads run."""
    count = measure.count
    block = min(count, QUADRATURE_BLOCK)
    shape = (block, measure.dim)
    # passed down, not closed over: a recursive closure is a reference
    # cycle, which would keep the buffers alive until a garbage collection
    buffers = (np.empty(block), np.empty(block, dtype=complex)) + (
        (np.empty(shape), np.empty(shape)) if measure.steps else ())
    return _exponential_sums(measure, rows, buffers, 0, count) / count


def _exponential_sums(measure: DiscreteMeasure, rows, buffers, start: int,
                      count: int) -> np.ndarray:
    """numpy's pairwise sum of e^{i 2 pi t.x} over atoms start .. start +
    count - 1 for each row t, split as numpy splits it down to leaves of
    at most QUADRATURE_BLOCK; each leaf's atoms are made once and every
    row is summed over them in the given angle and complex buffers."""
    if count > QUADRATURE_BLOCK:
        half = (count - count % 8) // 2
        return (_exponential_sums(measure, rows, buffers, start, half)
                + _exponential_sums(measure, rows, buffers, start + half, count - half))
    atoms = _leaf_atoms(measure, buffers[2:], start, count)
    angles, values = buffers[0][:count], buffers[1][:count]
    sums = np.empty(len(rows), dtype=complex)
    for i, t in enumerate(rows):
        np.matmul(atoms, t, out=angles)
        angles *= 2 * math.pi
        # -0.0 to 0.0, as 0.0*0.0 + 2pi*phase rounds it, so no sine is -0.0
        # whichever zero numpy's sum starts from
        angles += 0.0
        np.cos(angles, out=values.real)
        np.sin(angles, out=values.imag)
        sums[i] = np.add.reduce(values)
    return sums


def _leaf_atoms(measure: DiscreteMeasure, buffers, start: int, count: int) -> np.ndarray:
    """Atoms start .. start + count - 1, bit for bit refinement's: a slice
    of the core, or each prefix block's core atoms taken through the maps
    of its prefix's letters, least significant first, in the two atom
    buffers by turns so that the last step lands in the first."""
    core = measure.core
    if not measure.steps:
        return core[start:start + count]
    size, stop = len(core), start + count
    for prefix in range(start // size, (stop - 1) // size + 1):
        first, last = max(start, prefix * size), min(stop, (prefix + 1) * size)
        atoms = core[first - prefix * size:last - prefix * size]
        rest = prefix
        for k in range(measure.steps):
            rest, letter = divmod(rest, measure.base)
            target = buffers[(measure.steps - 1 - k) % 2][first - start:last - start]
            np.matmul(atoms, measure.pull, out=target)
            # column by column: the same sums as adding the digit row, for
            # a quarter of the cost of broadcasting it
            for column, digit in zip(target.T, measure.digits[letter]):
                column += digit
            atoms = target
    return buffers[0][:count]


@dataclass(frozen=True)
class NoWitness:
    """The separation search exhausted its box without a witness."""

    search_radius: int


@lru_cache(maxsize=32)
def _dual_candidates(
    system: SimpleFactor, radius: int
) -> tuple[tuple[Vector, tuple[float, ...]], ...]:
    """Dual-lattice points with sup-norm <= radius, nearest and positive
    first, each with its floats: n / den, the bits of float(Fraction(n, den))."""
    rows, den = lattice_rows_in_box(system.K_dual, radius)
    return tuple(zip(exact.from_common_denominator(rows, den),
                     [tuple([n / den for n in row]) for row in rows]))


def separation_witness(system: SimpleFactor, x, y, search_radius: int = 8):
    """A dual-lattice frequency whose exponential separates x from y.

    Scans dual points in increasing norm; s is a witness when s.(x - y)
    is farther than SEPARATION_TOLERANCE from every integer.  Returns the
    witness vector, or NoWitness when the box is exhausted.  Raises
    IdenticalPoints when x == y, NonFinitePoint when x - y is not finite.
    """
    # a 0-d array's float() is the scalar it holds; tuples skip _SCALARS' slow ABC
    if not isinstance(x, tuple) and (isinstance(x, _SCALARS) or getattr(x, "ndim", 1) == 0):
        x = (x,)
    if not isinstance(y, tuple) and (isinstance(y, _SCALARS) or getattr(y, "ndim", 1) == 0):
        y = (y,)
    if len(x) != system.dim or len(y) != system.dim:
        raise ValueError(f"expected points of length {system.dim}")
    diff = tuple(float(a) - float(b) for a, b in zip(x, y))
    if not all(map(math.isfinite, diff)):
        raise NonFinitePoint(f"{x!r} - {y!r} is not finite")
    if tuple(float(a) for a in x) == tuple(float(b) for b in y):
        raise IdenticalPoints(f"{x!r} equals {y!r}")
    for s, s_float in _dual_candidates(system, search_radius):
        pairing = sum(c * d for c, d in zip(s_float, diff))
        distance = abs(pairing - round(pairing))
        if distance > SEPARATION_TOLERANCE:
            return s
    return NoWitness(search_radius=search_radius)


def separation_witnesses(
    system: SimpleFactor, x, y, search_radius: int = 8
) -> tuple[tuple[Vector, ...], np.ndarray]:
    """separation_witness for every pair of rows x[i], y[i] at once.

    ``x`` and ``y`` are (M, d) float arrays.  Returns the candidate
    frequencies in the order separation_witness scans them, and an int
    array holding each pair's witness as an index into them, -1 where
    the box holds none.  Pairings are summed coordinate by coordinate,
    left to right, so each one equals the scalar path's bit for bit.
    Raises IdenticalPoints when any pair is equal, NonFinitePoint when
    any x - y is not finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != system.dim:
        raise ValueError(f"expected two (M, {system.dim}) arrays of points")
    diff = x - y
    if not np.isfinite(diff).all():
        raise NonFinitePoint("some x - y is not finite")
    equal = np.flatnonzero((x == y).all(axis=1))
    if len(equal):
        raise IdenticalPoints(f"pair {equal[0]}: {x[equal[0]]!r} equals {y[equal[0]]!r}")
    candidates = _dual_candidates(system, search_radius)
    witness = np.full(len(diff), -1, dtype=np.intp)
    for start in range(0, len(diff), SEPARATION_CHUNK):
        chunk = diff[start:start + SEPARATION_CHUNK]
        rows = np.arange(start, start + len(chunk))
        for k, (_, s_float) in enumerate(candidates):
            if not len(rows):
                break
            pairing = s_float[0] * chunk[:, 0]
            for c, column in zip(s_float[1:], chunk.T[1:]):
                pairing += c * column
            found = np.abs(pairing - np.rint(pairing)) > SEPARATION_TOLERANCE
            witness[rows[found]] = k
            rows, chunk = rows[~found], chunk[~found]
    return tuple(s for s, _ in candidates), witness
