"""Enumeration of the orthogonal frequency set and completeness sums.

Depth-n frequencies are the affine digit sums

    xi(w) = sum_{k=1..n} (E^T)^{k-1} l_{w_k},  w a word over the digits,

computed exactly and collision-checked (a collision means the datum is
broken, not that two words share a frequency) as integer rows over one
denominator, read as Fractions or floats only through views.  Both
probes of a point s, the completeness sums and the maximality scan, read
s - xi from one builder: integer rows over one denominator when s is
exact, floats when it is not.  The
element at index i encodes its word in base N, most significant letter
first, so the depth-(n-1) enumeration sits at the indices divisible by
N -- the completeness sums inherit their monotonicity from that nesting.

The completeness sum over a truncation is a Bessel partial sum: it is
reported per depth and never asserted against its limit, because a
finite truncation cannot tell "strictly below one" from "equal to one".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exact
from .errors import BudgetExceeded, CollisionDetected, MemberOfSpectrum
from .exact import Vector
from .lattice import SimpleFactor
from .measure import word_at
from .transform import (
    CHUNK_ROWS,
    TransformSettings,
    _exact_block,
    _exact_row,
    mu_hat_values,
)

# a truncated product above this in modulus witnesses non-orthogonality
WITNESS_THRESHOLD = 1e-6
# how far a completeness partial sum, a float sum of |mu_hat|^2, may pass 1
# by rounding before it breaks the Bessel bound
BESSEL_SLACK = 1e-9
# most frequencies one enumeration may build, checked before it builds any
SPECTRUM_BUDGET = 2**18


@dataclass(frozen=True, eq=False)
class SpectrumEnumeration:
    """All depth-n frequencies in word-rank order, the integer rows / den."""

    depth: int
    base: int
    rows: np.ndarray
    den: int

    @cached_property
    def elements(self) -> tuple[Vector, ...]:
        return tuple(exact.from_common_denominator(self.rows.tolist(), self.den))

    @cached_property
    def floats(self) -> np.ndarray:
        # Python's int / int rounds correctly, as float(Fraction) does
        arr = np.asarray(self.rows / self.den, dtype=float)
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.rows)

    def word(self, index: int) -> tuple[int, ...]:
        return word_at(index, self.base, self.depth)

    def depth_slice(self, depth: int) -> range:
        """Indices of the sub-enumeration at a smaller depth."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth {depth} outside [0, {self.depth}]")
        step = self.base ** (self.depth - depth)
        return range(0, len(self.rows), step)


def enumerate_spectrum(system: SimpleFactor, depth: int) -> SpectrumEnumeration:
    """All digit sums of length ``depth``, exact and collision-checked."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if system.N**depth > SPECTRUM_BUDGET:
        raise BudgetExceeded(f"{system.N}^{depth} frequencies exceed the budget")
    # level k adds (E^T)^{k-1} l, the previous level's contribution pushed
    levels = [system.freq_digits][:depth]
    while len(levels) < depth:
        levels.append([system.push(c) for c in levels[-1]])
    nums, den = exact.over_common_denominator([c for level in levels for c in level])
    rows = np.zeros((1, system.dim), dtype=object)
    for level in np.array(nums, dtype=object).reshape(depth, system.N, system.dim):
        rows = (rows[:, None] + level).reshape(-1, system.dim)
    rows.setflags(write=False)
    enum = SpectrumEnumeration(depth=depth, base=system.N, rows=rows, den=den)
    seen: dict[tuple, int] = {}
    for rank, row in enumerate(map(tuple, rows.tolist())):
        if (other := seen.setdefault(row, rank)) != rank:
            a, b = (word_at(i, system.N, depth) for i in (other, rank))
            raise CollisionDetected(f"words {a} and {b} both map to {enum.elements[rank]}")
    return enum


def _differences(system: SimpleFactor, s, depth: int):
    """The depth-``depth`` enumeration and s - xi at each of its
    frequencies, in its order: integer rows and their denominator for an
    exact s, an array of floats and None for any other."""
    row, den = exact.as_point_row(s, system.dim)
    enum = enumerate_spectrum(system, depth)
    if den is None:
        return enum, np.array(row) - enum.floats, None
    q = math.lcm(den, enum.den)  # s - xi = (s q - xi q) / q
    row = np.array([n * (q // den) for n in row], dtype=object)
    return enum, row - (q // enum.den) * enum.rows, q


@dataclass(frozen=True)
class CompletenessRow:
    depth: int
    sigma: float
    increment: float


def completeness_table(
    system: SimpleFactor,
    s,
    depths,
    product_depth: int = TransformSettings.product_depth,
) -> list[CompletenessRow]:
    """Per-depth Bessel partial sums  sum |transform(s - xi)|^2  over the
    depth-n enumerations, sharing one product evaluation per frequency.

    Nonnegative terms, monotone in depth, at most one (plus rounding) for
    every s.
    """
    settings = TransformSettings(product_depth=product_depth)
    depths = sorted(set(int(d) for d in depths))
    if not depths or depths[0] < 0:
        raise ValueError("depths must be nonnegative")
    deepest, shifts, den = _differences(system, s, depths[-1])
    if den is None:
        values = mu_hat_values(system, shifts, settings).tolist()
    else:
        values = _exact_block(system, shifts, den, product_depth)
    values = [abs(v) ** 2 for v in values]
    rows = []
    previous = 0.0
    for depth in depths:
        # fsum is correctly rounded, so the order of the terms cannot matter
        sigma = math.fsum(values[i] for i in deepest.depth_slice(depth))
        rows.append(CompletenessRow(depth=depth, sigma=sigma,
                                    increment=sigma - previous))
        previous = sigma
    return rows


@dataclass(frozen=True)
class Witness:
    """A frequency in the enumeration that pairs non-orthogonally with s."""

    xi: Vector
    value: complex


@dataclass(frozen=True)
class AllOrthogonal:
    """No witness found at this depth; inconclusive, not a proof."""

    enum_depth: int
    threshold: float


def maximality_probe(system: SimpleFactor, s, enum_depth: int):
    """Search for a frequency the probe point is *not* orthogonal to.

    A frequency is a witness when the product transform at the default
    depth exceeds WITNESS_THRESHOLD in modulus.  A Witness supports
    maximality (s cannot be adjoined to the orthogonal family);
    AllOrthogonal only reports that this truncation found none.  Raises
    MemberOfSpectrum when s is already enumerated.
    """
    settings = TransformSettings()
    enum, shifts, den = _differences(system, s, enum_depth)
    if (shifts == 0).all(axis=1).any():
        raise MemberOfSpectrum(f"{s!r} is in the depth-{enum_depth} enumeration")
    order = np.argsort(np.linalg.norm(enum.floats, axis=1), kind="stable").tolist()
    if den is not None:
        values = (_exact_row(system, shifts[i].tolist(), den, settings.product_depth)
                  for i in order)
    else:
        # a float probe is scanned one batch at a time, in the same order
        shifted = shifts[order]
        values = itertools.chain.from_iterable(
            mu_hat_values(system, shifted[k:k + CHUNK_ROWS], settings).tolist()
            for k in range(0, len(order), CHUNK_ROWS))
    for i, value in zip(order, values):
        if abs(value) > WITNESS_THRESHOLD:
            xi, = exact.from_common_denominator([enum.rows[i].tolist()], enum.den)
            return Witness(xi=xi, value=value)
    return AllOrthogonal(enum_depth=enum_depth, threshold=WITNESS_THRESHOLD)
