"""Half-open rational boxes and exact set arithmetic on finite unions.

Half-open boxes [lo, hi) make tilings exact: pieces that merely touch have
empty intersection, so a.e.-statements about overlaps become statements
about literal emptiness.

The set arithmetic runs on integers: a piece is a box as a pair (lo, hi)
of integer numerators over one denominator, which the caller holds.  The
caller puts its boxes and the rows that go with them (shifts, a cell,
coset representatives) over one denominator once, with ``numerators``,
and turns pieces back into ``Box``es, with ``as_boxes``, only for what it
returns and for messages; Fractions appear only there and in the API.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import exact
from .exact import Vector

# a box [lo, hi) as integer numerators over a denominator its caller holds
Piece = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Box:
    """A nonempty half-open box [lo, hi) with rational corners."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        object.__setattr__(self, "lo", exact.as_vector(self.lo))
        object.__setattr__(self, "hi", exact.as_vector(self.hi, len(self.lo)))
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty box [{self.lo}, {self.hi})")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for a, b in zip(self.lo, self.hi):
            m *= b - a
        return m

    def translate(self, v) -> "Box":
        v = exact.as_vector(v, self.dim)
        return Box(exact.vec_add(self.lo, v), exact.vec_add(self.hi, v))

    def contains_point(self, x: Sequence[float]) -> bool:
        return all(a <= xi < b for a, xi, b in zip(self.lo, x, self.hi))


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of pairwise disjoint boxes with positive total measure."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(
            b if isinstance(b, Box) else Box(*b) for b in self.boxes
        )
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("a box union needs at least one box")
        dim = boxes[0].dim
        if any(b.dim != dim for b in boxes):
            raise ValueError("boxes have mismatched dimensions")
        found = overlapping_pair(numerators(boxes)[0])
        if found is not None:
            raise ValueError("boxes overlap: {} and {}".format(*(boxes[i] for i in found)))

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    @cached_property
    def measure(self) -> Fraction:
        return sum((b.measure for b in self.boxes), Fraction(0))

    def translate(self, v) -> "BoxUnion":
        return BoxUnion(tuple(b.translate(v) for b in self.boxes))


def numerators(boxes: Sequence[Box], rows=()) -> tuple[list[Piece], list, int]:
    """Boxes as pieces and rational rows as numerators over one denominator."""
    nums, den = exact.over_common_denominator([*(b.lo + b.hi for b in boxes), *rows])
    pieces = [(row[:len(row) // 2], row[len(row) // 2:]) for row in nums[:len(boxes)]]
    return pieces, list(nums[len(boxes):]), den


def as_boxes(pieces: Iterable[Piece], den: int) -> list[Box]:
    return [Box(*(tuple(Fraction(c, den) for c in row) for row in p)) for p in pieces]


def translate(piece: Piece, v: Sequence[int]) -> Piece:
    return tuple(map(operator.add, piece[0], v)), tuple(map(operator.add, piece[1], v))


def overlaps(a: Piece, b: Piece) -> bool:
    """Whether two pieces meet on positive measure; pieces that only touch do not."""
    return all(p < s and q < r for p, q, r, s in zip(a[0], b[0], a[1], b[1]))


def overlapping_pair(pieces: Sequence[Piece]) -> tuple[int, int] | None:
    """The indices of the first pair of pieces, in itertools.combinations
    order, that overlap on positive measure; None when they are pairwise
    disjoint."""
    for (i, a), (j, b) in itertools.combinations(enumerate(pieces), 2):
        if overlaps(a, b):
            return i, j
    return None


def cut(piece: Piece, cutter: Piece) -> list[Piece]:
    """The difference piece \\ cutter as disjoint pieces (guillotine split)."""
    if not overlaps(piece, cutter):
        return [piece]
    lo, hi = list(piece[0]), list(piece[1])
    pieces: list[Piece] = []
    for j, (c_lo, c_hi) in enumerate(zip(*cutter)):
        if lo[j] < c_lo:
            pieces.append((tuple(lo), (*hi[:j], c_lo, *hi[j + 1:])))
            lo[j] = c_lo
        if c_hi < hi[j]:
            pieces.append(((*lo[:j], c_hi, *lo[j + 1:]), tuple(hi)))
            hi[j] = c_hi
    return pieces


def subtract(pieces: Iterable[Piece], cutters: Iterable[Piece]) -> list[Piece]:
    """Disjoint pieces covering (union of pieces) minus (union of cutters);
    either may overlap.  Every piece has positive measure, so the
    difference is null exactly when no piece is left."""
    remainder = list(pieces)
    for cutter in cutters:
        if not remainder:
            break
        remainder = [p for piece in remainder for p in cut(piece, cutter)]
    return remainder
