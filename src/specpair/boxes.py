"""Half-open rational boxes and exact set arithmetic on finite unions.

Half-open boxes [lo, hi) make tilings exact: pieces that merely touch have
empty intersection, so a.e.-statements about overlaps become statements
about literal emptiness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import exact
from .exact import Vector


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

    def intersect(self, other: "Box") -> "Box | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

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
        overlap = first_overlap(boxes)
        if overlap is not None:
            raise ValueError("boxes overlap: {} and {}".format(*overlap))

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    @cached_property
    def measure(self) -> Fraction:
        return sum((b.measure for b in self.boxes), Fraction(0))

    def translate(self, v) -> "BoxUnion":
        return BoxUnion(tuple(b.translate(v) for b in self.boxes))


def first_overlap(boxes: Sequence[Box]) -> tuple[Box, Box] | None:
    """The first pair of boxes, in itertools.combinations order, that
    overlap on positive measure; None when they are pairwise disjoint."""
    for a, b in itertools.combinations(boxes, 2):
        if a.intersect(b) is not None:
            return a, b
    return None


def subtract_box(a: Box, b: Box) -> list[Box]:
    """The set difference a \\ b as disjoint boxes (guillotine split)."""
    core = a.intersect(b)
    if core is None:
        return [a]
    pieces: list[Box] = []
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


def subtract_union(boxes: Iterable[Box], cutters: Iterable[Box]) -> list[Box]:
    """Disjoint boxes covering (union of boxes) minus (union of cutters)."""
    remainder = list(boxes)
    for cutter in cutters:
        remainder = [piece for b in remainder for piece in subtract_box(b, cutter)]
    return remainder


def difference_measure(a: Sequence[Box], b: Sequence[Box]) -> Fraction:
    return sum((p.measure for p in subtract_union(a, b)), Fraction(0))


def equal_almost_everywhere(a: Sequence[Box], b: Sequence[Box]) -> bool:
    """Whether two unions of boxes agree up to measure zero (exact); the
    boxes of either may overlap."""
    return difference_measure(a, b) == 0 and difference_measure(b, a) == 0
