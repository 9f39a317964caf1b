from fractions import Fraction as F

import pytest

from specpair.boxes import (
    Box,
    BoxUnion,
    difference_measure,
    equal_almost_everywhere,
    first_overlap,
    subtract_box,
)


def test_box_normalizes_and_measures():
    box = Box(("0", 0), ("1/2", 2))
    assert box.measure == F(1)
    assert box.dim == 2
    with pytest.raises(ValueError):
        Box((0,), (0,))


def test_box_intersection_half_open():
    a = Box((0,), (1,))
    b = Box((1,), (2,))
    assert a.intersect(b) is None  # touching boxes are disjoint
    c = Box(("1/2",), ("3/2",))
    assert a.intersect(c) == Box(("1/2",), (1,))


def test_union_requires_disjoint_boxes():
    with pytest.raises(ValueError):
        BoxUnion((Box((0,), (1,)), Box(("1/2",), (2,))))
    union = BoxUnion((Box((0,), ("1/4",)), Box(("1/2",), ("3/4",))))
    assert union.measure == F(1, 2)
    assert first_overlap(union.boxes) is None
    boxes = (Box((0,), (1,)), Box((1,), (2,)), Box(("3/2",), (3,)),
             Box(("1/2",), (2,)))
    # boxes 0 and 1 only touch; pairs 0-3 and 1-2 overlap, and 0-3 comes first
    assert first_overlap(boxes) == (boxes[0], boxes[3])


def test_subtract_box_partition():
    a = Box((0, 0), (4, 4))
    b = Box((1, 1), (2, 3))
    pieces = subtract_box(a, b)
    assert sum(p.measure for p in pieces) == a.measure - F(2)
    for p in pieces:
        assert p.intersect(b) is None
    for x, y in [(p1, p2) for p1 in pieces for p2 in pieces if p1 != p2]:
        assert x.intersect(y) is None


def test_subtract_disjoint_box_is_identity():
    a = Box((0,), (1,))
    assert subtract_box(a, Box((2,), (3,))) == [a]


def test_difference_measure_and_ae_equality():
    omega = BoxUnion((Box((0,), ("1/4",)), Box(("1/2",), ("3/4",))))
    shuffled = BoxUnion((Box(("1/2",), ("3/4",)), Box((0,), ("1/8",)),
                         Box(("1/8",), ("1/4",))))
    assert equal_almost_everywhere(omega.boxes, shuffled.boxes)
    other = BoxUnion((Box((0,), ("1/2",)),))
    assert not equal_almost_everywhere(omega.boxes, other.boxes)
    assert difference_measure(omega.boxes, other.boxes) == F(1, 4)


def test_translate():
    union = BoxUnion((Box((0,), ("1/4",)),)).translate(("1/2",))
    assert union.boxes[0] == Box(("1/2",), ("3/4",))
