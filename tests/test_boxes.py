from fractions import Fraction as F

import pytest

from specpair.boxes import (
    Box,
    BoxUnion,
    as_boxes,
    cut,
    numerators,
    overlapping_pair,
    overlaps,
    subtract,
)


def subtract_box(a, b):
    """a \\ b as Boxes, cut on integer pieces."""
    (piece, cutter), _, den = numerators([a, b])
    return as_boxes(cut(piece, cutter), den)


def difference_measure(a, b):
    pieces, _, den = numerators([*a, *b])
    return sum((p.measure for p in as_boxes(subtract(pieces[:len(a)], pieces[len(a):]), den)),
               F(0))


def meets(a, b):
    """Whether two boxes overlap on positive measure, on integer pieces."""
    (piece, other), _, _ = numerators([a, b])
    return overlaps(piece, other)


def equal_almost_everywhere(a, b):
    return difference_measure(a, b) == 0 and difference_measure(b, a) == 0


def test_box_normalizes_and_measures():
    box = Box(("0", 0), ("1/2", 2))
    assert box.measure == F(1)
    assert box.dim == 2
    with pytest.raises(ValueError):
        Box((0,), (0,))


def test_box_intersection_half_open():
    a = Box((0,), (1,))
    b = Box((1,), (2,))
    assert not meets(a, b)  # touching boxes are disjoint
    c = Box(("1/2",), ("3/2",))
    # a meets c in a minus (a minus c)
    assert meets(a, c) and subtract_box(a, *subtract_box(a, c)) == [Box(("1/2",), (1,))]


def test_union_requires_disjoint_boxes():
    with pytest.raises(ValueError):
        BoxUnion((Box((0,), (1,)), Box(("1/2",), (2,))))
    union = BoxUnion((Box((0,), ("1/4",)), Box(("1/2",), ("3/4",))))
    assert union.measure == F(1, 2)
    assert overlapping_pair(numerators(union.boxes)[0]) is None
    boxes = (Box((0,), (1,)), Box((1,), (2,)), Box(("3/2",), (3,)),
             Box(("1/2",), (2,)))
    # boxes 0 and 1 only touch; pairs 0-3 and 1-2 overlap, and 0-3 comes first
    assert overlapping_pair(numerators(boxes)[0]) == (0, 3)
    with pytest.raises(ValueError) as raised:
        BoxUnion(boxes)
    assert str(raised.value) == f"boxes overlap: {boxes[0]} and {boxes[3]}"


def test_subtract_box_partition():
    a = Box((0, 0), (4, 4))
    b = Box((1, 1), (2, 3))
    pieces = subtract_box(a, b)
    assert sum(p.measure for p in pieces) == a.measure - F(2)
    for p in pieces:
        assert not meets(p, b)
    for x, y in [(p1, p2) for p1 in pieces for p2 in pieces if p1 != p2]:
        assert not meets(x, y)


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


def test_pieces_are_numerators_over_one_denominator():
    # corners over 3, 4 and 6 and a cell side over 5: one denominator, 60
    boxes = [Box(("-1/3", 0), ("1/4", "1/6")), Box(("1/4", "-1/2"), (1, 0))]
    pieces, rows, den = numerators(boxes, [(F(2, 5), F(3, 4))])
    assert den == 60
    assert rows == [(24, 45)]
    assert pieces == [((-20, 0), (15, 10)), ((15, -30), (60, 0))]
    assert as_boxes(pieces, den) == boxes
    # the two meet in the point (1/4, 0) only
    assert not overlaps(*pieces) and not overlaps(*pieces[::-1])
    assert overlaps(pieces[0], ((14, 9), (16, 11)))
