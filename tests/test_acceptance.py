"""The acceptance gate, one test per criterion.

Each test prints its one-line PASS/FAIL summary (visible with ``pytest -s``
or on failure), asserts the criterion at the tolerance pinned in the
acceptance module, and holds the line to the bytes ``specpair accept``
printed before the gate's code was last changed.
"""

import tracemalloc

import pytest

from specpair import acceptance

ACCEPT_LINES = (
    "[ 1] PASS completeness sum reproduction (s=2): final sigma 0.999999909783, max golden gap 9.022e-08",
    "[ 2] PASS orthogonality zeros and Gram identity: 4032 ordered pairs, 0 nonzero; Gram deviation 0.000e+00",
    "[ 3] PASS functional equation residuals: quadrature 2.035e-06 (<1e-5), product 4.041e-16 (<1e-13)",
    "[ 4] PASS isometry relation residuals: isometry 7.868e-23, range 0.0, completeness 0.000e+00",
    "[ 5] PASS vacuum state values: 30 range projections in [0, 1]",
    "[ 6] PASS tiling decomposition (exact): 1d and 2d tilings pass exactly",
    "[ 7] PASS separation of depth-10 atoms: 523776 pairs, 0 without witness 1",
    "[ 8] PASS ternary negative control: all variants rejected; completeness residual 0.500",
    "[ 9] PASS refinement self-similarity identity: worst residual 8.951e-16 over depths 1..10",
    "[10] PASS property sweep: symmetry, bounds, invariance, involution, round trip all hold",
)


@pytest.mark.parametrize(
    "criterion, expected",
    zip(acceptance.CRITERIA, ACCEPT_LINES),
    ids=[fn.__name__.removeprefix("criterion_") for fn in acceptance.CRITERIA],
)
def test_acceptance_criterion(criterion, expected):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    assert result.line() == expected


def test_separation_memory_is_bounded():
    # the 523,776 pairs of depth-10 atoms at once took about 47 MB
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        assert acceptance.criterion_7_separation().passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 12e6
