"""Answer checks for benchmark jobs.

Each checker takes plain outputs (numbers, flags, rows) and returns a list
of problems; an empty list means the answer is right.  A job with any
problem, or one that raised, counts against ``fail_ratio``.  The
invariants hold for every seed; ``compare_reference`` adds the values
recorded for the default seed.
"""

from __future__ import annotations

import math

SIGMA_SLACK = 1e-9          # Bessel bound: sigma <= 1 + SIGMA_SLACK
MODULUS_SLACK = 1e-12       # |transform| <= 1 + MODULUS_SLACK
ROUNDING_SLACK = 1e-10      # added to analytic truncation bounds
ISOMETRY_TOLERANCE = 1e-9
COMPLETENESS_TOLERANCE = 1e-12
REFERENCE_TOLERANCE = 1e-9


def completeness_rows(rows) -> list[str]:
    """rows: (depth, sigma, increment) triples, ascending depth."""
    problems = []
    previous = 0.0
    for depth, sigma, increment in rows:
        if not sigma >= previous or increment < 0:
            problems.append(f"sigma decreases at depth {depth}: {sigma!r}")
        if not sigma <= 1 + SIGMA_SLACK:
            problems.append(f"Bessel bound broken at depth {depth}: {sigma!r}")
        previous = sigma
    return problems


def literal_zeros(values) -> list[str]:
    """Every value must be exactly 0j, not merely small."""
    bad = [v for v in values if not (isinstance(v, complex) and v == 0j)]
    return [f"{len(bad)} of {len(values)} values are not literal 0j "
            f"(first {bad[0]!r})"] if bad else []


def modulus_bound(values) -> list[str]:
    worst = max((abs(v) for v in values), default=0.0)
    if not worst <= 1 + MODULUS_SLACK:
        return [f"|transform| reaches {worst!r} > 1"]
    return []


def within_bound(label: str, values, bounds) -> list[str]:
    """values[i] <= bounds[i] + ROUNDING_SLACK for every i."""
    for value, bound in zip(values, bounds):
        if not value <= bound + ROUNDING_SLACK:
            return [f"{label} {value!r} exceeds its bound {bound!r}"]
    return []


def relations(isometry: float, range_orthogonality: float,
              completeness: float) -> list[str]:
    problems = []
    if range_orthogonality != 0.0:
        problems.append(f"range orthogonality {range_orthogonality!r} != 0.0")
    if not isometry <= ISOMETRY_TOLERANCE:
        problems.append(f"isometry residual {isometry!r}")
    if not completeness <= COMPLETENESS_TOLERANCE:
        problems.append(f"completeness residual {completeness!r}")
    return problems


def state_values(pairs_and_values) -> list[str]:
    """(alpha, beta, value): |value| <= 1; range projections lie in [0, 1]."""
    problems = []
    for alpha, beta, value in pairs_and_values:
        if not abs(value) <= 1 + SIGMA_SLACK:
            problems.append(f"state {alpha}/{beta} has modulus {abs(value)!r}")
        if alpha == beta and not (abs(value.imag) <= MODULUS_SLACK
                                  and -MODULUS_SLACK <= value.real <= 1 + SIGMA_SLACK):
            problems.append(f"range projection {alpha} not in [0, 1]: {value!r}")
    return problems


def expected(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def twins(rect_verdict: bool, sheared_verdict: bool | None, want: bool) -> list[str]:
    """The sheared twin must agree with its rectangular twin and both with
    the verdict known by construction."""
    problems = expected("rectangular verdict", rect_verdict, want)
    if sheared_verdict is not None and sheared_verdict != rect_verdict:
        problems.append(
            f"sheared twin says {sheared_verdict!r}, rectangular twin {rect_verdict!r}"
        )
    return problems


def gate_lines(lines) -> list[str]:
    """Ten criterion lines, each a PASS."""
    problems = []
    if len(lines) != 10:
        problems.append(f"{len(lines)} criterion lines, expected 10")
    problems += [f"not a PASS: {line}" for line in lines if " PASS " not in line]
    return problems


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REFERENCE_TOLERANCE,
                            abs_tol=REFERENCE_TOLERANCE)
    return a == b


def compare_reference(digest: dict, reference: dict | None) -> list[str]:
    """Compare a job digest with the one recorded for the default seed."""
    if reference is None:
        return ["no reference recorded for this job"]
    problems = []
    for key in sorted(set(digest) | set(reference)):
        if key not in digest or key not in reference:
            problems.append(f"reference key {key!r} missing on one side")
        elif not _close(digest[key], reference[key]):
            problems.append(
                f"{key}: {digest[key]!r} differs from reference {reference[key]!r}"
            )
    return problems
