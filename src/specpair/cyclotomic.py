"""Exact vanishing decisions for finite sums of roots of unity.

A sum  sum_k c_k e^{i 2 pi q_k}  with rational c_k, q_k lives in the
cyclotomic field of conductor n = lcm of the reduced denominators of the
phases q_k.  It is zero exactly when the polynomial  sum_k c_k x^{p_k}
(p_k = q_k n mod n) is divisible by the n-th cyclotomic polynomial.

Phases are reduced mod 1 before the conductor is computed, which keeps n
tiny for the structural zeros this package needs (digit-mask zeros reduce
to half-integer phases, box-transform zeros to small roots of unity).
Sums whose conductor exceeds the limit are left undecided -- callers fall
back to numerics and never claim an exact zero for them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

DEFAULT_CONDUCTOR_LIMIT = 4096


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic, division is exact by construction
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        coeff = rem[i + len(den) - 1]
        out[i] = coeff
        if coeff:
            for j, dj in enumerate(den):
                rem[i + j] -= coeff * dj
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def exp_sum_is_zero(
    terms: Iterable[tuple[Fraction, Fraction]],
    conductor_limit: int = DEFAULT_CONDUCTOR_LIMIT,
) -> bool | None:
    """Decide whether sum of coeff * e^{i 2 pi phase} vanishes exactly.

    ``terms`` yields (coefficient, phase) pairs, both rational.  Returns
    True/False when decided, or None when the conductor after phase
    reduction exceeds ``conductor_limit`` (caller must treat the value as
    nonzero-unless-proven and fall back to numerics).

    The work runs on integers: coefficients become integer weights over
    their common denominator, phases integer residues mod ``den`` over
    theirs, which scales the sum by a positive constant and so leaves
    the answer alone.
    """
    terms = [(coeff, phase) for coeff, phase in terms if coeff]
    weight_den = math.lcm(*(coeff.denominator for coeff, _ in terms))
    den = math.lcm(*(phase.denominator for _, phase in terms))
    combined: dict[int, int] = {}
    for coeff, phase in terms:
        residue = phase.numerator * (den // phase.denominator) % den
        weight = coeff.numerator * (weight_den // coeff.denominator)
        combined[residue] = combined.get(residue, 0) + weight
    combined = {r: w for r, w in combined.items() if w}
    if not combined:
        return True
    if len(combined) == 1:
        return False
    if len(combined) == 2:
        # c0 z^q0 + c1 z^q1 = 0 forces z^{q1-q0} = -c0/c1, a *rational*
        # root of unity, hence -1: the phases differ by exactly 1/2 and
        # the coefficients agree.
        (r0, w0), (r1, w1) = sorted(combined.items())
        return 2 * (r1 - r0) == den and w0 == w1
    # the conductor: lcm of the reduced denominators of the residues / den
    n = math.lcm(*(den // math.gcd(r, den) for r in combined))
    if n > conductor_limit:
        return None
    step = den // n
    coeffs = [0] * n
    for r, weight in combined.items():
        coeffs[r // step] += weight
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = coeffs
    for i in range(n - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j in range(deg + 1):
                rem[base + j] -= c * phi[j]
    return not any(rem[:deg])
