"""Exact vanishing decisions for finite sums of roots of unity.

A sum  sum_r w_r e^{i 2 pi r / den}  with integer weights is decided one
prime at a time, exactly at every conductor.  With conductor n = p^a m,
p prime to m, group the terms by CRT as  sum_s e^{i 2 pi s / p^a} g_s
with g_s in the field of conductor m.  Over that field e^{i 2 pi / p^a}
has minimal polynomial Phi_p(x^{p^{a-1}}), so the sum vanishes exactly
when, for every t mod p^{a-1}, the p values g_{t + j p^{a-1}} are equal:
each equality is the same question at conductor m (de Bruijn 1953; Lam
and Leung, J. Algebra 224, 2000).  A class that misses one of its p slots
holds a zero, so all its values must vanish.  Every class misses one when
p exceeds the number of terms, so those primes are split off together,
unfactored, and trial division stops at the term count.

Most sums the digit mask asks about cannot vanish for a plainer reason:
all their roots lie in one open half plane.  ``in_open_half_circle``
decides that on the integer residues alone, so the recursion runs only on
sums that pass it; with two terms it is complete.

``roots_sum_is_zero`` is that decision for a plain sum of roots, the one
the digit mask and validation ask: the half-plane test, then the
recursion.  It is a pure function of its key, the sorted residues and den,
so it is memoized per key in a bounded lru cache of 4,096 entries (the
benchmark clears it before each pass, with every package lru cache).  The
mask runs the half-plane test before the lookup, so the memo holds only
sums the recursion decides: a product meets the same few at most of its
levels, and each is decided once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Iterable


def in_open_half_circle(residues: Iterable[int], den: int) -> bool:
    """Whether the roots e^{i 2 pi r / den}, r in ``residues`` (in [0, den),
    not empty), all lie in one open half plane through the origin.

    Sorted around the circle, neighbouring residues leave gaps that add up
    to den, the wrap-around gap included.  When the widest gap exceeds
    den / 2, every root lies on the complementary closed arc, of length
    under den / 2, so each is less than a quarter turn from the arc's
    midpoint u.  Then every root has a positive component along u, and so
    does any sum of them with positive weights: such a sum is not zero.
    The test is integer arithmetic, exact at every den.  For two roots it
    is complete: their plain sum vanishes exactly when they are half a
    turn apart, which is when both gaps equal den / 2 and the test is
    False.
    """
    ordered = sorted(residues)
    widest = max(map(sub, ordered[1:] + [ordered[0] + den], ordered))
    return 2 * widest > den


@lru_cache(maxsize=1 << 12)
def roots_sum_is_zero(residues: tuple[int, ...], den: int) -> bool:
    """Decide whether  sum_r e^{i 2 pi r / den}, r in ``residues``, vanishes
    exactly.

    ``residues`` is a sorted tuple of residues in [0, den), not empty, one
    entry per root (repeats count).  Roots in one open half plane cannot
    sum to zero; any other sum goes to residue_sum_is_zero.  Memoized on
    (residues, den), at most 4,096 entries.
    """
    return not in_open_half_circle(residues, den) and residue_sum_is_zero(
        Counter(residues), den)


def residue_sum_is_zero(weights: dict[int, int], den: int) -> bool:
    """Decide whether  sum_r w_r e^{i 2 pi r / den}  vanishes exactly.

    ``weights`` maps residues in [0, den) to integer weights.
    """
    weights = {r: w for r, w in weights.items() if w}
    if len(weights) < 3:
        if len(weights) < 2:
            return not weights
        # c0 z^q0 + c1 z^q1 = 0 forces z^{q1-q0} = -c0/c1, a *rational*
        # root of unity, hence -1: the phases differ by exactly 1/2 and
        # the coefficients agree.
        (r0, w0), (r1, w1) = weights.items()
        return w0 == w1 and 2 * abs(r1 - r0) == den
    # reduce to the conductor
    step = math.gcd(den, *weights)
    n = den // step
    residues = {r // step: w for r, w in weights.items()}
    # prime powers up to the term count by trial division; the cofactor's
    # primes all exceed it
    powers, rest = [], n
    for p in range(2, len(residues) + 1):
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            powers.append((q, p))
    # split off the cofactor as one block whose classes never fill
    # (p = q > term count), else the largest prime power.  Keying the terms
    # by (r mod q, r mod m) applies zeta_n -> zeta_n^{q + m}, an automorphism
    # since q + m is prime to n, so vanishing is unchanged.
    q, p = (rest, rest) if rest > 1 else max(powers)
    m, period = n // q, q // p
    classes: dict[int, dict[int, dict[int, int]]] = {}
    for r, w in residues.items():
        s = r % q
        classes.setdefault(s % period, {}).setdefault(s // period, {})[r % m] = w
    for row in classes.values():
        if len(row) < p:
            if not all(residue_sum_is_zero(g, m) for g in row.values()):
                return False
            continue
        ref = min(row.values(), key=len)
        for g in row.values():
            if g is not ref:
                diff = dict(g)
                for u, w in ref.items():
                    diff[u] = diff.get(u, 0) - w
                if not residue_sum_is_zero(diff, m):
                    return False
    return True


def exp_sum_is_zero(terms: Iterable[tuple[Fraction, Fraction]]) -> bool:
    """Decide whether sum of coeff * e^{i 2 pi phase} vanishes exactly.

    ``terms`` yields (coefficient, phase) pairs, both rational.  The
    coefficients become integer weights over their common denominator and
    the phases integer residues mod ``den`` over theirs, which scales the
    sum by a positive constant and so leaves the answer alone.
    """
    terms = [(coeff, phase) for coeff, phase in terms if coeff]
    weight_den = math.lcm(*(coeff.denominator for coeff, _ in terms))
    den = math.lcm(*(phase.denominator for _, phase in terms))
    combined: dict[int, int] = {}
    for coeff, phase in terms:
        residue = phase.numerator * (den // phase.denominator) % den
        weight = coeff.numerator * (weight_den // coeff.denominator)
        combined[residue] = combined.get(residue, 0) + weight
    return residue_sum_is_zero(combined, den)
