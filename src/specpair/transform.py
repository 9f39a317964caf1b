"""The digit mask, the measure transform, and its functional equation.

The transform of the invariant measure obeys

    transform(E^T t) = mask(E^T t) * transform(t),

which unrolls to the truncated product  prod_k mask((E^T)^{-k} t)  --
the product backend.  The quadrature backend integrates the exponential
against a depth-n refinement instead; the two paths share no code, which
is what makes their agreement a meaningful check.

At rational frequencies the mask's phases are integers p over one q, so
its zeros (which carry all orthogonality statements downstream) are
decided exactly, at every conductor, from the residues p mod q, and
propagate as literal zeros through the product.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import exact
from .cyclotomic import residue_sum_is_zero
from .errors import BudgetExceeded
from .lattice import SimpleFactor
from .measure import DiscreteMeasure, build_ifs, integrate_exponential, refine_measure

MAX_PRODUCT_DEPTH = 200


@dataclass(frozen=True)
class TransformSettings:
    """Truncation depths and backend choice for transform evaluation."""

    product_depth: int = 30
    quadrature_depth: int = 12
    backend: str = "product"

    def __post_init__(self):
        if self.backend not in ("product", "quadrature"):
            raise ValueError(f"unknown backend {self.backend!r}")
        check_product_depth(self.product_depth)
        if self.quadrature_depth < 0:
            raise ValueError("quadrature depth must be nonnegative")


def check_product_depth(depth: int) -> None:
    """Raise BudgetExceeded when ``depth`` lies outside [1, MAX_PRODUCT_DEPTH]."""
    if not 1 <= depth <= MAX_PRODUCT_DEPTH:
        raise BudgetExceeded(f"product depth {depth} outside [1, {MAX_PRODUCT_DEPTH}]")


def mask(system: SimpleFactor, t) -> complex:
    """The digit mask (1/N) sum_b e^{i 2 pi b.t}.

    mask(0) = 1.  At rational ``t`` the value is pinned exactly when it
    is a structural 1 (all phases integral) or a structural 0 (the root
    of unity sum vanishes in its cyclotomic field).
    """
    return next(_mask_factors(system, *exact.as_point(t, system.dim)))


def _exact_mask(system: SimpleFactor, num: tuple[int, ...], den: int) -> complex:
    """The mask at the rational frequency num / den.

    The phases b.t are the integers p over one q; a float p / q is
    correctly rounded, so it equals float(Fraction(p, q)) bit for bit.
    """
    digits, digit_den, _, _ = system._integer_maps
    q = digit_den * den
    phases = [sum(bc * tc for bc, tc in zip(b, num)) for b in digits]
    residues = [p % q for p in phases]
    if not any(residues):
        return complex(1.0)
    if residue_sum_is_zero(Counter(residues), q):
        return 0j
    return sum(cmath.exp(2j * math.pi * (p / q)) for p in phases) / system.N


def _float_mask(system: SimpleFactor, freq: tuple[float, ...]) -> complex:
    return sum(
        cmath.exp(2j * math.pi * sum(float(bc) * tc for bc, tc in zip(b, freq)))
        for b in system.digits
    ) / system.N


def _mask_factors(system: SimpleFactor, freq: tuple, is_exact: bool):
    """The factors mask((E^T)^{-k} t) for k = 0, 1, 2, ...; an exact
    frequency is pulled back as integer numerators over a growing
    denominator."""
    if is_exact:
        (num,), den = exact.over_common_denominator((freq,))
        _, _, pull, pull_den = system._integer_maps
        while True:
            yield _exact_mask(system, num, den)
            num = tuple(sum(m * c for m, c in zip(row, num)) for row in pull)
            den *= pull_den
    while True:
        yield _float_mask(system, freq)
        freq = system.pull(freq)


@lru_cache(maxsize=8)
def _cached_measure(system: SimpleFactor, depth: int) -> DiscreteMeasure:
    return refine_measure(build_ifs(system), depth)


def mu_hat_value(
    system: SimpleFactor, t, settings: TransformSettings = TransformSettings()
) -> complex:
    """The transform of the invariant measure at frequency ``t``.

    Backend "product" returns the truncated mask product; "quadrature"
    integrates against the cached refinement.
    """
    if settings.backend == "quadrature":
        return integrate_exponential(
            _cached_measure(system, settings.quadrature_depth), t
        )
    factors = _mask_factors(system, *exact.as_point(t, system.dim))
    value = complex(1.0)
    for factor in itertools.islice(factors, settings.product_depth):
        if factor == 0:
            return 0j
        value *= factor
    return value


def functional_equation_residual(
    system: SimpleFactor,
    t,
    settings: TransformSettings = TransformSettings(backend="quadrature"),
) -> float:
    """| transform(E^T t) - mask(E^T t) transform(t) | for the chosen backend.

    Defaults to the quadrature backend, where the residual measures real
    refinement error; the product backend satisfies the identity by
    construction up to its truncation tail.
    """
    freq, _ = exact.as_point(t, system.dim)
    pushed = system.push(freq)
    left = mu_hat_value(system, pushed, settings)
    right = mask(system, pushed) * mu_hat_value(system, freq, settings)
    return abs(left - right)
