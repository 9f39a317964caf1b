"""Exact rational vectors and matrices.

The lattice layer decides tiling, coset and membership questions exactly,
never to a tolerance, so everything here runs on fractions.Fraction.
Dimensions are tiny (d <= 3 in practice) and tuple-of-tuples matrices with
textbook Gauss-Jordan elimination are the right size of tool; numpy enters
only where floats are the point (eigenvalues, measure atoms).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NonFinitePoint

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

# concrete types ahead of the ABC, whose isinstance check is several times slower
_EXACT = (int, Fraction, str, numbers.Integral)


def as_rational(value) -> Fraction:
    """Coerce integers (numpy ones included), Fractions and strings like
    '3/4' or '0.25' to Fraction.

    Floats are rejected: an exact input written as a float is almost always
    a bug (0.1 is not 1/10), and the inexact code paths take floats directly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {value!r}") from exc
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_vector(values, dim: int | None = None) -> Vector:
    """A scalar or a sequence as an exact vector; a float entry raises TypeError."""
    if isinstance(values, (numbers.Number, str)):
        values = (values,)
    vec = tuple(as_rational(v) for v in values)
    if dim is not None and len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _point_entries(t, dim: int | None) -> tuple[tuple, bool]:
    """The entries of a scalar, a 0-d array or a sequence, flagged True
    when every one is exact, else as finite floats flagged False."""
    if isinstance(t, (numbers.Number, str)):
        t = (t,)
    elif getattr(t, "ndim", None) == 0:
        t = (t[()],)  # the numpy scalar it holds
    if dim is not None and len(t) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(t)}")
    if all(isinstance(v, _EXACT) for v in t):
        return t, True
    point = tuple(float(v) for v in t)
    if not all(map(math.isfinite, point)):
        raise NonFinitePoint(f"point {point!r} has a non-finite entry")
    return point, False


def as_point(t, dim: int | None = None) -> tuple[tuple, bool]:
    """A scalar, a 0-d array or a sequence as a point, exact when it can be.

    The point is exact -- Fractions, flagged True -- when every entry is
    an integer (numpy integers included), a Fraction or a string like
    '3/4'; otherwise it is floats, flagged False.  A NaN or infinite
    entry raises NonFinitePoint.
    """
    entries, is_exact = _point_entries(t, dim)
    return (as_vector(entries) if is_exact else entries), is_exact


def as_point_row(t, dim: int | None = None) -> tuple[tuple, int | None]:
    """as_point's reading of ``t`` with no Fraction built for an exact
    point: (numerators, den), the point as one row of Python ints over its
    least denominator, as over_common_denominator gives it; a float point
    is (floats, None).  The same checks and errors as as_point."""
    entries, is_exact = _point_entries(t, dim)
    if not is_exact:
        return entries, None
    ratios = [_ratio(v) for v in entries]
    den = math.lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


def _ratio(value) -> tuple[int, int]:
    """An exact entry as as_rational's numerator and denominator, with no
    Fraction built for an integer."""
    if not isinstance(value, Fraction):
        if isinstance(value, (int, numbers.Integral)):
            return int(value), 1
        value = as_rational(value)
    return value.numerator, value.denominator


def over_common_denominator(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of rationals as integer numerators over their least common
    denominator: the rows equal numerators / denominator entrywise."""
    # sized containers: tuples built from generators by resizing fill CPython's
    # per-size tuple free lists for good, a bounded but visible peak-RSS cost
    den = math.lcm(*{c.denominator for row in rows for c in row})
    return tuple([
        tuple([c.numerator * (den // c.denominator) for c in row]) for row in rows
    ]), den


def from_common_denominator(rows, den: int) -> list[Vector]:
    """Integer rows over ``den`` as Fraction vectors, each distinct
    numerator made into a Fraction once."""
    values = {c: Fraction(c, den) for c in {c for row in rows for c in row}}
    return [tuple([values[c] for c in row]) for row in rows]


def as_matrix(rows) -> Matrix:
    mat = tuple(tuple(as_rational(v) for v in row) for row in rows)
    if not mat or any(len(row) != len(mat) for row in mat):
        raise ValueError("expected a nonempty square matrix")
    return mat


def identity(d: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def zero_vector(d: int) -> Vector:
    return (Fraction(0),) * d


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(u, v, strict=True))


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v, strict=True))


def _gauss_jordan(m: Matrix) -> tuple[Fraction, Matrix] | None:
    """Determinant and inverse by one fraction-exact Gauss-Jordan
    elimination, or None when the matrix is singular."""
    n = len(m)
    a = [list(row) + list(unit) for row, unit in zip(m, identity(n))]
    determinant = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            determinant = -determinant
        determinant *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return determinant, tuple(tuple(row[n:]) for row in a)


def characteristic_polynomial(m: Matrix) -> list[Fraction]:
    """Coefficients of det(x I - m), ascending, by Faddeev-LeVerrier:
    M_k = m M_{k-1} + c_{d-k+1} I  and  c_{d-k} = -tr(m M_k) / k."""
    d = len(m)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    product = ((Fraction(0),) * d,) * d  # m M_0
    for k in range(1, d + 1):
        acc = tuple(
            tuple(x + coeffs[d - k + 1] if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(product)
        )
        product = mat_mul(m, acc)
        coeffs[d - k] = -sum(product[i][i] for i in range(d)) / k
    return coeffs


def is_integral(values: Iterable[Fraction]) -> bool:
    return all(v.denominator == 1 for v in values)


def matrix_to_floats(m: Matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in m)
