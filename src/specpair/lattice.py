"""Lattices, their inclusion matrices, and the factor-system datum.

Conventions, fixed once for the whole package:

* Basis matrices hold generators as *columns*; all entries are exact
  rationals.
* The inclusion matrix R of a sublattice K inside an ambient lattice G
  follows the row convention u_i = sum_j R_ij v_j for generators u of K
  and v of G, i.e. U = V R^T in column-matrix form.
* The expansion map is E = U V^{-1}.  It carries G onto K on the state
  side; its transpose carries the dual of K onto the dual of G, so every
  frequency-side map in this package is an affine map s -> E^T s + digit.
  In one dimension E coincides with R.

Validation never raises for a mathematically broken datum: every check
lands in a report so that deliberately inconsistent systems (the negative
controls) can be constructed, probed and reported on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, NotASublattice, UnknownDigit
from . import cyclotomic, exact
from .exact import Matrix, Vector

# most coefficient vectors (box_candidates) one box enumeration may charge,
# checked before it builds anything; the CLI's evaluation budget admits no
# larger box
BOX_BUDGET = 2**20
# the longest mask product any transform runs; past it SimpleFactor looks
# no further for a power of (E^T)^{-1} that halves every vector
MAX_PRODUCT_DEPTH = 200


@dataclass(frozen=True)
class Lattice:
    """A rank-d lattice given by a nonsingular rational basis matrix.

    Columns of ``basis`` are the generators.  Membership is decided
    exactly: x belongs to the lattice iff basis^{-1} x is integral.
    """

    basis: Matrix
    # one elimination of the basis gives both, and the singularity check
    det: Fraction = field(init=False, repr=False, compare=False)
    inverse: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", exact.as_matrix(self.basis))
        eliminated = exact._gauss_jordan(self.basis)
        if eliminated is None:
            raise ValueError("lattice basis is singular")
        object.__setattr__(self, "det", eliminated[0])
        object.__setattr__(self, "inverse", eliminated[1])

    # the hash is computed once per object: lru_cache lookups keyed on a
    # lattice or a system would otherwise re-hash every Fraction in it
    @cached_property
    def _hash(self) -> int:
        return hash(self.basis)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def hermite(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(H, den): the lattice is H Z^d / den, with den the least integer
        taking it into Z^d and H, a matrix like ``basis`` (generators as
        columns), the lower-triangular Hermite form of den * basis: integer
        entries, a positive diagonal, each entry left of the diagonal in
        [0, its row's diagonal).  Both are invariants of the lattice, not
        of its basis."""
        rows, den = exact.over_common_denominator(self.basis)
        return exact.transpose(_hermite_columns(exact.transpose(rows))), den

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def generators(self) -> tuple[Vector, ...]:
        return exact.transpose(self.basis)

    def coordinates(self, x) -> Vector:
        return exact.mat_vec(self.inverse, exact.as_vector(x, self.dim))

    def contains(self, x) -> bool:
        return exact.is_integral(self.coordinates(x))


def dual_lattice(lat: Lattice) -> Lattice:
    """The dual lattice: all vectors with integral pairing against lat."""
    return Lattice(exact.transpose(lat.inverse))


def expansion_matrix(K: Lattice, gamma: Lattice) -> Matrix:
    """E = K Gamma^-1, the expansion that maps the basis of gamma onto K's."""
    return exact.mat_mul(K.basis, gamma.inverse)


def same_lattice(a: Lattice, b: Lattice) -> bool:
    """Whether two bases span the same lattice: equal Hermite forms."""
    return a.hermite == b.hermite


def inclusion_matrix(sub: Lattice, sup: Lattice) -> tuple[tuple[int, ...], ...]:
    """The integer matrix R expressing the generators of ``sub`` over those
    of ``sup``; the index [sup : sub] is |det R| = |sub.det / sup.det|.

    Raises NotASublattice if any coordinate fails to be an integer.
    """
    if sub.dim != sup.dim:
        raise NotASublattice("dimension mismatch")
    r = [sup.coordinates(g) for g in sub.generators]  # row i: generator i of sub
    if not all(exact.is_integral(row) for row in r):
        raise NotASublattice(
            "generator coordinates over the ambient lattice are not integral"
        )
    return tuple(tuple(int(x) for x in row) for row in r)


def coset_representatives(sub: Lattice, sup: Lattice) -> tuple[Vector, ...]:
    """Representatives of sup/sub, lexicographically canonical, 0 first."""
    # sup/sub is isomorphic to Z^d / R^T Z^d via z -> sup.basis z, and the
    # rows of R are the columns of R^T.  Take R^T Z^d in lower-triangular
    # Hermite form H: with z_0 .. z_{i-1} fixed, z_i moves only by multiples
    # of h_ii, so each class has exactly one member in the box
    # prod_i [0, h_ii), its lexicographically least one in [0, index)^d,
    # and the box is listed in lexicographic order.
    columns = _hermite_columns(inclusion_matrix(sub, sup))
    sides = [col[i] for i, col in enumerate(columns)]
    return tuple(exact.mat_vec(sup.basis, tuple(Fraction(c) for c in z))
                 for z in itertools.product(*map(range, sides)))


def _hermite_columns(columns) -> tuple[tuple[int, ...], ...]:
    """The lower-triangular Hermite form of the lattice the integer
    ``columns`` (d of them, independent) generate, as its columns.

    Unimodular column operations keep the lattice: for each row i, an
    extended gcd with column i clears the entry of every later column, so
    the diagonal ends up holding the gcds; column i is then made positive
    on the diagonal and reduces row i of every earlier column into
    [0, h_ii), which leaves their rows above i alone.
    """
    cols = [list(c) for c in columns]
    for i, col in enumerate(cols):
        for j in range(i + 1, len(cols)):
            a, b = col[i], cols[j][i]
            if b:
                g, x, y = _extended_gcd(a, b)
                col[:], cols[j] = ([x * u + y * v for u, v in zip(col, cols[j])],
                                   [a // g * v - b // g * u for u, v in zip(col, cols[j])])
        if col[i] < 0:
            col[:] = [-u for u in col]
        for earlier in cols[:i]:
            k = earlier[i] // col[i]
            earlier[:] = [u - k * v for u, v in zip(earlier, col)]
    return tuple([tuple(col) for col in cols])


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = x a + y b and |g| = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    return a, x0, y0


@dataclass(frozen=True)
class SimpleFactor:
    """The full datum behind a lattice spectral pair.

    K <= A <= Gamma are the translation lattices; ``digits`` is a section
    of A/K containing 0 (the contraction offsets); ``freq_digits`` is the
    matching set of frequency digits inside the dual of K, distinct mod
    the dual of Gamma.  The expansion map E = (K basis)(Gamma basis)^{-1}
    is derived, never supplied.

    Construction only enforces what later computation needs (consistent
    shapes, equal digit counts); every mathematical requirement is checked
    by validate_simple_factor so that broken systems remain constructible
    as negative controls.
    """

    K: Lattice
    A: Lattice
    Gamma: Lattice
    digits: tuple[Vector, ...]
    freq_digits: tuple[Vector, ...]
    name: str = ""

    def __post_init__(self):
        d = self.K.dim
        if self.A.dim != d or self.Gamma.dim != d:
            raise ValueError("lattices have mismatched dimensions")
        object.__setattr__(
            self, "digits", tuple(exact.as_vector(b, d) for b in self.digits)
        )
        object.__setattr__(
            self, "freq_digits",
            tuple(exact.as_vector(l, d) for l in self.freq_digits),
        )
        if not self.digits or len(self.digits) != len(self.freq_digits):
            raise ValueError("digit sets must be nonempty and equinumerous")

    # computed once, like Lattice's; equal systems have equal lattices and
    # digits, and leaving out the name keeps it the same in every process
    @cached_property
    def _hash(self) -> int:
        return hash((self.K, self.A, self.Gamma, self.digits, self.freq_digits))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return self.K.dim

    @property
    def N(self) -> int:
        return len(self.digits)

    @cached_property
    def E(self) -> Matrix:
        return expansion_matrix(self.K, self.Gamma)

    @cached_property
    def E_transpose(self) -> Matrix:
        return exact.transpose(self.E)

    @cached_property
    def E_inverse(self) -> Matrix:
        """E^-1 = Gamma K^-1, from the inverse K already holds."""
        return exact.mat_mul(self.Gamma.basis, self.K.inverse)

    @cached_property
    def E_transpose_inverse(self) -> Matrix:
        return exact.transpose(self.E_inverse)

    @cached_property
    def _float_pull(self) -> tuple:
        """(E^T)^{-1} as floats, for the numpy kernels."""
        return exact.matrix_to_floats(self.E_transpose_inverse)

    @cached_property
    def _float_digits(self) -> np.ndarray:
        """The digits as floats, one row each."""
        digits = np.array(exact.matrix_to_floats(self.digits)).reshape(self.N, self.dim)
        digits.setflags(write=False)
        return digits

    @cached_property
    def _integer_maps(self) -> tuple:
        """The digits and (E^T)^{-1} as integer numerators, each over one
        common denominator: (digits, digit_den, pull, pull_den)."""
        digits, digit_den = exact.over_common_denominator(self.digits)
        pull, pull_den = exact.over_common_denominator(self.E_transpose_inverse)
        return digits, digit_den, pull, pull_den

    @cached_property
    def _nonzero_box(self) -> tuple[Fraction, Fraction] | None:
        """(C, r): the mask has no zero at any (E^T)^{-j} x, j >= 0, once
        C |x|_inf < r.  None when there is no such box.

        With P = (E^T)^{-1}, C = sup_j ||P^j||_inf, and r = 1 / (4 max_b
        |b|_1): every |b.P^j x| <= |b|_1 C |x|_inf < 1/4, so every root of
        the mask lies within a quarter turn of 1 and its real part is
        positive.  Once ||P^p||_inf <= 1/2, each later power is bounded by
        an earlier one, so C is the largest norm of P^0 .. P^p; when no
        p <= MAX_PRODUCT_DEPTH has that bound, there is no box.  With every
        digit 0 every factor is a structural 1, and there is no box either.
        """
        widest = max(sum(map(abs, b)) for b in self.digits)
        if not widest:
            return None
        power, norms = exact.identity(self.dim), []
        for _ in range(MAX_PRODUCT_DEPTH + 1):
            norms.append(max(sum(map(abs, row)) for row in power))
            if 2 * norms[-1] <= 1:
                return max(norms), 1 / (4 * widest)
            power = exact.mat_mul(self.E_transpose_inverse, power)
        return None

    def push(self, s) -> tuple:
        """E^T s for a point from exact.as_point, keeping its kind: exact
        stays exact, and a float point gets floats, since Fraction * float
        is float(Fraction) * float."""
        return exact.mat_vec(self.E_transpose, s)

    def pull(self, s) -> tuple:
        """(E^T)^{-1} s, the inverse of push, keeping the point's kind."""
        return exact.mat_vec(self.E_transpose_inverse, s)

    @cached_property
    def K_dual(self) -> Lattice:
        return dual_lattice(self.K)

    @cached_property
    def Gamma_dual(self) -> Lattice:
        return dual_lattice(self.Gamma)

    def freq_digit(self, ell) -> Vector:
        """Normalize ``ell`` to a member of freq_digits or raise UnknownDigit."""
        vec = exact.as_vector(ell, self.dim)
        if vec not in self.freq_digits:
            raise UnknownDigit(f"{ell!r} is not a frequency digit")
        return vec


def frequency_map(system: SimpleFactor, ell, s) -> tuple:
    """The affine frequency-side map s -> E^T s + ell for a digit ell.

    ``s`` may be any real vector (exact entries stay exact, floats stay
    floats); the digit must belong to freq_digits.
    """
    vec = system.freq_digit(ell)
    point, _ = exact.as_point(s, system.dim)
    return exact.vec_add(system.push(point), vec)


def _coefficient_bound(lat: Lattice, radius) -> int:
    # z = basis^{-1} x, so |z|_inf is at most the largest row sum of the
    # inverse times the sup-norm bound on x.
    return max(int(sum(abs(c) for c in row) * radius) + 1 for row in lat.inverse)


def box_candidates(lat: Lattice, radius) -> int:
    """The cube of coefficient vectors, (2b+1)^d, that bounds a box's
    lattice points: the charge of a box enumeration against BOX_BUDGET."""
    return (2 * _coefficient_bound(lat, radius) + 1) ** lat.dim


def lattice_rows_in_box(lat: Lattice, radius) -> tuple[list[tuple[int, ...]], int]:
    """Lattice points with sup-norm <= radius, nearest first, positive
    first, as integer rows over one denominator: (rows, den), the points
    being row / den.  Ties in norm go in decreasing lexicographic order,
    so +1 comes ahead of -1.

    Raises ValueError on a negative radius, and BudgetExceeded, before
    anything is built, when box_candidates exceed BOX_BUDGET.
    """
    if radius < 0:
        raise ValueError(f"box radius {radius} is negative")
    candidates = box_candidates(lat, radius)
    if candidates > BOX_BUDGET:
        raise BudgetExceeded(f"{candidates} box candidates exceed the budget {BOX_BUDGET}")
    columns, den = lat.hermite
    rows = _triangular_walk(columns, math.floor(Fraction(radius) * den))
    # nearest first, ties in decreasing lexicographic order: a stable sort
    # by norm after a descending one
    rows.sort(reverse=True)
    rows.sort(key=lambda row: sum([c * c for c in row]))
    return rows, den


def _triangular_walk(hermite, bound: int) -> list[tuple[int, ...]]:
    """Every integer combination of the lower-triangular ``hermite``'s
    columns with entries in [-bound, bound], unsorted.

    Once the combination's first i entries are fixed, its entry i is the
    partial sum s of the earlier columns' row i plus h_ii z for an integer
    z, so it runs over one arithmetic progression: z from
    ceil((-bound - s) / h_ii) to floor((bound - s) / h_ii).
    """
    rows: list[tuple[int, ...]] = [()]
    partials = [[0] * len(hermite)]  # each prefix's partial sums of every row
    for i, column in enumerate(zip(*hermite)):
        step, last = column[i], i + 1 == len(hermite)
        grown_rows, grown_partials = [], []
        for row, partial in zip(rows, partials):
            s = partial[i]
            zs = range(-((bound + s) // step), (bound - s) // step + 1)
            grown_rows += [row + (s + z * step,) for z in zs]
            if not last:
                grown_partials += [[p + z * c for p, c in zip(partial, column)]
                                   for z in zs]
        rows, partials = grown_rows, grown_partials
    return rows


def is_expansive(e: Matrix) -> tuple[bool, float]:
    """Whether every eigenvalue of E has modulus > 1, decided exactly, and
    the float smallest modulus, as detail only.

    The roots of x^d chi(1/x) are the inverse eigenvalues.  By Schur-Cohn
    they all lie in the open unit disk exactly when |constant| < |leading|
    and the same holds for  (leading p(x) - constant x^d p(1/x)) / x.
    """
    poly = exact.characteristic_polynomial(e)[::-1]
    while len(poly) > 1 and abs(poly[0]) < abs(poly[-1]):
        poly = [poly[-1] * a - poly[0] * b for a, b in zip(poly, reversed(poly))][1:]
    eigenvalues = np.linalg.eigvals(np.array(exact.matrix_to_floats(e)))
    return len(poly) == 1, float(np.abs(eigenvalues).min())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    degenerate: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _section_check(name: str, members, inside: Lattice, modulo: Lattice,
                   labels: tuple[str, str, str, str], index: int | None = None
                   ) -> CheckResult:
    """Whether ``members`` contain 0, lie in ``inside`` and are distinct mod
    ``modulo`` and, when ``index`` is given, number that many.

    ``labels`` name the set, one member, ``inside`` and ``modulo`` in the
    detail, e.g. ("digit set", "digit", "A", "K").
    """
    whole, noun, inside_name, modulo_name = labels
    problems = []
    if exact.zero_vector(inside.dim) not in members:
        problems.append(f"0 missing from {whole}")
    problems += [f"{noun} {v} not in {inside_name}"
                 for v in members if not inside.contains(v)]
    problems += [f"{noun}s {a} and {b} collide mod {modulo_name}"
                 for a, b in itertools.combinations(members, 2)
                 if modulo.contains(exact.vec_sub(a, b))]
    if index is not None and len(members) != index:
        problems.append(f"|{noun}s| = {len(members)} but "
                        f"[{inside_name} : {modulo_name}] = {index}")
    return CheckResult(name, not problems, "; ".join(problems))


def frequency_digit_check(
    freq_digits, k_dual: Lattice, gamma_dual: Lattice
) -> CheckResult:
    """Frequency digits contain 0, lie in the dual of K and are distinct
    mod the dual of Gamma."""
    return _section_check(
        "frequency_digits", freq_digits, k_dual, gamma_dual,
        ("frequency digits", "frequency digit", "dual of K", "dual of Gamma"))


def expansive_check(e: Matrix) -> CheckResult:
    expansive, smallest = is_expansive(e)
    return CheckResult(
        "expansive", expansive, f"smallest eigenvalue modulus {smallest:.6g}"
    )


def validate_simple_factor(system: SimpleFactor) -> ValidationReport:
    """Check every requirement on a factor system, reporting per check.

    Checks: the chain K <= A <= Gamma; the digit set is a section of A/K
    containing 0; the frequency digits contain 0, lie in the dual of K and
    are distinct mod the dual of Gamma; the cardinalities agree with the
    index [A : K]; the digit pairing separates frequency digits; the
    normalized digit matrix N^{-1/2} e^{i 2 pi b.l} is unitary; E is
    expansive.  Every check is exact: the pairing checks run on integer
    residues (cyclotomic.roots_sum_is_zero), expansiveness on the
    characteristic polynomial.  The index [A : K] is |det K / det A|, read
    once K <= A is known.  The degenerate case K = A (index 1) is flagged,
    not failed, by same_lattice, as RelationReport flags it.
    """
    checks: list[CheckResult] = []

    ka_ok = all(system.A.contains(g) for g in system.K.generators)
    ag_ok = all(system.Gamma.contains(g) for g in system.A.generators)
    index = int(abs(system.K.det / system.A.det)) if ka_ok else None
    checks.append(CheckResult(
        "chain", ka_ok and ag_ok,
        "K <= A <= Gamma" if ka_ok and ag_ok else
        f"K <= A: {ka_ok}, A <= Gamma: {ag_ok}",
    ))

    checks.append(_section_check(
        "digit_section", system.digits, system.A, system.K,
        ("digit set", "digit", "A", "K"), index))

    checks.append(frequency_digit_check(
        system.freq_digits, system.K_dual, system.Gamma_dual))

    cardinality_ok = index is not None and system.N == index
    checks.append(CheckResult(
        "cardinality", cardinality_ok,
        f"N = {system.N}, [A : K] = {index if index is not None else 'undefined'}",
    ))

    # The pairing, exactly: over one denominator q the digits and frequency
    # digits are integers, and each pair l, l' gives the residues of
    # b.(l' - l) mod q.  The pair is separated unless every residue is 0.
    # Its columns of H = N^{-1/2} e(b.l) are orthogonal exactly when
    # sum_b e(b.(l' - l)) vanishes, and every column of H has norm 1.
    digits, digit_den = system._integer_maps[:2]
    freqs, freq_den = exact.over_common_denominator(system.freq_digits)
    q = digit_den * freq_den
    unseparated, unorthogonal = [], []
    for (la, a), (lb, b) in itertools.combinations(zip(system.freq_digits, freqs), 2):
        step = exact.vec_sub(b, a)
        residues = sorted(exact.dot(digit, step) % q for digit in digits)
        if not residues[-1]:
            unseparated.append((la, lb))
        if not cyclotomic.roots_sum_is_zero(tuple(residues), q):
            unorthogonal.append((la, lb))
    checks.append(CheckResult(
        "separation", not unseparated,
        "" if not unseparated else f"indistinguishable digit pairs: {unseparated}",
    ))
    checks.append(CheckResult(
        "hadamard_unitarity", not unorthogonal,
        "" if not unorthogonal else f"non-orthogonal digit pairs: {unorthogonal}",
    ))

    checks.append(expansive_check(system.E))

    return ValidationReport(checks=tuple(checks),
                            degenerate=same_lattice(system.K, system.A))
