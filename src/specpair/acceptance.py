"""The acceptance gate: ten criteria, each with its pinned tolerance.

Every criterion is a function returning a CriterionResult; run_all() is
what both the test suite and the ``accept`` subcommand execute.  Golden
numbers were produced by the independent quadrature oracle (transform
values summed over the depth-12 atom set, never through the product
formula) and frozen here; the oracle is re-run at acceptance time and
checked against the frozen values before the product backend is held to
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .lattice import Lattice, dual_lattice, validate_simple_factor
from .measure import (SEPARATION_CHUNK, build_ifs, integrate_exponentials,
                      refine_measure, separation_witnesses)
from .operators import classify_measure, relation_residuals, state_eval
from .pair import tiling_check
from .specfile import document_from, parse_document, parse_spec
from .spectrum import BESSEL_SLACK, completeness_table, enumerate_spectrum
from .transform import (TransformSettings, _exact_block, functional_equation_residuals,
                        mask, mu_hat_value, mu_hat_values)

SEED = 20260808

# Quadrature-oracle values of the completeness sum at s = 2 for the
# scale4 system, one per enumeration depth, all against the depth-12
# atom set.  The depth-12 entry is the finite Parseval sum of the
# discrete measure, hence exactly 1 up to rounding.
GOLDEN_SIGMA = {
    4: 0.997814794709715,
    5: 0.999396380098741,
    6: 0.9998298018900942,
    7: 0.9999516946300777,
    8: 0.9999862613429295,
    9: 0.9999960906376097,
    10: 0.9999988906274125,
    11: 0.9999997002733533,
    12: 1.0000000000000013,
}
# Product (depth 30) vs quadrature (depth 12) differ by the tail factors
# beyond level 12; measured gap peaks at 9.1e-8, so 1e-6 gives an order
# of magnitude of slack without hiding real regressions.
SIGMA_CALIBRATION_TOLERANCE = 1e-6
SIGMA_ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status} {self.title}: {self.detail}"


def _scale4():
    return parse_spec("scale4")


def criterion_1_sigma_reproduction() -> CriterionResult:
    """Completeness sums at s=2: monotone, Bessel-bounded, near 1, calibrated."""
    system = _scale4().system
    depths = range(4, 13)
    rows = completeness_table(system, 2, depths, product_depth=30)

    # re-run the quadrature oracle and hold it to the frozen golden data
    enum = enumerate_spectrum(system, 12)
    quad = TransformSettings(backend="quadrature", quadrature_depth=12)
    terms = [abs(v) ** 2 for v in mu_hat_values(system, 2.0 - enum.floats, quad).tolist()]
    oracle_drift = 0.0
    for depth in depths:
        indices = enum.depth_slice(depth)
        sigma_quad = math.fsum(terms[i] for i in indices)
        oracle_drift = max(oracle_drift, abs(sigma_quad - GOLDEN_SIGMA[depth]))

    problems = []
    if oracle_drift > SIGMA_ORACLE_TOLERANCE:
        problems.append(f"quadrature oracle drifted {oracle_drift:.3e} from golden")
    for row in rows:
        if row.increment < 0:
            problems.append(f"decreasing at depth {row.depth}")
        if row.sigma > 1 + BESSEL_SLACK:
            problems.append(f"Bessel bound violated at depth {row.depth}")
        gap = abs(row.sigma - GOLDEN_SIGMA[row.depth])
        if gap > SIGMA_CALIBRATION_TOLERANCE:
            problems.append(f"depth {row.depth} off golden by {gap:.3e}")
    final = rows[-1].sigma
    if abs(final - 1) > 2e-3:
        problems.append(f"final value {final} not within 2e-3 of 1")
    return CriterionResult(
        1, "completeness sum reproduction (s=2)",
        not problems,
        "; ".join(problems) if problems else
        f"final sigma {final:.12f}, max golden gap "
        f"{max(abs(r.sigma - GOLDEN_SIGMA[r.depth]) for r in rows):.3e}",
    )


def criterion_2_orthogonality_zeros() -> CriterionResult:
    """Transform vanishes exactly on differences of enumerated frequencies."""
    system = _scale4().system
    enum = enumerate_spectrum(system, 6)
    n, rows = len(enum), enum.rows
    # values[i * n + j] is the transform at xi_j - xi_i
    values = _exact_block(system, (rows[None] - rows[:, None]).reshape(-1, system.dim),
                          enum.den, 30)
    pairs = n * (n - 1)
    nonzero = sum(values[i * n + j] != 0 for i in range(n) for j in range(n) if i != j)
    # the depth-5 frequencies are every N-th depth-6 one
    depth5 = enum.depth_slice(5)
    worst = max(abs(values[i * n + j] - (1.0 if i == j else 0.0))
                for i in depth5 for j in depth5)
    passed = nonzero == 0 and worst < 1e-8
    return CriterionResult(
        2, "orthogonality zeros and Gram identity",
        passed,
        f"{pairs} ordered pairs, {nonzero} nonzero; Gram deviation {worst:.3e}",
    )


def criterion_3_functional_equation() -> CriterionResult:
    """Transform functional equation on seeded points, both backends."""
    system = _scale4().system
    rng = np.random.default_rng(SEED)
    points = [(t,) for t in rng.uniform(-8.0, 8.0, 100).tolist()]
    quad = TransformSettings(backend="quadrature", quadrature_depth=12)
    prod = TransformSettings(backend="product", product_depth=30)
    worst_quad, worst_prod = (max(functional_equation_residuals(system, points, settings))
                              for settings in (quad, prod))
    passed = worst_quad < 1e-5 and worst_prod < 1e-13
    return CriterionResult(
        3, "functional equation residuals",
        passed,
        f"quadrature {worst_quad:.3e} (<1e-5), product {worst_prod:.3e} (<1e-13)",
    )


def criterion_4_relations() -> CriterionResult:
    """Isometry relations on the sample box."""
    system = _scale4().system
    report = relation_residuals(system, box_radius=32, product_depth=40)
    passed = (
        report.isometry < 1e-9
        and report.range_orthogonality == 0.0
        and report.completeness < 1e-12
    )
    return CriterionResult(
        4, "isometry relation residuals",
        passed,
        f"isometry {report.isometry:.3e}, range {report.range_orthogonality!r}, "
        f"completeness {report.completeness:.3e}",
    )


def criterion_5_state_values() -> CriterionResult:
    """Vacuum state values and positivity over short words."""
    system = _scale4().system
    problems = []
    if abs(state_eval(system, (0,), ()) - 1) > 1e-12:
        problems.append("state of the zero generator is not 1")
    if abs(state_eval(system, (0,), (0,)) - 1) > 1e-12:
        problems.append("state of the zero range projection is not 1")
    if abs(state_eval(system, (1,), ())) > 1e-12:
        problems.append("state of the one generator is not 0")
    words = 0
    for length in range(1, 5):
        for alpha in itertools.product((0, 1), repeat=length):
            words += 1
            value = state_eval(system, alpha, alpha)
            if abs(value.imag) > 1e-12 or not -1e-12 <= value.real <= 1 + 1e-9:
                problems.append(f"positivity fails for word {alpha}: {value}")
    return CriterionResult(
        5, "vacuum state values",
        not problems,
        "; ".join(problems) if problems else f"{words} range projections in [0, 1]",
    )


def criterion_6_tiling() -> CriterionResult:
    """Exact tiling decomposition in one and two dimensions."""
    problems = []
    for name in ("scale4", "scale4x2"):
        loaded = parse_spec(name)
        report = tiling_check(
            loaded.d_prime, loaded.system.Gamma, loaded.system.digits,
            omega_prime=loaded.omega,
        )
        if not (report.ok and report.method == "exact"
                and report.failure_probability == 0.0):
            problems.append(f"{name}: {report.as_dict()}")
    return CriterionResult(
        6, "tiling decomposition (exact)",
        not problems,
        "; ".join(problems) if problems else "1d and 2d tilings pass exactly",
    )


def criterion_7_separation() -> CriterionResult:
    """One dual frequency separates every pair of depth-10 atoms."""
    system = _scale4().system
    atoms = refine_measure(build_ifs(system), 10).points
    n = len(atoms)
    rows = SEPARATION_CHUNK // (n - 1)
    pairs = bad = 0
    # every unordered pair once, in np.triu_indices order, a block of rows
    # at a time: the pairs (i, j) with start <= i < start + rows and j > i
    for start in range(0, n - 1, rows):
        first, second = np.triu_indices(min(rows, n - 1 - start), start + 1, n)
        candidates, witness = separation_witnesses(
            system, atoms[first + start], atoms[second], search_radius=2
        )
        # index -1 (no witness) lands on the appended False
        is_expected = np.array([s == (Fraction(1),) for s in candidates] + [False])
        pairs += len(witness)
        bad += len(witness) - int(is_expected[witness].sum())
    return CriterionResult(
        7, "separation of depth-10 atoms",
        bad == 0,
        f"{pairs} pairs, {bad} without witness 1",
    )


def criterion_8_negative_control() -> CriterionResult:
    """The ternary datum fails validation and classification by design."""
    problems = []
    mt = parse_spec("middlethird", require_valid=False).system
    for ell in (1, 2, 3):
        system = replace(mt, freq_digits=((0,), (ell,)), name=f"middlethird-L{ell}")
        report = validate_simple_factor(system)
        pairing_broken = not (
            report.check("separation").passed
            and report.check("hadamard_unitarity").passed
        )
        if report.ok or not pairing_broken:
            problems.append(f"L = {{0, {ell}}} not rejected")
    verdict = classify_measure(mt, mt.K, mt.Gamma, mt.freq_digits)
    if verdict.consistent:
        problems.append("ternary measure classified consistent")
    if not (verdict.completeness is not None and verdict.completeness > 0.4):
        problems.append(f"completeness residual {verdict.completeness} not > 0.4")
    return CriterionResult(
        8, "ternary negative control",
        not problems,
        "; ".join(problems) if problems else
        f"all variants rejected; completeness residual {verdict.completeness:.3f}",
    )


def criterion_9_self_similarity() -> CriterionResult:
    """One refinement step agrees with one mask factor, to rounding."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name in ("scale4", "scale4x2"):
        system = parse_spec(name).system
        ifs = build_ifs(system)
        freqs = [tuple(t) for t in rng.uniform(-8.0, 8.0, size=(20, system.dim))]
        masks = [mask(system, t) for t in freqs]
        pulled = np.array([system.pull(t) for t in freqs], dtype=float)
        previous = refine_measure(ifs, 0)
        for depth in range(1, 11):
            current = refine_measure(ifs, depth)
            rhs = integrate_exponentials(previous, pulled).tolist()
            lhs = integrate_exponentials(current, freqs).tolist()
            for a, factor, b in zip(lhs, masks, rhs):
                worst = max(worst, abs(a - factor * b))
            previous = current
    return CriterionResult(
        9, "refinement self-similarity identity",
        worst < 1e-12,
        f"worst residual {worst:.3e} over depths 1..10",
    )


def criterion_10_property_sweep() -> CriterionResult:
    """Hermitian symmetry, modulus bound, dual-invariance, involution, round trip."""
    system = _scale4().system
    problems = []
    prod = TransformSettings(product_depth=30)
    quad = TransformSettings(backend="quadrature", quadrature_depth=12)
    grid = np.linspace(-8.0, 8.0, 33)
    for settings, label in ((prod, "product"), (quad, "quadrature")):
        values = mu_hat_values(system, grid[:, None], settings).tolist()
        mirrors = mu_hat_values(system, -grid[:, None], settings).tolist()
        for t, value, mirrored in zip(grid, values, mirrors):
            if abs(mirrored - value.conjugate()) > 1e-14:
                problems.append(f"{label}: Hermitian symmetry fails at t={t}")
            if abs(value) > 1 + 1e-12:
                problems.append(f"{label}: |transform| exceeds 1 at t={t}")
    for u in range(-32, 33):
        gap = abs(mu_hat_value(system, system.push((u,)), prod)
                  - mu_hat_value(system, u, prod))
        if gap > 1e-9:
            problems.append(f"dual invariance fails at u={u}: {gap:.3e}")
    lattices = [
        system.K, system.A, system.Gamma,
        Lattice([[2, 1], [0, 1]]),
        Lattice([["1/3", "1/7"], ["2/5", "1"]]),
    ]
    for lat in lattices:
        if dual_lattice(dual_lattice(lat)).basis != lat.basis:
            problems.append(f"dual involution fails for {lat.basis}")
    for name in ("scale4", "scale4x2", "middlethird"):
        loaded = parse_spec(name, require_valid=False)
        document = document_from(loaded.system, loaded.omega, loaded.d_prime)
        again = parse_document(document)
        if again.system != loaded.system or (loaded.omega is not None
                                             and again.omega != loaded.omega):
            problems.append(f"round trip changed {name}")
    return CriterionResult(
        10, "property sweep",
        not problems,
        "; ".join(problems) if problems else
        "symmetry, bounds, invariance, involution, round trip all hold",
    )


CRITERIA = (
    criterion_1_sigma_reproduction,
    criterion_2_orthogonality_zeros,
    criterion_3_functional_equation,
    criterion_4_relations,
    criterion_5_state_values,
    criterion_6_tiling,
    criterion_7_separation,
    criterion_8_negative_control,
    criterion_9_self_similarity,
    criterion_10_property_sweep,
)


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]
