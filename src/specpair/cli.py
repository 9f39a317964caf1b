"""Command-line front end.

Subcommands: validate, pair, measure, transform, spectrum, cuntz, accept.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
Every output is deterministic given the flags and the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import acceptance, exact
from .errors import BudgetExceeded, ParseError, SpectralPairError
from .operators import (RELATION_TOLERANCE, relation_evaluations, relation_residuals,
                        state_eval)
from .pair import (
    difference_candidates, orthogonality_matrix, reduce_mod_lattice,
    spectrum_candidates, tiling_check, truncate_spectrum,
)
from .measure import build_ifs, refine_measure
from .specfile import builtin_names, parse_spec
from .spectrum import BESSEL_SLACK, completeness_table, enumerate_spectrum
from .tables import emit_table
from .transform import TransformSettings, check_product_depth, mu_hat_value, mu_hat_values

# transform grid points (transform), transform evaluations (cuntz), Gram
# cells plus transform terms (pair) or exported atoms (measure) one request
# may make, checked before anything is enumerated, refined or allocated
EVALUATION_BUDGET = 2**20


def _check_budget(evaluations: int, what: str) -> None:
    if evaluations > EVALUATION_BUDGET:
        raise BudgetExceeded(f"{what} exceed the budget {EVALUATION_BUDGET}")


def _check_writable(path: str | None) -> None:
    """Refuse, before any work, an --out path no file can be written at."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def _parse_vector(text: str, dim: int) -> exact.Vector:
    try:
        return exact.as_vector(text.split(","), dim)
    except ValueError as exc:
        raise ParseError(f"invalid vector {text!r}: {exc}") from exc


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"invalid grid {text!r}: {exc}") from exc
    if count < 1:
        raise ParseError("grid count must be positive")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError(f"grid bounds must be finite, got {text!r}")
    return lo, hi, count


def _emit(args, rows) -> None:
    text = emit_table(rows, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_validate(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    _emit_json(args, {"name": loaded.name, **loaded.report.as_dict()})
    return 0 if loaded.report.ok else 1


def cmd_pair(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    if loaded.omega is None or loaded.d_prime is None:
        raise ParseError(f"spec {loaded.name!r} carries no domain geometry")
    candidates = spectrum_candidates(loaded.system, args.box)
    differences = difference_candidates(loaded.system, args.box)
    # a Gram entry expands into 2^d exponential terms per box of omega, and
    # only distinct differences are transformed
    terms = len(loaded.omega.boxes) * 2**loaded.system.dim
    _check_budget(candidates**2 // 2 + differences * terms,
                  f"{candidates}^2/2 Gram entries and {differences} differences "
                  f"of {terms} terms")
    spectrum = truncate_spectrum(loaded.system, args.box)
    gram = orthogonality_matrix(loaded.omega, spectrum)
    off = gram - np.eye(len(spectrum))
    worst = float(np.abs(off).max())
    exact_zeros = int((off == 0).sum()) - len(spectrum)  # diagonal is exact
    try:
        omega_reduced = reduce_mod_lattice(loaded.omega, loaded.system.K)
    except ValueError as exc:
        raise ParseError(f"spec {loaded.name!r}: {exc}") from exc
    tiling = tiling_check(
        loaded.d_prime, loaded.system.Gamma, loaded.system.digits,
        omega_prime=omega_reduced, seed=args.seed,
    )
    orthogonal = exact_zeros == len(spectrum) * (len(spectrum) - 1)
    _emit_json(args, {
        "name": loaded.name,
        "spectrum_points": len(spectrum),
        "max_off_diagonal": worst,
        "off_diagonal_exact_zeros": exact_zeros,
        "orthogonal": orthogonal,
        "tiling": tiling.as_dict(),
    })
    return 0 if orthogonal and tiling.ok else 1


def cmd_measure(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    system, depth = loaded.system, args.quadrature_depth
    _check_budget(system.N**depth, f"{system.N}^{depth} atom rows")
    measure = refine_measure(build_ifs(system), depth)
    rows = [
        {**{f"x{i}": float(c) for i, c in enumerate(point)},
         "weight": measure.weight}
        for point in measure.points
    ]
    _emit(args, rows)
    return 0


def cmd_transform(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    system = loaded.system
    backends = ("product", "quadrature") if args.backend == "both" else (args.backend,)
    settings = [TransformSettings(args.product_depth, args.quadrature_depth, backend)
                for backend in backends]
    if args.s is not None:
        points = [_parse_vector(args.s, system.dim)]
        columns = [[mu_hat_value(system, points[0], s)] for s in settings]
    elif args.grid is not None:
        lo, hi, count = _parse_grid(args.grid)
        _check_budget(count**system.dim, f"{count}^{system.dim} grid points")
        axes = np.meshgrid(*[np.linspace(lo, hi, count)] * system.dim, indexing="ij")
        grid = np.stack(axes, axis=-1).reshape(-1, system.dim)  # last axis fastest
        # the quadrature column first: its batch is charged before any work
        columns = [mu_hat_values(system, grid, s).tolist() for s in settings[::-1]][::-1]
        points = grid.tolist()
    else:
        raise ParseError("transform needs --s or --grid")
    depth = args.quadrature_depth if args.backend == "quadrature" else args.product_depth
    rows = []
    for point, values in zip(points, zip(*columns)):
        z = values[0]
        row = {f"t{i}": float(c) for i, c in enumerate(point)}
        row.update(re=z.real, im=z.imag, abs=abs(z), backend=args.backend, depth=depth)
        if args.backend == "both":
            row["discrepancy"] = abs(values[0] - values[1])
        rows.append(row)
    _emit(args, rows)
    return 0


def cmd_spectrum(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    system = loaded.system
    check_product_depth(args.product_depth)
    if args.frequencies:
        enum = enumerate_spectrum(system, args.enum_depth)
        rows = [
            {"index": i,
             **{f"xi{j}": c for j, c in enumerate(enum.elements[i])},
             "word": "".join(str(w) for w in enum.word(i))}
            for i in range(len(enum))
        ]
        _emit(args, rows)
        return 0
    if args.s is None:
        raise ParseError("spectrum needs --s (or --frequencies)")
    s = _parse_vector(args.s, system.dim)
    rows = completeness_table(system, s, range(0, args.enum_depth + 1),
                              args.product_depth)
    _emit(args, [asdict(r) for r in rows])
    return 0 if all(r.sigma <= 1 + BESSEL_SLACK for r in rows) else 1


def cmd_cuntz(args) -> int:
    loaded = parse_spec(args.spec, require_valid=False)
    system = loaded.system
    evaluations = relation_evaluations(system.K_dual, args.box, system.freq_digits)
    _check_budget(evaluations, f"{evaluations} transform values")
    report = relation_residuals(system, args.box, args.product_depth)
    state_rows = []
    for index, digit in enumerate(system.freq_digits):
        value = state_eval(system, (digit,), (), args.product_depth)
        projected = state_eval(system, (digit,), (digit,), args.product_depth)
        state_rows.append({
            "digit_index": index,
            "digit": [exact.format_rational(c) for c in digit],
            "state_generator": [value.real, value.imag],
            "state_range_projection": [projected.real, projected.imag],
        })
    failures = list(report.failures())
    if not loaded.report.ok:
        failures.extend(
            f"validation: {c.name}" for c in loaded.report.failures()
        )
    _emit_json(args, {
        "name": loaded.name,
        "relations": report.as_dict(),
        "state": state_rows,
        "failures": failures,
        "tolerance": RELATION_TOLERANCE,
    })
    return 0 if not failures else 1


def cmd_accept(args) -> int:
    results = acceptance.run_all()
    for result in results:
        print(result.line())
    if args.out is not None:
        _emit_json(args, {
            "results": [asdict(r) for r in results],
            "passed": all(r.passed for r in results),
        })
    return 0 if all(r.passed for r in results) else 1


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specpair",
        description="Construct and verify lattice spectral pairs and their "
                    "induced self-similar measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--spec": dict(required=True,
                       help=f"path to a spec JSON file or one of {builtin_names()}"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--out": dict(default=None, help="write output to this path"),
        "--product-depth": dict(type=int, default=TransformSettings.product_depth),
        "--quadrature-depth": dict(type=_nonnegative,
                                   default=TransformSettings.quadrature_depth),
    }

    def add(name, func, help, *options):
        p = sub.add_parser(name, help=help)
        for option in options:
            p.add_argument(option, **shared[option])
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "structural validation report (JSON)",
        "--spec", "--out")

    p = add("pair", cmd_pair, "orthogonality and tiling checks (JSON)",
            "--spec", "--out")
    p.add_argument("--box", type=_nonnegative, default=8,
                   help="spectrum truncation radius")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed for tilings on non-rectangular lattices")

    add("measure", cmd_measure, "refine the invariant measure and export atoms",
        "--spec", "--format", "--out", "--quadrature-depth")

    p = add("transform", cmd_transform, "evaluate the measure transform on a grid",
            "--spec", "--format", "--out", "--product-depth", "--quadrature-depth")
    points = p.add_mutually_exclusive_group()
    points.add_argument("--grid", default=None, help="lo:hi:count per axis")
    points.add_argument("--s", default=None, help="single frequency, comma separated")
    p.add_argument("--backend", choices=("product", "quadrature", "both"),
                   default="product")

    p = add("spectrum", cmd_spectrum, "completeness table or frequency list",
            "--spec", "--format", "--out", "--product-depth")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--s", default=None, help="probe frequency, comma separated")
    p.add_argument("--enum-depth", type=_nonnegative, default=8)
    output.add_argument("--frequencies", action="store_true",
                        help="emit the enumerated frequencies instead of the table")

    p = add("cuntz", cmd_cuntz, "relation residuals and state table (JSON)",
            "--spec", "--out", "--product-depth")
    p.add_argument("--box", type=_nonnegative, default=32,
                   help="dual sample box radius")

    add("accept", cmd_accept, "run the full acceptance suite", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_writable(args.out)
        return args.func(args)
    except (ParseError, OSError) as exc:  # OSError: an unwritable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralPairError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
